"""The interconnect: load-dependent, random transfer delays.

The paper (Section 2 and Fig. 2) models the delay of moving a batch of ``L``
tasks between two nodes as a random variable whose mean grows linearly with
``L`` (≈ 0.02 s per task on the wireless test-bed) and whose law is well
approximated by an exponential.  :func:`sample_batch_delay` draws that delay
under three laws:

* ``"exponential"`` — one exponential draw for the whole batch with mean
  ``overhead + d·L`` (the assumption under which the regeneration analysis
  is exact);
* ``"erlang"`` — the sum of ``L`` independent per-task exponential delays
  (same mean, lower variance; closer to the measured per-task histogram);
* ``"deterministic"`` — a fixed delay of ``overhead + d·L`` (the classical
  deterministic-delay assumption the paper argues against).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.parameters import TransferDelayModel


@dataclass
class TransferRecord:
    """Book-keeping entry for one batch transfer."""

    source: int
    destination: int
    num_tasks: int
    started_at: float
    delay: float
    arrived_at: Optional[float] = None
    reason: str = "initial"

    @property
    def in_flight(self) -> bool:
        """Whether the batch is still on the network."""
        return self.arrived_at is None


def sample_batch_delay(
    model: TransferDelayModel, num_tasks: int, rng: np.random.Generator
) -> float:
    """Draw one batch-transfer delay according to ``model``.

    The mean is ``model.mean_delay(num_tasks)`` for every ``kind``; only the
    variability differs.
    """
    if num_tasks < 0:
        raise ValueError(f"num_tasks must be >= 0, got {num_tasks!r}")
    if num_tasks == 0:
        return 0.0
    mean = model.mean_delay(num_tasks)
    if mean == 0.0:
        return 0.0
    if model.kind == "deterministic":
        return mean
    if model.kind == "erlang":
        # Sum of num_tasks iid exponentials, each with the per-task mean,
        # plus the deterministic overhead.
        variable = rng.gamma(num_tasks, model.mean_delay_per_task)
        return float(model.fixed_overhead + variable)
    # "exponential": a single draw for the whole batch.
    return float(rng.exponential(mean))
