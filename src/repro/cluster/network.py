"""The interconnect: load-dependent, random transfer delays.

The paper (Section 2 and Fig. 2) models the delay of moving a batch of ``L``
tasks between two nodes as a random variable whose mean grows linearly with
``L`` (≈ 0.02 s per task on the wireless test-bed) and whose law is well
approximated by an exponential.  :class:`Network` implements that model and
two alternatives:

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
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.cluster.task import Task
from repro.core.parameters import SystemParameters, TransferDelayModel
from repro.sim.engine import Environment


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


class Network:
    """Moves batches of tasks between nodes with random, load-dependent delay.

    Parameters
    ----------
    env:
        Simulation environment.
    params:
        System parameters (provide the per-link delay models).
    rng:
        Random stream for transfer delays.
    deliver:
        Callback ``f(destination_index, tasks)`` that hands a delivered batch
        to the receiving node.
    """

    def __init__(
        self,
        env: Environment,
        params: SystemParameters,
        rng: np.random.Generator,
        deliver: Callable[[int, List[Task]], None],
    ) -> None:
        self.env = env
        self.params = params
        self.rng = rng
        self._deliver = deliver

        self.records: List[TransferRecord] = []
        self._in_transit_tasks = 0

    # -- public interface -------------------------------------------------------

    @property
    def tasks_in_transit(self) -> int:
        """Number of tasks currently on the network."""
        return self._in_transit_tasks

    @property
    def total_transferred(self) -> int:
        """Total number of tasks ever put on the network."""
        return sum(record.num_tasks for record in self.records)

    def sample_delay(self, source: int, destination: int, num_tasks: int) -> float:
        """Draw a transfer delay for a batch of ``num_tasks`` tasks."""
        model = self.params.delay_model(source, destination)
        return sample_batch_delay(model, num_tasks, self.rng)

    def transfer(
        self,
        source: int,
        destination: int,
        tasks: Sequence[Task],
        reason: str = "initial",
    ) -> Optional[TransferRecord]:
        """Put ``tasks`` on the network from ``source`` towards ``destination``.

        Returns the :class:`TransferRecord`, or ``None`` for an empty batch.
        """
        batch = list(tasks)
        if not batch:
            return None
        if source == destination:
            raise ValueError("source and destination must differ")

        for task in batch:
            task.mark_in_transit()

        delay = self.sample_delay(source, destination, len(batch))
        record = TransferRecord(
            source=source,
            destination=destination,
            num_tasks=len(batch),
            started_at=self.env.now,
            delay=delay,
            reason=reason,
        )
        self.records.append(record)
        self._in_transit_tasks += len(batch)

        self.env.process(
            self._deliver_after_delay(record, batch),
            name=f"transfer-{source}->{destination}",
        )
        return record

    # -- internal -----------------------------------------------------------------

    def _deliver_after_delay(self, record: TransferRecord, batch: List[Task]):
        yield self.env.timeout(record.delay)
        record.arrived_at = self.env.now
        self._in_transit_tasks -= record.num_tasks
        self._deliver(record.destination, batch)


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
