"""The reference backend: the event-driven simulator, unchanged semantics.

This backend wraps the per-block execution primitive —
:class:`~repro.montecarlo.runner.MonteCarloRunner` — behind the
:class:`~repro.backends.base.ExecutionBackend` protocol.  It supports the
full feature set of the model (every policy, every delay law, traces,
per-realisation results) and is the ground truth the vectorized kernel is
validated against.

Parallelism is not this backend's concern: the unified engine
(:mod:`repro.montecarlo.engine`) plans ensembles into seed blocks and
fans the blocks out over executors; each ``run_batch`` call executes one
block in-process.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.backends.base import ExecutionBackend, register_backend
from repro.cluster.workload import Workload
from repro.core.parameters import SystemParameters
from repro.core.policies.base import LoadBalancingPolicy
from repro.montecarlo.runner import MonteCarloEstimate, MonteCarloRunner
from repro.sim.rng import SeedLike


class ReferenceBackend(ExecutionBackend):
    """Event-driven execution, one realisation at a time, in-process."""

    name = "reference"

    def run_batch(
        self,
        params: SystemParameters,
        policy: LoadBalancingPolicy,
        workload: Union[Workload, Sequence[int]],
        num_realisations: int,
        seed: SeedLike = None,
        horizon: Optional[float] = None,
        confidence_level: float = 0.95,
        **system_kwargs,
    ) -> MonteCarloEstimate:
        runner = MonteCarloRunner(
            params, policy, workload, seed=seed, **system_kwargs
        )
        return runner.run(
            num_realisations,
            horizon=horizon,
            confidence_level=confidence_level,
        )


register_backend(ReferenceBackend())
