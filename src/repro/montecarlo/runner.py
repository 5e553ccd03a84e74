"""The Monte-Carlo estimate type and the per-block execution primitive.

:class:`MonteCarloEstimate` is built on the *mergeable* accumulators of
:mod:`repro.montecarlo.statistics`: its summary renders from an exact-sum
:class:`RunningStatistics` state, so estimates merged from shards are
bit-identical to estimates computed whole — the invariant the unified
engine (:mod:`repro.montecarlo.engine`) rests on.

:class:`MonteCarloRunner` is the ``reference`` backend's per-block loop:
it runs the event-driven simulator one realisation at a time for a
*single seed block*.  The engine calls it — through the ``reference``
backend — once per block; it is not an engine of its own.  Use it
directly only when you need per-realisation artefacts the aggregating
paths cannot keep (``keep_results``, traces, progress callbacks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from repro.cluster.system import DistributedSystem, SimulationResult
from repro.cluster.workload import Workload
from repro.core.parameters import SystemParameters
from repro.core.policies.base import LoadBalancingPolicy
from repro.montecarlo.statistics import (
    QuantileSketch,
    RunningStatistics,
    SummaryStatistics,
)
from repro.sim.rng import RandomStreams, SeedLike


@dataclass
class MonteCarloEstimate:
    """Aggregate of ``n`` independent realisations.

    The statistical state is a mergeable :class:`RunningStatistics`
    accumulator (exact Shewchuk sums), not a pre-rendered summary: the
    summary is derived on demand, so a merged estimate and a whole-sample
    estimate of the same data render ``==``-equal summaries (and equal
    percentiles — the sample arrays are bit-identical too).
    """

    policy_name: str
    workload: tuple
    completion_times: np.ndarray
    stats: RunningStatistics
    confidence_level: float = 0.95
    results: List[SimulationResult] = field(default_factory=list)

    @classmethod
    def from_sample(
        cls,
        policy_name: str,
        workload: Sequence[int],
        completion_times: Sequence[float],
        confidence_level: float = 0.95,
        results: Optional[List[SimulationResult]] = None,
    ) -> "MonteCarloEstimate":
        """Build an estimate (and its accumulator) from a completed sample."""
        times = np.asarray(completion_times, dtype=float)
        return cls(
            policy_name=policy_name,
            workload=tuple(workload),
            completion_times=times,
            stats=RunningStatistics.from_values(times),
            confidence_level=confidence_level,
            results=list(results) if results else [],
        )

    @property
    def summary(self) -> SummaryStatistics:
        """Mean, dispersion and Student-t confidence interval."""
        return self.stats.to_summary(self.confidence_level)

    @property
    def mean_completion_time(self) -> float:
        """Sample mean of the overall completion time."""
        return self.stats.mean

    @property
    def num_realisations(self) -> int:
        """Number of realisations aggregated."""
        return self.stats.n

    def percentile(self, q: float) -> float:
        """Percentile of the completion-time sample (``q`` in [0, 100])."""
        return float(np.percentile(self.completion_times, q))

    def quantile_sketch(self, bins: int = 128) -> QuantileSketch:
        """A mergeable quantile sketch of the sample.

        The bin range derives from the merged accumulator's exact min/max,
        so sketches built from the same merged sample are identical however
        the sample was partitioned during execution.
        """
        low, high = self.stats.minimum, self.stats.maximum
        if not high > low:
            high = low + 1.0
        sketch = QuantileSketch.with_range(low, high, bins)
        sketch.update_many(self.completion_times)
        return sketch


class MonteCarloRunner:
    """Runs independent realisations with carefully separated random streams.

    This is the engine's per-block primitive: realisation ``k`` uses the
    ``k``-th child stream spawned from ``seed``, so a block's sample
    depends only on its block seed, never on the executor running it.

    Parameters
    ----------
    params:
        System parameters.
    policy:
        The load-balancing policy under study.
    workload:
        Initial workload vector.
    seed:
        Root seed; realisation ``k`` uses the ``k``-th spawned child stream,
        so results are reproducible and independent of execution order.
    keep_results:
        Whether to retain every :class:`SimulationResult` (needed for traces
        and per-node statistics; switch off for very large runs).
    system_kwargs:
        Extra keyword arguments forwarded to :class:`DistributedSystem`
        (e.g. ``preemption="restart"`` or ``record_trace=True``).
    """

    def __init__(
        self,
        params: SystemParameters,
        policy: LoadBalancingPolicy,
        workload: Union[Workload, Sequence[int]],
        seed: SeedLike = None,
        keep_results: bool = False,
        **system_kwargs,
    ) -> None:
        self.params = params
        self.policy = policy
        self.workload = workload if isinstance(workload, Workload) else Workload(tuple(workload))
        self.root = RandomStreams(seed)
        self.keep_results = keep_results
        self.system_kwargs = system_kwargs

    def run_one(self, streams: RandomStreams, horizon: Optional[float] = None) -> SimulationResult:
        """Run a single realisation with the given stream collection."""
        system = DistributedSystem(
            self.params,
            self.policy,
            self.workload,
            streams=streams,
            **self.system_kwargs,
        )
        return system.run(horizon=horizon)

    def run(
        self,
        num_realisations: int,
        horizon: Optional[float] = None,
        confidence_level: float = 0.95,
        progress: Optional[Callable[[int, SimulationResult], None]] = None,
    ) -> MonteCarloEstimate:
        """Run ``num_realisations`` independent realisations and aggregate them."""
        if num_realisations < 1:
            raise ValueError(f"num_realisations must be >= 1, got {num_realisations!r}")

        children = self.root.spawn(num_realisations)
        completion_times = np.empty(num_realisations)
        kept: List[SimulationResult] = []
        for k, streams in enumerate(children):
            result = self.run_one(streams, horizon=horizon)
            completion_times[k] = result.completion_time
            if self.keep_results:
                kept.append(result)
            if progress is not None:
                progress(k, result)
        return MonteCarloEstimate.from_sample(
            policy_name=self.policy.name,
            workload=tuple(self.workload),
            completion_times=completion_times,
            confidence_level=confidence_level,
            results=kept,
        )
