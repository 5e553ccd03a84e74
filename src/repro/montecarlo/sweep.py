"""Parameter sweeps: delay studies (Table 3) and policy comparisons.

The delay sweep pairs each Monte-Carlo estimate with LBP-1's analytical
prediction, mirroring the paper's practice of reporting theory and
simulation side by side.  (Fig. 3's gain sweep lives in its experiment
driver, :mod:`repro.experiments.fig3_gain_sweep`.)

Every sweep point runs through the unified engine
(:mod:`repro.montecarlo.engine`), so sweeps inherit its properties for
free: results are bit-identical across serial/pooled/sharded execution,
and a :class:`~repro.distributed.store.ShardStore` passed via ``store``
gives sweep points block-level caching (an interrupted sweep resumes, a
re-run with more realisations computes only the delta).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.cluster.workload import Workload
from repro.core.parameters import SystemParameters
from repro.core.policies.base import LoadBalancingPolicy
from repro.core.policies.lbp1 import LBP1
from repro.core.policies.lbp2 import LBP2
from repro.montecarlo.engine import EngineRequest, mc_point_spec, run_engine
from repro.montecarlo.runner import MonteCarloEstimate
from repro.sim.rng import SeedLike


@dataclass
class DelaySweepResult:
    """LBP-1 vs LBP-2 across per-task transfer delays (Table 3)."""

    delays: np.ndarray
    lbp1_means: np.ndarray
    lbp2_means: np.ndarray
    lbp1_theory: Optional[np.ndarray] = None
    workload: tuple = ()

    @property
    def crossover_delay(self) -> Optional[float]:
        """Smallest swept delay at which LBP-1 beats LBP-2 (``None`` if never)."""
        better = np.flatnonzero(self.lbp1_means < self.lbp2_means)
        if better.size == 0:
            return None
        return float(self.delays[better[0]])

    def as_rows(self) -> List[dict]:
        """One dictionary per delay value (for table rendering)."""
        rows = []
        for idx, delay in enumerate(self.delays):
            row = {
                "delay_per_task": float(delay),
                "lbp1": float(self.lbp1_means[idx]),
                "lbp2": float(self.lbp2_means[idx]),
            }
            if self.lbp1_theory is not None:
                row["lbp1_theory"] = float(self.lbp1_theory[idx])
            rows.append(row)
        return rows


def delay_sweep(
    params: SystemParameters,
    workload: Union[Workload, Sequence[int]],
    delays_per_task: Sequence[float],
    lbp1_gain_grid: Optional[Sequence[float]] = None,
    lbp2_gain: Optional[float] = None,
    num_realisations: int = 200,
    seed: SeedLike = 0,
    workers: Optional[int] = None,
    executor=None,
    store=None,
    refresh: bool = False,
) -> DelaySweepResult:
    """Reproduce the Table 3 comparison: optimal LBP-1 vs LBP-2 across delays.

    For each per-task delay the LBP-1 gain is re-optimised with the
    failure-aware analytical model and the LBP-2 *initial* gain is
    re-optimised with the no-failure model (exactly the recipe the paper
    describes for each policy); both policies' means are then estimated by
    Monte-Carlo, and LBP-1's model prediction is reported alongside.
    Passing an explicit ``lbp2_gain`` pins LBP-2's initial gain instead of
    re-optimising it.

    ``workers``/``executor`` parallelise the Monte-Carlo estimates with
    bit-identical results.  The executor is resolved once for the whole
    sweep (``workers > 1`` picks the process-wide warm pool) and never shut
    down here.
    """
    from repro.core.optimize import (
        default_gain_grid,
        optimal_gain_lbp1,
        optimal_gain_lbp2_initial,
    )
    from repro.distributed.executors import resolve_executor
    from repro.sim.rng import spawn_seeds

    workload_t = tuple(workload)
    delays = np.asarray(delays_per_task, dtype=float)
    gain_grid = (
        np.asarray(lbp1_gain_grid, dtype=float)
        if lbp1_gain_grid is not None
        else default_gain_grid()
    )

    lbp1_theory = np.empty_like(delays)
    lbp1_mc = np.empty_like(delays)
    lbp2_mc = np.empty_like(delays)
    per_delay_seeds = spawn_seeds(seed, 2 * len(delays))
    shared = resolve_executor(executor, workers=workers)

    def estimate(point_params, policy, point_seed) -> float:
        return run_engine(
            EngineRequest(
                spec=mc_point_spec(
                    point_params, policy, workload_t, num_realisations, point_seed
                ),
                executor=shared,
                workers=workers,
                store=store,
                refresh=refresh,
            )
        ).estimate.mean_completion_time

    for idx, delay in enumerate(delays):
        scaled = params.with_delay_per_task(float(delay))
        optimum = optimal_gain_lbp1(scaled, workload_t, gains=gain_grid)
        lbp1_theory[idx] = optimum.optimal_mean

        lbp1_policy = LBP1(
            optimum.optimal_gain, sender=optimum.sender, receiver=optimum.receiver
        )
        lbp1_mc[idx] = estimate(scaled, lbp1_policy, per_delay_seeds[2 * idx])

        if lbp2_gain is None:
            initial_gain = optimal_gain_lbp2_initial(
                scaled, workload_t, gains=gain_grid
            ).optimal_gain
        else:
            initial_gain = float(lbp2_gain)
        lbp2_policy = LBP2(initial_gain)
        lbp2_mc[idx] = estimate(scaled, lbp2_policy, per_delay_seeds[2 * idx + 1])

    return DelaySweepResult(
        delays=delays,
        lbp1_means=lbp1_mc,
        lbp2_means=lbp2_mc,
        lbp1_theory=lbp1_theory,
        workload=workload_t,
    )


def compare_policies(
    params: SystemParameters,
    workload: Union[Workload, Sequence[int]],
    policies: Sequence[LoadBalancingPolicy],
    num_realisations: int = 200,
    seed: SeedLike = 0,
) -> Dict[str, MonteCarloEstimate]:
    """Monte-Carlo comparison of several built-in policies on the same
    workload.

    All policies see the same master seed (``seed=None`` draws one fresh
    seed for all of them), hence the same block seed streams (common
    random numbers), which sharpens the comparison between them.  When
    two policies share a name (e.g. two LBP-1 instances with different
    gains) the later ones get a ``#k`` suffix in the result dictionary.
    """
    workload_t = tuple(workload)
    if seed is None:
        seed = np.random.SeedSequence()
    estimates: Dict[str, MonteCarloEstimate] = {}
    for index, policy in enumerate(policies):
        key = policy.name
        if key in estimates:
            key = f"{policy.name}#{index}"
        estimates[key] = run_engine(
            EngineRequest(
                spec=mc_point_spec(
                    params, policy, workload_t, num_realisations, seed
                )
            )
        ).estimate
    return estimates
