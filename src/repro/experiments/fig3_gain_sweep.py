"""Fig. 3 — mean overall completion time vs. LB gain ``K`` under LBP-1.

The paper plots four curves for the (100, 60) workload: the theoretical
prediction with node failure, the Monte-Carlo estimate, the wireless-LAN
experiment, and the theoretical no-failure reference.  The minima fall at
``K = 0.35`` (failure) and ``K = 0.45`` (no failure), with a minimum mean
completion time of about 117 s.

This driver regenerates all four series: theory and no-failure theory from
the regeneration model, "simulation" from the Monte-Carlo harness, and
"experiment" from the test-bed emulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.analysis.reporting import format_table
from repro.analysis.tables import Table
from repro.core.completion_time import CompletionTimeSolver
from repro.core.parameters import SystemParameters
from repro.core.policies.lbp1 import LBP1
from repro.experiments import common
from repro.montecarlo.engine import EngineRequest, mc_point_spec, run_engine
from repro.sim.rng import spawn_seeds
from repro.testbed.experiment import TestbedExperiment


@dataclass
class Fig3Result:
    """All four curves of Fig. 3 on a common gain grid."""

    gains: np.ndarray
    theory: np.ndarray
    theory_no_failure: np.ndarray
    monte_carlo: np.ndarray
    experiment: np.ndarray
    workload: tuple

    @property
    def optimal_gain_theory(self) -> float:
        """Gain minimising the failure-aware theoretical curve."""
        return float(self.gains[int(np.argmin(self.theory))])

    @property
    def optimal_gain_no_failure(self) -> float:
        """Gain minimising the no-failure theoretical curve."""
        return float(self.gains[int(np.argmin(self.theory_no_failure))])

    @property
    def minimum_mean_completion_time(self) -> float:
        """Minimum of the failure-aware theoretical curve."""
        return float(self.theory.min())

    def as_table(self) -> Table:
        """The four series as one table with a row per gain value."""
        table = Table(
            ["gain", "theory", "monte_carlo", "experiment", "theory_no_failure"],
            title=f"Fig. 3 — mean completion time vs gain K, workload {self.workload}",
        )
        for i, gain in enumerate(self.gains):
            table.add_row(
                {
                    "gain": float(gain),
                    "theory": float(self.theory[i]),
                    "monte_carlo": float(self.monte_carlo[i]),
                    "experiment": float(self.experiment[i]),
                    "theory_no_failure": float(self.theory_no_failure[i]),
                }
            )
        return table

    def render(self) -> str:
        """Plain-text rendering of the figure's series and headline numbers."""
        lines = [format_table(self.as_table(), float_format="{:.2f}"), ""]
        lines.append(f"optimal gain (theory, failure):    {self.optimal_gain_theory:.2f}")
        lines.append(f"optimal gain (theory, no failure): {self.optimal_gain_no_failure:.2f}")
        lines.append(
            f"minimum mean completion time:      {self.minimum_mean_completion_time:.2f} s"
        )
        return "\n".join(lines)


def run(
    params: Optional[SystemParameters] = None,
    workload: Sequence[int] = common.PRIMARY_WORKLOAD,
    gains: Optional[Sequence[float]] = None,
    mc_realisations: int = 200,
    experiment_realisations: int = 20,
    seed: int = 303,
    sender: int = 0,
    receiver: int = 1,
    workers: Optional[int] = None,
    executor=None,
    store=None,
    refresh: bool = False,
) -> Fig3Result:
    """Regenerate the four curves of Fig. 3.

    The Monte-Carlo column runs through the unified engine:
    ``workers``/``executor`` parallelise it over processes (results are
    bit-identical to the serial path — block seeding is
    executor-independent), an external ``executor`` is reused as-is and
    never shut down here, and a shard ``store`` gives each gain point
    block-level caching and resume.
    """
    params = params if params is not None else common.default_parameters()
    gain_grid = np.asarray(gains if gains is not None else common.GAIN_GRID, dtype=float)
    workload_t = tuple(int(m) for m in workload)

    solver = CompletionTimeSolver(params)
    theory = solver.gain_sweep(workload_t, gain_grid, sender=sender, receiver=receiver)

    nf_solver = CompletionTimeSolver(params.without_failures())
    theory_nf = nf_solver.gain_sweep(
        workload_t, gain_grid, sender=sender, receiver=receiver
    )

    mc = np.empty_like(gain_grid)
    exp = np.empty_like(gain_grid)
    seeds = spawn_seeds(seed, 2 * len(gain_grid))
    for i, gain in enumerate(gain_grid):
        policy = LBP1(float(gain), sender=sender, receiver=receiver)
        mc[i] = run_engine(
            EngineRequest(
                spec=mc_point_spec(
                    params, policy, workload_t, mc_realisations, seeds[2 * i]
                ),
                workers=workers,
                executor=executor,
                store=store,
                refresh=refresh,
            )
        ).estimate.mean_completion_time
        exp[i] = TestbedExperiment.run_many(
            params,
            policy,
            workload_t,
            num_realisations=experiment_realisations,
            seed=seeds[2 * i + 1],
        ).mean_completion_time

    return Fig3Result(
        gains=gain_grid,
        theory=theory,
        theory_no_failure=theory_nf,
        monte_carlo=mc,
        experiment=exp,
        workload=workload_t,
    )


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    print(run(mc_realisations=100, experiment_realisations=10).render())
