"""Table 2 — LBP-2: Monte-Carlo and experimental completion times.

For the same five workloads as Table 1 the paper runs LBP-2 with the initial
gain selected by the *no-failure* model, estimating the mean completion time
by Monte-Carlo simulation (500 realisations) and by wireless-LAN experiments
(up to 60 realisations).  The paper's observation is that LBP-2 beats LBP-1
for every workload at the test-bed's small per-task delay.

This driver reproduces both columns: "MC" from the Monte-Carlo harness,
"experiment" from the test-bed emulation, with the initial gain coming from
:func:`repro.core.optimize.optimal_gain_lbp2_initial`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.reporting import format_table
from repro.analysis.tables import Table
from repro.core.optimize import optimal_gain_lbp2_initial
from repro.core.parameters import SystemParameters
from repro.core.policies.lbp2 import LBP2
from repro.experiments import common
from repro.montecarlo.engine import EngineRequest, mc_point_spec, run_engine
from repro.sim.rng import spawn_seeds
from repro.testbed.experiment import TestbedExperiment


@dataclass
class Table2Row:
    """One row of Table 2."""

    workload: Tuple[int, int]
    initial_gain: float
    monte_carlo: float
    experiment: float
    paper_gain: Optional[float] = None
    paper_mc: Optional[float] = None
    paper_experiment: Optional[float] = None


@dataclass
class Table2Result:
    """All rows of Table 2."""

    rows: List[Table2Row]

    def as_table(self) -> Table:
        table = Table(
            [
                "workload",
                "initial_gain",
                "monte_carlo",
                "experiment",
                "paper_gain",
                "paper_mc",
                "paper_experiment",
            ],
            title="Table 2 — LBP-2 with the no-failure-optimal initial gain",
        )
        for row in self.rows:
            table.add_row(
                {
                    "workload": f"({row.workload[0]},{row.workload[1]})",
                    "initial_gain": row.initial_gain,
                    "monte_carlo": row.monte_carlo,
                    "experiment": row.experiment,
                    "paper_gain": row.paper_gain if row.paper_gain is not None else float("nan"),
                    "paper_mc": row.paper_mc if row.paper_mc is not None else float("nan"),
                    "paper_experiment": row.paper_experiment
                    if row.paper_experiment is not None
                    else float("nan"),
                }
            )
        return table

    def render(self) -> str:
        return format_table(self.as_table(), float_format="{:.2f}")


def run(
    params: Optional[SystemParameters] = None,
    workloads: Sequence[Tuple[int, int]] = common.TABLE_WORKLOADS,
    mc_realisations: int = 300,
    experiment_realisations: int = common.PAPER_EXPERIMENT_REALISATIONS_LBP2,
    gains: Optional[Sequence[float]] = None,
    seed: int = 707,
) -> Table2Result:
    """Regenerate Table 2."""
    params = params if params is not None else common.default_parameters()
    gain_grid = np.asarray(gains if gains is not None else common.GAIN_GRID, dtype=float)
    seeds = spawn_seeds(seed, 2 * len(workloads))

    rows: List[Table2Row] = []
    for index, workload in enumerate(workloads):
        workload_t = (int(workload[0]), int(workload[1]))
        optimum = optimal_gain_lbp2_initial(params, workload_t, gains=gain_grid)
        policy = LBP2(optimum.optimal_gain)

        mc = run_engine(
            EngineRequest(
                spec=mc_point_spec(
                    params, policy, workload_t, mc_realisations, seeds[2 * index]
                )
            )
        ).estimate
        campaign = TestbedExperiment.run_many(
            params,
            policy,
            workload_t,
            num_realisations=experiment_realisations,
            seed=seeds[2 * index + 1],
        )

        reference = common.PAPER_TABLE2.get(workload_t, {})
        rows.append(
            Table2Row(
                workload=workload_t,
                initial_gain=optimum.optimal_gain,
                monte_carlo=mc.mean_completion_time,
                experiment=campaign.mean_completion_time,
                paper_gain=reference.get("gain"),
                paper_mc=reference.get("mc"),
                paper_experiment=reference.get("experiment"),
            )
        )
    return Table2Result(rows=rows)


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    print(run(mc_realisations=100, experiment_realisations=10).render())
