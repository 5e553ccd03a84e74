"""Fig. 5 — CDF of the overall completion time under LBP-1.

The paper evaluates eq. (5) for two initial workloads, (50, 0) and (25, 50),
with and without node failure, using the gain that minimises the mean
completion time and a per-task delay of 0.02 s.  This driver computes the
same four CDFs from the absorbing-CTMC formulation (and can cross-check them
against Monte-Carlo empirical CDFs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.reporting import format_table
from repro.analysis.tables import Table
from repro.core.distribution import CompletionTimeCDF, completion_time_cdf_lbp1
from repro.core.optimize import optimal_gain_lbp1
from repro.core.parameters import SystemParameters
from repro.core.policies.lbp1 import LBP1
from repro.experiments import common
from repro.montecarlo.engine import EngineRequest, mc_point_spec, run_engine
from repro.montecarlo.statistics import evaluate_empirical_cdf


@dataclass
class Fig5Panel:
    """One panel of Fig. 5: CDFs for a single initial workload."""

    workload: Tuple[int, int]
    gain: float
    times: np.ndarray
    cdf_failure: CompletionTimeCDF
    cdf_no_failure: CompletionTimeCDF
    empirical_failure: Optional[np.ndarray] = None

    def as_table(self) -> Table:
        """The panel's series as a table with one row per grid time."""
        columns = ["time", "cdf_failure", "cdf_no_failure"]
        if self.empirical_failure is not None:
            columns.append("empirical_failure")
        table = Table(
            columns,
            title=f"Fig. 5 — completion-time CDF, workload {self.workload}, K={self.gain:.2f}",
        )
        for i, t in enumerate(self.times):
            row = {
                "time": float(t),
                "cdf_failure": float(self.cdf_failure.probabilities[i]),
                "cdf_no_failure": float(self.cdf_no_failure.probabilities[i]),
            }
            if self.empirical_failure is not None:
                row["empirical_failure"] = float(self.empirical_failure[i])
            table.add_row(row)
        return table


@dataclass
class Fig5Result:
    """Both panels of Fig. 5."""

    panels: Dict[Tuple[int, int], Fig5Panel]

    def render(self) -> str:
        """Plain-text rendering of both panels plus headline quantiles."""
        lines = []
        for workload, panel in self.panels.items():
            lines.append(format_table(panel.as_table(), float_format="{:.3f}"))
            lines.append(
                f"  median (failure):    {panel.cdf_failure.quantile(0.5):.1f} s"
            )
            lines.append(
                f"  median (no failure): {panel.cdf_no_failure.quantile(0.5):.1f} s"
            )
            lines.append("")
        return "\n".join(lines)


def run(
    params: Optional[SystemParameters] = None,
    workloads: Sequence[Tuple[int, int]] = common.CDF_WORKLOADS,
    times: Optional[Sequence[float]] = None,
    method: str = "uniformization",
    with_monte_carlo: bool = False,
    mc_realisations: int = 300,
    seed: int = 505,
) -> Fig5Result:
    """Regenerate both panels of Fig. 5."""
    params = params if params is not None else common.default_parameters()
    grid = np.asarray(times if times is not None else np.linspace(0.0, 250.0, 126))
    no_failure = params.without_failures()

    panels: Dict[Tuple[int, int], Fig5Panel] = {}
    for workload in workloads:
        workload_t = (int(workload[0]), int(workload[1]))
        optimum = optimal_gain_lbp1(params, workload_t)
        gain = optimum.optimal_gain

        cdf_failure = completion_time_cdf_lbp1(
            params,
            workload_t,
            gain,
            grid,
            sender=optimum.sender,
            receiver=optimum.receiver,
            method=method,
        )
        cdf_no_failure = completion_time_cdf_lbp1(
            no_failure,
            workload_t,
            gain,
            grid,
            sender=optimum.sender,
            receiver=optimum.receiver,
            method=method,
        )

        empirical = None
        if with_monte_carlo:
            policy = LBP1(gain, sender=optimum.sender, receiver=optimum.receiver)
            estimate = run_engine(
                EngineRequest(
                    spec=mc_point_spec(
                        params, policy, workload_t, mc_realisations, seed
                    )
                )
            ).estimate
            empirical = evaluate_empirical_cdf(estimate.completion_times, grid)

        panels[workload_t] = Fig5Panel(
            workload=workload_t,
            gain=gain,
            times=grid,
            cdf_failure=cdf_failure,
            cdf_no_failure=cdf_no_failure,
            empirical_failure=empirical,
        )
    return Fig5Result(panels=panels)


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    print(run().render())
