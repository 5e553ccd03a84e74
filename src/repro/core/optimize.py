"""Optimal gain and sender/receiver selection.

LBP-1's free parameters are the gain ``K`` and the sender/receiver pair;
the paper selects them by minimising the model-predicted mean overall
completion time (Section 2.1.1, Fig. 3, Table 1).  LBP-2's initial gain is
selected the same way but under the *no-failure* model and with the
excess-load transfer rule of eqs. (6)–(7) (Table 2).

The optimisation itself is a one-dimensional search over a user-supplied
gain grid (the paper uses steps of 0.05), combined — when the caller does
not pin the pair — with an exhaustive comparison of the two possible
sender/receiver assignments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.completion_time import CompletionTimeSolver, lbp1_transfers
from repro.core.nofailure import no_failure_solver
from repro.core.parameters import SystemParameters, validate_workload
from repro.core.policies.base import Transfer
from repro.core.policies.excess import excess_loads, partition_fractions
from repro.core.policies.lbp1 import LBP1
from repro.core.policies.lbp2 import LBP2

__all__ = [
    "GainOptimizationResult",
    "default_gain_grid",
    "optimal_gain_lbp1",
    "optimal_gain_no_failure",
    "optimal_gain_lbp2_initial",
    "optimal_lbp1_policy",
    "optimal_lbp2_policy",
]


def default_gain_grid(step: float = 0.05) -> np.ndarray:
    """The gain grid used by the paper's sweeps: 0 to 1 in steps of ``step``."""
    if not 0 < step <= 1:
        raise ValueError(f"step must lie in (0, 1], got {step!r}")
    count = int(round(1.0 / step))
    return np.linspace(0.0, 1.0, count + 1)


@dataclass(frozen=True)
class GainOptimizationResult:
    """Outcome of a gain optimisation."""

    optimal_gain: float
    optimal_mean: float
    sender: int
    receiver: int
    gains: np.ndarray
    means: np.ndarray
    workload: Tuple[int, int]

    def __post_init__(self) -> None:
        gains = np.asarray(self.gains, dtype=float)
        means = np.asarray(self.means, dtype=float)
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "means", means)
        if gains.shape != means.shape:
            raise ValueError("gains and means must have matching shapes")

    @property
    def transfer_size(self) -> int:
        """Number of tasks the optimal configuration transfers at ``t = 0``."""
        return int(round(self.optimal_gain * self.workload[self.sender]))


def optimal_gain_lbp1(
    params: SystemParameters,
    workload: Sequence[int],
    gains: Optional[Sequence[float]] = None,
    sender: Optional[int] = None,
    receiver: Optional[int] = None,
    method: str = "vectorized",
    solver: Optional[CompletionTimeSolver] = None,
) -> GainOptimizationResult:
    """Minimise the model-predicted mean completion time of LBP-1.

    When ``sender``/``receiver`` are omitted, both assignments are evaluated
    and the better one is returned (this is how the paper determines that the
    more loaded node should send for every workload of Table 1).
    """
    loads = validate_workload(workload, params)
    grid = np.asarray(gains if gains is not None else default_gain_grid(), dtype=float)
    if grid.size == 0:
        raise ValueError("the gain grid must contain at least one value")
    if np.any((grid < 0) | (grid > 1)):
        raise ValueError("gains must lie in [0, 1]")
    solver = solver if solver is not None else CompletionTimeSolver(params, method=method)

    if sender is not None or receiver is not None:
        pairs = [(sender, receiver)]
    else:
        pairs = [(0, 1), (1, 0)]
    # Every pair's grid in one sweep over one no-transit table.
    transfers = [t for snd, rcv in pairs for t in lbp1_transfers(loads, grid, snd, rcv)]
    sweeps = solver.transfer_sweep(loads, transfers).reshape(len(pairs), grid.size)

    best: Optional[GainOptimizationResult] = None
    for (snd, rcv), means in zip(pairs, sweeps):
        idx = int(np.argmin(means))
        candidate = GainOptimizationResult(
            optimal_gain=float(grid[idx]),
            optimal_mean=float(means[idx]),
            sender=snd,
            receiver=rcv,
            gains=grid,
            means=means,
            workload=(loads[0], loads[1]),
        )
        if best is None or candidate.optimal_mean < best.optimal_mean:
            best = candidate
    assert best is not None
    return best


def optimal_gain_no_failure(
    params: SystemParameters,
    workload: Sequence[int],
    gains: Optional[Sequence[float]] = None,
    sender: Optional[int] = None,
    receiver: Optional[int] = None,
    method: str = "vectorized",
) -> GainOptimizationResult:
    """Optimal LBP-1 gain when failures are ignored (the Fig. 3 reference curve)."""
    return optimal_gain_lbp1(
        params.without_failures(),
        workload,
        gains=gains,
        sender=sender,
        receiver=receiver,
        method=method,
    )


def optimal_gain_lbp2_initial(
    params: SystemParameters,
    workload: Sequence[int],
    gains: Optional[Sequence[float]] = None,
    method: str = "vectorized",
) -> GainOptimizationResult:
    """Optimal gain of LBP-2's *initial* (failure-oblivious) balancing action.

    The transfer size follows the excess-load rule ``L = K p_ij L^excess_j``
    (eqs. (6)–(7)) and the objective is the mean completion time of the
    *no-failure* model, exactly as prescribed in Section 2.2.  Only two-node
    systems are supported (the multi-node initial action is evaluated by
    simulation in :mod:`repro.core.multinode`).
    """
    params.require_two_nodes()
    loads = validate_workload(workload, params)
    grid = np.asarray(gains if gains is not None else default_gain_grid(), dtype=float)
    if np.any((grid < 0) | (grid > 1)):
        raise ValueError("gains must lie in [0, 1]")

    excesses = excess_loads(loads, params)
    sender = int(np.argmax(excesses))
    receiver = 1 - sender
    excess = excesses[sender]
    fraction = partition_fractions(loads, params, sender)[receiver]

    transfers = [
        Transfer(sender, receiver, min(int(round(gain * fraction * excess)), loads[sender]))
        for gain in grid
    ]
    means_arr = no_failure_solver(params, method=method).transfer_sweep(loads, transfers)
    idx = int(np.argmin(means_arr))
    return GainOptimizationResult(
        optimal_gain=float(grid[idx]),
        optimal_mean=float(means_arr[idx]),
        sender=sender,
        receiver=receiver,
        gains=grid,
        means=means_arr,
        workload=(loads[0], loads[1]),
    )


def optimal_lbp1_policy(
    params: SystemParameters,
    workload: Sequence[int],
    gains: Optional[Sequence[float]] = None,
    method: str = "vectorized",
) -> Tuple[LBP1, GainOptimizationResult]:
    """A ready-to-run LBP-1 policy tuned for ``workload`` plus the search result."""
    result = optimal_gain_lbp1(params, workload, gains=gains, method=method)
    policy = LBP1(result.optimal_gain, sender=result.sender, receiver=result.receiver)
    return policy, result


def optimal_lbp2_policy(
    params: SystemParameters,
    workload: Sequence[int],
    gains: Optional[Sequence[float]] = None,
    method: str = "vectorized",
) -> Tuple[LBP2, GainOptimizationResult]:
    """A ready-to-run LBP-2 policy with its initial gain tuned for ``workload``."""
    result = optimal_gain_lbp2_initial(params, workload, gains=gains, method=method)
    policy = LBP2(result.optimal_gain)
    return policy, result
