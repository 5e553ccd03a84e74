"""Expected overall completion time of the two-node system (eq. (4)).

The quantity computed here is ``µ^{k1,k2}_{M1,M2}``: the expected time until
*every* task in the system — the ``M1`` and ``M2`` tasks held by the nodes
plus the batch of ``L`` tasks in transit — has been executed, given the
initial work state ``(k1, k2)``.  Following Section 2.1.1 of the paper, the
computation proceeds by regeneration (first-step) analysis:

1. a companion table ``µ̂`` for the system *without* anything in transit is
   filled by dynamic programming over the remaining loads (its ``(0, 0)``
   entry is 0: nothing left to do);
2. the main table is filled the same way, with an extra regeneration event —
   the batch arrival ``Z`` at rate ``λ_Z`` — whose successor state is read
   from ``µ̂`` at the post-arrival load.

For every load pair the (up to four) reachable work states form a small
linear system ``A µ = b`` (the matrix of eq. (4)); three interchangeable
solvers are provided:

* ``"reference"`` — a straightforward double loop, one small solve per load
  pair (easiest to audit against the equations in the paper);
* ``"vectorized"`` — the same recursion swept along anti-diagonals
  ``M1 + M2 = const``: a cell depends only on its two neighbours on the
  previous diagonal, so a whole diagonal is one batched
  :func:`numpy.linalg.solve` call.  A whole gain grid is one sweep: on each
  diagonal the cells of every gain's main table are stacked into one
  system, and only the previous diagonal of each table is kept;
* ``"ctmc"`` — an independent formulation that builds the full absorbing
  continuous-time Markov chain and solves one sparse linear system for the
  expected absorption time (used to cross-validate the recursion).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.parameters import SystemParameters, validate_workload
from repro.core.policies.base import Transfer
from repro.core.regeneration import (
    TwoNodeRates,
    batched_coupling_systems,
    exit_rate_components,
)
from repro.core.state import (
    WorkState,
    reachable_work_states,
    validate_work_state,
    work_state_rate_matrix,
)

__all__ = [
    "CompletionTimeSolver",
    "LBP1Prediction",
    "expected_completion_time",
    "expected_completion_time_lbp1",
    "lbp1_transfers",
]


@dataclass(frozen=True)
class LBP1Prediction:
    """Model prediction for one LBP-1 configuration."""

    mean: float
    gain: float
    sender: int
    receiver: int
    batch_size: int
    workload: Tuple[int, int]
    initial_state: Tuple[int, int]

    def __post_init__(self) -> None:
        if self.mean < 0:
            raise ValueError("mean completion time cannot be negative")


class CompletionTimeSolver:
    """Solver for the expected overall completion time of a two-node system.

    Parameters
    ----------
    params:
        Two-node system parameters.
    method:
        ``"vectorized"`` (default), ``"reference"`` or ``"ctmc"``.

    Notes
    -----
    The solver caches the no-transit table ``µ̂`` between calls (it depends
    only on the system parameters and the reachable work states) and sizes
    it once per call for every transfer that call evaluates.  With
    ``"vectorized"`` the main tables of all those transfers — one per gain of
    a sweep — are then filled in a single anti-diagonal sweep that keeps only
    the previous diagonal of each table.
    """

    METHODS = ("vectorized", "reference", "ctmc")

    def __init__(self, params: SystemParameters, method: str = "vectorized") -> None:
        params.require_two_nodes()
        if method not in self.METHODS:
            raise ValueError(f"method must be one of {self.METHODS}, got {method!r}")
        self.params = params
        self.method = method
        self._rates = TwoNodeRates.from_params(params)
        # hat-table cache: {reachable-states tuple: ndarray (n_states, R0+1, R1+1)}
        self._hat_cache: Dict[Tuple[WorkState, ...], np.ndarray] = {}

    # ------------------------------------------------------------------ API --

    def mean_completion_time(
        self,
        tasks: Sequence[int],
        in_transit: int = 0,
        destination: int = 1,
        initial_state: Sequence[int] = (1, 1),
        transit_rate: Optional[float] = None,
    ) -> float:
        """Expected completion time for loads ``tasks`` plus ``in_transit`` tasks.

        Parameters
        ----------
        tasks:
            ``(M0, M1)`` — tasks held by node 0 and node 1 at ``t = 0``
            (excluding the batch in transit).
        in_transit:
            Size ``L`` of the batch on the network at ``t = 0`` (0 for none).
        destination:
            Index of the node the batch is travelling to.
        initial_state:
            Work state ``(k0, k1)`` at ``t = 0`` (1 = up).
        transit_rate:
            Exponential rate of the batch-transfer delay; by default derived
            from the system's delay model and the batch size.
        """
        loads = validate_workload(tasks)
        if len(loads) != 2:
            raise ValueError(f"expected two load entries, got {len(loads)}")
        state = validate_work_state(initial_state, 2)
        if in_transit < 0:
            raise ValueError(f"in_transit must be >= 0, got {in_transit!r}")
        if destination not in (0, 1):
            raise IndexError("destination must be 0 or 1 for a two-node system")

        if self.method == "ctmc":
            return self._mean_via_ctmc(loads, in_transit, destination, state, transit_rate)

        states = reachable_work_states(state, self.params)
        means = self._solve_transfers(
            states, [(loads, in_transit, destination, transit_rate)]
        )
        return float(means[0, states.index(state)])

    def lbp1(
        self,
        workload: Sequence[int],
        gain: float,
        sender: Optional[int] = None,
        receiver: Optional[int] = None,
        initial_state: Sequence[int] = (1, 1),
    ) -> LBP1Prediction:
        """Model prediction of the mean completion time under LBP-1.

        ``L = round(gain * m_sender)`` tasks leave the sender at ``t = 0``
        and travel to the receiver with the system's load-dependent delay.
        """
        loads = validate_workload(workload, self.params)
        (transfer,) = lbp1_transfers(loads, [gain], sender, receiver)
        (mean,) = self.transfer_sweep(loads, [transfer], initial_state)
        return LBP1Prediction(
            mean=float(mean),
            gain=float(gain),
            sender=transfer.source,
            receiver=transfer.destination,
            batch_size=transfer.num_tasks,
            workload=(loads[0], loads[1]),
            initial_state=(int(initial_state[0]), int(initial_state[1])),
        )

    def gain_sweep(
        self,
        workload: Sequence[int],
        gains: Sequence[float],
        sender: Optional[int] = None,
        receiver: Optional[int] = None,
        initial_state: Sequence[int] = (1, 1),
    ) -> np.ndarray:
        """Mean completion time for every gain in ``gains`` (Fig. 3 curve)."""
        loads = validate_workload(workload, self.params)
        return self.transfer_sweep(
            loads, lbp1_transfers(loads, gains, sender, receiver), initial_state
        )

    def transfer_sweep(
        self,
        workload: Sequence[int],
        transfers: Sequence[Transfer],
        initial_state: Sequence[int] = (1, 1),
    ) -> np.ndarray:
        """Mean completion time of every one-shot transfer in ``transfers``.

        Each transfer moves ``num_tasks`` of its source's tasks in
        ``workload`` to its destination at ``t = 0``, with the system's
        load-dependent delay.  ``"vectorized"`` solves all of them in one
        anti-diagonal sweep; ``"reference"`` and ``"ctmc"`` solve them one by
        one.
        """
        loads = validate_workload(workload, self.params)
        items = []
        for transfer in transfers:
            sender, receiver = _resolve_pair(loads, transfer.source, transfer.destination)
            batch = transfer.num_tasks
            if batch > loads[sender]:
                raise ValueError(
                    f"node {sender} holds {loads[sender]} tasks, cannot send {batch}"
                )
            remaining = list(loads)
            remaining[sender] -= batch
            items.append((tuple(remaining), batch, receiver, None))
        if not items:
            return np.array([])
        if self.method == "ctmc":
            return np.array(
                [
                    self.mean_completion_time(tasks, batch, receiver, initial_state)
                    for tasks, batch, receiver, _ in items
                ]
            )
        state = validate_work_state(initial_state, 2)
        states = reachable_work_states(state, self.params)
        means = self._solve_transfers(states, items)
        return means[:, states.index(state)].copy()

    # ----------------------------------------------------------- internals --

    def _hat_table(
        self, states: Tuple[WorkState, ...], shape: Sequence[int]
    ) -> np.ndarray:
        """Return (and cache) the no-transit table covering at least ``shape``."""
        shape = (int(shape[0]), int(shape[1]))
        cached = self._hat_cache.get(states)
        if cached is not None and cached.shape[1] > shape[0] and cached.shape[2] > shape[1]:
            return cached
        target = shape
        if cached is not None:
            target = (
                max(shape[0], cached.shape[1] - 1),
                max(shape[1], cached.shape[2] - 1),
            )
        if self.method == "reference":
            table = self._solve_table_reference(
                states, target, transit_rate=0.0, hat_table=None, transit_add=(0, 0)
            )
        else:
            table = self._solve_hat_vectorized(states, target)
        self._hat_cache[states] = table
        return table

    def _solve_transfers(
        self,
        states: Tuple[WorkState, ...],
        transfers: Sequence[Tuple[Sequence[int], int, int, Optional[float]]],
    ) -> np.ndarray:
        """``µ`` in every work state for each ``(tasks, batch, destination, rate)``.

        ``tasks`` are the loads the nodes hold while ``batch`` tasks travel to
        ``destination`` at exponential rate ``rate`` (``None``: the system's
        delay model).  One no-transit table, sized once, covers every
        post-arrival load; transfers that share a main table solve it once.
        Returns shape ``(len(transfers), n_states)``.
        """
        adds = [
            (batch if destination == 0 else 0, batch if destination == 1 else 0)
            for _, batch, destination, _ in transfers
        ]
        posts = [
            (tasks[0] + add[0], tasks[1] + add[1])
            for (tasks, _, _, _), add in zip(transfers, adds)
        ]
        hat = self._hat_table(states, np.max(posts, axis=0))
        means = np.empty((len(transfers), len(states)))
        tables: Dict[Tuple[int, int, int, int, float], List[int]] = {}
        for row, ((tasks, batch, destination, rate), add, post) in enumerate(
            zip(transfers, adds, posts)
        ):
            if batch == 0:
                means[row] = hat[:, tasks[0], tasks[1]]
                continue
            if rate is None:
                rate = self.params.transfer_rate(1 - destination, destination, batch)
            if not np.isfinite(rate):
                # Instantaneous transfer: the batch is effectively already there.
                means[row] = hat[:, post[0], post[1]]
                continue
            key = (int(tasks[0]), int(tasks[1]), add[0], add[1], float(rate))
            tables.setdefault(key, []).append(row)
        if tables:
            if self.method == "reference":
                solved = [
                    self._solve_table_reference(
                        states, (r0, r1), rate, hat, (a0, a1)
                    )[:, r0, r1]
                    for r0, r1, a0, a1, rate in tables
                ]
            else:
                solved = self._solve_main_tables(states, list(tables), hat)
            for rows, value in zip(tables.values(), solved):
                means[rows] = value
        return means

    def _solve_hat_vectorized(
        self, states: Tuple[WorkState, ...], shape: Sequence[int]
    ) -> np.ndarray:
        """The no-transit table ``µ̂`` over loads up to ``shape``, diagonal by diagonal."""
        R0, R1 = int(shape[0]), int(shape[1])
        table = np.full((len(states), R0 + 1, R1 + 1), np.nan)
        base, svc0, svc1 = exit_rate_components(states, self._rates, 0.0)
        rate_matrix = work_state_rate_matrix(states, self.params)
        table[:, 0, 0] = 0.0  # absorbing: nothing left to execute
        # prev[r0 + 1] holds µ̂ at (r0, d - 1 - r0), as in _solve_main_tables;
        # its zero start is diagonal 0, the absorbing cell.
        prev = np.zeros((R0 + 2, len(states)))

        for diag in range(1, R0 + R1 + 1):
            r0 = np.arange(max(0, diag - R1), min(diag, R0) + 1)
            r1 = diag - r0
            ind0 = (r0 > 0).astype(float)[:, None]  # (cells, 1)
            ind1 = (r1 > 0).astype(float)[:, None]
            lam = base + ind0 * svc0 + ind1 * svc1
            matrices = batched_coupling_systems(rate_matrix, lam)
            rhs = (
                1.0 / lam
                + (svc0 * ind0 / lam) * prev[r0]
                + (svc1 * ind1 / lam) * prev[r0 + 1]
            )
            prev[r0 + 1] = np.linalg.solve(matrices, rhs[:, :, None])[:, :, 0]
            table[:, r0, r1] = prev[r0 + 1].T
        return table

    def _solve_main_tables(
        self,
        states: Tuple[WorkState, ...],
        tables: Sequence[Tuple[int, int, int, int, float]],
        hat: np.ndarray,
    ) -> np.ndarray:
        """``µ`` at the top cell of every main table, all in one sweep.

        Table ``(R0, R1, a0, a1, rate)`` covers the loads ``r0 <= R0``,
        ``r1 <= R1`` while a batch travels at ``rate``; on arrival the system
        moves to cell ``(r0 + a0, r1 + a1)`` of the no-transit table ``hat``.
        On each anti-diagonal the cells of every table form one stacked
        system.  A cell needs only its two neighbours on the previous
        diagonal, so that diagonal is all that is kept.  Every cell's
        arithmetic is the per-table recursion's, and the stacked systems are
        solved independently, so each result is exactly the one-table value.
        Returns shape ``(len(tables), n_states)``.
        """
        spec = np.array([table[:4] for table in tables], dtype=int)
        shape, add = spec[:, :2], spec[:, 2:]
        rate = np.array([table[4] for table in tables])
        # Per-table exit rates, summed in exit_rate_components' order.
        base = np.array([exit_rate_components(states, self._rates, r)[0] for r in rate])
        _, svc0, svc1 = exit_rate_components(states, self._rates, 0.0)
        rate_matrix = work_state_rate_matrix(states, self.params)
        hat_cells = np.moveaxis(hat, 0, -1)  # (H0+1, H1+1, n_states)
        columns = np.arange(shape[:, 0].max() + 1)
        # prev[g, r0 + 1] holds table g's µ at (r0, d - 1 - r0); prev[g, 0]
        # stays 0 as the missing left neighbour of the r0 = 0 cells, and the
        # column a new r1 = 0 cell reads has never been written.
        prev = np.zeros((len(tables), columns.size + 1, len(states)))

        for diag in range(int(shape.sum(axis=1).max()) + 1):
            lo = np.maximum(diag - shape[:, 1], 0)
            hi = np.minimum(shape[:, 0], diag)
            g, r0 = np.nonzero((columns >= lo[:, None]) & (columns <= hi[:, None]))
            r1 = diag - r0
            ind0 = (r0 > 0).astype(float)[:, None]  # (cells, 1)
            ind1 = (r1 > 0).astype(float)[:, None]
            lam = base[g] + ind0 * svc0 + ind1 * svc1
            matrices = batched_coupling_systems(rate_matrix, lam)
            rhs = (
                1.0 / lam
                + (svc0 * ind0 / lam) * prev[g, r0]
                + (svc1 * ind1 / lam) * prev[g, r0 + 1]
                + (rate[g][:, None] / lam) * hat_cells[r0 + add[g, 0], r1 + add[g, 1]]
            )
            prev[g, r0 + 1] = np.linalg.solve(matrices, rhs[:, :, None])[:, :, 0]
        return prev[np.arange(len(tables)), shape[:, 0] + 1]

    def _solve_table_reference(
        self,
        states: Tuple[WorkState, ...],
        shape: Sequence[int],
        transit_rate: float,
        hat_table: Optional[np.ndarray],
        transit_add: Tuple[int, int],
    ) -> np.ndarray:
        n_states = len(states)
        R0, R1 = int(shape[0]), int(shape[1])
        table = np.full((n_states, R0 + 1, R1 + 1), np.nan)
        base, svc0, svc1 = exit_rate_components(states, self._rates, transit_rate)
        rate_matrix = work_state_rate_matrix(states, self.params)
        identity = np.eye(n_states)
        is_hat = hat_table is None

        for r0 in range(R0 + 1):
            for r1 in range(R1 + 1):
                if is_hat and r0 == 0 and r1 == 0:
                    table[:, 0, 0] = 0.0
                    continue
                lam = base + (r0 > 0) * svc0 + (r1 > 0) * svc1
                if np.any(lam <= 0):
                    raise ValueError(
                        "a non-absorbing configuration has no outgoing events; "
                        "the workload cannot complete under these parameters"
                    )
                rhs = 1.0 / lam
                if r0 > 0:
                    rhs = rhs + svc0 / lam * table[:, r0 - 1, r1]
                if r1 > 0:
                    rhs = rhs + svc1 / lam * table[:, r0, r1 - 1]
                if not is_hat and transit_rate > 0:
                    rhs = rhs + transit_rate / lam * hat_table[
                        :, r0 + transit_add[0], r1 + transit_add[1]
                    ]
                matrix = identity - rate_matrix / lam[:, None]
                table[:, r0, r1] = np.linalg.solve(matrix, rhs)
        return table

    def _mean_via_ctmc(
        self,
        loads: Tuple[int, int],
        in_transit: int,
        destination: int,
        state: WorkState,
        transit_rate: Optional[float],
    ) -> float:
        from repro.core.ctmc import build_two_node_lbp1_chain

        chain, start = build_two_node_lbp1_chain(
            self.params,
            tasks=loads,
            in_transit=in_transit,
            destination=destination,
            initial_state=state,
            transit_rate=transit_rate,
        )
        return float(chain.expected_absorption_time(start))


# ------------------------------------------------------------- module API --


def _resolve_pair(
    loads: Sequence[int], sender: Optional[int], receiver: Optional[int]
) -> Tuple[int, int]:
    if (sender is None) != (receiver is None):
        raise ValueError("sender and receiver must be given together or not at all")
    if sender is None:
        sender = 1 if loads[1] > loads[0] else 0
        receiver = 1 - sender
        return sender, receiver
    if sender == receiver:
        raise ValueError("sender and receiver must differ")
    if sender not in (0, 1) or receiver not in (0, 1):
        raise IndexError("node indices must be 0 or 1 for a two-node system")
    return sender, receiver


def lbp1_transfers(
    loads: Sequence[int],
    gains: Sequence[float],
    sender: Optional[int] = None,
    receiver: Optional[int] = None,
) -> List[Transfer]:
    """LBP-1's transfer of ``L = round(K m_sender)`` tasks for every gain ``K``.

    Without a sender/receiver pair, the more loaded node sends.
    """
    for gain in gains:
        if not 0.0 <= gain <= 1.0:
            raise ValueError(f"gain must lie in [0, 1], got {gain!r}")
    sender, receiver = _resolve_pair(loads, sender, receiver)
    return [
        Transfer(sender, receiver, min(int(round(gain * loads[sender])), loads[sender]))
        for gain in gains
    ]


def expected_completion_time(
    params: SystemParameters,
    tasks: Sequence[int],
    in_transit: int = 0,
    destination: int = 1,
    initial_state: Sequence[int] = (1, 1),
    method: str = "vectorized",
) -> float:
    """Functional wrapper around :class:`CompletionTimeSolver.mean_completion_time`."""
    solver = CompletionTimeSolver(params, method=method)
    return solver.mean_completion_time(
        tasks, in_transit=in_transit, destination=destination, initial_state=initial_state
    )


def expected_completion_time_lbp1(
    params: SystemParameters,
    workload: Sequence[int],
    gain: float,
    sender: Optional[int] = None,
    receiver: Optional[int] = None,
    initial_state: Sequence[int] = (1, 1),
    method: str = "vectorized",
) -> float:
    """Mean overall completion time predicted for LBP-1 with gain ``gain``."""
    solver = CompletionTimeSolver(params, method=method)
    return solver.lbp1(
        workload, gain, sender=sender, receiver=receiver, initial_state=initial_state
    ).mean
