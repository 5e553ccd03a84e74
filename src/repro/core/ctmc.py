"""Absorbing continuous-time Markov chains (CTMCs).

The regeneration recursion of :mod:`repro.core.completion_time` is the
paper's own route to the expected completion time.  An equivalent — and
independently implemented — route is to write the whole system as an
absorbing CTMC over states

``(k0, k1, r0, r1, z)``

(work state, remaining tasks at each node, batch-in-transit flag) and to

* solve one sparse linear system for the expected absorption time
  (cross-validates eq. (4)), and
* compute the transient distribution of the chain, whose absorbing-state
  mass is exactly the completion-time CDF of eq. (5).

The :class:`AbsorbingCTMC` class is generic (it is reused by the n-node
extension in :mod:`repro.core.multinode`); the two-node LBP-1 chain is built
by :func:`build_two_node_lbp1_chain`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import expm_multiply, spsolve
from scipy.special import gammaln, xlogy

from repro.core.parameters import SystemParameters
from repro.core.state import validate_work_state

#: Poisson terms the uniformization series adds to its result at a time.
_TERM_BLOCK = 256

__all__ = [
    "AbsorbingCTMC",
    "CTMCBuildResult",
    "build_chain",
    "build_two_node_lbp1_chain",
]

State = Hashable
SuccessorFn = Callable[[State], Iterable[Tuple[State, float]]]
AbsorbingFn = Callable[[State], bool]


def _poisson_pmf(k: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Poisson probabilities ``P(N = k)`` for means ``mu`` (broadcast).

    The expression ``scipy.stats.poisson.pmf`` evaluates, bit for bit,
    without importing ``scipy.stats``.
    """
    return np.exp(xlogy(k, mu) - gammaln(k + 1) - mu)


class AbsorbingCTMC:
    """A finite CTMC with at least one absorbing state.

    Parameters
    ----------
    generator:
        The (sparse) generator matrix ``Q``; rows sum to zero, off-diagonal
        entries are transition rates.
    absorbing:
        Boolean mask marking absorbing states.
    states:
        Optional list of state labels (for debugging and reporting).
    """

    def __init__(
        self,
        generator: sparse.spmatrix,
        absorbing: np.ndarray,
        states: Optional[List[State]] = None,
    ) -> None:
        generator = sparse.csr_matrix(generator)
        if generator.shape[0] != generator.shape[1]:
            raise ValueError("the generator must be square")
        absorbing = np.asarray(absorbing, dtype=bool)
        if absorbing.shape != (generator.shape[0],):
            raise ValueError("absorbing mask length must match the generator size")
        if not absorbing.any():
            raise ValueError("an absorbing CTMC needs at least one absorbing state")
        row_sums = np.abs(np.asarray(generator.sum(axis=1)).ravel())
        if np.any(row_sums > 1e-8 * max(1.0, abs(generator).max())):
            raise ValueError("generator rows must sum to zero")
        self.generator = generator
        self.absorbing = absorbing
        self.states = states

    # -- basic facts -------------------------------------------------------------

    @property
    def num_states(self) -> int:
        """Number of states of the chain."""
        return self.generator.shape[0]

    @property
    def num_transient(self) -> int:
        """Number of transient (non-absorbing) states."""
        return int((~self.absorbing).sum())

    def uniformization_rate(self) -> float:
        """The uniformization constant ``Λ = max_s |Q_ss|``."""
        return float(np.abs(self.generator.diagonal()).max())

    # -- expected absorption time ---------------------------------------------------

    def expected_absorption_time(self, start: int) -> float:
        """Expected time to absorption starting from state index ``start``.

        Solves ``(-Q_TT) t = 1`` over the transient states ``T``.
        """
        if not 0 <= start < self.num_states:
            raise IndexError(f"start index {start} out of range")
        if self.absorbing[start]:
            return 0.0
        transient = np.flatnonzero(~self.absorbing)
        q_tt = self.generator[transient][:, transient].tocsc()
        ones = np.ones(len(transient))
        times = spsolve(-q_tt, ones)
        position = int(np.searchsorted(transient, start))
        return float(times[position])

    def expected_absorption_times(self) -> np.ndarray:
        """Expected absorption time from every state (0 for absorbing states)."""
        transient = np.flatnonzero(~self.absorbing)
        result = np.zeros(self.num_states)
        if transient.size:
            q_tt = self.generator[transient][:, transient].tocsc()
            result[transient] = spsolve(-q_tt, np.ones(len(transient)))
        return result

    # -- transient analysis -------------------------------------------------------------

    def transient_distribution(
        self,
        start: int,
        times: Sequence[float],
        method: str = "uniformization",
        tolerance: float = 1e-10,
    ) -> np.ndarray:
        """State distribution ``π(t)`` for every ``t`` in ``times``.

        Parameters
        ----------
        start:
            Index of the initial state (probability 1 at ``t = 0``).
        times:
            Non-negative evaluation times.
        method:
            ``"uniformization"`` (default), ``"expm"``
            (:func:`scipy.sparse.linalg.expm_multiply`) or ``"ode"``
            (:func:`scipy.integrate.solve_ivp` on the Kolmogorov forward
            equations).
        tolerance:
            Truncation tolerance of the uniformization series.
        """
        times_arr = np.asarray(times, dtype=float)
        if np.any(times_arr < 0):
            raise ValueError("times must be non-negative")
        if not 0 <= start < self.num_states:
            raise IndexError(f"start index {start} out of range")
        if method == "uniformization":
            return self._transient_uniformization(start, times_arr, tolerance)
        if method == "expm":
            return self._transient_expm(start, times_arr)
        if method == "ode":
            return self._transient_ode(start, times_arr)
        raise ValueError(f"unknown method {method!r}")

    def absorption_cdf(
        self,
        start: int,
        times: Sequence[float],
        method: str = "uniformization",
        tolerance: float = 1e-10,
    ) -> np.ndarray:
        """``P(T_absorb <= t)`` for every ``t`` — the completion-time CDF."""
        distribution = self.transient_distribution(
            start, times, method=method, tolerance=tolerance
        )
        return distribution[:, self.absorbing].sum(axis=1)

    # -- internals ----------------------------------------------------------------------

    def _transient_uniformization(
        self, start: int, times: np.ndarray, tolerance: float
    ) -> np.ndarray:
        rate = self.uniformization_rate()
        n = self.num_states
        if rate == 0.0:
            result = np.zeros((len(times), n))
            result[:, start] = 1.0
            return result
        # Jump matrix of the uniformized discrete-time chain.
        jump = sparse.identity(n, format="csr") + self.generator / rate

        t_max = float(times.max(initial=0.0))
        horizon = rate * t_max
        # Series length: cover the Poisson bulk plus a wide safety margin.
        n_terms = int(np.ceil(horizon + 10.0 * np.sqrt(horizon + 1.0) + 20.0))

        # Successive term vectors are stacked into blocks, and each block
        # joins the (times x states) result in one matrix product instead
        # of one dense outer-product update per term.  A block's Poisson
        # weights are computed when it starts, so the (times x terms)
        # weight matrix is never held whole.
        step = sparse.csr_matrix(jump.T)
        mean_jumps = rate * times[:, None]
        result = np.zeros((len(times), n))
        block = np.empty((min(_TERM_BLOCK, n_terms + 1), n))
        vector = np.zeros(n)
        vector[start] = 1.0
        remaining = np.ones(len(times))
        for first in range(0, n_terms + 1, len(block)):
            terms = np.arange(first, min(first + len(block), n_terms + 1))
            weights = _poisson_pmf(terms[None, :], mean_jumps)
            for used in range(1, len(terms) + 1):
                block[used - 1] = vector
                remaining -= weights[:, used - 1]
                converged = bool(np.all(remaining < tolerance))
                if converged:
                    break
                vector = step.dot(vector)
            result += weights[:, :used] @ block[:used]
            if converged:
                break
        # Renormalise the truncated series (the missing mass is <= tolerance
        # for every evaluation time unless the loop exhausted n_terms).
        totals = result.sum(axis=1, keepdims=True)
        totals[totals == 0.0] = 1.0
        return result / totals

    def _transient_expm(self, start: int, times: np.ndarray) -> np.ndarray:
        # Step the propagator from each distinct sorted time to the next:
        # every step integrates only its own interval instead of restarting
        # the whole horizon from t = 0.
        unique, inverse = np.unique(times, return_inverse=True)
        transposed = sparse.csc_matrix(self.generator.T)
        vector = np.zeros(self.num_states)
        vector[start] = 1.0
        states = np.empty((len(unique), self.num_states))
        previous = 0.0
        for i, t in enumerate(unique):
            if t > previous:
                vector = expm_multiply(transposed * (t - previous), vector)
                previous = t
            states[i] = vector
        return states[inverse.reshape(-1)]

    def _transient_ode(self, start: int, times: np.ndarray) -> np.ndarray:
        from scipy.integrate import solve_ivp

        vector = np.zeros(self.num_states)
        vector[start] = 1.0
        unique, inverse = np.unique(times, return_inverse=True)
        if not len(unique) or unique[-1] == 0.0:
            return np.tile(vector, (len(times), 1))

        # The forward equation p' = Q^T p is linear and stiff, with a
        # constant sparse Jacobian Q^T: an implicit (BDF) solve that is
        # handed that Jacobian factors it instead of estimating it.
        transposed = sparse.csc_matrix(self.generator.T)
        solution = solve_ivp(
            lambda _t, p: transposed.dot(p),
            t_span=(0.0, float(unique[-1])),
            y0=vector,
            t_eval=unique,
            method="BDF",
            jac=transposed,
            rtol=1e-8,
            atol=1e-10,
        )
        if not solution.success:
            raise RuntimeError(f"transient ODE solve failed: {solution.message}")
        return solution.y.T[inverse.reshape(-1)]


@dataclass
class CTMCBuildResult:
    """Result of a state-space exploration: the chain plus the start index."""

    chain: AbsorbingCTMC
    start_index: int
    state_index: Dict[State, int]

    def __iter__(self):
        # Allow ``chain, start = build_...`` unpacking.
        yield self.chain
        yield self.start_index


def build_chain(
    start: State, successors: SuccessorFn, is_absorbing: AbsorbingFn
) -> CTMCBuildResult:
    """Breadth-first exploration of the reachable state space.

    Parameters
    ----------
    start:
        Initial state.
    successors:
        Function mapping a state to an iterable of ``(next_state, rate)``
        pairs; it is never called on absorbing states.
    is_absorbing:
        Predicate marking absorbing states.
    """
    index: Dict[State, int] = {start: 0}
    order: List[State] = [start]
    rows: List[int] = []
    cols: List[int] = []
    rates: List[float] = []

    frontier = [start]
    while frontier:
        state = frontier.pop()
        i = index[state]
        if is_absorbing(state):
            continue
        total = 0.0
        for nxt, rate in successors(state):
            if rate <= 0:
                continue
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
                frontier.append(nxt)
            j = index[nxt]
            rows.append(i)
            cols.append(j)
            rates.append(float(rate))
            total += float(rate)
        if total <= 0.0:
            raise ValueError(
                f"non-absorbing state {state!r} has no outgoing transitions; "
                "the workload cannot complete under these parameters"
            )
        rows.append(i)
        cols.append(i)
        rates.append(-total)

    n = len(order)
    generator = sparse.coo_matrix((rates, (rows, cols)), shape=(n, n)).tocsr()
    absorbing = np.array([is_absorbing(state) for state in order], dtype=bool)
    chain = AbsorbingCTMC(generator, absorbing, states=order)
    return CTMCBuildResult(chain=chain, start_index=0, state_index=index)


def build_two_node_lbp1_chain(
    params: SystemParameters,
    tasks: Sequence[int],
    in_transit: int = 0,
    destination: int = 1,
    initial_state: Sequence[int] = (1, 1),
    transit_rate: Optional[float] = None,
) -> CTMCBuildResult:
    """The absorbing CTMC of the two-node system under LBP-1.

    States are ``(k0, k1, r0, r1, z)`` with ``z = 1`` while the initial batch
    of ``in_transit`` tasks is still on the network.  Absorption corresponds
    to ``r0 = r1 = 0`` and ``z = 0``: every task has been executed.
    """
    params.require_two_nodes()
    k0, k1 = validate_work_state(initial_state, 2)
    m0, m1 = int(tasks[0]), int(tasks[1])
    if m0 < 0 or m1 < 0:
        raise ValueError("task counts must be non-negative")
    batch = int(in_transit)
    if batch < 0:
        raise ValueError("in_transit must be >= 0")
    if destination not in (0, 1):
        raise IndexError("destination must be 0 or 1")

    if batch > 0:
        if transit_rate is None:
            transit_rate = params.transfer_rate(1 - destination, destination, batch)
        if not np.isfinite(transit_rate):
            # Instantaneous arrival: fold the batch into the destination load.
            if destination == 0:
                m0 += batch
            else:
                m1 += batch
            batch = 0
    lam_d = params.service_rates
    lam_f = params.failure_rates
    lam_r = params.recovery_rates

    def successors(state):
        s0, s1, r0, r1, z = state
        moves = []
        if s0 == 1 and r0 > 0:
            moves.append(((s0, s1, r0 - 1, r1, z), lam_d[0]))
        if s1 == 1 and r1 > 0:
            moves.append(((s0, s1, r0, r1 - 1, z), lam_d[1]))
        if s0 == 1 and lam_f[0] > 0:
            moves.append(((0, s1, r0, r1, z), lam_f[0]))
        if s1 == 1 and lam_f[1] > 0:
            moves.append(((s0, 0, r0, r1, z), lam_f[1]))
        if s0 == 0 and lam_r[0] > 0:
            moves.append(((1, s1, r0, r1, z), lam_r[0]))
        if s1 == 0 and lam_r[1] > 0:
            moves.append(((s0, 1, r0, r1, z), lam_r[1]))
        if z == 1:
            arrived = (
                (s0, s1, r0 + batch, r1, 0)
                if destination == 0
                else (s0, s1, r0, r1 + batch, 0)
            )
            moves.append((arrived, transit_rate))
        return moves

    def is_absorbing(state):
        _s0, _s1, r0, r1, z = state
        return r0 == 0 and r1 == 0 and z == 0

    start_state = (k0, k1, m0, m1, 1 if batch > 0 else 0)
    return build_chain(start_state, successors, is_absorbing)
