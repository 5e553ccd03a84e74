"""Shared machinery for the regeneration-theory difference equations (eq. (4)).

Section 2.1.1 of the paper derives, by conditioning on the first
*regeneration event* (a task completion ``W_i``, a failure ``X_i``, a
recovery ``Y_i`` or the arrival ``Z`` of the in-transit batch), a family of
difference equations for the expected overall completion time
``µ^{k1,k2}_{M1,M2}``.  For a fixed remaining-load pair ``(M1, M2)`` the four
work states couple only through failure/recovery transitions, which leads to
the ``µ = A^{-1} b`` structure of eq. (4): a small linear system per load
pair whose right-hand side involves already-computed entries with smaller
loads (task completions) and the companion "no-transit" table ``µ̂``
(batch arrival).

This module provides the pieces shared by the reference and the vectorised
solvers in :mod:`repro.core.completion_time`:

* the per-load-pair coupling matrix ``A`` (through
  :func:`coupling_system`), and
* the description of the regeneration events leaving a given work state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.core.parameters import SystemParameters
from repro.core.state import WorkState, work_state_rate_matrix


@dataclass(frozen=True)
class TwoNodeRates:
    """The exponential rates of a two-node system, unpacked for the solvers."""

    service: Tuple[float, float]
    failure: Tuple[float, float]
    recovery: Tuple[float, float]

    @classmethod
    def from_params(cls, params: SystemParameters) -> "TwoNodeRates":
        params.require_two_nodes()
        return cls(
            service=params.service_rates,
            failure=params.failure_rates,
            recovery=params.recovery_rates,
        )


def exit_rate_components(
    states: Sequence[WorkState], rates: TwoNodeRates, transit_rate: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decompose the total exit rate of each work state.

    Returns ``(base, service0, service1)`` where, for work state ``s``,

    * ``base[s]`` is the part of the exit rate that does not depend on the
      remaining loads: failure rates of up nodes, recovery rates of down
      nodes and the batch-transfer rate ``λ_Z`` (0 when nothing is in
      transit);
    * ``service0[s]``/``service1[s]`` are the service rates contributed by
      node 0 / node 1 *provided* that node is up and still holds at least one
      task (the caller multiplies by the corresponding indicator).

    The total exit rate of work state ``s`` at load ``(r0, r1)`` is then
    ``base[s] + service0[s]·1{r0>0} + service1[s]·1{r1>0}`` — the λ_A ... λ_D
    constants of eq. (4) correspond to the four work states at loads where
    both indicators are 1.
    """
    if transit_rate < 0:
        raise ValueError(f"transit_rate must be >= 0, got {transit_rate!r}")
    base = np.zeros(len(states))
    service0 = np.zeros(len(states))
    service1 = np.zeros(len(states))
    for idx, (k0, k1) in enumerate(states):
        total = transit_rate
        if k0 == 1:
            total += rates.failure[0]
            service0[idx] = rates.service[0]
        else:
            total += rates.recovery[0]
        if k1 == 1:
            total += rates.failure[1]
            service1[idx] = rates.service[1]
        else:
            total += rates.recovery[1]
        base[idx] = total
    return base, service0, service1


def coupling_system(
    states: Sequence[WorkState],
    params: SystemParameters,
    exit_rates: np.ndarray,
) -> np.ndarray:
    """The matrix ``A`` of eq. (4) for one remaining-load pair.

    ``A = I - diag(1/λ_s) F`` where ``F`` is the failure/recovery rate matrix
    between the work states and ``λ_s`` the total exit rate of state ``s`` at
    the load pair under consideration.  The right-hand side ``b`` (task
    completions, batch arrival, the ``1/λ_s`` increment) is assembled by the
    caller because it involves previously computed table entries.
    """
    exit_rates = np.asarray(exit_rates, dtype=float)
    if np.any(exit_rates <= 0):
        raise ValueError(
            "every non-absorbing state must have a positive exit rate; "
            "the workload cannot complete under these parameters"
        )
    rate_matrix = work_state_rate_matrix(states, params)
    return np.eye(len(states)) - rate_matrix / exit_rates[:, None]


def batched_coupling_systems(
    rate_matrix: np.ndarray,
    exit_rates: np.ndarray,
) -> np.ndarray:
    """Stack of coupling matrices for a batch of load pairs.

    ``rate_matrix`` is the failure/recovery matrix ``F`` of
    :func:`repro.core.state.work_state_rate_matrix` (built once per table by
    the caller); ``exit_rates`` has shape ``(n_cells, n_states)``.  The
    result has shape ``(n_cells, n_states, n_states)`` and can be fed to
    :func:`numpy.linalg.solve` in one call.
    """
    n_states = rate_matrix.shape[0]
    exit_rates = np.asarray(exit_rates, dtype=float)
    if exit_rates.ndim != 2 or exit_rates.shape[1] != n_states:
        raise ValueError(
            f"exit_rates must have shape (n_cells, {n_states}), "
            f"got {exit_rates.shape}"
        )
    if np.any(exit_rates <= 0):
        raise ValueError(
            "every non-absorbing state must have a positive exit rate; "
            "the workload cannot complete under these parameters"
        )
    identity = np.eye(n_states)
    return identity[None, :, :] - rate_matrix[None, :, :] / exit_rates[:, :, None]
