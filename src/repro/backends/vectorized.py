"""Vectorized batch Monte-Carlo: all realisations advance simultaneously.

The model of the paper — exponential service, exponential up/down
alternation, exponential (or Erlang) batch-transfer delays, unit tasks —
is a continuous-time Markov chain, so N independent realisations can be
sampled *exactly* with a batched Gillespie (stochastic simulation)
algorithm: one NumPy step advances every still-running realisation by one
event, drawing the holding time and the event category from array-level
exponential/uniform samples instead of walking a per-event Python loop.

Per realisation the state is only a handful of small integers (queue
lengths, node up/down flags, in-flight transfer batches), so the whole
batch lives in ``[N, …]`` arrays and a step costs a few dozen vector
operations regardless of N.  The per-event Python overhead of the
reference simulator — heap scheduling, generator resumption, callbacks —
is amortised over the entire batch, which is where the order-of-magnitude
throughput gain on ``mc-scaling``-style workloads comes from.

Semantics are matched to :mod:`repro.cluster` event by event:

* a node serves one task at a time at rate ``λ_d`` while up and non-empty;
  preemption is memoryless (``resume`` and ``restart`` coincide in law);
* failures/recoveries alternate at rates ``λ_f``/``λ_r``;
* at a failure instant the task in service stays with the node (its
  context is held by the backup system), so compensation transfers can
  draw on at most ``queue - 1`` tasks — the same capping the reference
  :class:`~repro.cluster.system.DistributedSystem` applies;
* each in-flight batch of ``L`` tasks is an independent exponential clock
  with mean ``overhead + d·L`` (or an ``L``-stage Erlang chain);
* the completion time is the instant of the last task completion.

Configurations outside the CTMC (deterministic delays, Erlang delays with
a fixed overhead, traced runs, policies with bespoke failure/recovery
reactions) raise :class:`BackendUnsupportedError` up front; the reference
backend remains the fallback for those.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backends.base import (
    BackendUnsupportedError,
    ExecutionBackend,
    register_backend,
)
from repro.cluster.system import IncompleteSimulationError
from repro.cluster.workload import Workload
from repro.core.parameters import (
    SystemParameters,
    TransferDelayModel,
    validate_workload,
)
from repro.core.policies.base import LoadBalancingPolicy
from repro.core.policies.baselines import SendAllOnFailure
from repro.core.policies.lbp2 import LBP2, compensation_transfer_sizes
from repro.montecarlo.runner import MonteCarloEstimate
from repro.sim.rng import SeedLike

#: ``system_kwargs`` the kernel understands; anything else is rejected.
_KNOWN_SYSTEM_KWARGS = frozenset({"preemption", "record_trace"})


def _check_delay_model(model: TransferDelayModel) -> None:
    """Reject delay laws the CTMC kernel cannot express."""
    if model.kind == "deterministic":
        raise BackendUnsupportedError(
            "the vectorized backend cannot sample deterministic transfer "
            "delays (not memoryless); use backend='reference'"
        )
    if model.kind == "erlang" and model.fixed_overhead > 0:
        raise BackendUnsupportedError(
            "the vectorized backend supports Erlang transfer delays only "
            "without a fixed overhead; use backend='reference'"
        )


def _slot_timing(
    model: TransferDelayModel, num_tasks: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-batch ``(stages, stage_rate)`` for batches of ``num_tasks`` tasks.

    An exponential batch delay is one stage at rate ``1 / (overhead + d·L)``;
    an Erlang delay is ``L`` stages at the per-task rate ``1 / d``.  A zero
    mean (instantaneous link) is signalled with ``stage_rate = inf``.
    """
    num_tasks = np.asarray(num_tasks, dtype=np.int64)
    if model.kind == "erlang":
        stages = num_tasks.copy()
        if model.mean_delay_per_task == 0.0:
            rate = np.full(num_tasks.shape, np.inf)
        else:
            rate = np.full(num_tasks.shape, 1.0 / model.mean_delay_per_task)
        return stages, rate
    # "exponential": a single stage for the whole batch.
    mean = model.fixed_overhead + model.mean_delay_per_task * num_tasks
    rate = np.where(mean > 0.0, 1.0 / np.where(mean > 0.0, mean, 1.0), np.inf)
    return np.ones(num_tasks.shape, dtype=np.int64), rate


class _BatchKernel:
    """State arrays and the step loop of one vectorized batch run."""

    def __init__(
        self,
        params: SystemParameters,
        policy: LoadBalancingPolicy,
        counts: Tuple[int, ...],
        num_realisations: int,
        rng: np.random.Generator,
        horizon: Optional[float],
    ) -> None:
        self.params = params
        self.policy = policy
        self.rng = rng
        self.horizon = horizon
        self.n = params.num_nodes
        self.N = num_realisations

        n, N = self.n, self.N
        self.service_rates = np.asarray(params.service_rates, dtype=float)
        self.failure_rates = np.asarray(params.failure_rates, dtype=float)
        self.recovery_rates = np.asarray(params.recovery_rates, dtype=float)

        # The initial policy action is a pure function of the (deterministic)
        # workload, so it is computed once via the real policy object and
        # applied identically to every realisation.
        remaining = list(counts)
        initial_batches: List[Tuple[int, int, int]] = []
        for transfer in policy.initial_transfers(counts, params):
            num = min(transfer.num_tasks, remaining[transfer.source])
            if num <= 0:
                continue
            remaining[transfer.source] -= num
            initial_batches.append((transfer.source, transfer.destination, num))

        self.queue = np.tile(np.asarray(remaining, dtype=np.int64), (N, 1))
        self.up = np.tile(
            np.asarray([node.initially_up for node in params.nodes], dtype=bool),
            (N, 1),
        )
        self.outstanding = np.full(N, int(sum(counts)), dtype=np.int64)
        self.now = np.zeros(N)
        self.completion = np.zeros(N)
        self.done = self.outstanding == 0

        # In-flight transfer slots, git-style grow-on-demand columns.
        self.S = max(4, len(initial_batches) + 2)
        self.slot_rate = np.zeros((N, self.S))
        self.slot_stages = np.zeros((N, self.S), dtype=np.int64)
        self.slot_tasks = np.zeros((N, self.S), dtype=np.int64)
        self.slot_dest = np.zeros((N, self.S), dtype=np.int64)

        all_rows = np.arange(N)
        for source, dest, num in initial_batches:
            self._open_slots(
                all_rows,
                source,
                dest,
                np.full(N, num, dtype=np.int64),
            )

        self._on_failure = _failure_handler(policy, params)

    # -- transfer slots ----------------------------------------------------

    def _grow_slots(self) -> None:
        extra = self.S
        pad_f = np.zeros((self.N, extra))
        pad_i = np.zeros((self.N, extra), dtype=np.int64)
        self.slot_rate = np.concatenate([self.slot_rate, pad_f], axis=1)
        self.slot_stages = np.concatenate([self.slot_stages, pad_i], axis=1)
        self.slot_tasks = np.concatenate([self.slot_tasks, pad_i], axis=1)
        self.slot_dest = np.concatenate([self.slot_dest, pad_i], axis=1)
        self.S += extra

    def _open_slots(
        self, rows: np.ndarray, source: int, dest: int, num_tasks: np.ndarray
    ) -> None:
        """Put a batch of ``num_tasks[r]`` tasks on the wire for each row.

        Rows with a zero batch are skipped; instantaneous links (zero mean
        delay) deliver immediately, mirroring a zero-delay timeout.
        """
        live = num_tasks > 0
        rows, num_tasks = rows[live], num_tasks[live]
        if rows.size == 0:
            return
        model = self.params.delay_model(source, dest)
        stages, rate = _slot_timing(model, num_tasks)

        instant = ~np.isfinite(rate)
        if instant.any():
            self.queue[rows[instant], dest] += num_tasks[instant]
            rows, num_tasks = rows[~instant], num_tasks[~instant]
            stages, rate = stages[~instant], rate[~instant]
            if rows.size == 0:
                return

        free = self.slot_stages[rows] == 0
        while not free.any(axis=1).all():
            self._grow_slots()
            free = self.slot_stages[rows] == 0
        cols = free.argmax(axis=1)
        self.slot_rate[rows, cols] = rate
        self.slot_stages[rows, cols] = stages
        self.slot_tasks[rows, cols] = num_tasks
        self.slot_dest[rows, cols] = dest

    # -- the step loop -----------------------------------------------------

    def run(self) -> np.ndarray:
        n, N = self.n, self.N
        service_rates = self.service_rates
        failure_rates = self.failure_rates
        recovery_rates = self.recovery_rates
        rng = self.rng

        while True:
            active = ~self.done
            if not active.any():
                break

            columns = 3 * n + self.S
            rates = np.empty((N, columns))
            rates[:, :n] = service_rates * (self.up & (self.queue > 0))
            rates[:, n : 2 * n] = failure_rates * self.up
            rates[:, 2 * n : 3 * n] = recovery_rates * ~self.up
            rates[:, 3 * n :] = self.slot_rate * (self.slot_stages > 0)
            rates[self.done] = 0.0

            total = rates.sum(axis=1)
            if np.any(active & (total <= 0.0)):
                raise RuntimeError(
                    "vectorized kernel deadlock: a realisation has outstanding "
                    "tasks but no enabled transition (inconsistent parameters?)"
                )

            # One Gillespie step: holding time ~ Exp(total), category ~ rates.
            dt = rng.exponential(size=N)
            pick = rng.random(N)
            safe = np.where(total > 0.0, total, 1.0)
            self.now = self.now + np.where(active, dt / safe, 0.0)

            if self.horizon is not None and np.any(
                active & (self.now > self.horizon)
            ):
                incomplete = int(np.count_nonzero(active & (self.now > self.horizon)))
                raise IncompleteSimulationError(
                    f"workload incomplete after horizon={self.horizon} "
                    f"({incomplete} realisations outstanding)"
                )

            cumulative = np.cumsum(rates, axis=1)
            event = (cumulative < (pick * total)[:, None]).sum(axis=1)
            np.minimum(event, columns - 1, out=event)

            # -- task completions ------------------------------------------
            mask = active & (event < n)
            if mask.any():
                rows = np.nonzero(mask)[0]
                nodes = event[rows]
                self.queue[rows, nodes] -= 1
                self.outstanding[rows] -= 1
                finished = rows[self.outstanding[rows] == 0]
                self.completion[finished] = self.now[finished]
                self.done[finished] = True

            # -- failures --------------------------------------------------
            mask = active & (event >= n) & (event < 2 * n)
            if mask.any():
                rows = np.nonzero(mask)[0]
                nodes = event[rows] - n
                self.up[rows, nodes] = False
                if self._on_failure is not None:
                    for node in range(n):
                        sub = rows[nodes == node]
                        if sub.size:
                            self._on_failure(self, node, sub)

            # -- recoveries ------------------------------------------------
            mask = active & (event >= 2 * n) & (event < 3 * n)
            if mask.any():
                rows = np.nonzero(mask)[0]
                self.up[rows, event[rows] - 2 * n] = True

            # -- transfer progress -----------------------------------------
            mask = active & (event >= 3 * n)
            if mask.any():
                rows = np.nonzero(mask)[0]
                cols = event[rows] - 3 * n
                self.slot_stages[rows, cols] -= 1
                landed = self.slot_stages[rows, cols] == 0
                rows, cols = rows[landed], cols[landed]
                if rows.size:
                    self.queue[rows, self.slot_dest[rows, cols]] += (
                        self.slot_tasks[rows, cols]
                    )
                    self.slot_rate[rows, cols] = 0.0
                    self.slot_tasks[rows, cols] = 0

        return self.completion


# ---------------------------------------------------------------------------
# Vectorized failure reactions (policy adapters)
# ---------------------------------------------------------------------------

_FailureHandler = Callable[[_BatchKernel, int, np.ndarray], None]


def _transferable(kernel: _BatchKernel, node: int, rows: np.ndarray) -> np.ndarray:
    """Tasks a backup agent can actually take from ``node`` at a failure.

    The node was up when it failed, so whenever its queue is non-empty one
    task is in service; its saved context stays with the node and only the
    remaining ``queue - 1`` waiting tasks are transferable.
    """
    return np.maximum(kernel.queue[rows, node] - 1, 0)


def _lbp2_handler(policy: LBP2, params: SystemParameters) -> _FailureHandler:
    """Eq. (8) compensation: constant sizes, capped like the backup agent."""
    sizes = [compensation_transfer_sizes(j, params) for j in range(params.num_nodes)]

    def handle(kernel: _BatchKernel, node: int, rows: np.ndarray) -> None:
        # The policy sizes its transfers against the full queue, then the
        # backup agent caps each batch by the waiting tasks still available;
        # replicate both budgets elementwise.
        policy_budget = kernel.queue[rows, node].copy()
        waiting = _transferable(kernel, node, rows)
        for receiver, requested in enumerate(sizes[node]):
            if requested <= 0:
                continue
            granted = np.minimum(requested, policy_budget)
            np.maximum(granted, 0, out=granted)
            sent = np.minimum(granted, waiting)
            policy_budget -= granted
            waiting -= sent
            kernel.queue[rows, node] -= sent
            kernel._open_slots(rows, node, receiver, sent)

    return handle


def _send_all_handler(params: SystemParameters) -> _FailureHandler:
    """Vector form of :class:`SendAllOnFailure`: dump the whole queue."""
    rates = np.asarray(params.service_rates, dtype=float)

    def handle(kernel: _BatchKernel, node: int, rows: np.ndarray) -> None:
        others = [i for i in range(params.num_nodes) if i != node]
        if not others:
            return
        weights = rates[others] / rates[others].sum()
        available = kernel.queue[rows, node]
        waiting = _transferable(kernel, node, rows)

        # The policy splits the full queue proportionally (rounded, with the
        # remainder going to the fastest receiver); the backup agent then
        # caps each batch by what is actually still waiting.
        requested: List[Tuple[int, np.ndarray]] = []
        remaining = available.copy()
        for receiver, weight in zip(others, weights):
            num = np.minimum(
                np.rint(weight * available).astype(np.int64), remaining
            )
            np.maximum(num, 0, out=num)
            requested.append((receiver, num))
            remaining = remaining - num
        fastest = max(others, key=lambda i: rates[i])
        requested.append((fastest, np.maximum(remaining, 0)))

        for receiver, num in requested:
            sent = np.minimum(num, waiting)
            waiting = waiting - sent
            kernel.queue[rows, node] -= sent
            kernel._open_slots(rows, node, receiver, sent)

    return handle


def _failure_handler(
    policy: LoadBalancingPolicy, params: SystemParameters
) -> Optional[_FailureHandler]:
    """The vectorized failure reaction for ``policy`` (``None`` = no-op).

    Policies that inherit the base class's no-op hooks need no handler;
    LBP-2 and the send-all baseline have dedicated adapters.  Anything else
    overrides ``on_failure``/``on_recovery`` in ways the kernel cannot
    vectorize and is rejected.
    """
    cls = type(policy)
    if cls.on_recovery is not LoadBalancingPolicy.on_recovery:
        raise BackendUnsupportedError(
            f"policy {policy.name!r} overrides on_recovery; the vectorized "
            "backend cannot replay custom recovery reactions — use "
            "backend='reference'"
        )
    if isinstance(policy, LBP2):
        return _lbp2_handler(policy, params) if policy.compensate else None
    if isinstance(policy, SendAllOnFailure):
        return _send_all_handler(params)
    if cls.on_failure is LoadBalancingPolicy.on_failure:
        return None
    raise BackendUnsupportedError(
        f"policy {policy.name!r} overrides on_failure; the vectorized "
        "backend only knows the built-in failure reactions — use "
        "backend='reference'"
    )


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def simulate_completion_times(
    params: SystemParameters,
    policy: LoadBalancingPolicy,
    workload: Union[Workload, Sequence[int]],
    num_realisations: int,
    seed: SeedLike = None,
    horizon: Optional[float] = None,
) -> np.ndarray:
    """Sample ``num_realisations`` completion times with the batch kernel.

    The sample is drawn from exactly the distribution the event-driven
    simulator samples (the model is a CTMC and the kernel is a batched
    Gillespie algorithm); the stream itself differs, so individual values
    do not match the reference realisation by realisation.
    """
    if num_realisations < 1:
        raise ValueError(
            f"num_realisations must be >= 1, got {num_realisations!r}"
        )
    # Guard here too, not just in run_batch: this is a public entry point,
    # and an unsupported delay law would otherwise be silently mis-sampled
    # (deterministic treated as exponential) instead of raising.
    _check_delay_model(params.delay)
    for _, model in params.pairwise_delay_overrides:
        _check_delay_model(model)
    counts = validate_workload(tuple(workload), params)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rng = np.random.default_rng(root)
    kernel = _BatchKernel(params, policy, counts, num_realisations, rng, horizon)
    return kernel.run()


class VectorizedBackend(ExecutionBackend):
    """NumPy batch execution of all realisations at once (exact CTMC sampler)."""

    name = "vectorized"

    def ensure_supported(
        self,
        params: SystemParameters,
        policy: LoadBalancingPolicy,
        workload: Union[Workload, Sequence[int]],
        **system_kwargs,
    ) -> None:
        unknown = set(system_kwargs) - _KNOWN_SYSTEM_KWARGS
        if unknown:
            raise BackendUnsupportedError(
                f"the vectorized backend does not understand system options "
                f"{sorted(unknown)}; use backend='reference'"
            )
        if system_kwargs.get("record_trace"):
            raise BackendUnsupportedError(
                "the vectorized backend aggregates realisations and cannot "
                "record per-run traces; use backend='reference'"
            )
        preemption = system_kwargs.get("preemption", "resume")
        if preemption not in ("resume", "restart"):
            raise BackendUnsupportedError(
                f"unknown preemption mode {preemption!r}"
            )
        _check_delay_model(params.delay)
        for _, model in params.pairwise_delay_overrides:
            _check_delay_model(model)
        _failure_handler(policy, params)

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
        self.ensure_supported(params, policy, workload, **system_kwargs)
        workload_obj = (
            workload if isinstance(workload, Workload) else Workload(tuple(workload))
        )
        times = simulate_completion_times(
            params,
            policy,
            workload_obj,
            num_realisations,
            seed=seed,
            horizon=horizon,
        )
        return MonteCarloEstimate.from_sample(
            policy_name=policy.name,
            workload=tuple(workload_obj),
            completion_times=times,
            confidence_level=confidence_level,
        )


register_backend(VectorizedBackend())
