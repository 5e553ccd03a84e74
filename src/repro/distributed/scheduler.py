"""Dispatching shards to executor slots with load balancing and retries.

The scheduler is a deliberate echo of the paper's subject: shards are the
stochastic workload, executor slots are the (possibly unreliable, possibly
slow) nodes, and one policy balances load across them, *least-loaded*: the
next shard goes to the free slot with the fewest items in flight, then the
least work completed so far, i.e. *join the shortest queue*; a slow or
flaky worker naturally receives less work.

Fault tolerance is by reassignment: a shard whose attempt fails (worker
exception, worker death, or ``shard_timeout`` expiry) is requeued with the
failing slot excluded — as long as another slot exists — and retried up to
``max_attempts`` times before :class:`ShardExecutionError` surfaces the
last error.  Every attempt gets a fresh work-item id, so a late result
from an abandoned attempt can never be double-counted.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set

from repro.distributed.executors import ShardExecutor
from repro.obs import propagate, trace
from repro.obs.metrics import REGISTRY

logger = logging.getLogger(__name__)

_DISPATCHES = REGISTRY.counter(
    "repro_scheduler_dispatch_total",
    "Shard attempts dispatched to executor slots.",
    labelnames=("executor",),
)
_COMPLETED = REGISTRY.counter(
    "repro_scheduler_shards_completed_total",
    "Shards that completed successfully.",
    labelnames=("executor",),
)
_FAILURES = REGISTRY.counter(
    "repro_scheduler_shard_failures_total",
    "Shard attempts that failed (worker error or death).",
    labelnames=("executor",),
)
_TIMEOUTS = REGISTRY.counter(
    "repro_scheduler_shard_timeouts_total",
    "Shard attempts abandoned after shard_timeout expired.",
    labelnames=("executor",),
)
_REASSIGNMENTS = REGISTRY.counter(
    "repro_scheduler_reassignments_total",
    "Shards requeued for another attempt after a failure or timeout.",
    labelnames=("executor",),
)
_QUEUE_WAIT = REGISTRY.histogram(
    "repro_scheduler_queue_wait_seconds",
    "Seconds a shard waited in the pending queue before dispatch.",
    labelnames=("executor",),
)
_SHARD_RUN = REGISTRY.histogram(
    "repro_scheduler_shard_run_seconds",
    "Seconds between a shard's dispatch and its successful completion.",
    labelnames=("executor",),
)

#: Event callback: receives small JSON-safe progress dictionaries.
SchedulerEvent = Callable[[Dict[str, Any]], None]


class ShardExecutionError(RuntimeError):
    """A shard exhausted its attempts (or no slot ever became available)."""


@dataclass
class _ShardState:
    """Book-keeping for one shard moving through the scheduler."""

    index: int
    item: Dict[str, Any]
    attempts: int = 0
    failed_slots: Set[str] = field(default_factory=set)
    slot: Optional[str] = None
    item_id: Optional[str] = None
    deadline: Optional[float] = None
    last_error: Optional[str] = None
    #: When the shard (re)entered the pending queue / was dispatched —
    #: monotonic stamps feeding the queue-wait and run-time histograms.
    queued_at: Optional[float] = None
    started_at: Optional[float] = None
    #: Dispatch time on the *tracer's* timeline (``trace_ctx["sent_at"]``);
    #: paired with the ack time to normalise the child's clock.
    sent_at: Optional[float] = None


class ShardScheduler:
    """Assigns shard work items to executor slots until all complete."""

    def __init__(
        self,
        executor: ShardExecutor,
        max_attempts: int = 3,
        shard_timeout: Optional[float] = None,
        slot_wait: float = 60.0,
        poll_interval: float = 0.25,
        on_event: Optional[SchedulerEvent] = None,
        on_result: Optional[Callable[[int, Dict[str, Any]], None]] = None,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts!r}")
        self.executor = executor
        self.max_attempts = max_attempts
        self.shard_timeout = shard_timeout
        self.slot_wait = slot_wait
        self.poll_interval = poll_interval
        self.on_event = on_event
        #: Called with ``(shard_index, result)`` the moment a shard
        #: completes — the runner persists blocks here, so an interrupted
        #: or partially-failed run keeps everything that did finish.
        self.on_result = on_result
        #: Completed shard count per slot (the load-balancing signal).
        self.slot_completed: Dict[str, int] = {}
        #: Per-shard round-trip records (``round_trip_seconds``,
        #: ``wire_seconds``, ``deserialize_seconds``), filled as shards
        #: complete; the engine folds them into its overhead ledger,
        #: ``EngineReport.attribution``.
        self.shard_attribution: Dict[int, Dict[str, float]] = {}
        #: Highest number of simultaneously in-flight shards observed —
        #: the honest divisor when converting summed per-shard seconds to
        #: wall-equivalent seconds.
        self.peak_in_flight = 0
        #: Metrics label: which executor kind this scheduler drives.
        self._executor_label = type(executor).__name__

    # -- events ------------------------------------------------------------

    def _emit(self, event: str, **payload: Any) -> None:
        if self.on_event is not None:
            self.on_event({"event": event, **payload})

    # -- assignment policy -------------------------------------------------

    def _pick_slot(
        self,
        free: List[str],
        state: _ShardState,
        load: Dict[str, int],
    ) -> Optional[str]:
        """The least-loaded free slot for ``state``.

        Slots that already failed this shard are avoided whenever any other
        slot is free (on the last resort a failed slot is reused — better
        one more attempt than none).  ``load`` is the current in-flight
        count per slot: with ``slot_depth > 1`` a slot stays "free" until
        its depth is full, and the emptiest pipeline wins first.
        """
        candidates = [s for s in free if s not in state.failed_slots] or free
        if not candidates:
            return None
        # Join the shortest queue: fewest items in flight, then least
        # completed work, with a stable tie-break by name.
        return min(
            candidates,
            key=lambda s: (load.get(s, 0), self.slot_completed.get(s, 0), s),
        )

    # -- the dispatch loop -------------------------------------------------

    def run(self, items: Dict[int, Dict[str, Any]]) -> Dict[int, Dict[str, Any]]:
        """Execute every work item; returns shard index → result payload."""
        now = time.monotonic()
        states = {
            index: _ShardState(index=index, item=item, queued_at=now)
            for index, item in items.items()
        }
        pending: List[int] = sorted(states)
        in_flight: Dict[str, _ShardState] = {}  # item_id -> state
        results: Dict[int, Dict[str, Any]] = {}
        no_slot_since: Optional[float] = None

        try:
            self._run_loop(states, pending, in_flight, results, no_slot_since)
        except BaseException:
            # Leaving items in flight on an abort (a shard exhausting its
            # attempts, Ctrl-C) would strand them on shared executors —
            # the service's worker board outlives this run, and a stranded
            # claimed item makes its dead worker an immortal phantom slot.
            for item_id, state in in_flight.items():
                if state.slot is not None:
                    self.executor.abandon(state.slot, item_id)
            raise
        return results

    def _run_loop(
        self,
        states: Dict[int, _ShardState],
        pending: List[int],
        in_flight: Dict[str, _ShardState],
        results: Dict[int, Dict[str, Any]],
        no_slot_since: Optional[float],
    ) -> None:
        while pending or in_flight:
            now = time.monotonic()
            live = list(self.executor.slots())

            # A fleet with no live slots is only an error once it persists
            # past slot_wait — HTTP workers register asynchronously.
            if not live and not in_flight:
                if no_slot_since is None:
                    no_slot_since = now
                elif now - no_slot_since > self.slot_wait:
                    raise ShardExecutionError(
                        f"no executor slot became available within "
                        f"{self.slot_wait:g}s ({len(pending)} shards pending)"
                    )
                time.sleep(min(self.poll_interval, 0.2))
                continue
            no_slot_since = None

            # -- assignment --------------------------------------------
            # Each slot may pipeline up to the executor's slot_depth items
            # (the worker board's depth mirrors the fleet's claim batch);
            # every item keeps its own lease, so a slot dying mid-pipeline
            # reassigns only the items that never finished.
            depth = max(1, int(getattr(self.executor, "slot_depth", 1)))
            load: Dict[str, int] = {}
            for flight in in_flight.values():
                if flight.slot is not None:
                    load[flight.slot] = load.get(flight.slot, 0) + 1
            free = [slot for slot in live if load.get(slot, 0) < depth]
            while pending and free:
                state = states[pending[0]]
                slot = self._pick_slot(free, state, load)
                if slot is None:  # pragma: no cover - free is non-empty
                    break
                pending.pop(0)
                load[slot] = load.get(slot, 0) + 1
                if load[slot] >= depth:
                    free.remove(slot)
                state.attempts += 1
                state.slot = slot
                state.item_id = f"{state.item['task']}:s{state.index}:a{state.attempts}"
                state.deadline = (
                    now + self.shard_timeout if self.shard_timeout else None
                )
                state.started_at = time.monotonic()
                if state.queued_at is not None:
                    _QUEUE_WAIT.labels(executor=self._executor_label).observe(
                        state.started_at - state.queued_at
                    )
                in_flight[state.item_id] = state
                self.peak_in_flight = max(self.peak_in_flight, len(in_flight))
                payload = {**state.item, "id": state.item_id}
                ctx = propagate.make_context(
                    shard=state.index, attempt=state.attempts
                )
                if ctx is not None:
                    payload["trace_ctx"] = ctx
                    state.sent_at = ctx["sent_at"]
                else:
                    state.sent_at = None
                self.executor.start(slot, payload)
                _DISPATCHES.labels(executor=self._executor_label).inc()
                self._emit(
                    "dispatch",
                    shard=state.index,
                    slot=slot,
                    attempt=state.attempts,
                )

            # -- collection --------------------------------------------
            for outcome in self.executor.poll(self.poll_interval):
                state = in_flight.pop(outcome.item_id, None)
                if state is None:
                    continue  # late result of an abandoned attempt
                if outcome.ok:
                    # The shipped span subtree is telemetry, not shard
                    # data — strip it before the result reaches merging
                    # and the shard store.
                    subtree = None
                    if isinstance(outcome.result, dict):
                        subtree = outcome.result.pop("trace", None)
                    results[state.index] = outcome.result
                    if self.on_result is not None:
                        self.on_result(state.index, outcome.result)
                    self.slot_completed[outcome.slot] = (
                        self.slot_completed.get(outcome.slot, 0) + 1
                    )
                    _COMPLETED.labels(executor=self._executor_label).inc()
                    if state.started_at is not None:
                        run_seconds = time.monotonic() - state.started_at
                        _SHARD_RUN.labels(
                            executor=self._executor_label
                        ).observe(run_seconds)
                        self._finish_telemetry(
                            state, outcome.slot, run_seconds, subtree
                        )
                    self._emit(
                        "done",
                        shard=state.index,
                        slot=outcome.slot,
                        attempt=state.attempts,
                        completed=len(results),
                        total=len(states),
                    )
                else:
                    self._requeue(state, outcome.slot, outcome.error, pending)

            # -- timeouts ----------------------------------------------
            if self.shard_timeout:
                now = time.monotonic()
                for item_id, state in list(in_flight.items()):
                    if state.deadline is not None and now > state.deadline:
                        del in_flight[item_id]
                        self.executor.abandon(state.slot, item_id)
                        _TIMEOUTS.labels(executor=self._executor_label).inc()
                        self._emit(
                            "timeout",
                            shard=state.index,
                            slot=state.slot,
                            attempt=state.attempts,
                        )
                        self._requeue(
                            state,
                            state.slot,
                            f"shard timed out after {self.shard_timeout:g}s "
                            f"on slot {state.slot}",
                            pending,
                        )

    def _finish_telemetry(
        self,
        state: _ShardState,
        slot: str,
        run_seconds: float,
        subtree: Optional[Dict[str, Any]],
    ) -> None:
        """Record the shard span, stitch the child subtree, file the ledger.

        The ``scheduler.shard`` span covers dispatch→ack on the parent
        tracer's timeline; the worker's shipped spans are normalised into
        that interval (see :mod:`repro.obs.propagate`), so the visible gap
        between the shard span's edges and the grafted ``worker.item``
        span *is* the wire + remote-queue overhead.
        """
        tracer = trace.current_tracer()
        if tracer is not None:
            t_recv = tracer.now()
            t_send = (
                state.sent_at if state.sent_at is not None
                else t_recv - run_seconds
            )
            shard_span = tracer.record(
                "scheduler.shard",
                t_recv - t_send,
                start=t_send,
                shard=state.index,
                slot=slot,
                attempt=state.attempts,
            )
            propagate.stitch_subtree(
                tracer,
                subtree,
                parent_id=shard_span.span_id,
                t_send=t_send,
                t_recv=t_recv,
            )
        totals = propagate.subtree_totals(subtree)
        self.shard_attribution[state.index] = {
            "round_trip_seconds": run_seconds,
            "wire_seconds": (
                max(0.0, run_seconds - totals["busy"])
                if totals["busy"] > 0 else 0.0
            ),
            "deserialize_seconds": totals["deserialize"],
        }

    def _requeue(
        self,
        state: _ShardState,
        slot: Optional[str],
        error: Optional[str],
        pending: List[int],
    ) -> None:
        state.last_error = error or "unknown shard failure"
        if slot is not None:
            state.failed_slots.add(slot)
        _FAILURES.labels(executor=self._executor_label).inc()
        self._emit(
            "failed",
            shard=state.index,
            slot=slot,
            attempt=state.attempts,
            error=state.last_error,
        )
        if state.attempts >= self.max_attempts:
            raise ShardExecutionError(
                f"shard {state.index} failed after {state.attempts} attempts; "
                f"last error: {state.last_error}"
            )
        _REASSIGNMENTS.labels(executor=self._executor_label).inc()
        logger.warning(
            "reassigning shard %d (item %s, attempt %d/%d) on %s after %s: %s",
            state.index,
            state.item_id,
            state.attempts,
            self.max_attempts,
            self._executor_label,
            f"slot {slot}" if slot is not None else "no slot",
            state.last_error,
        )
        state.slot = None
        state.item_id = None
        state.deadline = None
        # Failed shards go to the front: they are the oldest work.
        pending.insert(0, state.index)
        state.queued_at = time.monotonic()
