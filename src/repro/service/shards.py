"""The worker board: shard work items flowing between the service and
remote ``repro worker`` processes.

The board is the meeting point of two threads of control:

* the **HTTP side** (event-loop handlers) — workers register, claim
  batches of the work items assigned to them, and post their results;
  every call is a short, non-blocking critical section, and a claim that
  finds nothing queued parks on the event loop (never on a thread) until
  an item is assigned or its wait runs out;
* the **scheduler side** (the job queue's worker thread) — the
  :class:`BoardExecutor` adapts the board to the
  :class:`~repro.distributed.executors.ShardExecutor` interface: live
  workers are the scheduler's slots, ``start`` drops an item into a
  worker's queue (waking its parked claim), ``poll`` blocks on the
  board's condition variable for posted results.

Liveness is pull-based: a worker's ``last_seen`` refreshes on every claim
or post, and a claim parks for at most half of ``worker_timeout``.  A
worker that stops claiming is considered dead after ``worker_timeout``
seconds — its *unclaimed* items fail immediately so the scheduler
reassigns them; items it already claimed are left to the scheduler's own
shard timeout (a busy worker executing a long shard does not claim, and
must not be declared dead for it).

Everything here is stdlib-only and numpy-free: the board sits on the
service's request path.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.distributed.executors import ShardExecutor, ShardOutcome
from repro.distributed.work import DEFAULT_CLAIM_BATCH
from repro.obs.metrics import REGISTRY

#: Seconds without a claim/post before a worker's unclaimed work is
#: reassigned and it disappears from the slot list.  A claim parks for at
#: most half of it, so a parked worker never ages out.
DEFAULT_WORKER_TIMEOUT = 30.0

_CLAIM_BATCH_ITEMS = REGISTRY.histogram(
    "repro_board_claim_batch_items",
    "Work items handed out per non-empty claim.",
)
_CLAIM_REPLAYS = REGISTRY.counter(
    "repro_board_claim_replays_total",
    "Claims answered from the idempotency snapshot (retried token).",
)
_LEASE_FAILURES = REGISTRY.counter(
    "repro_board_lease_failures_total",
    "Queued work items failed back to the scheduler, by reason.",
    labelnames=("reason",),
)

#: Default per-shard execution timeout for jobs the service schedules onto
#: the fleet.  A worker killed *after* claiming a shard stops polling but
#: cannot be told apart from one grinding through a long shard, so the
#: scheduler's shard timeout is the only thing that ever reassigns its
#: work — a service must not default it off.
DEFAULT_SHARD_TIMEOUT = 900.0

#: Stale worker records are purged after this many multiples of the worker
#: timeout (long-lived services see endless register/exit cycles; the board
#: must not grow without bound).
_PURGE_AFTER_TIMEOUTS = 10.0


@dataclass
class _Worker:
    """Board-side record of one registered worker."""

    id: str
    name: str
    registered_at: float
    last_seen: float
    queued: List[Dict[str, Any]] = field(default_factory=list)
    claimed: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    completed: int = 0
    failed: int = 0
    #: Idempotency snapshot: the last claim token this worker sent and the
    #: items that claim was answered with.  A retried token (the worker
    #: never saw the response) re-delivers the same items instead of
    #: claiming fresh ones.
    last_claim_token: Optional[str] = None
    last_claim_items: List[Dict[str, Any]] = field(default_factory=list)
    #: Wake callbacks of this worker's parked claims; ``assign`` fires
    #: and clears them.
    wakers: List[Callable[[], None]] = field(default_factory=list)

    def to_dict(self, now: float) -> Dict[str, Any]:
        return {
            "id": self.id,
            "name": self.name,
            "registered_at": self.registered_at,
            "seconds_since_seen": now - self.last_seen,
            "parked": bool(self.wakers),
            "queued_items": len(self.queued),
            "claimed_items": len(self.claimed),
            "completed_shards": self.completed,
            "failed_shards": self.failed,
        }


class ShardBoard:
    """Thread-safe work-item board shared by HTTP handlers and scheduler."""

    def __init__(self, worker_timeout: float = DEFAULT_WORKER_TIMEOUT) -> None:
        self.worker_timeout = worker_timeout
        self._lock = threading.Condition()
        self._workers: Dict[str, _Worker] = {}
        self._ids = itertools.count(1)
        self._outcomes: List[ShardOutcome] = []
        self._closed = False

    # -- HTTP side (event loop; never blocks) ------------------------------

    def register(self, name: str) -> str:
        with self._lock:
            # Each registration sweeps out long-dead records, so the
            # respawn-workers-forever pattern cannot grow the board.
            self._reap_dead_locked()
            worker_id = f"w-{next(self._ids)}"
            now = time.monotonic()
            self._workers[worker_id] = _Worker(
                id=worker_id, name=name, registered_at=now, last_seen=now
            )
            return worker_id

    def claim_batch(
        self,
        worker_id: str,
        batch: int = 1,
        token: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Pop up to ``batch`` items queued for ``worker_id``.

        ``token`` (opaque, chosen by the worker, unique per claim) makes
        the call idempotent: a claim retried with the token of the
        previous claim — the worker sent it, the response got lost — is
        answered with the same items again.  Those items are already in
        the worker's ``claimed`` set, so nothing is double-popped and a
        later post of their results is accepted exactly once.
        """
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch!r}")
        with self._lock:
            return self._claim_locked(worker_id, batch, token)

    async def claim(
        self,
        worker_id: str,
        batch: int = 1,
        token: Optional[str] = None,
        wait: float = 0.0,
        connected: Callable[[], bool] = lambda: True,
    ) -> Tuple[List[Dict[str, Any]], float]:
        """:meth:`claim_batch` as a long poll on the running event loop.

        A claim that finds nothing queued parks for up to ``wait`` seconds
        (capped at half of ``worker_timeout``, so a parked worker stays in
        :meth:`live_workers`) and :meth:`assign` wakes it the moment an
        item is queued for this worker.  Returns the items and the seconds
        the claim spent parked.

        A replayed token is answered at once.  A fresh token is recorded
        only with the claim's answer, so a retry of a parked claim whose
        reply was lost parks again.  ``connected`` says whether the
        claiming worker is still on the line: a claim woken after it went
        away claims nothing and leaves ``last_seen`` alone, so what was
        queued for a worker that died while parked fails over as a dead
        worker's (:meth:`collect`).
        """
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch!r}")
        loop = asyncio.get_running_loop()
        woken = asyncio.Event()

        def wake() -> None:
            try:
                loop.call_soon_threadsafe(woken.set)
            except RuntimeError:
                pass  # the loop that parked this claim has closed

        deadline = time.monotonic() + min(wait, self.worker_timeout / 2.0)
        parked_at: Optional[float] = None
        try:
            while True:
                with self._lock:
                    park = not self._closed and time.monotonic() < deadline
                    items = self._claim_locked(
                        worker_id, batch, token, wake if park else None
                    )
                now = time.monotonic()
                if items is not None:
                    return items, 0.0 if parked_at is None else now - parked_at
                if parked_at is None:
                    parked_at = now
                woken.clear()
                try:
                    await asyncio.wait_for(woken.wait(), deadline - now)
                except asyncio.TimeoutError:
                    pass
                if not connected():
                    return [], time.monotonic() - parked_at
        finally:
            with self._lock:
                worker = self._workers.get(worker_id)
                if worker is not None and wake in worker.wakers:
                    worker.wakers.remove(wake)

    def _claim_locked(
        self,
        worker_id: str,
        batch: int,
        token: Optional[str],
        waker: Optional[Callable[[], None]] = None,
    ) -> Optional[List[Dict[str, Any]]]:
        """One claim attempt; ``None`` when it found nothing and parked
        ``waker`` instead of answering."""
        worker = self._require(worker_id)
        worker.last_seen = time.monotonic()
        if token is not None and token == worker.last_claim_token:
            _CLAIM_REPLAYS.inc()
            return list(worker.last_claim_items)
        items: List[Dict[str, Any]] = []
        while worker.queued and len(items) < batch:
            item = worker.queued.pop(0)
            worker.claimed[item["id"]] = item
            items.append(item)
        if not items and waker is not None:
            worker.wakers.append(waker)
            return None
        if token is not None:
            worker.last_claim_token = token
            worker.last_claim_items = list(items)
        if items:
            _CLAIM_BATCH_ITEMS.observe(float(len(items)))
        return items

    def close(self) -> None:
        """Stop parking claims: every parked claim answers at once with
        what is queued, and later claims answer without parking.  The
        service calls this before it stops serving."""
        with self._lock:
            self._closed = True
            wakers = []
            for worker in self._workers.values():
                wakers.extend(worker.wakers)
                worker.wakers = []
        for wake in wakers:
            wake()

    def post_result(
        self,
        worker_id: str,
        item_id: str,
        result: Optional[Dict[str, Any]] = None,
        error: Optional[str] = None,
    ) -> bool:
        """Record a worker's outcome; ``False`` for unknown/stale items."""
        with self._lock:
            worker = self._require(worker_id)
            worker.last_seen = time.monotonic()
            item = worker.claimed.pop(item_id, None)
            if item is None:
                # A reassigned (abandoned) item finishing late: ignore it —
                # the scheduler already gave up on this attempt.
                return False
            if error is None:
                worker.completed += 1
            else:
                worker.failed += 1
            self._outcomes.append(
                ShardOutcome(
                    item_id=item_id,
                    shard=int(item["shard"]),
                    slot=worker_id,
                    result=result,
                    error=error,
                )
            )
            self._lock.notify_all()
            return True

    def post_results(
        self, worker_id: str, outcomes: List[Dict[str, Any]]
    ) -> List[bool]:
        """Record a batch of outcomes; per-outcome acceptance flags.

        Each outcome dict carries ``id`` plus ``result`` or ``error``.
        Acceptance is per item — a batch may mix fresh results (accepted)
        with stale ones from a reassigned attempt (ignored).
        """
        return [
            self.post_result(
                worker_id,
                item_id=str(outcome["id"]),
                result=outcome.get("result"),
                error=(
                    None
                    if outcome.get("error") is None
                    else str(outcome["error"])
                ),
            )
            for outcome in outcomes
        ]

    def worker_views(self) -> List[Dict[str, Any]]:
        with self._lock:
            now = time.monotonic()
            return [w.to_dict(now) for w in self._workers.values()]

    def _require(self, worker_id: str) -> _Worker:
        try:
            return self._workers[worker_id]
        except KeyError:
            raise KeyError(
                f"unknown worker {worker_id!r}; register via POST /v1/workers"
            ) from None

    # -- scheduler side (worker thread; collect may block) -----------------

    def live_workers(self) -> Tuple[str, ...]:
        with self._lock:
            cutoff = time.monotonic() - self.worker_timeout
            return tuple(
                worker_id
                for worker_id, worker in self._workers.items()
                if worker.last_seen >= cutoff or worker.claimed
            )

    def assign(self, worker_id: str, item: Dict[str, Any]) -> None:
        with self._lock:
            worker = self._require(worker_id)
            worker.queued.append(item)
            wakers, worker.wakers = worker.wakers, []
        for wake in wakers:
            wake()

    def abandon(self, worker_id: str, item_id: str) -> None:
        """Forget an item wherever it is; a late result will be ignored."""
        with self._lock:
            worker = self._workers.get(worker_id)
            if worker is None:
                return
            worker.queued = [i for i in worker.queued if i["id"] != item_id]
            worker.claimed.pop(item_id, None)

    def collect(self, timeout: float) -> List[ShardOutcome]:
        """Posted outcomes (plus synthesized failures for dead workers)."""
        deadline = time.monotonic() + timeout
        with self._lock:
            while True:
                self._reap_dead_locked()
                if self._outcomes:
                    outcomes, self._outcomes = self._outcomes, []
                    return outcomes
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return []
                self._lock.wait(min(remaining, 1.0))

    def _reap_dead_locked(self) -> None:
        """Fail unclaimed items of stale workers; purge long-dead records."""
        now = time.monotonic()
        cutoff = now - self.worker_timeout
        purge_cutoff = now - _PURGE_AFTER_TIMEOUTS * self.worker_timeout
        for worker in list(self._workers.values()):
            if worker.last_seen < cutoff and worker.queued:
                _LEASE_FAILURES.labels(reason="dead_worker").inc(
                    len(worker.queued)
                )
                for item in worker.queued:
                    self._outcomes.append(
                        ShardOutcome(
                            item_id=item["id"],
                            shard=int(item["shard"]),
                            slot=worker.id,
                            error=(
                                f"worker {worker.id} ({worker.name}) stopped "
                                f"polling before claiming the shard"
                            ),
                        )
                    )
                worker.queued = []
            # A long-lived service sees endless worker register/exit
            # cycles; drop records that are idle, empty-handed and long
            # past dead so the board (and /v1/workers) stays bounded.
            if (
                worker.last_seen < purge_cutoff
                and not worker.queued
                and not worker.claimed
            ):
                del self._workers[worker.id]


class BoardExecutor(ShardExecutor):
    """The board viewed as a shard executor: one slot per live worker.

    ``slot_depth`` mirrors the fleet's claim batch: the scheduler keeps
    that many items in flight per worker, so a batched claim actually
    finds a batch queued instead of draining the board one item per
    round-trip.  A worker dying mid-batch is still accounted per item —
    every queued/claimed item holds its own lease (scheduler item id), and
    only the unfinished ones are reassigned.
    """

    name = "workers"
    slot_depth = DEFAULT_CLAIM_BATCH

    def __init__(self, board: ShardBoard) -> None:
        self.board = board

    def slots(self) -> Tuple[str, ...]:
        return self.board.live_workers()

    def start(self, slot: str, item: Dict[str, Any]) -> None:
        self.board.assign(slot, item)

    def poll(self, timeout: float) -> List[ShardOutcome]:
        return self.board.collect(timeout)

    def abandon(self, slot: str, item_id: str) -> None:
        self.board.abandon(slot, item_id)

    def close(self) -> None:
        """The board outlives any single run; nothing to release."""
