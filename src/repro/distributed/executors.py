"""Pluggable shard executors: where shard work items actually run.

An executor exposes *slots* — the schedulable units the
:class:`~repro.distributed.scheduler.ShardScheduler` balances load over —
and an asynchronous ``start``/``poll`` surface:

* ``slots()`` names the currently-live slots (a process pool's slots are
  fixed; the HTTP worker board's grow and shrink as workers register and
  die);
* ``start(slot, item)`` begins executing a work item on a slot;
* ``poll(timeout)`` returns outcomes completed since the last call,
  blocking up to ``timeout`` for the first one.

Four implementations: :class:`InlineExecutor` (in-process, serial — the
zero-dependency default), :class:`ProcessShardExecutor` (a local process
pool; :func:`shared_process_executor` hands out the process-wide warm ones
that the scenario orchestrator, ``delay_sweep`` and named ``"process"``
requests all use), :class:`FuturesShardExecutor` (an adapter over a
caller-supplied :class:`concurrent.futures.Executor`), and the
service-side board executor for remote ``repro worker`` processes
(:class:`repro.service.shards.BoardExecutor` — it lives with the board so
this module stays importable without the service).
"""

from __future__ import annotations

import atexit
import threading
from abc import ABC, abstractmethod
from concurrent.futures import FIRST_COMPLETED, Executor, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.distributed.work import execute_work_item, shard_outcome_error, warm_block_runtime
from repro.montecarlo.pooling import cap_pool_size, default_pool_size


def _noop() -> None:
    """Warm-up task: forces a pool process to exist (and import the world)."""

#: Executor names the CLI and the job API accept.  ``workers`` is only
#: meaningful inside a running results service (it needs the worker board).
EXECUTOR_NAMES = ("inline", "process", "workers")


@dataclass
class ShardOutcome:
    """One finished (or failed) shard execution attempt."""

    item_id: str
    shard: int
    slot: str
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.result is not None


class ShardExecutor(ABC):
    """Strategy interface for running shard work items."""

    name: str = "executor"

    #: How many items the scheduler may keep in flight *per slot*.  Depth 1
    #: is classic one-at-a-time dispatch; the HTTP worker board raises it so
    #: one batched claim round-trip can hand a worker several shards.
    slot_depth: int = 1

    #: Persistent executors outlive a single engine run — the engine never
    #: closes them, even when it resolved them itself (see
    #: :func:`shared_process_executor`).
    persistent: bool = False

    @abstractmethod
    def slots(self) -> Tuple[str, ...]:
        """Names of the currently-live slots (may change between calls)."""

    @abstractmethod
    def start(self, slot: str, item: Dict[str, Any]) -> None:
        """Begin executing ``item`` on ``slot`` (non-blocking)."""

    @abstractmethod
    def poll(self, timeout: float) -> List[ShardOutcome]:
        """Outcomes completed since the last poll (waits up to ``timeout``)."""

    def abandon(self, slot: str, item_id: str) -> None:
        """Stop caring about an in-flight item (timeout reassignment)."""

    def close(self) -> None:
        """Release resources; the executor is not reusable afterwards."""

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class InlineExecutor(ShardExecutor):
    """Serial in-process execution — one slot, work runs inside ``poll``."""

    name = "inline"

    def __init__(self) -> None:
        self._queue: List[Dict[str, Any]] = []
        self._abandoned: set = set()

    def slots(self) -> Tuple[str, ...]:
        return ("inline-0",)

    def start(self, slot: str, item: Dict[str, Any]) -> None:
        self._queue.append(item)

    def poll(self, timeout: float) -> List[ShardOutcome]:
        while self._queue:
            item = self._queue.pop(0)
            if item["id"] in self._abandoned:
                continue
            try:
                result = execute_work_item(item)
            except Exception as error:  # noqa: BLE001 - shard boundary
                return [
                    ShardOutcome(
                        item_id=item["id"],
                        shard=int(item["shard"]),
                        slot="inline-0",
                        error=shard_outcome_error(error),
                    )
                ]
            return [
                ShardOutcome(
                    item_id=item["id"],
                    shard=int(item["shard"]),
                    slot="inline-0",
                    result=result,
                )
            ]
        return []

    def abandon(self, slot: str, item_id: str) -> None:
        self._abandoned.add(item_id)


class ProcessShardExecutor(ShardExecutor):
    """A local process pool of warm, long-lived block-executor processes.

    Pool processes are started with :func:`repro.distributed.work
    .warm_block_runtime` as their initializer, so numpy, the spec machinery
    and the execution backends are imported once per *process*, not once
    per shard — the first work item a slot receives pays compute, nothing
    else.  With ``persistent=True`` the engine leaves the pool alive
    between runs (see :func:`shared_process_executor`), which is what makes
    a sweep of many small ensembles reuse the same warm slots.
    """

    name = "process"

    def __init__(self, workers: int, persistent: bool = False) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        self.workers = workers
        self.persistent = persistent
        self._pool: Optional[ProcessPoolExecutor] = None
        self._in_flight: Dict[Future, Tuple[str, Dict[str, Any]]] = {}
        self._abandoned: set = set()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, initializer=warm_block_runtime
            )
        return self._pool

    def warm(self) -> None:
        """Spawn (and pre-import) the pool processes up front.

        Each process runs :func:`warm_block_runtime` on start; the no-op
        round-trip here just forces every process to exist *now*, so
        scaling benchmarks time the computation, not process start-up."""
        pool = self._ensure_pool()
        futures = [pool.submit(_noop) for _ in range(self.workers)]
        for future in futures:
            future.result()

    def slots(self) -> Tuple[str, ...]:
        return tuple(f"process-{i}" for i in range(self.workers))

    def start(self, slot: str, item: Dict[str, Any]) -> None:
        future = self._ensure_pool().submit(execute_work_item, item)
        self._in_flight[future] = (slot, item)

    def poll(self, timeout: float) -> List[ShardOutcome]:
        if not self._in_flight:
            return []
        done, _pending = wait(
            self._in_flight, timeout=timeout, return_when=FIRST_COMPLETED
        )
        outcomes: List[ShardOutcome] = []
        for future in done:
            slot, item = self._in_flight.pop(future)
            if item["id"] in self._abandoned:
                continue
            error = future.exception()
            if error is not None:
                outcomes.append(
                    ShardOutcome(
                        item_id=item["id"],
                        shard=int(item["shard"]),
                        slot=slot,
                        error=shard_outcome_error(error),
                    )
                )
            else:
                outcomes.append(
                    ShardOutcome(
                        item_id=item["id"],
                        shard=int(item["shard"]),
                        slot=slot,
                        result=future.result(),
                    )
                )
        return outcomes

    def abandon(self, slot: str, item_id: str) -> None:
        self._abandoned.add(item_id)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
            self._pool = None
        self._in_flight.clear()


#: Process-wide warm pools, keyed by slot count.  ``resolve_executor``
#: hands these out for named ``"process"`` requests, so back-to-back
#: engine runs (a sweep, a grid) reuse already-imported processes instead
#: of forking a cold pool per run.
_SHARED_POOLS: Dict[int, ProcessShardExecutor] = {}
_SHARED_LOCK = threading.Lock()


def shared_process_executor(workers: int) -> ProcessShardExecutor:
    """The process-wide warm pool with ``workers`` slots (created lazily).

    The returned executor is ``persistent``: the engine will not close it
    after a run, and an :mod:`atexit` hook shuts every shared pool down at
    interpreter exit.  Callers who want a private, disposable pool should
    construct :class:`ProcessShardExecutor` directly.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    with _SHARED_LOCK:
        if not _SHARED_POOLS:
            atexit.register(close_shared_pools)
        executor = _SHARED_POOLS.get(workers)
        if executor is None:
            executor = ProcessShardExecutor(workers, persistent=True)
            _SHARED_POOLS[workers] = executor
        return executor


def close_shared_pools() -> None:
    """Shut down every shared warm pool (atexit hook; tests call it too)."""
    with _SHARED_LOCK:
        pools = list(_SHARED_POOLS.values())
        _SHARED_POOLS.clear()
    for executor in pools:
        executor.close()


class FuturesShardExecutor(ShardExecutor):
    """A caller-supplied :class:`concurrent.futures.Executor` as slots.

    The adapter :func:`resolve_executor` wraps around a pool the caller
    passes to the engine or to ``delay_sweep`` (a thread pool in tests, a
    process pool the caller manages).  The wrapped pool is **never shut
    down here** — closing this executor only drops the in-flight
    bookkeeping.
    """

    name = "futures"

    def __init__(self, executor: Executor, slots: Optional[int] = None) -> None:
        self._executor = executor
        if slots is None:
            slots = getattr(executor, "_max_workers", None) or default_pool_size()
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots!r}")
        self._slots = tuple(f"futures-{i}" for i in range(int(slots)))
        self._in_flight: Dict[Future, Tuple[str, Dict[str, Any]]] = {}
        self._abandoned: set = set()

    def slots(self) -> Tuple[str, ...]:
        return self._slots

    def start(self, slot: str, item: Dict[str, Any]) -> None:
        future = self._executor.submit(execute_work_item, item)
        self._in_flight[future] = (slot, item)

    def poll(self, timeout: float) -> List[ShardOutcome]:
        if not self._in_flight:
            return []
        done, _pending = wait(
            self._in_flight, timeout=timeout, return_when=FIRST_COMPLETED
        )
        outcomes: List[ShardOutcome] = []
        for future in done:
            slot, item = self._in_flight.pop(future)
            if item["id"] in self._abandoned:
                continue
            error = future.exception()
            if error is not None:
                outcomes.append(
                    ShardOutcome(
                        item_id=item["id"],
                        shard=int(item["shard"]),
                        slot=slot,
                        error=shard_outcome_error(error),
                    )
                )
            else:
                outcomes.append(
                    ShardOutcome(
                        item_id=item["id"],
                        shard=int(item["shard"]),
                        slot=slot,
                        result=future.result(),
                    )
                )
        return outcomes

    def abandon(self, slot: str, item_id: str) -> None:
        self._abandoned.add(item_id)

    def close(self) -> None:
        # The pool belongs to the caller; only forget the in-flight items.
        self._in_flight.clear()


def resolve_executor(
    executor: Union[None, str, ShardExecutor, Executor],
    workers: Optional[int] = None,
    num_items: Optional[int] = None,
) -> ShardExecutor:
    """Coerce an executor argument to a :class:`ShardExecutor` instance.

    Accepts a name, a live :class:`ShardExecutor`, a plain
    :class:`concurrent.futures.Executor` (wrapped, never shut down) or
    ``None`` — which picks ``process`` when a worker count is configured
    and ``inline`` otherwise.  ``workers`` sizes the process pool (default:
    one slot per CPU, capped to keep surprise fan-out polite) and
    ``num_items``, when known, caps the pool at the work-item count via
    :func:`repro.montecarlo.pooling.cap_pool_size`.
    """
    if isinstance(executor, ShardExecutor):
        return executor
    if isinstance(executor, Executor):
        slots = (
            workers
            if workers is not None
            else getattr(executor, "_max_workers", None)
        )
        if slots is not None and num_items is not None:
            slots = cap_pool_size(slots, num_items)
        return FuturesShardExecutor(executor, slots=slots)
    if executor is None:
        executor = "process" if workers and workers > 1 else "inline"
    if executor == "inline":
        return InlineExecutor()
    if executor == "process":
        size = (
            cap_pool_size(workers, num_items)
            if num_items is not None
            else max(1, workers if workers is not None else default_pool_size())
        )
        return shared_process_executor(size)
    if executor == "workers":
        raise ValueError(
            "the 'workers' executor needs a running results service (it "
            "dispatches to registered `repro worker` processes); submit the "
            "job through the service instead of running it in-process"
        )
    raise ValueError(
        f"unknown shard executor {executor!r}; known executors: "
        f"{', '.join(EXECUTOR_NAMES)}"
    )
