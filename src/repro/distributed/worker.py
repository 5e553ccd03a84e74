"""The ``repro worker`` process: pull shard work items over HTTP, execute,
post partial results back.

A worker is deliberately dumb: it registers with a running results service
(``repro serve``), then loops *claim → execute → post*.  All scheduling
intelligence — load balancing, retries, timeouts, reassignment on worker
death — lives on the service side (:mod:`repro.distributed.scheduler` over
:class:`repro.service.shards.ShardBoard`), so workers can appear, crash
and reconnect at any time without coordination.

Three fleet-efficiency mechanics live here:

* **warm start** — :func:`repro.distributed.work.warm_block_runtime` runs
  before the first claim, so numpy, the spec machinery and the backends
  are imported while the worker is idle, not inside its first shard;
* **batched claims** — one claim round-trip asks for up to ``batch`` work
  items and one result post ships every outcome of the batch, both as
  binary frames;
* **backoff** — empty claims back off exponentially with jitter (capped at
  :data:`CLAIM_BACKOFF_CAP`), so a large idle fleet stops hammering
  ``/v1/workers/{id}/claim`` in lockstep.

Failures inside a work item are posted back as structured errors (the
scheduler decides whether to retry elsewhere); failures of the *service
connection* are retried with a backoff until ``max_idle`` expires.
"""

from __future__ import annotations

import random
import sys
import time
from typing import List, Optional

from repro.distributed.work import (
    DEFAULT_CLAIM_BATCH,
    execute_work_item,
    shard_outcome_error,
    warm_block_runtime,
    worker_name,
)
from repro.obs.metrics import REGISTRY

# Worker-process-local: these live in the `repro worker` process itself
# (snapshot/merge them if a fleet aggregator ever wants the totals).
_CLAIMS = REGISTRY.counter(
    "repro_worker_claims_total",
    "Work-claim attempts, by outcome (item/empty/error).",
    labelnames=("outcome",),
)
_CLAIM_SECONDS = REGISTRY.histogram(
    "repro_worker_claim_seconds",
    "Latency of the claim-work HTTP round-trip.",
)
_CLAIM_BATCH = REGISTRY.histogram(
    "repro_worker_claim_batch_items",
    "Work items received per non-empty claim (batched-claim payoff).",
)
_ITEMS = REGISTRY.counter(
    "repro_worker_items_total",
    "Work items executed, by outcome.",
    labelnames=("outcome",),
)
_BLOCKS = REGISTRY.counter(
    "repro_worker_blocks_total",
    "Seed blocks computed by this worker (blocks/sec numerator).",
)
_BUSY_SECONDS = REGISTRY.counter(
    "repro_worker_busy_seconds_total",
    "Seconds spent executing work items (blocks/sec denominator).",
)

#: Seconds between telemetry piggybacks on *empty* claims; result posts
#: always carry telemetry (results are the interesting moments).
TELEMETRY_INTERVAL = 5.0

#: Hard ceiling on the empty-claim backoff delay, seconds.
CLAIM_BACKOFF_CAP = 2.0


class ClaimBackoff:
    """Exponential backoff with jitter for empty work claims.

    The delay doubles per consecutive empty claim, from ``base`` up to the
    hard ``cap``, and each delay is jittered by ±``jitter`` (fraction of
    itself) so a fleet started in lockstep decorrelates instead of polling
    the service in synchronized waves.  ``reset()`` snaps back to ``base``
    the moment work appears.  Jitter never pushes a delay above ``cap`` or
    below zero, and ``jitter=0`` (tests) makes the schedule exact:
    ``base, 2·base, 4·base, …, cap, cap, …``.
    """

    def __init__(
        self,
        base: float = 0.2,
        cap: float = CLAIM_BACKOFF_CAP,
        factor: float = 2.0,
        jitter: float = 0.25,
        rng: Optional[random.Random] = None,
    ) -> None:
        if base <= 0:
            raise ValueError(f"base must be > 0, got {base!r}")
        if cap < base:
            raise ValueError(f"cap must be >= base, got {cap!r} < {base!r}")
        if factor < 1:
            raise ValueError(f"factor must be >= 1, got {factor!r}")
        if not 0 <= jitter < 1:
            raise ValueError(f"jitter must be in [0, 1), got {jitter!r}")
        self.base = base
        self.cap = cap
        self.factor = factor
        self.jitter = jitter
        self._rng = rng if rng is not None else random.Random()
        self._misses = 0

    def reset(self) -> None:
        self._misses = 0

    def next_delay(self) -> float:
        delay = min(self.cap, self.base * self.factor**self._misses)
        self._misses += 1
        if self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        return min(self.cap, delay)


class _Telemetry:
    """Piggybacked fleet telemetry: cumulative snapshot + sequence number.

    The snapshot is the worker's whole-registry truth, so the service can
    replace (not add) on ingest — a re-posted payload after an HTTP retry
    is harmless.  ``seq`` increments per send so the aggregator can drop
    reordered duplicates.
    """

    def __init__(self, name: str, interval: float = TELEMETRY_INTERVAL) -> None:
        self.name = name
        self.interval = interval
        self._seq = 0
        self._last_sent: Optional[float] = None

    def payload(self) -> dict:
        self._seq += 1
        self._last_sent = time.monotonic()
        return {
            "name": self.name,
            "seq": self._seq,
            "metrics": REGISTRY.snapshot(),
        }

    def payload_if_due(self) -> Optional[dict]:
        if (
            self._last_sent is not None
            and time.monotonic() - self._last_sent < self.interval
        ):
            return None
        return self.payload()


def run_worker(
    connect: str,
    name: Optional[str] = None,
    poll_interval: float = 0.2,
    max_idle: Optional[float] = None,
    once: bool = False,
    batch: int = DEFAULT_CLAIM_BATCH,
    log=print,
) -> int:
    """Serve shard work items from the service at ``connect`` until stopped.

    ``max_idle`` exits cleanly after that many seconds without work (used
    by tests and batch jobs); ``once`` exits after the first batch that
    completes at least one item.  ``batch`` is the number of work items
    requested per claim round-trip (the service may hand back fewer).
    Returns a process exit code.
    """
    from repro.service.client import ServiceClient, ServiceError

    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch!r}")
    client = ServiceClient(connect, timeout=30.0)
    me = worker_name(name)
    telemetry = _Telemetry(me)
    backoff = ClaimBackoff(base=max(poll_interval, 0.05))

    warm_seconds = warm_block_runtime()
    log(f"repro worker {me}: block runtime warm in {warm_seconds:.2f}s", flush=True)

    def register() -> Optional[str]:
        """Register with retry — the service may not have bound yet
        (`repro serve & repro worker` is the documented startup pattern)."""
        started = time.monotonic()
        while True:
            try:
                return client.register_worker(me)
            except (ServiceError, OSError) as error:
                if max_idle is not None and time.monotonic() - started > max_idle:
                    log(
                        f"repro worker {me}: cannot register at {connect} "
                        f"({error}); exiting",
                        file=sys.stderr,
                    )
                    return None
                time.sleep(max(poll_interval, 0.5))

    worker_id = register()
    if worker_id is None:
        return 1
    log(f"repro worker {me} registered as {worker_id} at {connect}", flush=True)

    idle_since = time.monotonic()
    executed = 0
    claim_seq = 0
    while True:
        claim_started = time.monotonic()
        claim_seq += 1
        try:
            items = client.claim_work_batch(
                worker_id,
                batch=batch,
                token=f"{worker_id}:{claim_seq}",
                telemetry=telemetry.payload_if_due(),
            )
            _CLAIM_SECONDS.observe(time.monotonic() - claim_started)
        except ServiceError as error:
            _CLAIMS.labels(outcome="error").inc()
            if error.status == 404:
                # The board purged us as long-dead (e.g. after a laptop
                # sleep); a fresh registration picks up where we left off.
                worker_id = register()
                if worker_id is None:
                    return 1
                log(f"repro worker {me}: re-registered as {worker_id}")
                continue
            if max_idle is not None and time.monotonic() - idle_since > max_idle:
                log(f"repro worker {me}: service errors ({error}); exiting")
                return 1
            time.sleep(max(poll_interval, 0.5))
            continue
        except OSError as error:
            _CLAIMS.labels(outcome="error").inc()
            # The service may be restarting or gone; linger until max_idle.
            if max_idle is not None and time.monotonic() - idle_since > max_idle:
                log(f"repro worker {me}: service unreachable ({error}); exiting")
                return 1
            time.sleep(max(poll_interval, 0.5))
            continue

        if not items:
            _CLAIMS.labels(outcome="empty").inc()
            if max_idle is not None and time.monotonic() - idle_since > max_idle:
                log(f"repro worker {me}: idle for {max_idle:g}s; exiting")
                return 0
            time.sleep(backoff.next_delay())
            continue

        _CLAIMS.labels(outcome="item").inc()
        _CLAIM_BATCH.observe(float(len(items)))
        backoff.reset()
        idle_since = time.monotonic()

        # Execute the whole batch, then ship every outcome in one post.
        outcomes: List[dict] = []
        batch_failed = 0
        for item in items:
            shard = item.get("shard")
            log(f"repro worker {me}: executing shard {shard} of task {item.get('task')}")
            busy_started = time.monotonic()
            try:
                result = execute_work_item(item, worker=me)
            except Exception as error:  # noqa: BLE001 - worker survives bad items
                result, outcome_error = None, shard_outcome_error(error)
                _ITEMS.labels(outcome="failed").inc()
                batch_failed += 1
                log(
                    f"repro worker {me}: shard {shard} failed: {error}",
                    file=sys.stderr,
                )
            else:
                outcome_error = None
                _ITEMS.labels(outcome="ok").inc()
                _BLOCKS.inc(len(result["blocks"]))
            _BUSY_SECONDS.inc(time.monotonic() - busy_started)
            outcome: dict = {"id": item["id"]}
            if result is not None:
                outcome["result"] = result
            if outcome_error is not None:
                outcome["error"] = outcome_error
            outcomes.append(outcome)

        try:
            client.post_work_results(
                worker_id, outcomes, telemetry=telemetry.payload()
            )
        except (ServiceError, OSError) as error:
            # The results are lost (the scheduler's shard timeout will
            # reassign them); the worker itself survives and keeps polling.
            log(
                f"repro worker {me}: could not post {len(outcomes)} "
                f"outcome(s) ({error}); continuing",
                file=sys.stderr,
            )
        else:
            done = len(outcomes) - batch_failed
            executed += done
            if done:
                log(f"repro worker {me}: {done} shard(s) done")
        idle_since = time.monotonic()
        if once and executed:
            return 0
