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
* **long-poll claims** — a claim that finds nothing queued parks on the
  service for up to :data:`CLAIM_WAIT_SECONDS` and returns the moment
  the scheduler queues an item for this worker, so an idle worker neither
  sleeps through new work nor hammers ``/v1/workers/{id}/claim``.

Failures inside a work item are posted back as structured errors (the
scheduler decides whether to retry elsewhere); failures of the *service
connection* are retried every :data:`RETRY_PAUSE_SECONDS` until
``max_idle`` expires, and a claim is retried under its own token, so the
board replays the items of a claim whose reply was lost.
"""

from __future__ import annotations

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
    "Claim overhead: the claim-work HTTP round-trip minus the time the "
    "claim spent parked on the service.",
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

#: Longest a claim asks the service to park it while nothing is queued,
#: seconds: well under the worker's 30 s client timeout (the service caps
#: it further, at half its worker timeout).
CLAIM_WAIT_SECONDS = 10.0

#: Pause after a failed request before the worker tries again, seconds.
RETRY_PAUSE_SECONDS = 0.5


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
    max_idle: Optional[float] = None,
    once: bool = False,
    batch: int = DEFAULT_CLAIM_BATCH,
    log=print,
) -> int:
    """Serve shard work items from the service at ``connect`` until stopped.

    ``max_idle`` exits cleanly after that many seconds without work (used
    by tests and batch jobs; a parked claim never waits past it);
    ``once`` exits after the first batch that completes at least one
    item.  ``batch`` is the number of work items requested per claim
    round-trip (the service may hand back fewer).  Returns a process exit
    code.
    """
    from repro.service.client import ServiceClient, ServiceError

    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch!r}")
    client = ServiceClient(connect, timeout=30.0)
    me = worker_name(name)
    telemetry = _Telemetry(me)

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
                time.sleep(RETRY_PAUSE_SECONDS)

    worker_id = register()
    if worker_id is None:
        return 1
    log(f"repro worker {me} registered as {worker_id} at {connect}", flush=True)

    idle_since = time.monotonic()
    executed = 0
    claim_seq = 1
    while True:
        wait = CLAIM_WAIT_SECONDS
        if max_idle is not None:
            idle_left = max_idle - (time.monotonic() - idle_since)
            wait = max(0.0, min(wait, idle_left))
        claim_started = time.monotonic()
        try:
            claim = client.claim_work_batch(
                worker_id,
                batch=batch,
                token=f"{worker_id}:{claim_seq}",
                telemetry=telemetry.payload_if_due(),
                wait=wait,
            )
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
            time.sleep(RETRY_PAUSE_SECONDS)
            continue
        except OSError as error:
            _CLAIMS.labels(outcome="error").inc()
            # The service may be restarting or gone; linger until max_idle.
            if max_idle is not None and time.monotonic() - idle_since > max_idle:
                log(f"repro worker {me}: service unreachable ({error}); exiting")
                return 1
            time.sleep(RETRY_PAUSE_SECONDS)
            continue
        # Only an answered claim moves the token on: a retry of a claim
        # whose reply was lost reuses it, and the board replays the items
        # it already moved to `claimed` instead of stranding them.
        claim_seq += 1
        _CLAIM_SECONDS.observe(
            max(0.0, time.monotonic() - claim_started - claim.parked)
        )
        items = claim.items

        if not items:
            # Parked until its deadline with nothing queued: claim again
            # at once unless the idle budget is spent.
            _CLAIMS.labels(outcome="empty").inc()
            if max_idle is not None and time.monotonic() - idle_since >= max_idle:
                log(f"repro worker {me}: idle for {max_idle:g}s; exiting")
                return 0
            continue

        _CLAIMS.labels(outcome="item").inc()
        _CLAIM_BATCH.observe(float(len(items)))
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
            # reassign them); the worker itself survives and keeps claiming.
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
