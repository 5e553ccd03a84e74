"""Fleet metrics aggregation: worker registries, merged service-side.

``repro worker`` processes keep their own :class:`MetricsRegistry`
(claim overhead, blocks executed, busy time).  Each worker piggybacks its
full cumulative ``snapshot()`` — tagged with a monotonically increasing
``seq`` — on the claim/result posts it already makes; the service feeds
them to a :class:`FleetAggregator`, which keeps the **latest** snapshot
per worker and exposes two read sides:

* :meth:`FleetAggregator.registry` — a fresh registry holding every
  worker's series relabelled with ``worker="<name>"``, rendered onto
  ``GET /metrics`` next to the service's own registry (via
  :func:`repro.obs.metrics.render_many`);
* :meth:`FleetAggregator.summary` — the ``GET /v1/fleet`` JSON: per-worker
  derived stats (items/s, busy fraction, mean claim overhead) plus fleet
  totals, which ``repro fleet`` renders as a table.

Cumulative-snapshot-with-replace beats shipping deltas: a worker that
re-posts after a retry (the service restarted mid-ack, the HTTP call
timed out after the service processed it) simply overwrites its own slot
— ingestion is idempotent by construction, and the ``seq`` guard drops
reordered stale posts.  Nothing here double-counts.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Mapping, Optional

from repro.obs.metrics import MetricsRegistry, histogram_quantile

#: Label injected onto every aggregated worker series.
WORKER_LABEL = "worker"


def relabel_snapshot(
    snapshot: Mapping[str, Any], **labels: str
) -> Dict[str, Any]:
    """A copy of ``snapshot`` with extra labels on every family/series."""
    out: Dict[str, Any] = {}
    for name, payload in snapshot.items():
        family = dict(payload)
        family["labelnames"] = list(payload.get("labelnames", ())) + [
            label for label in labels if label not in payload.get("labelnames", ())
        ]
        family["series"] = [
            {**entry, "labels": {**entry.get("labels", {}), **labels}}
            for entry in payload.get("series", ())
        ]
        out[name] = family
    return out


class _WorkerSlot:
    """Latest snapshot plus ingestion bookkeeping for one worker."""

    __slots__ = ("worker_id", "name", "seq", "snapshot", "first_seen", "last_seen")

    def __init__(self, worker_id: str) -> None:
        self.worker_id = worker_id
        self.name = worker_id
        self.seq = -1
        self.snapshot: Dict[str, Any] = {}
        self.first_seen: Optional[float] = None
        self.last_seen: Optional[float] = None


class FleetAggregator:
    """Latest cumulative metrics snapshot per worker, queryable fleet-wide."""

    def __init__(self, clock=time.monotonic) -> None:
        self._lock = threading.Lock()
        self._clock = clock
        self._workers: Dict[str, _WorkerSlot] = {}

    def ingest(
        self,
        worker_id: str,
        snapshot: Mapping[str, Any],
        *,
        seq: Optional[int] = None,
        name: Optional[str] = None,
    ) -> bool:
        """Absorb one worker snapshot; ``False`` means stale (dropped).

        Replace semantics: the snapshot is the worker's cumulative truth,
        so re-posting the same ``seq`` (a retried HTTP call) lands on the
        exact same state.  A ``seq`` lower than one already seen is a
        reordered duplicate and is ignored.  ``seq=None`` always replaces
        (trusting transport ordering).
        """
        if not isinstance(snapshot, Mapping):
            return False
        with self._lock:
            slot = self._workers.get(worker_id)
            if slot is None:
                slot = self._workers[worker_id] = _WorkerSlot(worker_id)
            if seq is not None:
                if seq < slot.seq:
                    return False
                slot.seq = int(seq)
            slot.snapshot = dict(snapshot)
            if name:
                slot.name = str(name)
            now = self._clock()
            if slot.first_seen is None:
                slot.first_seen = now
            slot.last_seen = now
            return True

    def forget(self, worker_id: str) -> None:
        with self._lock:
            self._workers.pop(worker_id, None)

    def worker_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._workers)

    # -- read side ---------------------------------------------------------

    def registry(self) -> MetricsRegistry:
        """A fresh registry of every worker's series, ``worker``-labelled.

        Built per scrape: snapshots are small (a handful of families per
        worker) and building fresh sidesteps any unmerge/expiry logic.
        """
        registry = MetricsRegistry()
        with self._lock:
            slots = list(self._workers.values())
        for slot in slots:
            registry.merge(relabel_snapshot(slot.snapshot, worker=slot.name))
        return registry

    def summary(self) -> Dict[str, Any]:
        """The ``GET /v1/fleet`` payload: per-worker and fleet-wide stats."""
        with self._lock:
            slots = list(self._workers.values())
            now = self._clock()
        workers = []
        for slot in sorted(slots, key=lambda s: s.name):
            snap = slot.snapshot
            busy = _value(snap, "repro_worker_busy_seconds_total")
            items_ok = _value(snap, "repro_worker_items_total", outcome="ok")
            items_failed = _value(
                snap, "repro_worker_items_total", outcome="failed"
            )
            claim_sum, claim_count = _histogram(snap, "repro_worker_claim_seconds")
            elapsed = (
                max(0.0, now - slot.first_seen)
                if slot.first_seen is not None else 0.0
            )
            workers.append({
                "id": slot.worker_id,
                "name": slot.name,
                "seq": slot.seq,
                "seconds_since_report": (
                    max(0.0, now - slot.last_seen)
                    if slot.last_seen is not None else None
                ),
                "items_ok": items_ok,
                "items_failed": items_failed,
                "blocks": _value(snap, "repro_worker_blocks_total"),
                "busy_seconds": busy,
                "busy_fraction": (
                    min(1.0, busy / elapsed) if elapsed > 0 else None
                ),
                "items_per_second": (
                    items_ok / elapsed if elapsed > 0 else None
                ),
                "claims": _value(snap, "repro_worker_claims_total", outcome="item"),
                "claims_empty": _value(
                    snap, "repro_worker_claims_total", outcome="empty"
                ),
                "claim_seconds_mean": (
                    claim_sum / claim_count if claim_count else None
                ),
                "claim_seconds_p50": _quantile(
                    (snap,), "repro_worker_claim_seconds", 0.50
                ),
                "claim_seconds_p95": _quantile(
                    (snap,), "repro_worker_claim_seconds", 0.95
                ),
            })
        fleet_claim_sum = sum(
            _histogram(s.snapshot, "repro_worker_claim_seconds")[0] for s in slots
        )
        fleet_claim_count = sum(
            _histogram(s.snapshot, "repro_worker_claim_seconds")[1] for s in slots
        )
        fractions = [
            w["busy_fraction"] for w in workers if w["busy_fraction"] is not None
        ]
        return {
            "workers": workers,
            "fleet": {
                "size": len(workers),
                "items_ok": sum(w["items_ok"] for w in workers),
                "items_failed": sum(w["items_failed"] for w in workers),
                "blocks": sum(w["blocks"] for w in workers),
                "busy_seconds": sum(w["busy_seconds"] for w in workers),
                "busy_fraction": (
                    sum(fractions) / len(fractions) if fractions else None
                ),
                "items_per_second": sum(
                    w["items_per_second"] or 0.0 for w in workers
                ),
                "claim_seconds_mean": (
                    fleet_claim_sum / fleet_claim_count
                    if fleet_claim_count else None
                ),
                "claim_seconds_p50": _quantile(
                    [s.snapshot for s in slots],
                    "repro_worker_claim_seconds", 0.50,
                ),
                "claim_seconds_p95": _quantile(
                    [s.snapshot for s in slots],
                    "repro_worker_claim_seconds", 0.95,
                ),
            },
        }


def _value(snapshot: Mapping[str, Any], family: str, **labels: str) -> float:
    """Sum of matching counter/gauge series values in a snapshot (0.0 if absent)."""
    payload = snapshot.get(family)
    if not payload:
        return 0.0
    total = 0.0
    for entry in payload.get("series", ()):
        entry_labels = entry.get("labels", {})
        if all(entry_labels.get(k) == v for k, v in labels.items()):
            total += float(entry.get("value", 0.0))
    return total


def _histogram(snapshot: Mapping[str, Any], family: str, **labels: str):
    """(sum, count) over matching histogram series ((0.0, 0) if absent)."""
    payload = snapshot.get(family)
    if not payload:
        return 0.0, 0
    total, count = 0.0, 0
    for entry in payload.get("series", ()):
        entry_labels = entry.get("labels", {})
        if all(entry_labels.get(k) == v for k, v in labels.items()):
            total += float(entry.get("sum", 0.0))
            count += int(entry.get("count", 0))
    return total, count


def _histogram_buckets(
    snapshots, family: str, **labels: str
):
    """(buckets, summed per-bucket counts) across snapshots, or ``None``.

    Workers share one code path and therefore one bucket layout, so
    summing the per-bucket counts across snapshots gives the fleet-wide
    distribution; a snapshot with a different layout is skipped rather
    than mis-summed.
    """
    buckets = None
    counts: Optional[List[int]] = None
    for snapshot in snapshots:
        payload = snapshot.get(family)
        if not payload:
            continue
        layout = payload.get("buckets")
        if layout is None:
            continue
        if buckets is None:
            buckets = list(layout)
            counts = [0] * len(buckets)
        elif list(layout) != buckets:
            continue
        for entry in payload.get("series", ()):
            entry_labels = entry.get("labels", {})
            if all(entry_labels.get(k) == v for k, v in labels.items()):
                for i, c in enumerate(entry.get("counts", ())):
                    counts[i] += int(c)
    if buckets is None or counts is None:
        return None
    return buckets, counts


def _quantile(snapshots, family: str, q: float, **labels: str) -> Optional[float]:
    """A quantile of a histogram family summed across snapshots."""
    merged = _histogram_buckets(snapshots, family, **labels)
    if merged is None:
        return None
    buckets, counts = merged
    return histogram_quantile(buckets, counts, q)


def render_fleet_table(summary: Mapping[str, Any]) -> str:
    """The ``repro fleet`` table (plain text, stdlib-only)."""
    headers = (
        "worker", "items", "failed", "blocks", "busy",
        "busy%", "items/s", "claim ms", "p50 ms", "p95 ms", "last seen",
    )
    rows: List[List[str]] = []
    for worker in summary.get("workers", ()):
        rows.append([
            str(worker.get("name", "?")),
            _fmt_count(worker.get("items_ok")),
            _fmt_count(worker.get("items_failed")),
            _fmt_count(worker.get("blocks")),
            _fmt_seconds(worker.get("busy_seconds")),
            _fmt_fraction(worker.get("busy_fraction")),
            _fmt_rate(worker.get("items_per_second")),
            _fmt_millis(worker.get("claim_seconds_mean")),
            _fmt_millis(worker.get("claim_seconds_p50")),
            _fmt_millis(worker.get("claim_seconds_p95")),
            _fmt_ago(worker.get("seconds_since_report")),
        ])
    fleet = summary.get("fleet", {})
    rows.append([
        f"fleet ({fleet.get('size', 0)})",
        _fmt_count(fleet.get("items_ok")),
        _fmt_count(fleet.get("items_failed")),
        _fmt_count(fleet.get("blocks")),
        _fmt_seconds(fleet.get("busy_seconds")),
        _fmt_fraction(fleet.get("busy_fraction")),
        _fmt_rate(fleet.get("items_per_second")),
        _fmt_millis(fleet.get("claim_seconds_mean")),
        _fmt_millis(fleet.get("claim_seconds_p50")),
        _fmt_millis(fleet.get("claim_seconds_p95")),
        "",
    ])
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        )
    return "\n".join(lines)


def _fmt_count(value) -> str:
    return "0" if not value else str(int(value))


def _fmt_seconds(value) -> str:
    return "-" if value is None else f"{value:.1f}s"


def _fmt_fraction(value) -> str:
    return "-" if value is None else f"{value * 100:.0f}%"


def _fmt_rate(value) -> str:
    return "-" if value is None else f"{value:.2f}"


def _fmt_millis(value) -> str:
    return "-" if value is None else f"{value * 1000:.1f}"


def _fmt_ago(value) -> str:
    return "-" if value is None else f"{value:.0f}s ago"
