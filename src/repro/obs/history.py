"""The run-history ledger: a durable record of every engine and bench run.

All the telemetry the repo emits — metrics, traces, the overhead ledger —
is ephemeral: it dies with the process.  This module gives it a
longitudinal spine.  A :class:`RunLedger` is an append-only store of
schema-versioned JSON records under ``<cache>/history/``:

* **append** is O(1) and multi-process-safe: one ``fcntl.flock`` on a
  sidecar lock file guards a single ``write()`` of one NDJSON line to the
  active segment (``current.ndjson``).  Writers never rewrite existing
  bytes, so a crash can at worst leave one truncated trailing line —
  which readers skip, by design.
* **segments roll**: when the active segment outgrows
  ``max_segment_bytes`` it is renamed to ``segment-<n>-<nonce>.ndjson``
  (rename is atomic; readers holding an open handle are unaffected) and a
  fresh ``current.ndjson`` starts.
* **query** walks segments newest-first with filters on any record field
  plus ``since``/``until`` time bounds, stopping early at ``limit``.
* **prune** compacts: rewrite the surviving records into one fresh
  segment and delete the rest, under the same lock appends take.

Two record kinds share the ledger.  ``kind="run"`` records distill an
:class:`~repro.montecarlo.engine.EngineReport` (spec hash, backend,
executor, shard/cache counts, raw timings, the :data:`ATTRIBUTION_KEYS`
ledger, worker count, effective CPUs, package/git version);
``kind="bench"`` records carry one benchmark timing each.  The regression sentinel
(:mod:`repro.obs.sentinel`) reads comparable records back to classify
fresh runs as ok/warn/regressed.

Everything here is stdlib-only — the ledger is read on the service's
numpy-free request path (``GET /v1/runs``).  The root resolves as
``REPRO_HISTORY_DIR`` → ``$REPRO_CACHE_DIR/history`` →
``~/.cache/repro/history`` (the env names are kept in sync with
:mod:`repro.scenarios.cache`, which obs must not import); set
``REPRO_HISTORY=0`` to disable recording entirely.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
import uuid
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro._version import __version__
from repro.obs.metrics import REGISTRY

try:  # pragma: no cover - import guard exercised only off-Linux
    import fcntl
except ImportError:  # pragma: no cover - Windows: appends stay atomic-ish
    fcntl = None  # type: ignore[assignment]

#: Schema tag stamped into every ledger record.
HISTORY_SCHEMA_VERSION = 1

#: Overrides the ledger root directly (highest precedence).
HISTORY_DIR_ENV = "REPRO_HISTORY_DIR"

#: ``0``/``false``/``off``/``no`` disables default-ledger recording.
HISTORY_ENV = "REPRO_HISTORY"

# Kept in sync with repro.scenarios.cache (CACHE_DIR_ENV/DEFAULT_CACHE_DIR);
# duplicated literally because repro.obs must stay importable without the
# scenario layer on the service's request path.
_CACHE_DIR_ENV = "REPRO_CACHE_DIR"
_DEFAULT_CACHE_DIR = "~/.cache/repro"

#: Roll the active segment beyond this size (1 MiB ≈ a few thousand runs).
DEFAULT_MAX_SEGMENT_BYTES = 1 << 20

#: The overhead ledger's wall-equivalent components, in display order.
#: ``EngineReport.attribution``, run records' ``attribution``, the
#: ``repro_engine_phase_seconds`` phases and the BENCH ``breakdown`` all
#: carry exactly these keys, and together they sum to roughly the run's
#: wall clock.
ATTRIBUTION_KEYS = (
    "plan_seconds",
    "wire_seconds",
    "deserialize_seconds",
    "compute_seconds",
    "dispatch_seconds",
    "idle_seconds",
    "merge_seconds",
)

_RECORDS = REGISTRY.counter(
    "repro_history_records_total",
    "Records appended to the run-history ledger, by kind.",
    labelnames=("kind",),
)


def history_enabled() -> bool:
    """Whether default-ledger recording is on (``REPRO_HISTORY`` gate)."""
    return os.environ.get(HISTORY_ENV, "").strip().lower() not in (
        "0", "false", "off", "no",
    )


def default_history_root() -> Path:
    """Where the process-default ledger lives (env-resolved per call)."""
    override = os.environ.get(HISTORY_DIR_ENV)
    if override:
        return Path(override).expanduser()
    cache_root = os.environ.get(_CACHE_DIR_ENV) or _DEFAULT_CACHE_DIR
    return Path(cache_root).expanduser() / "history"


def effective_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware, stdlib)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


#: Cached ``git_revision()`` answer (sentinel ``""`` = not probed yet).
_GIT_REVISION: Optional[str] = ""


def git_revision() -> Optional[str]:
    """The working tree's short git revision, or ``None`` (best-effort).

    Probed once per process: run records are appended on every engine run
    and must not pay a subprocess each time.
    """
    global _GIT_REVISION
    if _GIT_REVISION == "":
        try:
            _GIT_REVISION = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True,
                text=True,
                timeout=5.0,
                check=True,
            ).stdout.strip() or None
        except Exception:
            _GIT_REVISION = None
    return _GIT_REVISION


class RunLedger:
    """Append-only NDJSON segments of run/bench records, with queries."""

    def __init__(
        self,
        root: Union[None, str, Path] = None,
        max_segment_bytes: int = DEFAULT_MAX_SEGMENT_BYTES,
    ) -> None:
        self.root = (
            Path(root).expanduser() if root is not None else default_history_root()
        )
        self.max_segment_bytes = int(max_segment_bytes)

    # -- paths -------------------------------------------------------------

    @property
    def current_path(self) -> Path:
        return self.root / "current.ndjson"

    @property
    def _lock_path(self) -> Path:
        return self.root / "history.lock"

    def segments(self) -> List[Path]:
        """Every segment file, oldest first (the active one last)."""
        if not self.root.is_dir():
            return []
        sealed = sorted(self.root.glob("segment-*.ndjson"))
        current = self.current_path
        return sealed + ([current] if current.is_file() else [])

    # -- locking -----------------------------------------------------------

    def _locked(self):
        """An exclusive-lock context over the ledger (no-op without fcntl)."""
        ledger = self

        class _Lock:
            def __enter__(self):
                self._handle = open(ledger._lock_path, "a")
                if fcntl is not None:
                    fcntl.flock(self._handle, fcntl.LOCK_EX)
                return self

            def __exit__(self, *exc_info):
                try:
                    if fcntl is not None:
                        fcntl.flock(self._handle, fcntl.LOCK_UN)
                finally:
                    self._handle.close()

        return _Lock()

    # -- writing -----------------------------------------------------------

    def append(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """Append one record (stamping ``v``/``id``/``ts``); returns it.

        One locked write of one line: concurrent appenders from any number
        of processes interleave whole records, never bytes.
        """
        record = dict(record)
        record.setdefault("v", HISTORY_SCHEMA_VERSION)
        record.setdefault("id", uuid.uuid4().hex[:16])
        record.setdefault("ts", time.time())
        record.setdefault("kind", "run")
        line = json.dumps(record, sort_keys=True, default=str) + "\n"
        self.root.mkdir(parents=True, exist_ok=True)
        with self._locked():
            self._repair_torn_tail()
            with open(self.current_path, "a", encoding="utf-8") as handle:
                handle.write(line)
                handle.flush()
            self._maybe_roll()
        _RECORDS.labels(kind=str(record["kind"])).inc()
        return record

    def _repair_torn_tail(self) -> None:
        """Newline-terminate a torn trailing line left by a crashed writer.

        Called under the ledger lock, before each append.  Without this
        the fresh record would concatenate onto the torn fragment and be
        lost with it; terminated, the fragment stays an isolated invalid
        line that readers skip.
        """
        try:
            with open(self.current_path, "rb+") as handle:
                handle.seek(0, os.SEEK_END)
                if handle.tell() == 0:
                    return
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    handle.write(b"\n")
        except OSError:
            return

    def _maybe_roll(self) -> None:
        """Seal the active segment once it outgrows the size budget.

        Called under the ledger lock.  The nonce keeps concurrent rollers
        (two processes racing past the threshold) from colliding on a name.
        """
        try:
            size = self.current_path.stat().st_size
        except OSError:
            return
        if size <= self.max_segment_bytes:
            return
        index = len(list(self.root.glob("segment-*.ndjson")))
        target = self.root / (
            f"segment-{index:06d}-{uuid.uuid4().hex[:8]}.ndjson"
        )
        try:
            self.current_path.rename(target)
        except OSError:
            pass

    # -- reading -----------------------------------------------------------

    def _iter_segment(self, path: Path) -> Iterator[Dict[str, Any]]:
        """Records in one segment, skipping torn/corrupt lines.

        A truncated trailing line is the expected crash artifact of an
        interrupted append — tolerated, never fatal.
        """
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue
                    if isinstance(record, dict):
                        yield record
        except OSError:
            return

    @staticmethod
    def _matches(
        record: Dict[str, Any],
        filters: Dict[str, Any],
        since: Optional[float],
        until: Optional[float],
    ) -> bool:
        ts = record.get("ts")
        if since is not None and (ts is None or float(ts) < since):
            return False
        if until is not None and (ts is None or float(ts) > until):
            return False
        for field, wanted in filters.items():
            value = record.get(field)
            if value == wanted:
                continue
            # Query-string filters arrive as text; compare loosely so
            # e.g. effective_cpus="2" matches the stored integer.
            if isinstance(wanted, str) and str(value) == wanted:
                continue
            return False
        return True

    def query(
        self,
        *,
        limit: Optional[int] = None,
        newest_first: bool = True,
        since: Optional[float] = None,
        until: Optional[float] = None,
        **filters: Any,
    ) -> List[Dict[str, Any]]:
        """Matching records, newest first by default.

        ``filters`` are equality constraints on record fields (``kind``,
        ``scenario``, ``backend``, ``executor``, ``spec_hash``, …);
        ``since``/``until`` bound the ``ts`` stamp.  With ``limit`` the
        newest-first walk stops early — the common "last N comparable
        runs" read touches only the newest segment(s).
        """
        out: List[Dict[str, Any]] = []
        for path in reversed(self.segments()):
            segment = [
                record
                for record in self._iter_segment(path)
                if self._matches(record, filters, since, until)
            ]
            out.extend(reversed(segment))
            if limit is not None and len(out) >= limit:
                out = out[:limit]
                break
        return out if newest_first else out[::-1]

    def get(self, record_id: str) -> Optional[Dict[str, Any]]:
        """The record with this id, or ``None``."""
        matches = self.query(limit=1, id=record_id)
        return matches[0] if matches else None

    def __len__(self) -> int:
        return sum(1 for path in self.segments() for _ in self._iter_segment(path))

    # -- compaction --------------------------------------------------------

    def prune(
        self,
        keep: Optional[int] = None,
        older_than: Optional[float] = None,
    ) -> Tuple[int, int]:
        """Compact the ledger; returns ``(kept, dropped)``.

        ``keep`` retains only the newest N records; ``older_than`` (a
        ``ts`` cutoff, records strictly older are dropped) composes with
        it.  Survivors are rewritten oldest-first into a fresh active
        segment via an atomic replace, and sealed segments are deleted —
        all under the append lock, so concurrent writers are safe.
        """
        with self._locked():
            records = [
                record
                for path in self.segments()
                for record in self._iter_segment(path)
            ]
            total = len(records)
            if older_than is not None:
                records = [
                    r for r in records if float(r.get("ts") or 0.0) >= older_than
                ]
            if keep is not None and len(records) > keep:
                records = records[len(records) - keep:]
            self.root.mkdir(parents=True, exist_ok=True)
            scratch = self.root / "compact.tmp"
            with open(scratch, "w", encoding="utf-8") as handle:
                for record in records:
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
            for path in self.segments():
                if path != self.current_path:
                    path.unlink(missing_ok=True)
            scratch.replace(self.current_path)
            return len(records), total - len(records)


def default_ledger() -> RunLedger:
    """A ledger at the process-default root (cheap: just path resolution)."""
    return RunLedger()


# ---------------------------------------------------------------------------
# Record builders + append-and-evaluate helpers
# ---------------------------------------------------------------------------


def record_engine_run(
    report: Any,
    *,
    scenario: str,
    spec_hash: Optional[str],
    backend: str,
    executor: str,
    realisations: int,
    workers: Optional[int] = None,
    ledger: Optional[RunLedger] = None,
) -> Optional[Dict[str, Any]]:
    """Distill an :class:`EngineReport` into a ``kind="run"`` record.

    Appends to ``ledger`` (the default one when ``None``), evaluates the
    regression sentinel against comparable history and exports its
    verdicts as ``repro_sentinel_verdict`` gauges.  Never raises and
    returns ``None`` when recording is disabled or fails — a telemetry
    write must not take an engine run down with it.
    """
    if ledger is None:
        if not history_enabled():
            return None
        ledger = default_ledger()
    try:
        record = {
            "kind": "run",
            "scenario": scenario,
            "spec_hash": spec_hash,
            "backend": backend,
            "executor": executor,
            "realisations": int(realisations),
            "workers": workers,
            "effective_cpus": effective_cpus(),
            "blocks_total": report.blocks_total,
            "blocks_cached": report.blocks_cached,
            "shards_dispatched": report.shards_dispatched,
            "wall_seconds": float(report.wall_seconds),
            "timings": dict(report.timings),
            "attribution": dict(report.attribution),
            "repro_version": __version__,
            "git_revision": git_revision(),
        }
        record = ledger.append(record)
    except Exception:
        return None
    try:
        from repro.obs import sentinel

        sentinel.export_verdicts(sentinel.evaluate(ledger, record))
    except Exception:
        pass
    return record


def _bench_record(
    payload: Dict[str, Any], timing: Dict[str, Any]
) -> Dict[str, Any]:
    """One ``kind="bench"`` record from a distributed-report timing."""
    return {
        "kind": "bench",
        "scenario": payload.get("scenario"),
        "backend": payload.get("backend"),
        "shards": payload.get("shards"),
        "shard_block": payload.get("shard_block"),
        "realisations": payload.get("realisations"),
        "seed": payload.get("seed"),
        "quick": payload.get("quick"),
        "worker_count": timing.get("worker_count"),
        "wall_seconds": timing.get("wall_seconds"),
        "throughput": timing.get("throughput"),
        "mean_completion_time": timing.get("mean_completion_time"),
        "skipped": bool(timing.get("skipped", False)),
        "effective_cpus": payload.get("summary", {}).get(
            "effective_cpus", payload.get("effective_cpus")
        ),
        "repro_version": __version__,
        "git_revision": git_revision(),
    }


def record_distributed_report(
    payload: Dict[str, Any], ledger: Optional[RunLedger] = None
) -> List[Dict[str, Any]]:
    """Append one bench record per timing of a distributed bench report.

    ``payload`` is a ``DistributedBenchmarkReport.to_dict()`` (fresh or a
    committed ``BENCH_distributed.json``/``BENCH_scaling.json`` — this is
    also the ``repro history import`` path that seeds CI's regression
    baseline).  Returns the appended records, ``[]`` when disabled.
    """
    if ledger is None:
        if not history_enabled():
            return []
        ledger = default_ledger()
    return [
        ledger.append(_bench_record(payload, timing))
        for timing in payload.get("timings", ())
    ]


def record_backend_report(
    payload: Dict[str, Any], ledger: Optional[RunLedger] = None
) -> List[Dict[str, Any]]:
    """Append one bench record per scenario×backend of a backend report.

    ``payload`` is a ``BenchmarkReport.to_dict()`` (``BENCH_results.json``
    shape).  ``worker_count`` is ``None`` — the backend harness times the
    inline engine, so records match on scenario/backend/realisations/seed
    alone.
    """
    if ledger is None:
        if not history_enabled():
            return []
        ledger = default_ledger()
    records = []
    for scenario in payload.get("scenarios", ()):
        for backend, timing in scenario.get("timings", {}).items():
            records.append(
                ledger.append(
                    {
                        "kind": "bench",
                        "scenario": scenario.get("name"),
                        "backend": backend,
                        "shards": None,
                        "shard_block": None,
                        "realisations": scenario.get("realisations"),
                        "seed": scenario.get("seed"),
                        "quick": payload.get("quick"),
                        "worker_count": None,
                        "wall_seconds": timing.get("wall_seconds"),
                        "throughput": timing.get("throughput"),
                        "mean_completion_time": timing.get(
                            "mean_completion_time"
                        ),
                        "skipped": False,
                        "effective_cpus": effective_cpus(),
                        "repro_version": __version__,
                        "git_revision": git_revision(),
                    }
                )
            )
    return records
