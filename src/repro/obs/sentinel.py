"""Regression sentinel: classify fresh runs against their own history.

Given a record just appended to the :class:`~repro.obs.history.RunLedger`,
the sentinel pulls the last N *comparable* records — same spec hash,
backend, executor and effective CPU budget for ``kind="run"`` records;
same scenario, backend, realisation count, seed, shard count and worker
count for ``kind="bench"`` ones — and classifies each check as

* ``ok`` — within the rolling baseline,
* ``warn`` — drifted beyond ``median ± 3·(1.4826·MAD)`` (or 25 % of the
  median, whichever is larger),
* ``regressed`` — beyond ``median ± 6·(1.4826·MAD)`` or 50 % of the
  median (a 3× slowdown always lands here),
* ``skipped`` — no value, too little comparable history
  (``min_records``), or a timeshared bench point (``skipped: true``).

The checks: **throughput** (higher is better; run records use *computed*
realisations per wall second and skip pure cache-hit runs), **dispatch
overhead** (lower is better: the record's ``attribution`` ledger summed
over :data:`OVERHEAD_KEYS`, with a 50 ms absolute floor so microsecond
jitter never pages anyone) and **cache hit ratio** (higher is better,
0.1-ratio-point floor).  Median ± MAD is the robust choice: one outlier
baseline run widens the band instead of poisoning a mean.

Verdicts export as ``repro_sentinel_verdict{check=...}`` gauges
(0 = ok, 1 = warn, 2 = regressed) so a running service's ``/metrics``
shows drift, and :func:`evaluate` backs ``repro bench
--check-regression`` and ``repro history show``.  Stdlib-only, like the
rest of :mod:`repro.obs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import median
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.history import RunLedger
from repro.obs.metrics import REGISTRY

#: Gaussian consistency constant: MAD × this ≈ one standard deviation.
MAD_SCALE = 1.4826

#: Comparable records considered per baseline.
DEFAULT_WINDOW = 20

#: Baseline size below which a check is ``skipped`` rather than judged.
DEFAULT_MIN_RECORDS = 3

#: Fields two ``kind="run"`` records must share to be comparable.
RUN_MATCH_FIELDS = ("spec_hash", "backend", "executor", "effective_cpus")

#: Fields two ``kind="bench"`` records must share to be comparable.
#: ``effective_cpus`` is deliberately absent: committed baselines come
#: from whatever box regenerated them, and CI should still gate against
#: them (a timeshared baseline is a loose floor, not garbage).
BENCH_MATCH_FIELDS = (
    "scenario", "backend", "realisations", "seed", "shards", "worker_count",
)

#: The ledger components the dispatch-overhead check sums: everything a
#: run spent beyond planning, compute and merging.
OVERHEAD_KEYS = (
    "wire_seconds", "deserialize_seconds", "dispatch_seconds", "idle_seconds",
)

#: Check name -> (direction, absolute floor on the drift threshold).
CHECKS: Dict[str, Tuple[bool, float]] = {
    "throughput": (True, 0.0),
    "dispatch_overhead": (False, 0.05),
    "cache_hit_ratio": (True, 0.1),
}

_VERDICT = REGISTRY.gauge(
    "repro_sentinel_verdict",
    "Latest regression-sentinel verdict per check (0 ok, 1 warn, 2 regressed).",
    labelnames=("check",),
)

_STATUS_VALUE = {"ok": 0, "warn": 1, "regressed": 2}

#: Severity order for the report-level verdict.
_STATUS_RANK = {"skipped": 0, "ok": 1, "warn": 2, "regressed": 3}


@dataclass
class CheckResult:
    """One check's verdict against its rolling baseline."""

    check: str
    status: str
    value: Optional[float] = None
    baseline_median: Optional[float] = None
    baseline_mad: Optional[float] = None
    baseline_size: int = 0
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "check": self.check,
            "status": self.status,
            "value": self.value,
            "baseline_median": self.baseline_median,
            "baseline_mad": self.baseline_mad,
            "baseline_size": self.baseline_size,
            "detail": self.detail,
        }


@dataclass
class SentinelReport:
    """Every check's verdict for one record."""

    record_id: Optional[str]
    checks: List[CheckResult] = field(default_factory=list)

    @property
    def status(self) -> str:
        """The worst individual status (``skipped`` when nothing judged)."""
        if not self.checks:
            return "skipped"
        return max(
            (c.status for c in self.checks), key=lambda s: _STATUS_RANK[s]
        )

    @property
    def regressed(self) -> bool:
        return self.status == "regressed"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "record_id": self.record_id,
            "status": self.status,
            "checks": [c.to_dict() for c in self.checks],
        }

    def render(self) -> str:
        lines = []
        for check in self.checks:
            parts = [f"{check.check:<18} {check.status:<9}"]
            if check.value is not None:
                parts.append(f"value {check.value:.4g}")
            if check.baseline_median is not None:
                parts.append(
                    f"baseline {check.baseline_median:.4g} "
                    f"± {MAD_SCALE * (check.baseline_mad or 0.0):.2g} "
                    f"(n={check.baseline_size})"
                )
            if check.detail:
                parts.append(f"— {check.detail}")
            lines.append("  ".join(parts))
        lines.append(f"sentinel verdict: {self.status}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Value extraction per record kind
# ---------------------------------------------------------------------------


def check_value(record: Dict[str, Any], check: str) -> Optional[float]:
    """The value a check judges for one record, or ``None`` (not measured).

    Run-record throughput counts only *computed* realisations — a run
    served partly (or wholly) from the block cache would otherwise look
    like a miraculous speedup and poison the baseline for real work.
    """
    if record.get("kind") == "bench":
        if check == "throughput":
            value = record.get("throughput")
            return None if value is None else float(value)
        return None
    blocks_total = int(record.get("blocks_total") or 0)
    blocks_cached = int(record.get("blocks_cached") or 0)
    computed = blocks_total - blocks_cached
    if check == "throughput":
        wall = float(record.get("wall_seconds") or 0.0)
        realisations = float(record.get("realisations") or 0.0)
        if computed <= 0 or blocks_total <= 0 or wall <= 0.0:
            return None
        return realisations * (computed / blocks_total) / wall
    if check == "dispatch_overhead":
        attribution = record.get("attribution")
        if computed <= 0 or not attribution:
            return None
        return sum(float(attribution.get(key, 0.0)) for key in OVERHEAD_KEYS)
    if check == "cache_hit_ratio":
        if blocks_total <= 0:
            return None
        return blocks_cached / blocks_total
    raise ValueError(f"unknown sentinel check {check!r}")


def comparable_records(
    ledger: RunLedger,
    record: Dict[str, Any],
    window: int = DEFAULT_WINDOW,
) -> List[Dict[str, Any]]:
    """The last ``window`` ledger records comparable to ``record``.

    Matched on :data:`RUN_MATCH_FIELDS` / :data:`BENCH_MATCH_FIELDS` by
    kind; the record itself (by id) is excluded so a just-appended run is
    judged against its *predecessors*.
    """
    kind = record.get("kind", "run")
    fields = BENCH_MATCH_FIELDS if kind == "bench" else RUN_MATCH_FIELDS
    filters = {name: record.get(name) for name in fields}
    matches = ledger.query(
        limit=window + 1, newest_first=True, kind=kind, **filters
    )
    own_id = record.get("id")
    return [m for m in matches if m.get("id") != own_id][:window]


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def classify(
    value: Optional[float],
    baseline: Sequence[float],
    *,
    higher_better: bool,
    abs_floor: float = 0.0,
    min_records: int = DEFAULT_MIN_RECORDS,
) -> CheckResult:
    """Judge one value against a baseline sample (median ± MAD bands)."""
    values = [float(v) for v in baseline if v is not None]
    if value is None:
        return CheckResult(
            check="", status="skipped", detail="not measured on this record"
        )
    if len(values) < min_records:
        return CheckResult(
            check="",
            status="skipped",
            value=value,
            baseline_size=len(values),
            detail=(
                f"only {len(values)} comparable record(s), "
                f"need {min_records}"
            ),
        )
    med = median(values)
    mad = median(abs(v - med) for v in values)
    # Drift in the *bad* direction only — getting faster is never a page.
    bad_delta = (med - value) if higher_better else (value - med)
    spread = MAD_SCALE * mad
    warn_threshold = max(3.0 * spread, 0.25 * abs(med), abs_floor)
    regress_threshold = max(6.0 * spread, 0.50 * abs(med), abs_floor)
    if bad_delta > regress_threshold:
        status = "regressed"
    elif bad_delta > warn_threshold:
        status = "warn"
    else:
        status = "ok"
    return CheckResult(
        check="",
        status=status,
        value=value,
        baseline_median=med,
        baseline_mad=mad,
        baseline_size=len(values),
        detail=(
            ""
            if status == "ok"
            else f"drifted {bad_delta:.4g} beyond the median "
            f"(warn > {warn_threshold:.4g}, regressed > "
            f"{regress_threshold:.4g})"
        ),
    )


def evaluate(
    ledger: RunLedger,
    record: Dict[str, Any],
    *,
    checks: Optional[Sequence[str]] = None,
    window: int = DEFAULT_WINDOW,
    min_records: int = DEFAULT_MIN_RECORDS,
) -> SentinelReport:
    """Classify ``record`` against its comparable ledger history.

    ``checks`` defaults to all of throughput / dispatch overhead / cache
    hit ratio (bench records only ever measure throughput; the rest come
    back ``skipped``).  A bench record flagged ``skipped: true`` (worker
    count beyond the effective CPUs — timeshared cores) is never judged.
    """
    report = SentinelReport(record_id=record.get("id"))
    names = tuple(checks) if checks is not None else tuple(CHECKS)
    if record.get("kind") == "bench" and record.get("skipped"):
        for name in names:
            report.checks.append(
                CheckResult(
                    check=name,
                    status="skipped",
                    detail="timeshared measurement "
                    "(worker_count > effective_cpus)",
                )
            )
        return report
    history = comparable_records(ledger, record, window=window)
    for name in names:
        higher_better, abs_floor = CHECKS[name]
        baseline = [
            v
            for v in (check_value(prior, name) for prior in history)
            if v is not None
        ]
        result = classify(
            check_value(record, name),
            baseline,
            higher_better=higher_better,
            abs_floor=abs_floor,
            min_records=min_records,
        )
        result.check = name
        report.checks.append(result)
    return report


def export_verdicts(report: SentinelReport) -> None:
    """Publish judged checks as ``repro_sentinel_verdict`` gauges.

    Skipped checks leave the gauge untouched — a service that has never
    had enough history simply exposes no verdict series.
    """
    for check in report.checks:
        value = _STATUS_VALUE.get(check.status)
        if value is not None:
            _VERDICT.labels(check=check.check).set(value)
