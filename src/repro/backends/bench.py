"""Benchmark harness: time execution backends against each other.

The harness takes Monte-Carlo scenarios from the registry (``mc_point``
kind — the ``mc-scaling`` throughput workload, ``smoke``, the
failure-sweep/multinode/churn family points, …), runs every requested
backend on each, and reports

* **throughput** — wall-clock seconds and realisations/second per backend,
* **speed-up** — each backend's wall time relative to ``reference``, and
* **statistical parity** — a two-sample Kolmogorov–Smirnov test between
  the reference backend's completion-time sample and every other
  backend's: an optimised kernel that drifts from the reference
  distribution is a bug, however fast it is.

Results serialize to a machine-readable ``BENCH_results.json`` (see
:meth:`BenchmarkReport.to_dict` for the schema), which is what CI uploads
as the perf-trajectory artefact.  The harness deliberately bypasses the
scenario result cache: it measures computation, not disk reads.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro._version import __version__
from repro.scenarios.spec import PolicySpec, ScenarioSpec

#: JSON schema version of ``BENCH_results.json``.
BENCH_SCHEMA_VERSION = 1

#: Default significance level of the parity gate.  Scenario seeds are
#: fixed, so a pass/fail verdict is deterministic, not flaky.
DEFAULT_ALPHA = 0.01

#: Backends timed when none are requested explicitly.
DEFAULT_BACKENDS = ("reference", "vectorized")

#: Scenarios benchmarked by ``--quick`` (the CI smoke set).
QUICK_SCENARIOS = ("mc-scaling", "smoke", "churn/paper")


def bench_scenario_names() -> Tuple[str, ...]:
    """Every registry point the harness can time (``mc_point`` kind).

    Named scenarios come first, then family points in expansion order.
    """
    from repro.scenarios import registry

    names: List[str] = [
        name
        for name in registry.scenario_names()
        if registry.get_entry(name).spec.kind == "mc_point"
    ]
    for family_name in registry.family_names():
        for spec in registry.get_family(family_name).expand(quick=False):
            if spec.kind == "mc_point":
                names.append(spec.name)
    return tuple(names)


@dataclass
class BackendTiming:
    """Wall-clock measurement of one backend on one scenario."""

    backend: str
    wall_seconds: float
    realisations: int
    mean_completion_time: float
    std_completion_time: float

    @property
    def throughput(self) -> float:
        """Realisations per second."""
        if self.wall_seconds <= 0.0:
            return float("inf")
        return self.realisations / self.wall_seconds

    def to_dict(self) -> Dict[str, object]:
        payload = asdict(self)
        payload["throughput"] = self.throughput
        return payload


@dataclass
class ParityCheck:
    """KS-test verdict between a backend's sample and the reference's."""

    backend: str
    ks_statistic: float
    ks_pvalue: float
    alpha: float

    @property
    def passed(self) -> bool:
        """Whether the sample is statistically indistinguishable."""
        return self.ks_pvalue > self.alpha

    def to_dict(self) -> Dict[str, object]:
        payload = asdict(self)
        payload["passed"] = self.passed
        return payload


@dataclass
class ScenarioBenchmark:
    """All measurements for one scenario."""

    name: str
    policy: str
    workload: Tuple[int, ...]
    realisations: int
    seed: int
    timings: Dict[str, BackendTiming] = field(default_factory=dict)
    parity: Dict[str, ParityCheck] = field(default_factory=dict)

    def speedup(self, backend: str) -> Optional[float]:
        """Wall-time ratio ``reference / backend`` (None without both)."""
        reference = self.timings.get("reference")
        other = self.timings.get(backend)
        if reference is None or other is None or other.wall_seconds <= 0.0:
            return None
        return reference.wall_seconds / other.wall_seconds

    @property
    def parity_passed(self) -> bool:
        """Whether every non-reference backend matched the reference."""
        return all(check.passed for check in self.parity.values())

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "policy": self.policy,
            "workload": list(self.workload),
            "realisations": self.realisations,
            "seed": self.seed,
            "timings": {k: v.to_dict() for k, v in self.timings.items()},
            "speedup_vs_reference": {
                backend: self.speedup(backend)
                for backend in self.timings
                if backend != "reference"
            },
            "parity": {k: v.to_dict() for k, v in self.parity.items()},
        }


@dataclass
class BenchmarkReport:
    """The harness's full output: per-scenario measurements plus verdicts."""

    scenarios: List[ScenarioBenchmark]
    backends: Tuple[str, ...]
    quick: bool
    alpha: float
    repeats: int
    repro_version: str = __version__

    @property
    def all_parity_passed(self) -> bool:
        """Whether every benchmarked scenario passed its parity gate."""
        return all(s.parity_passed for s in self.scenarios)

    def min_speedup(self, backend: str) -> Optional[float]:
        """Worst-case speed-up of ``backend`` across the scenarios."""
        values = [s.speedup(backend) for s in self.scenarios]
        values = [v for v in values if v is not None]
        return min(values) if values else None

    def to_dict(self) -> Dict[str, object]:
        summary: Dict[str, object] = {
            "all_parity_passed": self.all_parity_passed,
        }
        for backend in self.backends:
            if backend == "reference":
                continue
            summary[f"min_speedup_{backend}"] = self.min_speedup(backend)
        return {
            "schema_version": BENCH_SCHEMA_VERSION,
            "repro_version": self.repro_version,
            "quick": self.quick,
            "alpha": self.alpha,
            "repeats": self.repeats,
            "backends": list(self.backends),
            "scenarios": [s.to_dict() for s in self.scenarios],
            "summary": summary,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)

    def save(self, path: Union[str, Path]) -> Path:
        """Write ``BENCH_results.json`` (returns the path written)."""
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    def render(self) -> str:
        """Human-readable comparison table."""
        from repro.analysis.reporting import format_table
        from repro.analysis.tables import Table

        table = Table(
            [
                "scenario",
                "backend",
                "realisations",
                "wall (s)",
                "real/s",
                "speedup",
                "KS p",
                "parity",
            ],
            title="Execution-backend benchmark",
        )
        for scenario in self.scenarios:
            for backend in self.backends:
                timing = scenario.timings.get(backend)
                if timing is None:
                    continue
                speedup = scenario.speedup(backend)
                check = scenario.parity.get(backend)
                table.add_row(
                    {
                        "scenario": scenario.name,
                        "backend": backend,
                        "realisations": timing.realisations,
                        "wall (s)": timing.wall_seconds,
                        "real/s": timing.throughput,
                        "speedup": "" if speedup is None else f"{speedup:.1f}x",
                        "KS p": "" if check is None else f"{check.ks_pvalue:.3f}",
                        "parity": ""
                        if check is None
                        else ("ok" if check.passed else "FAIL"),
                    }
                )
        lines = [format_table(table, float_format="{:.2f}")]
        verdict = "passed" if self.all_parity_passed else "FAILED"
        lines.append(f"parity gate (KS p > {self.alpha:g}): {verdict}")
        return "\n".join(lines)


def _resolve_bench_spec(
    scenario: Union[str, ScenarioSpec], quick: bool
) -> ScenarioSpec:
    from repro.scenarios import registry

    spec = (
        registry.resolve(scenario, quick=quick)
        if isinstance(scenario, str)
        else scenario
    )
    if spec.kind != "mc_point":
        raise ValueError(
            f"scenario {spec.name!r} has kind {spec.kind!r}; the benchmark "
            "harness times mc_point scenarios (see bench_scenario_names())"
        )
    return spec


def benchmark_scenario(
    scenario: Union[str, ScenarioSpec],
    backends: Sequence[str] = DEFAULT_BACKENDS,
    quick: bool = False,
    seed: Optional[int] = None,
    alpha: float = DEFAULT_ALPHA,
    repeats: int = 1,
) -> ScenarioBenchmark:
    """Time every backend on one scenario and KS-test parity.

    ``repeats`` re-runs each backend and keeps the best wall time (the
    completion-time sample is identical across repeats — same seed).
    """
    from scipy import stats

    from repro.montecarlo.engine import EngineRequest, run_engine

    spec = _resolve_bench_spec(scenario, quick)
    if seed is not None:
        spec = spec.with_(seed=int(seed))
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats!r}")

    params = spec.system.to_parameters()
    policy = (spec.policy or PolicySpec()).build(params, spec.workload)

    result = ScenarioBenchmark(
        name=spec.name,
        policy=policy.name,
        workload=tuple(spec.workload),
        realisations=spec.mc_realisations,
        seed=spec.seed,
    )
    samples: Dict[str, "object"] = {}
    for backend in backends:
        best = float("inf")
        estimate = None
        for _ in range(repeats):
            started = perf_counter()
            # The harness measures computation, not disk: engine run with
            # the block cache off (store=None is the default).
            estimate = run_engine(
                EngineRequest(spec=spec.with_(backend=backend, shards=0))
            ).estimate
            best = min(best, perf_counter() - started)
        assert estimate is not None
        samples[backend] = estimate.completion_times
        result.timings[backend] = BackendTiming(
            backend=backend,
            wall_seconds=best,
            realisations=spec.mc_realisations,
            mean_completion_time=float(estimate.summary.mean),
            std_completion_time=float(estimate.summary.std),
        )

    reference_sample = samples.get("reference")
    if reference_sample is not None:
        for backend, sample in samples.items():
            if backend == "reference":
                continue
            ks = stats.ks_2samp(reference_sample, sample)
            result.parity[backend] = ParityCheck(
                backend=backend,
                ks_statistic=float(ks.statistic),
                ks_pvalue=float(ks.pvalue),
                alpha=alpha,
            )
    return result


def run_benchmark(
    scenarios: Optional[Sequence[Union[str, ScenarioSpec]]] = None,
    backends: Sequence[str] = DEFAULT_BACKENDS,
    quick: bool = False,
    seed: Optional[int] = None,
    alpha: float = DEFAULT_ALPHA,
    repeats: int = 1,
) -> BenchmarkReport:
    """Benchmark ``backends`` across ``scenarios`` and collect a report.

    ``scenarios`` defaults to the CI smoke set under ``quick`` and to every
    benchable registry point otherwise.
    """
    if scenarios is None:
        scenarios = QUICK_SCENARIOS if quick else bench_scenario_names()
    results = [
        benchmark_scenario(
            scenario,
            backends=backends,
            quick=quick,
            seed=seed,
            alpha=alpha,
            repeats=repeats,
        )
        for scenario in scenarios
    ]
    report = BenchmarkReport(
        scenarios=results,
        backends=tuple(backends),
        quick=quick,
        alpha=alpha,
        repeats=repeats,
    )
    _record_bench_history(report)
    return report


def write_benchmark_results(
    path: Union[str, Path] = "BENCH_results.json", **kwargs
) -> BenchmarkReport:
    """Run :func:`run_benchmark` and persist the report to ``path``."""
    report = run_benchmark(**kwargs)
    report.save(path)
    return report


# ---------------------------------------------------------------------------
# Distributed scaling benchmark (wall-clock vs worker count)
# ---------------------------------------------------------------------------

#: JSON schema version of ``BENCH_distributed.json``.
#:
#: History: 2 — per-worker-count ``breakdown`` section (dispatch overhead
#: vs block compute vs merge, from the engine's phase timings).
#: 3 — ``breakdown.attribution`` overhead ledger (wall-equivalent
#: wire/deserialize/compute/dispatch/idle seconds from stitched
#: cross-process spans; see ``docs/observability.md``).
#: 4 — per-timing ``skipped`` flag (worker count exceeded the effective
#: CPU budget — the measurement timeshares cores and its speedup is
#: physically meaningless); ``summary.speedups`` covers only non-skipped
#: counts and ``summary.skipped_counts`` lists the rest.
DISTRIBUTED_BENCH_SCHEMA_VERSION = 4

#: Process-pool sizes timed by default.
DEFAULT_WORKER_COUNTS = (1, 2, 4)

#: Pool sizes of the committed strong-scaling curve (``BENCH_scaling.json``).
SCALING_WORKER_COUNTS = (1, 2, 4, 8, 16)


def effective_cpu_count() -> int:
    """CPUs this process may actually run on (affinity-aware).

    Containers and CI runners routinely pin processes to a subset of the
    host's cores; ``os.cpu_count()`` reports the host and would let a
    speedup gate demand parallel speedups the scheduler physically cannot
    deliver.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def speedup_gate_problems(
    report: "DistributedBenchmarkReport",
    minimum: float,
    effective_cpus: Optional[int] = None,
) -> Tuple[List[str], List[int]]:
    """Apply a minimum-speedup gate; returns ``(problems, skipped_counts)``.

    The gate demands ``speedup(count) > minimum`` for every timed worker
    count that the machine can genuinely parallelize (``count <=
    effective_cpus``).  Counts beyond the effective CPU budget are
    *skipped*, not failed — a 2-worker pool on a 1-CPU container
    timeshares one core and a >1.0 speedup there is physically impossible;
    gating on it would only teach people to delete the gate.  Callers must
    surface the skips loudly so a misconfigured CI runner (affinity-pinned
    to one core) cannot silently pass.
    """
    if effective_cpus is None:
        effective_cpus = effective_cpu_count()
    problems: List[str] = []
    skipped: List[int] = []
    for timing in report.timings:
        count = timing.worker_count
        if count <= 1:
            continue
        if count > effective_cpus:
            skipped.append(count)
            continue
        speedup = report.speedup(count)
        if speedup is None:
            problems.append(
                f"speedup at {count} workers cannot be computed (no "
                f"1-worker baseline timing in the report)"
            )
        elif speedup <= minimum:
            problems.append(
                f"speedup at {count} workers is {speedup:.2f}x, required "
                f"> {minimum:g}x on {effective_cpus} effective CPUs — "
                f"distribution is not paying for its overhead"
            )
    return problems, skipped


@dataclass
class DistributedTiming:
    """One sharded run of the scenario at a given worker count."""

    worker_count: int
    wall_seconds: float
    realisations: int
    mean_completion_time: float
    std_completion_time: float
    #: The engine's phase breakdown for this run (``plan_seconds``,
    #: ``execute_seconds``, ``merge_seconds``, ``block_compute_seconds``,
    #: ``dispatch_overhead_seconds``) — where the wall-clock went.  Since
    #: schema 3 it also carries a nested ``attribution`` dict: the overhead
    #: ledger from stitched cross-process spans, whose wall-equivalent
    #: components (plan + wire + deserialize + compute + dispatch + idle +
    #: merge) sum to roughly the measured wall time.
    breakdown: Dict[str, object] = field(default_factory=dict)
    #: True when this worker count exceeded the machine's effective CPU
    #: budget at measurement time: the pool timeshared cores, so the wall
    #: time is an honest measurement but the *speedup* is meaningless.
    #: Skipped timings stay in the report (they still feed the
    #: merge-invariance gate) but are excluded from ``summary.speedups``.
    skipped: bool = False

    @property
    def throughput(self) -> float:
        if self.wall_seconds <= 0.0:
            return float("inf")
        return self.realisations / self.wall_seconds

    def to_dict(self) -> Dict[str, object]:
        payload = asdict(self)
        payload["throughput"] = self.throughput
        return payload


@dataclass
class DistributedBenchmarkReport:
    """Scaling curve of the sharded runner over a process-pool fleet.

    Two verdicts ride on it: the wall-clock trajectory (informational — CI
    gates it with a *loose* throughput tolerance because runner hardware
    varies) and the merged-statistics check (hard — the merged mean/std
    must be identical at every worker count, and identical to the
    committed baseline, because sharded sampling is deterministic).
    """

    scenario: str
    backend: str
    shards: int
    shard_block: int
    realisations: int
    seed: int
    quick: bool
    timings: List[DistributedTiming] = field(default_factory=list)
    repro_version: str = __version__
    #: CPUs the benchmark process could actually run on — context for the
    #: speedup numbers (a 4-worker pool on 1 effective CPU timeshares).
    #: Summary-only: machine-dependent, so never part of the baseline
    #: configuration comparison.
    effective_cpus: int = 0

    @property
    def merge_invariant(self) -> bool:
        """Whether every worker count produced the same merged moments."""
        if not self.timings:
            return True
        first = self.timings[0]
        return all(
            t.mean_completion_time == first.mean_completion_time
            and t.std_completion_time == first.std_completion_time
            for t in self.timings
        )

    def speedup(self, worker_count: int) -> Optional[float]:
        """Wall-time ratio of the 1-worker run to ``worker_count``'s."""
        base = next((t for t in self.timings if t.worker_count == 1), None)
        other = next(
            (t for t in self.timings if t.worker_count == worker_count), None
        )
        if base is None or other is None or other.wall_seconds <= 0.0:
            return None
        return base.wall_seconds / other.wall_seconds

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": DISTRIBUTED_BENCH_SCHEMA_VERSION,
            "repro_version": self.repro_version,
            "scenario": self.scenario,
            "backend": self.backend,
            "shards": self.shards,
            "shard_block": self.shard_block,
            "realisations": self.realisations,
            "seed": self.seed,
            "quick": self.quick,
            "timings": [t.to_dict() for t in self.timings],
            "summary": {
                "merge_invariant": self.merge_invariant,
                "effective_cpus": self.effective_cpus,
                "speedups": {
                    str(t.worker_count): self.speedup(t.worker_count)
                    for t in self.timings
                    if t.worker_count != 1 and not t.skipped
                },
                "skipped_counts": [
                    t.worker_count for t in self.timings if t.skipped
                ],
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    def render(self) -> str:
        from repro.analysis.reporting import format_table
        from repro.analysis.tables import Table

        table = Table(
            ["workers", "wall (s)", "real/s", "speedup", "merged mean"],
            title=f"Sharded Monte-Carlo scaling — {self.scenario} "
            f"({self.shards} shards, block {self.shard_block})",
        )
        for timing in self.timings:
            speedup = self.speedup(timing.worker_count)
            table.add_row(
                {
                    "workers": timing.worker_count,
                    "wall (s)": timing.wall_seconds,
                    "real/s": timing.throughput,
                    "speedup": "skipped"
                    if timing.skipped
                    else ("" if speedup is None else f"{speedup:.1f}x"),
                    "merged mean": timing.mean_completion_time,
                }
            )
        lines = [format_table(table, float_format="{:.2f}")]
        for timing in self.timings:
            b = timing.breakdown
            if not b:
                continue
            lines.append(
                f"  {timing.worker_count} workers: "
                f"compute {b.get('block_compute_seconds', 0.0):.2f}s "
                f"(across slots), dispatch overhead "
                f"{b.get('dispatch_overhead_seconds', 0.0):.2f}s, "
                f"merge {b.get('merge_seconds', 0.0):.3f}s"
            )
        attribution_table = self._render_attribution()
        if attribution_table:
            lines.append(attribution_table)
        verdict = "identical" if self.merge_invariant else "DIVERGED"
        lines.append(f"merged statistics across worker counts: {verdict}")
        if self.effective_cpus:
            lines.append(
                f"effective CPUs during measurement: {self.effective_cpus} "
                f"(speedups above this worker count timeshare cores)"
            )
        return "\n".join(lines)

    #: Ledger components shown by the "why is speedup < 1" table, in
    #: display order.  Together they sum (roughly) to the wall time;
    #: ``queue_wait_seconds`` is deliberately absent — it overlaps
    #: slot-busy time and would double-count.
    _ATTRIBUTION_COLUMNS = (
        ("plan", "plan_seconds"),
        ("wire", "wire_seconds"),
        ("deser", "deserialize_seconds"),
        ("compute", "compute_seconds"),
        ("dispatch", "dispatch_seconds"),
        ("idle", "idle_seconds"),
        ("merge", "merge_seconds"),
    )

    def _render_attribution(self) -> str:
        """The overhead ledger as a table — why is speedup < linear?

        Each row is one worker count; each cell is wall-equivalent seconds
        (per-shard sums divided by the effective slot count) with its share
        of the measured wall time, so a glance shows whether the scaling
        ceiling is wire serialization, worker deserialize, dispatch
        book-keeping or plain slot idleness rather than compute.
        """
        from repro.analysis.reporting import format_table
        from repro.analysis.tables import Table

        rows = []
        for timing in self.timings:
            ledger = timing.breakdown.get("attribution")
            if not isinstance(ledger, dict) or timing.wall_seconds <= 0.0:
                continue
            row = {"workers": timing.worker_count}
            for label, key in self._ATTRIBUTION_COLUMNS:
                seconds = float(ledger.get(key, 0.0))
                share = 100.0 * seconds / timing.wall_seconds
                row[label] = f"{seconds:.2f}s {share:3.0f}%"
            rows.append(row)
        if not rows:
            return ""
        table = Table(
            ["workers"] + [label for label, _ in self._ATTRIBUTION_COLUMNS],
            title="Where the wall time went (why is speedup < linear?)",
        )
        for row in rows:
            table.add_row(row)
        return format_table(table)


def run_distributed_benchmark(
    scenario: Union[str, ScenarioSpec] = "mc-scaling",
    quick: bool = False,
    worker_counts: Sequence[int] = DEFAULT_WORKER_COUNTS,
    shards: Optional[int] = None,
    seed: Optional[int] = None,
    tracer=None,
) -> DistributedBenchmarkReport:
    """Time sharded engine runs at several process-pool sizes.

    Shard caching is disabled (the harness measures computation) and every
    run reuses the same spec, so the merged statistics must agree exactly
    across worker counts — a free determinism gate on top of the timing
    curve.  Each run's engine phase timings land in the report as a
    dispatch/compute/merge ``breakdown`` with a nested ``attribution``
    overhead ledger; pass a :class:`repro.obs.trace.Tracer` to also keep
    the full span log (the CI bench job uploads it as an artifact).  When
    no tracer is passed one is created internally anyway — trace
    propagation is what feeds the ledger, so the ``attribution`` section
    must not depend on the caller wanting the NDJSON.
    """
    from repro.distributed.executors import ProcessShardExecutor
    from repro.montecarlo.engine import EngineRequest, run_engine
    from repro.obs import trace as obs_trace

    spec = _resolve_bench_spec(scenario, quick)
    if seed is not None:
        spec = spec.with_(seed=int(seed))
    if shards is not None:
        spec = spec.with_(shards=int(shards))
    elif spec.shards < 1:
        spec = spec.with_(shards=2 * max(worker_counts))
    if spec.shards < 1:
        raise ValueError(
            f"the distributed benchmark needs shards >= 1, got {spec.shards}"
        )

    report = DistributedBenchmarkReport(
        scenario=spec.name,
        backend=spec.backend,
        shards=spec.shards,
        shard_block=spec.shard_block,
        realisations=spec.mc_realisations,
        seed=spec.seed,
        quick=quick,
        effective_cpus=effective_cpu_count(),
    )
    active_tracer = tracer if tracer is not None else obs_trace.Tracer()
    with active_tracer.activate():
        for count in worker_counts:
            if count < 1:
                raise ValueError(f"worker counts must be >= 1, got {count!r}")
            with obs_trace.span("bench.distributed", workers=int(count)):
                with ProcessShardExecutor(count) as executor:
                    executor.warm()  # time computation, not process start-up
                    run = run_engine(EngineRequest(spec=spec, executor=executor))
            breakdown: Dict[str, object] = dict(run.timings)
            breakdown["attribution"] = dict(run.attribution)
            report.timings.append(
                DistributedTiming(
                    worker_count=int(count),
                    wall_seconds=run.wall_seconds,
                    realisations=spec.mc_realisations,
                    mean_completion_time=float(run.estimate.summary.mean),
                    std_completion_time=float(run.estimate.summary.std),
                    breakdown=breakdown,
                    # Timeshared measurement: still timed (the merged
                    # statistics must agree regardless), but its speedup
                    # is meaningless and must not enter baselines as one.
                    skipped=int(count) > report.effective_cpus,
                )
            )
    _record_bench_history(report)
    return report


def _record_bench_history(report) -> None:
    """Append a report's timings to the run-history ledger (best-effort).

    The appended records land on the report as ``history_records`` so the
    CLI's ``--check-regression`` can evaluate exactly these records (their
    ids excluded from their own baselines) without re-querying by time.
    """
    try:
        from repro.obs import history

        if isinstance(report, DistributedBenchmarkReport):
            records = history.record_distributed_report(report.to_dict())
        else:
            records = history.record_backend_report(report.to_dict())
        report.history_records = records
    except Exception:
        report.history_records = []


def compare_distributed_reports(
    current: Dict[str, object],
    baseline: Dict[str, object],
    tolerance: float = 10.0,
) -> List[str]:
    """Problems in ``current`` measured against a committed ``baseline``.

    Configuration fields and the merged statistics must match exactly
    (sharded sampling is deterministic — a drifted mean is a correctness
    bug, not noise); throughput may regress by at most ``tolerance``×
    (a deliberately loose gate, CI hardware being what it is).
    """
    problems: List[str] = []
    for field_name in (
        "schema_version",
        "scenario",
        "backend",
        "shards",
        "shard_block",
        "realisations",
        "seed",
        "quick",
    ):
        if current.get(field_name) != baseline.get(field_name):
            problems.append(
                f"configuration drift in {field_name!r}: baseline "
                f"{baseline.get(field_name)!r} vs current "
                f"{current.get(field_name)!r} (regenerate the baseline "
                f"when the benchmark setup changes)"
            )
    if problems:
        return problems

    baseline_timings = {
        int(t["worker_count"]): t for t in baseline.get("timings", [])
    }
    current_timings = {
        int(t["worker_count"]): t for t in current.get("timings", [])
    }
    if set(baseline_timings) != set(current_timings):
        problems.append(
            f"worker counts differ: baseline {sorted(baseline_timings)} vs "
            f"current {sorted(current_timings)}"
        )
        return problems

    for count in sorted(baseline_timings):
        base, cur = baseline_timings[count], current_timings[count]
        for stat in ("mean_completion_time", "std_completion_time"):
            b, c = float(base[stat]), float(cur[stat])
            if abs(b - c) > 1e-9 * max(1.0, abs(b)):
                problems.append(
                    f"{stat} diverged at {count} workers: baseline {b!r} vs "
                    f"current {c!r} — sharded sampling is deterministic, "
                    f"this is a correctness regression"
                )
        base_throughput = float(base["throughput"])
        cur_throughput = float(cur["throughput"])
        if cur_throughput < base_throughput / tolerance:
            problems.append(
                f"throughput at {count} workers regressed beyond "
                f"{tolerance:g}x: baseline {base_throughput:.1f} real/s vs "
                f"current {cur_throughput:.1f} real/s"
            )
    return problems


# ---------------------------------------------------------------------------
# Serialization microbenchmark: binary wire frames vs the JSON wire
# ---------------------------------------------------------------------------

#: JSON schema version of ``BENCH_serialization.json``.
SERIALIZATION_SCHEMA_VERSION = 1

#: The gates CI applies to the gate case (the batched result post):
#: frames must be at least this much smaller than the JSON wire rendering
#: and decode at least this much faster.
DEFAULT_MIN_SIZE_RATIO = 3.0
DEFAULT_MIN_DECODE_SPEEDUP = 5.0


@dataclass
class SerializationCase:
    """One payload shape timed under both encodings.

    The JSON side is the *actual* pre-frames wire rendering
    (``Response.json``: sorted keys, ``indent=1``, trailing newline), so
    the ratios measure the real tax the frame format removes, not a
    strawman compact encoding.
    """

    label: str
    gate: bool
    json_bytes: int
    frame_bytes: int
    json_decode_seconds: float
    frame_decode_seconds: float
    json_encode_seconds: float
    frame_encode_seconds: float

    @property
    def size_ratio(self) -> float:
        return self.json_bytes / self.frame_bytes

    @property
    def decode_speedup(self) -> float:
        return self.json_decode_seconds / self.frame_decode_seconds

    @property
    def encode_speedup(self) -> float:
        return self.json_encode_seconds / self.frame_encode_seconds

    def to_dict(self) -> Dict[str, Union[str, bool, int, float]]:
        payload = asdict(self)
        payload["size_ratio"] = self.size_ratio
        payload["decode_speedup"] = self.decode_speedup
        payload["encode_speedup"] = self.encode_speedup
        return payload


@dataclass
class SerializationBenchmarkReport:
    """Machine-readable output of :func:`run_serialization_benchmark`."""

    cases: List[SerializationCase]
    rounds: int
    schema_version: int = SERIALIZATION_SCHEMA_VERSION
    repro_version: str = __version__

    @property
    def gate_case(self) -> SerializationCase:
        for case in self.cases:
            if case.gate:
                return case
        raise ValueError("report contains no gate case")

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": self.schema_version,
            "repro_version": self.repro_version,
            "rounds": self.rounds,
            "cases": [case.to_dict() for case in self.cases],
        }

    def write(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path


def _serialization_payloads() -> List[Tuple[str, bool, Dict[str, object]]]:
    """Representative worker-wire payloads: ``(label, is_gate, payload)``.

    The gate case is the batched result post exactly as the committed
    distributed benchmark produces it — 8 single-block work items of
    250-sample blocks posted in one ``/results`` round-trip.  The smaller
    shapes are reported for context only: their decode cost is dominated
    by fixed per-call overhead (~10 µs) that no encoding removes, so
    gating them would measure the floor, not the format.
    """
    import numpy as np

    from repro.montecarlo.statistics import RunningStatistics

    rng = np.random.default_rng(1234)

    def block(index: int, samples: int) -> Dict[str, object]:
        times = [float(t) for t in rng.normal(115.8, 38.6, samples)]
        return {
            "index": index,
            "start": index * samples,
            "stop": (index + 1) * samples,
            "policy": "LBP1",
            "completion_times": times,
            "stats": RunningStatistics.from_values(times).to_dict(),
            "wall_seconds": 0.12345678901234567,
        }

    def item(index: int, blocks: int, samples: int) -> Dict[str, object]:
        return {
            "id": f"it-{index}",
            "task": "abcd1234",
            "shard": index,
            "blocks": [
                block(8 * index + b, samples) for b in range(blocks)
            ],
            "wall_seconds": 0.5,
        }

    return [
        (
            "result-batch-8x1x250",
            True,
            {"results": [item(i, blocks=1, samples=250) for i in range(8)]},
        ),
        ("single-item-4x250", False, item(0, blocks=4, samples=250)),
        ("single-item-1x250", False, item(0, blocks=1, samples=250)),
    ]


def _interleaved_best(fn_a, arg_a, fn_b, arg_b, rounds: int) -> Tuple[float, float]:
    """Best-of-``rounds`` wall times with *interleaved* sampling.

    Timing the two sides in separate windows lets a scheduler hiccup land
    entirely on one of them and swing the ratio by 30%+ on a busy 1-CPU
    container; alternating per round makes noise hit both sides equally,
    so the minima — and therefore the ratio — are stable run to run.
    Within a round each side runs three times and keeps its fastest: the
    first repetition absorbs the cache/allocator state the *other* side
    left behind, so the minima measure each codec warm rather than the
    crossover penalty.
    """
    best_a = best_b = float("inf")
    for _ in range(rounds):
        for _rep in range(3):
            started = perf_counter()
            fn_a(arg_a)
            best_a = min(best_a, perf_counter() - started)
        for _rep in range(3):
            started = perf_counter()
            fn_b(arg_b)
            best_b = min(best_b, perf_counter() - started)
    return best_a, best_b


def run_serialization_benchmark(rounds: int = 120) -> SerializationBenchmarkReport:
    """Time frame vs JSON encode/decode over representative wire payloads."""
    from repro.distributed.frames import decode_frame, encode_frame

    def json_wire(payload) -> bytes:
        # Byte-for-byte the service's Response.json rendering.
        return (json.dumps(payload, sort_keys=True, indent=1) + "\n").encode()

    cases: List[SerializationCase] = []
    for label, gate, payload in _serialization_payloads():
        json_bytes = json_wire(payload)
        frame_bytes = encode_frame(payload)
        if decode_frame(frame_bytes) != payload:
            raise AssertionError(
                f"frame round-trip of case {label!r} is not identity"
            )
        json_decode, frame_decode = _interleaved_best(
            json.loads, json_bytes, decode_frame, frame_bytes, rounds
        )
        json_encode, frame_encode = _interleaved_best(
            json_wire, payload, encode_frame, payload, rounds
        )
        cases.append(
            SerializationCase(
                label=label,
                gate=gate,
                json_bytes=len(json_bytes),
                frame_bytes=len(frame_bytes),
                json_decode_seconds=json_decode,
                frame_decode_seconds=frame_decode,
                json_encode_seconds=json_encode,
                frame_encode_seconds=frame_encode,
            )
        )
    return SerializationBenchmarkReport(cases=cases, rounds=rounds)


def serialization_gate_problems(
    report: SerializationBenchmarkReport,
    min_size_ratio: float = DEFAULT_MIN_SIZE_RATIO,
    min_decode_speedup: float = DEFAULT_MIN_DECODE_SPEEDUP,
) -> List[str]:
    """Apply the frame-format gates to the report's gate case.

    Size is deterministic (pure byte counts); decode is timing and noisy,
    which is why the gate case is the large batched-result payload where
    the measured margin is widest — smaller payloads sit on fixed per-call
    overhead and are reported, not gated.
    """
    problems: List[str] = []
    try:
        case = report.gate_case
    except ValueError as error:
        return [str(error)]
    if case.size_ratio < min_size_ratio:
        problems.append(
            f"frame size ratio on {case.label} is {case.size_ratio:.2f}x "
            f"({case.json_bytes}B JSON vs {case.frame_bytes}B frame), "
            f"required >= {min_size_ratio:g}x"
        )
    if case.decode_speedup < min_decode_speedup:
        problems.append(
            f"frame decode speedup on {case.label} is "
            f"{case.decode_speedup:.2f}x "
            f"({case.json_decode_seconds * 1e6:.1f}us JSON vs "
            f"{case.frame_decode_seconds * 1e6:.1f}us frame), "
            f"required >= {min_decode_speedup:g}x"
        )
    return problems
