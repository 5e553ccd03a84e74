#!/usr/bin/env python3
"""The repository benchmark: one workload per run, every layer timed from outside.

Run it from the repository root::

    python3 perfbench/run.py --workload cold-sweep --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py`` and ``reasons.json``): ``cold-sweep``,
``pool-ensemble``, ``warm-rerun`` and ``fleet``.  Each run works in a
private directory under ``.perfbench/`` in the checkout -- result cache,
shard store and run-history ledger included -- which it removes on exit;
it never touches ``~/.cache/repro``.

``--trace 0`` sets up :data:`SETUP_REPEATS` times (all but the last in a
fresh child process; set-up time is their median), runs the workload's
closed loop for ``--seconds``, then a short series of CLI cached re-runs,
and reports the end-to-end metrics.  ``--trace 1`` sets up once, then
alternates untraced blocks and blocks with the layer timers installed for
twice ``--seconds``, and reports the per-layer metrics of the traced blocks
plus ``trace.overhead_pct`` (their median miss latency against the
untraced blocks').

The host is a shared virtual machine whose vCPUs each slow down by up to
about 1.8 times for seconds to minutes at a time.  Every time spent
computing on those vCPUs is therefore scaled to a reference host speed by
host probes timed between operations (see ``workloads.Recorder`` and each
workload's ``scaled``): all of them on cold-sweep, pool-ensemble and
warm-rerun, the cached submits and CLI re-runs on fleet.  Each run prints
the unscaled values as well.  Set-up follows the host only in part and is
scaled by the square root of the slowdown (see :func:`timed_setup`).

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The run exits non-zero, printing no result, when the
program's source is missing or no operation of a class completed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import uuid
from importlib import metadata
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from workloads import (
    CHILD_TIMEOUT,
    CLI_REPEATS,
    PROBE_REFERENCE_MS,
    WORKLOADS,
    Context,
    Recorder,
    probe_ms,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Host probes taken just before and just after each set-up.
SETUP_PROBES = 5

#: Seconds per untraced / traced block of a traced run.
TRACE_BLOCK_S = 1.0

#: Seconds after which a run stops itself (SIGALRM), tearing down first.
RUN_LIMIT_S = 165

#: Per-workload names for the end-to-end values, printed alongside the
#: metric set every workload shares: ``(name, unit, class, statistic,
#: conversion from ms)``.
ALIASES = {
    "cold-sweep": [("sweep_s", "s", "miss", "p50", lambda ms: ms / 1e3)],
    # mc-scaling merges 2000 realisations per op.
    "pool-ensemble": [("realisations_per_s", "1/s", "miss", "p50", lambda ms: 2e6 / ms)],
    "warm-rerun": [
        ("hit_p50_ms", "ms", "hit", "p50", float),
        ("hit_p90_ms", "ms", "hit", "p90", float),
        ("regroup_p50_ms", "ms", "miss", "p50", float),
        ("regroup_p90_ms", "ms", "miss", "p90", float),
        ("cli_hit_p50_ms", "ms", "cli", "p50", float),
    ],
    "fleet": [
        ("fresh_job_p50_s", "s", "miss", "p50", lambda ms: ms / 1e3),
        ("cached_submit_p50_ms", "ms", "hit", "p50", float),
        ("cached_submit_p90_ms", "ms", "hit", "p90", float),
    ],
}


def percentile(values: Sequence[float], q: float) -> float:
    """Linear interpolation between closest ranks (stays inside the data)."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def statistic(values: Sequence[float], which: str) -> float:
    return percentile(values, 0.9) if which == "p90" else median(values)


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------


def peak_rss_kb(pid: int) -> int:
    """``VmHWM`` (peak resident set) of a live process, in KiB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii", errors="replace") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def descendants(pid: int) -> List[int]:
    """Live descendants of ``pid`` (from ``/proc``)."""
    children: Dict[int, List[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        parent = int(stat.rpartition(")")[2].split()[1])
        children.setdefault(parent, []).append(int(entry.name))
    found, frontier = [], [pid]
    while frontier:
        for child in children.get(frontier.pop(), []):
            found.append(child)
            frontier.append(child)
    return found


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def closed_loop(workload, rec: Recorder, seconds: float, cli_runs: int = 0) -> None:
    """Rounds back to back until ``seconds`` have passed (at least one).

    ``cli_runs`` CLI re-runs are spread evenly over the loop: at each gap
    between operations (after a round, and between the points of a sweep)
    the re-runs whose share of the time has passed run; those still owed
    at the deadline run then.
    """
    started = perf_counter()
    done = 0

    def gap() -> None:
        nonlocal done
        if done >= cli_runs or not workload.cli_ready():
            return
        elapsed = perf_counter() - started
        due = cli_runs if elapsed >= seconds else int(cli_runs * elapsed / seconds)
        if workload.one_cli_per_gap and elapsed < seconds:
            due = min(due, done + 1)
        while done < due:
            workload.cli_run(rec)
            done += 1

    workload.between_ops = gap
    try:
        while True:
            workload.round(rec)
            over = perf_counter() - started >= seconds
            gap()
            if over:
                return
    finally:
        del workload.between_ops


def timed_setup(workload) -> float:
    """Seconds of one set-up; where the workload scales its set-up, scaled
    to the reference host speed by the square root of the slowdown the
    host probes just before and just after it show.

    Set-up is mostly imports and process starts, which follow the probe
    only in part: between two sets of ten runs whose probe medians differed
    by 1.25-1.43 times, unscaled set-up times moved as the probe to the
    power 0.53-0.66, so dividing by the whole slowdown over-corrected about
    as much as not scaling under-corrected.
    """
    before = [probe_ms() for _ in range(SETUP_PROBES)]
    started = perf_counter()
    workload.setup()
    seconds = perf_counter() - started
    if "setup" not in workload.scaled:
        return seconds
    around = before + [probe_ms() for _ in range(SETUP_PROBES)]
    return seconds / math.sqrt(median(around) / PROBE_REFERENCE_MS)


def setup_probe(args: argparse.Namespace) -> float:
    """One set-up in a fresh child process (imports included)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
        capture_output=True,
        text=True,
        timeout=2 * CHILD_TIMEOUT,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def machine() -> Dict[str, str]:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "nproc": str(os.cpu_count()),
        "effective_cpus": str(len(os.sched_getaffinity(0))),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def declared_metrics() -> Dict[str, Dict[str, str]]:
    """Metric name -> unit, per section of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        section: {m["name"]: m["unit"] for m in spec[section]}
        for section in ("end_to_end", "per_layer")
    }


def emit(lines: List[str], rec: Recorder, metrics: Dict[str, float], units: Dict[str, str]) -> None:
    mismatch = set(units) ^ set(metrics)
    if mismatch:
        raise RuntimeError(f"metrics do not match BENCHMARK.json: {sorted(mismatch)}")
    for line in lines:
        print(line)
    for name in units:
        print(f"  {name:<36} {metrics[name]:>14.6g} {units[name]}")
    for error in rec.errors:
        print(f"  FAILED: {error}")
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))


def run_untraced(workload, args, units: Dict[str, str]) -> None:
    samples = [setup_probe(args) for _ in range(SETUP_REPEATS - 1)]
    samples.append(timed_setup(workload))

    rec = Recorder()
    closed_loop(workload, rec, args.seconds, cli_runs=CLI_REPEATS)
    children_kb = sum(peak_rss_kb(pid) for pid in descendants(os.getpid()))
    peak_kb = peak_rss_kb(os.getpid()) + children_kb + workload.cli_maxrss_kb

    every = {kind: rec.latencies(kind) for kind in ("miss", "hit", "cli")}
    s = {kind: rec.latencies(kind, scaled=kind in workload.scaled) for kind in every}
    metrics = {
        "setup_s": median(samples),
        "peak_rss_mb": peak_kb / 1024.0,
        "miss_p50_ms": median(s["miss"]),
        "hit_p50_ms": median(s["hit"]),
        "hit_p90_ms": percentile(s["hit"], 0.9),
        "cli_hit_p50_ms": median(s["cli"]),
    }
    lines = [
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
        + "  ".join(f"{k} {v}" for k, v in machine().items()),
        "  samples: " + ", ".join(f"{kind} {len(every[kind])}" for kind in every)
        + f"; set-up repeats {len(samples)}; {len(rec.probe_values)} host probes, "
        f"median {median(rec.probe_values):.4g} ms; times "
        + "scaled to the reference host speed: "
        + (", ".join(k for k in ("setup", "miss", "hit", "cli") if k in workload.scaled) or "none"),
        "  unscaled: "
        + ", ".join(f"{kind} p50 {median(every[kind]):.6g} ms" for kind in every)
        + f", hit p90 {percentile(every['hit'], 0.9):.6g} ms",
        f"  error_rate {rec.failed / rec.attempted:.6g} ratio",
    ]
    for alias, unit, source, which, convert in ALIASES[args.workload]:
        value = convert(statistic(s[source], which))
        lines.append(f"  [{alias:<24}] {value:>14.6g} {unit}")
    emit(lines, rec, metrics, units)


def run_traced(workload, args, units: Dict[str, str]) -> None:
    breakdown = workload.setup()
    untraced, traced = Recorder(), Recorder()
    workload.trace_begin()
    started, block = perf_counter(), 0
    try:
        # Untraced and traced blocks alternate, so both halves see the same
        # warm-up and the same contention on the machine.
        while block < 2 or perf_counter() - started < 2 * args.seconds:
            tracing = block % 2 == 1
            if tracing:
                workload.trace_resume()
            try:
                closed_loop(workload, traced if tracing else untraced, TRACE_BLOCK_S)
            finally:
                if tracing:
                    workload.trace_pause()
            block += 1
    finally:
        layers = workload.trace_end()
    baseline = median(untraced.latencies("miss"))
    traced_miss = median(traced.latencies("miss"))
    layers.update({
        "setup.import_s": breakdown.get("import_s", 0.0),
        "setup.warm_s": breakdown.get("warm_s", 0.0),
        "setup.service_ready_s": breakdown.get("service_ready_s", 0.0),
        "trace.overhead_pct": 100.0 * (traced_miss - baseline) / baseline,
    })
    rec = Recorder(
        attempted=untraced.attempted + traced.attempted,
        failed=untraced.failed + traced.failed,
        errors=(untraced.errors + traced.errors)[:5],
    )
    lines = [
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  traced",
        f"  miss p50: untraced {baseline:.6g} ms (n={len(untraced.latencies('miss'))}), "
        f"traced {traced_miss:.6g} ms (n={len(traced.latencies('miss'))})",
    ]
    emit(lines, rec, layers, units)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    def stop(signum, _frame):
        raise SystemExit(f"perfbench: stopped by signal {signum}")

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGALRM, stop)
    # A run must end within 180 s; this leaves time to stop the children.
    signal.alarm(RUN_LIMIT_S)

    run_dir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    run_dir.mkdir(parents=True)
    os.environ["REPRO_CACHE_DIR"] = str(run_dir / "cache")
    os.environ["REPRO_HISTORY_DIR"] = str(run_dir / "history")
    os.environ.pop("REPRO_HISTORY", None)
    ctx = Context(root=ROOT, run_dir=run_dir, seed=args.seed, traced=bool(args.trace))
    workload = WORKLOADS[args.workload](ctx)
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": timed_setup(workload)}))
            return 0
        units = declared_metrics()
        if args.trace:
            run_traced(workload, args, units["per_layer"])
        else:
            run_untraced(workload, args, units["end_to_end"])
        return 0
    except RuntimeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        workload.teardown()
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
