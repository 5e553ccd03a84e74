"""The benchmark's four workloads, driven the way users drive the program.

Each workload is a closed loop with a single client: the next operation
starts when the previous one returns.  Operations fall into three classes,
which every workload reports:

* ``miss`` -- a request the result cache cannot answer (a cold sweep, a
  fresh ensemble, a block-served regroup, a fresh fleet job);
* ``hit``  -- the same request again, answered from the result cache;
* ``cli``  -- a cached re-run through ``python -m repro``, timed from
  process start to exit.

Each operation's output is checked (:mod:`checks`); a failed check or an
exception counts the operation as failed and keeps its latency out of the
samples.  The program is imported lazily, inside :meth:`Workload.setup`,
so set-up time includes the imports.
"""

from __future__ import annotations

import bisect
import http.client
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import checks
from layers import diff_metrics, histogram_mean, parse_metrics, registry_rows, total

#: Seconds of back-to-back result-cache re-runs after each miss.  A window
#: rather than a count, so every gap between misses holds hundreds of hits
#: and a run's hit percentiles do not rest on a few short bursts
#: (warm-rerun alternates one hit with one regroup instead).
HIT_WINDOW_S = {"cold-sweep": 0.15, "pool-ensemble": 0.1, "fleet": 0.1}

#: CLI cached re-runs per untraced run, spread evenly over the loop.
CLI_REPEATS = 16

#: Prior run records in warm-rerun's history ledger.  The ledger is put
#: back to exactly this many records before every regroup, because the
#: regression sentinel reads the whole ledger on each engine run.
LEDGER_PRIOR_RECORDS = 300

#: Seconds any single child-process step may take before it is abandoned.
CHILD_TIMEOUT = 60.0

#: Seconds between host probes (each takes under a millisecond).
PROBE_EVERY_S = 0.02

#: Probe time (ms) of the reference host speed that operation times are
#: scaled to: the probe's fastest tenth on an uncontended 2-vCPU host.
PROBE_REFERENCE_MS = 0.6

#: Probes on each side of an operation that its scaling also reads.
PROBE_NEIGHBOURS = 2


def probe_ms() -> float:
    """One timing of a fixed piece of pure-Python work: dicts, JSON and
    sorting, what the program's own hot paths are made of."""
    started = perf_counter()
    table = {f"k{i}": [i, i * 0.5, str(i)] for i in range(300)}
    json.loads(json.dumps(table, sort_keys=True))
    sorted(table.values(), key=lambda row: -row[1])
    return (perf_counter() - started) * 1000.0


@dataclass
class Context:
    """Where a run lives and what it may touch."""

    root: Path  #: checkout root (holds ``src/``)
    run_dir: Path  #: this run's private scratch directory, inside the checkout
    seed: int
    traced: bool = False

    def child_env(self, **overrides: str) -> Dict[str, str]:
        """Environment for a ``python -m repro`` child of this run."""
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env.update(overrides)
        return env


@dataclass
class Recorder:
    """Latency samples (ms) per operation class, plus failure accounting.

    Operations that completed but failed their check keep their latency
    apart, used only when no operation of the class succeeded, so a broken
    build still reports ``correct: false`` and its error rate.

    The host is a virtual machine on shared cores: each vCPU, on its own,
    runs up to about 1.8 times slower for stretches of seconds to minutes
    while a neighbour is busy.  So after an operation, at most every
    :data:`PROBE_EVERY_S`, the recorder also times :func:`probe_ms`, and
    :meth:`latencies` can scale each operation to the reference host speed
    by the probes taken around and during it.
    """

    #: kind -> ``(spans, ms)`` of each operation that passed, where
    #: ``spans`` are the ``(started, ended)`` stretches it ran in
    samples: Dict[str, List[Tuple[Sequence[Tuple[float, float]], float]]] = field(
        default_factory=lambda: {"miss": [], "hit": [], "cli": []}
    )
    rejected: Dict[str, List[float]] = field(
        default_factory=lambda: {"miss": [], "hit": [], "cli": []}
    )
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    probe_times: List[float] = field(default_factory=list)
    probe_values: List[float] = field(default_factory=list)

    def record(
        self,
        kind: str,
        seconds: Optional[float],
        error: Optional[str] = None,
        spans: Optional[Sequence[Tuple[float, float]]] = None,
    ) -> None:
        """One operation; ``seconds`` is None when it raised before returning.

        ``spans`` are the stretches an operation made of parts ran in (a
        sweep's points, without the hits between them); by default, the
        ``seconds`` up to now.
        """
        now = perf_counter()
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)
        if seconds is not None and error is None:
            self.samples[kind].append((spans or [(now - seconds, now)], seconds * 1000.0))
        elif seconds is not None:
            self.rejected[kind].append(seconds * 1000.0)
        if not self.probe_times or now - self.probe_times[-1] >= PROBE_EVERY_S:
            self.probe_times.append(perf_counter())
            self.probe_values.append(probe_ms())

    def latencies(self, kind: str, scaled: bool = False) -> List[float]:
        """Latencies (ms) of a class; when ``scaled``, each span of an
        operation is divided by its own :meth:`slowdown`."""
        if scaled and self.samples[kind]:
            return [
                sum(1000.0 * (b - a) / self.slowdown(a, b) for a, b in spans)
                for spans, _ in self.samples[kind]
            ]
        values = [ms for _, ms in self.samples[kind]] or self.rejected[kind]
        if not values:
            raise RuntimeError(f"no {kind} operation completed; first errors: {self.errors}")
        return values

    def slowdown(self, started: float, ended: float) -> float:
        """Median of the probes taken during an operation and the
        :data:`PROBE_NEIGHBOURS` on each side of it, relative to
        :data:`PROBE_REFERENCE_MS` (a median, so one probe that was
        descheduled cannot skew it)."""
        first = max(bisect.bisect_left(self.probe_times, started) - PROBE_NEIGHBOURS, 0)
        last = bisect.bisect_right(self.probe_times, ended) + PROBE_NEIGHBOURS
        return statistics.median(self.probe_values[first:last]) / PROBE_REFERENCE_MS


def attempt(rec: Recorder, kind: str, label: str, call: Callable[[], Any]) -> Optional[Tuple[Any, float]]:
    """``(result, seconds)`` of ``call()``; if it raises, the operation is
    recorded as failed and ``None`` comes back."""
    started = perf_counter()
    try:
        result = call()
    except Exception as error:  # noqa: BLE001 - counted as a failed op
        rec.record(kind, None, f"{label} raised {error!r}")
        return None
    return result, perf_counter() - started


class EngineTap:
    """Collects every ``EngineReport`` the engine returns (for the checks).

    Reading what a call already returns is not tracing: one list append per
    engine run, in traced and untraced runs alike.
    """

    def __init__(self) -> None:
        from layers import LayerTimers
        from repro.montecarlo import engine

        self.reports: List[Any] = []
        self._timers = LayerTimers()
        self._timers.wrap_function(
            engine,
            "run_engine",
            "tap",
            on_return=lambda _args, _kwargs, report, _s: self.reports.append(report),
        )

    def take(self) -> List[Any]:
        taken, self.reports = self.reports, []
        return taken

    def close(self) -> None:
        self._timers.uninstall()


@dataclass
class CliRun:
    seconds: float
    stdout: str
    returncode: int
    maxrss_kb: int


def run_cli(ctx: Context, args: Sequence[str], env: Dict[str, str]) -> CliRun:
    """Run ``python -m repro <args>`` to completion; time it start to exit.

    The child is reaped with ``wait4`` so its own peak RSS is known.
    """
    out_path = ctx.run_dir / "cli.out"
    with open(out_path, "wb") as out:
        started = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            stdout=out,
            stderr=subprocess.DEVNULL,
            env=env,
            cwd=ctx.root,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        elapsed = perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliRun(
        seconds=elapsed,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        returncode=proc.returncode,
        maxrss_kb=int(usage.ru_maxrss),
    )


class Workload:
    """One workload: set up, closed-loop rounds, CLI series, tear down."""

    name = ""
    #: What spends its time computing on this host's vCPUs, so is reported
    #: scaled to the reference host speed (see :class:`Recorder`): the
    #: set-up and the operation classes.
    scaled = frozenset({"setup", "miss", "hit", "cli"})
    #: Whether the run's loop may put at most one CLI re-run in each gap
    #: between operations (see :class:`Fleet`).
    one_cli_per_gap = False

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.rng = random.Random(f"{self.name}:{ctx.seed}")
        self.cli_maxrss_kb = 0
        self.tap: Optional[EngineTap] = None
        #: What the CLI re-runs: set once a miss has computed something.
        self.last: Any = None

    def fresh_seed(self) -> int:
        return self.rng.randrange(1, 2**31)

    def setup(self) -> Dict[str, float]:
        """Import, warm up and prepare; returns the set-up breakdown."""
        raise NotImplementedError

    def round(self, rec: Recorder) -> None:
        """One miss operation followed by its hit re-runs."""
        raise NotImplementedError

    def between_ops(self) -> None:
        """Called inside a long round at each gap between its operations;
        the run's loop sets it to run the CLI re-runs that are due."""

    def hits(
        self,
        rec: Recorder,
        label: str,
        rerun: Callable[[], Any],
        check: Callable[[Any], Optional[str]],
    ) -> None:
        """Re-run a miss back to back for this workload's hit window."""
        deadline = perf_counter() + HIT_WINDOW_S[self.name]
        while perf_counter() < deadline:
            done = attempt(rec, "hit", label, rerun)
            if done is not None:
                rec.record("hit", done[1], check(done[0]))

    def cli_expectation(self) -> Tuple[List[str], Dict[str, str], List[Tuple[str, str]]]:
        """``(argv, env, [(point name, rendered body)])`` of the CLI re-run."""
        raise NotImplementedError

    def cli_ready(self) -> bool:
        """Whether a cached result exists for the CLI to re-run."""
        return self.last is not None

    def cli_run(self, rec: Recorder) -> None:
        """One CLI cached re-run, checked against the computed result."""
        args, env, expected = self.cli_expectation()
        run = run_cli(self.ctx, args, env)
        self.cli_maxrss_kb = max(self.cli_maxrss_kb, run.maxrss_kb)
        error = (
            f"cli: exit code {run.returncode}"
            if run.returncode != 0
            else checks.cli_output_matches(run.stdout, expected)
        )
        rec.record("cli", run.seconds, error)

    def teardown(self) -> None:
        if self.tap is not None:
            self.tap.close()
            self.tap = None

    # -- traced runs -------------------------------------------------------

    def trace_begin(self) -> None:
        """Start per-layer accounting; wrappers go in per traced block."""
        from layers import ProgramTrace

        self.trace = ProgramTrace()

    def trace_resume(self) -> None:
        self.trace.install()

    def trace_pause(self) -> None:
        self.trace.uninstall()

    def trace_end(self) -> Dict[str, float]:
        """The per-layer metrics of the traced blocks."""
        return self.trace.metrics(ledger_bytes=ledger_size(Path(os.environ["REPRO_HISTORY_DIR"])))


def ledger_size(root: Path) -> float:
    """Bytes of run-history ledger segments under ``root``."""
    if not root.is_dir():
        return 0.0
    return float(sum(p.stat().st_size for p in root.glob("*.ndjson")))


def _import_engine_stack() -> None:
    """The imports every in-process workload pays before its first run."""
    import numpy  # noqa: F401

    import repro.backends.reference  # noqa: F401
    import repro.distributed.store  # noqa: F401
    import repro.montecarlo.engine  # noqa: F401
    from repro.scenarios.orchestrator import Orchestrator  # noqa: F401


# ---------------------------------------------------------------------------
# cold-sweep
# ---------------------------------------------------------------------------


class ColdSweep(Workload):
    """The full ``delay-sweep`` family on empty caches, in-process.

    What ``repro scenario sweep delay-sweep`` does: 7 per-task delays, each
    an LBP-1 vs LBP-2 duel (analytic optimiser plus two 300-realisation
    Monte-Carlo estimates), default executor and backend.  Every sweep gets
    a fresh result cache, shard store and history ledger.
    """

    name = "cold-sweep"

    def setup(self) -> Dict[str, float]:
        started = perf_counter()
        _import_engine_stack()
        import repro.core.optimize  # noqa: F401
        from repro.scenarios import registry
        from repro.scenarios.cache import ResultCache
        from repro.scenarios.orchestrator import Orchestrator

        import_s = perf_counter() - started
        started = perf_counter()
        # Finish lazy imports on a tiny duel in a throw-away cache, so the
        # measured sweeps start cold only where it counts.
        warm = self.ctx.run_dir / "warm"
        os.environ["REPRO_HISTORY_DIR"] = str(warm / "history")
        tiny = registry.resolve("delay-sweep/d=0.5", quick=True).with_(
            workload=(20, 12), mc_realisations=8
        )
        with Orchestrator(cache=ResultCache(warm / "cache")) as orchestrator:
            orchestrator.run(tiny)
        self.points = registry.get_family("delay-sweep").expand(False)
        self.sweeps = 0
        self.tap = EngineTap()
        return {"import_s": import_s, "warm_s": perf_counter() - started}

    def round(self, rec: Recorder) -> None:
        from repro.scenarios.cache import ResultCache
        from repro.scenarios.orchestrator import Orchestrator

        state = self.ctx.run_dir / f"sweep-{self.sweeps}"
        self.sweeps += 1
        seed = self.fresh_seed()
        os.environ["REPRO_HISTORY_DIR"] = str(state / "history")
        with Orchestrator(cache=ResultCache(state / "cache")) as orchestrator:
            self.tap.take()
            results, spans = [], []
            for spec in self.points:
                def run(spec=spec):
                    return orchestrator.run(spec, seed=seed)

                done = attempt(rec, "miss", spec.name, run)
                if done is None:
                    return
                result, seconds = done
                ended = perf_counter()
                spans.append((ended - seconds, ended))
                results.append(result)
                # Hits of the point just computed, in the gap before the
                # next point; the sweep's time excludes them.
                self.hits(
                    rec,
                    spec.name,
                    run,
                    lambda hit, result=result: checks.cache_hit_matches(
                        result.scalars, hit.from_cache, hit.scalars, result.name
                    ),
                )
                # The CLI re-runs that are due re-run this point, so they
                # spread over the sweep rather than bunch up after it.
                self.last = (state, seed, result)
                self.between_ops()
            sweep_s = sum(ended - started for started, ended in spans)
            rec.record("miss", sweep_s, self._check_sweep(results, self.tap.take()), spans)

    def _check_sweep(self, results: list, reports: list) -> Optional[str]:
        """Each point's LBP-1 mean within 5 SE of its analytic optimum."""
        if len(reports) != 2 * len(results):
            return f"sweep ran {len(reports)} engine runs, expected {2 * len(results)}"
        for index, result in enumerate(results):
            summary = reports[2 * index].estimate.summary
            scalars = result.scalars
            if summary.mean != scalars["lbp1_mean"]:
                return f"{result.name}: first engine run is not the LBP-1 estimate"
            error = checks.mean_matches_theory(
                scalars["lbp1_mean"],
                summary.std,
                summary.n,
                scalars["lbp1_theory"],
                result.name,
            )
            if error is not None:
                return error
        return None

    def cli_expectation(self):
        state, seed, result = self.last
        env = self.ctx.child_env(
            REPRO_CACHE_DIR=str(state / "cache"),
            REPRO_HISTORY_DIR=str(state / "history"),
        )
        args = ["scenario", "run", result.name, "--seed", str(seed)]
        return args, env, [(result.name, result.rendered)]


# ---------------------------------------------------------------------------
# pool-ensemble
# ---------------------------------------------------------------------------


class PoolEnsemble(Workload):
    """``mc-scaling`` as registered, a fresh seed per op, on a warm 2-slot pool.

    What ``repro scenario run mc-scaling --workers 2`` does, through one
    ``Orchestrator(workers=2)`` whose pool is warmed in set-up.
    """

    name = "pool-ensemble"
    workers = 2

    def setup(self) -> Dict[str, float]:
        started = perf_counter()
        _import_engine_stack()
        from repro.core.completion_time import expected_completion_time_lbp1
        from repro.scenarios import registry
        from repro.scenarios.orchestrator import Orchestrator

        import_s = perf_counter() - started
        started = perf_counter()
        self.spec = registry.resolve("mc-scaling")
        policy = self.spec.policy
        self.theory = expected_completion_time_lbp1(
            self.spec.system.to_parameters(),
            self.spec.workload,
            policy.gain,
            sender=policy.sender,
            receiver=policy.receiver,
        )
        self.orchestrator = Orchestrator(workers=self.workers)
        # Two small ensembles fork both pool processes and import the block
        # runtime in each; their seeds are never measured.
        warm = self.spec.with_(mc_realisations=400)
        for _ in range(2):
            self.orchestrator.run(warm, seed=self.fresh_seed())
        return {"import_s": import_s, "warm_s": perf_counter() - started}

    def round(self, rec: Recorder) -> None:
        seed = self.fresh_seed()

        def run():
            return self.orchestrator.run(self.spec, seed=seed)

        done = attempt(rec, "miss", f"mc-scaling seed {seed}", run)
        if done is None:
            return
        result, elapsed = done
        scalars = result.scalars
        error = checks.mean_matches_theory(
            scalars["mean_completion_time"],
            scalars["std_completion_time"],
            scalars["num_realisations"],
            self.theory,
            f"mc-scaling seed {seed}",
        )
        if error is None and scalars["num_realisations"] != self.spec.mc_realisations:
            error = f"mc-scaling: {scalars['num_realisations']} realisations merged"
        rec.record("miss", elapsed, error)
        self.last = (seed, result)
        self.hits(
            rec,
            "mc-scaling",
            run,
            lambda hit: checks.cache_hit_matches(scalars, hit.from_cache, hit.scalars, "mc-scaling"),
        )

    def cli_expectation(self):
        seed, result = self.last
        args = ["scenario", "run", "mc-scaling", "--seed", str(seed),
                "--workers", str(self.workers)]
        return args, self.ctx.child_env(), [(result.name, result.rendered)]

    def teardown(self) -> None:
        super().teardown()
        if hasattr(self, "orchestrator"):
            self.orchestrator.close()


# ---------------------------------------------------------------------------
# warm-rerun
# ---------------------------------------------------------------------------


class WarmRerun(Workload):
    """Result-cache hits and block-served regroups of a warm ``gain-sweep``.

    Set-up runs the full family cold, then fills the history ledger to
    :data:`LEDGER_PRIOR_RECORDS` records.  Each round re-runs one point
    exactly (a result-cache hit) and then at a shard count not seen before
    (a new content hash: every block read from the shard store, merged and
    written back as a new result entry).
    """

    name = "warm-rerun"

    def setup(self) -> Dict[str, float]:
        started = perf_counter()
        _import_engine_stack()
        from repro.obs.history import RunLedger
        from repro.scenarios import registry
        from repro.scenarios.orchestrator import Orchestrator

        import_s = perf_counter() - started
        started = perf_counter()
        self.orchestrator = Orchestrator()
        self.seed = self.fresh_seed()
        self.points = registry.get_family("gain-sweep").expand(False)
        self.cold = self.last = {
            spec.name: self.orchestrator.run(spec, seed=self.seed) for spec in self.points
        }
        ledger = RunLedger()
        prior = ledger.query(kind="run", newest_first=False)
        for index in range(LEDGER_PRIOR_RECORDS - len(prior)):
            record = dict(prior[index % len(prior)])
            for stamp in ("id", "ts", "v"):
                record.pop(stamp, None)
            ledger.append(record)
        self.ledger_path = ledger.current_path
        self.ledger_bytes = self.ledger_path.stat().st_size
        self.next_shards = self.rng.randrange(5, 10**6)
        self.turn = 0
        self.tap = EngineTap()
        # One untimed round warms the hit and regroup paths.
        self.round(Recorder())
        return {"import_s": import_s, "warm_s": perf_counter() - started}

    def round(self, rec: Recorder) -> None:
        spec = self.points[self.turn % len(self.points)]
        self.turn += 1
        cold = self.cold[spec.name].scalars
        done = attempt(rec, "hit", spec.name, lambda: self.orchestrator.run(spec, seed=self.seed))
        if done is not None:
            hit, elapsed = done
            rec.record(
                "hit", elapsed, checks.cache_hit_matches(cold, hit.from_cache, hit.scalars, spec.name)
            )

        os.truncate(self.ledger_path, self.ledger_bytes)
        shards = self.next_shards
        self.next_shards += 1
        label = f"{spec.name} @ {shards} shards"
        self.tap.take()
        done = attempt(
            rec, "miss", label, lambda: self.orchestrator.run(spec, seed=self.seed, shards=shards)
        )
        if done is None:
            return
        regroup, elapsed = done
        reports = self.tap.take()
        scalars = regroup.scalars
        error = checks.regroup_matches(
            (cold["mean_completion_time"], cold["std_completion_time"]),
            (scalars["mean_completion_time"], scalars["std_completion_time"]),
            label,
        )
        if error is None and (
            regroup.from_cache
            or len(reports) != 1
            or reports[0].blocks_cached != reports[0].blocks_total
        ):
            error = f"{label}: not a block-served re-run"
        rec.record("miss", elapsed, error)

    def cli_expectation(self):
        spec = next(s for s in self.points if s.name == "gain-sweep/K=0.35")
        args = ["scenario", "run", spec.name, "--seed", str(self.seed)]
        return args, self.ctx.child_env(), [(spec.name, self.cold[spec.name].rendered)]


# ---------------------------------------------------------------------------
# fleet
# ---------------------------------------------------------------------------


class Fleet(Workload):
    """``repro serve`` plus one ``repro worker``, driven over HTTP.

    Each round submits a fresh quick ``gain-sweep`` (new seed, executor
    ``workers``), takes "done" from the job's terminal event on the NDJSON
    stream, then re-submits it identically (answered at submit time from
    cache metadata).
    """

    name = "fleet"
    #: A fresh job mostly waits on the worker's claim back-off, and set-up
    #: on the service and the worker starting (its unscaled time stayed
    #: flat while the host probe moved); a cached submit and a CLI re-run
    #: compute throughout.
    scaled = frozenset({"hit", "cli"})
    #: The worker's claim back-off grows while the client is idle, so a
    #: fresh job's latency depends on how long the client paused before
    #: submitting it: with one or two CLI re-runs in a gap at random, a
    #: run's fresh-job median jumped by a third.  One CLI re-run after
    #: every round (the loop is always behind their schedule) keeps every
    #: pause the same.
    one_cli_per_gap = True

    def setup(self) -> Dict[str, float]:
        started = perf_counter()
        from repro.service.client import ServiceClient

        import_s = perf_counter() - started
        started = perf_counter()
        self.procs: List[subprocess.Popen] = []
        log = open(self.ctx.run_dir / "serve.log", "wb")
        self.procs.append(self._spawn(["serve", "--port", "0"], log))
        self.url = self._await_listening(self.ctx.run_dir / "serve.log")
        self.client = ServiceClient(self.url, timeout=CHILD_TIMEOUT)
        worker_log = open(self.ctx.run_dir / "worker.log", "wb")
        self.procs.append(
            self._spawn(
                ["worker", "--connect", self.url, "--name", "perfbench-worker",
                 "--max-idle", "900"],
                worker_log,
            )
        )
        for handle in (log, worker_log):
            handle.close()  # the children hold their own descriptors
        deadline = time.monotonic() + CHILD_TIMEOUT
        while not self.client.shard_workers():
            if time.monotonic() > deadline:
                raise RuntimeError("the worker never registered with the service")
            time.sleep(0.02)
        service_ready_s = perf_counter() - started
        # One untimed job pays the service's numerical imports.
        self._run_job(self._payload(self.fresh_seed()))
        self.jobs: List[Tuple[Dict[str, Any], float]] = []
        return {
            "import_s": import_s,
            "service_ready_s": service_ready_s,
            "warm_s": perf_counter() - started - service_ready_s,
        }

    def _spawn(self, args: List[str], log) -> subprocess.Popen:
        return subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            stdout=log,
            stderr=subprocess.STDOUT,
            env=self.ctx.child_env(),
            cwd=self.ctx.root,
        )

    def _await_listening(self, log_path: Path) -> str:
        deadline = time.monotonic() + CHILD_TIMEOUT
        marker = "listening on "
        while time.monotonic() < deadline:
            text = log_path.read_text(encoding="utf-8", errors="replace")
            if marker in text:
                return text.split(marker, 1)[1].split()[0]
            if self.procs[0].poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"repro serve did not start:\n{log_path.read_text()}")

    @staticmethod
    def _payload(seed: int) -> Dict[str, Any]:
        return {"family": "gain-sweep", "quick": True, "seed": seed, "executor": "workers"}

    def _run_job(self, payload: Dict[str, Any]) -> Tuple[str, str]:
        """Submit and follow the event stream to the terminal state."""
        job = self.client.submit(**payload)
        state = job.state
        if not job.finished:
            for event in self.client.events(job.id):
                if event["state"] in ("done", "failed"):
                    state = event["state"]
                    break
        return job.id, state

    def _get(self, path: str) -> Dict[str, Any]:
        """A JSON GET straight to the service (never through a proxy)."""
        connection = http.client.HTTPConnection(
            self.client.host, self.client.port, timeout=CHILD_TIMEOUT
        )
        try:
            connection.request("GET", path)
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def round(self, rec: Recorder) -> None:
        seed = self.fresh_seed()
        payload = self._payload(seed)
        done = attempt(rec, "miss", "fresh job", lambda: self._run_job(payload))
        if done is None:
            return
        (job_id, state), elapsed = done
        done_at = time.time()
        try:
            record = self._get(f"/v1/jobs/{job_id}")
        except (OSError, ValueError) as error:
            rec.record("miss", elapsed, f"fresh job {job_id}: record unreadable: {error!r}")
            return
        points = record["results"]
        error = None
        if state != "done":
            error = f"fresh job {job_id} ended {state}: {record.get('error')}"
        elif len(points) != len(record["points"]) or any(p["from_cache"] for p in points):
            error = f"fresh job {job_id} was not computed point by point"
        rec.record("miss", elapsed, error)
        if error is not None:
            return
        self.last = (seed, points)
        if self.ctx.traced:
            self.jobs.append((record, done_at))
        label = f"job {job_id}"
        self.hits(
            rec,
            label,
            lambda: self.client.submit(**payload),
            lambda view: checks.resubmit_matches(points, view.state, view.results, label),
        )

    def cli_expectation(self):
        seed, points = self.last
        expected = [
            (p["name"], self._get(f"/v1/results/{p['content_hash']}")["rendered"])
            for p in points
        ]
        args = ["scenario", "sweep", "gain-sweep", "--quick", "--seed", str(seed)]
        return args, self.ctx.child_env(), expected

    def teardown(self) -> None:
        super().teardown()
        for proc in reversed(getattr(self, "procs", [])):
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
        for proc in reversed(getattr(self, "procs", [])):
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    # -- traced runs: everything is read from outside the processes, so
    # -- nothing is installed and the counts cover the whole traced run. ----

    def trace_resume(self) -> None:
        pass

    def trace_pause(self) -> None:
        pass

    def trace_begin(self) -> None:
        from repro.obs.history import RunLedger

        self.jobs = []
        self._since = time.time()
        self._ledger = RunLedger()
        self._scrape = parse_metrics(self.client.metrics())

    def trace_end(self) -> Dict[str, float]:
        from layers import engine_rows, empty_layer_metrics

        delta = diff_metrics(self._scrape, parse_metrics(self.client.metrics()))
        records = self._ledger.query(kind="run", since=self._since)
        metrics = empty_layer_metrics()
        metrics.update(engine_rows(_ledger_entry(r) for r in records))
        metrics.update(registry_rows(delta))
        for record in records:
            computed = _computed_realisations(record)
            kernel = str(record.get("backend"))
            if f"backends.{kernel}.realisations" in metrics:
                metrics[f"backends.{kernel}.realisations"] += computed
            metrics["backends.realisations"] += computed
            metrics["backends.run_batch_s"] += float(
                (record.get("timings") or {}).get("block_compute_seconds", 0.0)
            )
        if metrics["backends.realisations"]:
            metrics["backends.us_per_realisation"] = (
                1e6 * metrics["backends.run_batch_s"] / metrics["backends.realisations"]
            )
        metrics.update({
            "distributed.frames.encode_s": total(delta, "repro_frame_codec_seconds_sum", op="encode"),
            "distributed.frames.decode_s": total(delta, "repro_frame_codec_seconds_sum", op="decode"),
            "distributed.worker.busy_s": total(delta, "repro_worker_busy_seconds_total"),
            "distributed.worker.empty_claims": total(delta, "repro_worker_claims_total", outcome="empty"),
            "distributed.worker.item_claims": total(delta, "repro_worker_claims_total", outcome="item"),
            "distributed.worker.claim_ms": 1000.0 * histogram_mean(delta, "repro_worker_claim_seconds"),
            "obs.history.ledger_bytes": ledger_size(self._ledger.root),
            "service.http.submit_ms": 1000.0 * histogram_mean(delta, "repro_http_request_seconds", route="/v1/jobs"),
            "service.http.claim_ms": 1000.0 * histogram_mean(
                delta, "repro_http_request_seconds", route="/v1/workers/{worker_id}/claim"),
            "service.http.results_ms": 1000.0 * histogram_mean(
                delta, "repro_http_request_seconds", route="/v1/workers/{worker_id}/results"),
            "service.http.requests": total(delta, "repro_http_requests_total"),
        })
        if self.jobs:
            count = float(len(self.jobs))
            metrics["service.jobs.queue_wait_s"] = sum(
                r["started_at"] - r["created_at"] for r, _ in self.jobs) / count
            metrics["service.jobs.run_s"] = sum(
                r["finished_at"] - r["started_at"] for r, _ in self.jobs) / count
            metrics["service.jobs.notify_lag_s"] = sum(
                done - r["finished_at"] for r, done in self.jobs) / count
        return metrics


def _computed_realisations(record: Dict[str, Any]) -> float:
    blocks = int(record.get("blocks_total") or 0)
    computed = blocks - int(record.get("blocks_cached") or 0)
    return float(record.get("realisations") or 0) * computed / blocks if blocks else 0.0


def _ledger_entry(record: Dict[str, Any]) -> Dict[str, float]:
    """A run-history record in :func:`layers.engine_rows` form."""
    timings = record.get("timings") or {}
    attribution = record.get("attribution") or {}
    return {
        "merge_s": float(timings.get("merge_seconds", 0.0)),
        "compute_s": float(timings.get("block_compute_seconds", 0.0)),
        "execute_s": float(timings.get("execute_seconds", 0.0)),
        "slots": float((record.get("sizing") or {}).get("slots") or 1.0),
        "shards": float(record.get("shards_dispatched") or 0),
        "blocks_total": float(record.get("blocks_total") or 0),
        "blocks_cached": float(record.get("blocks_cached") or 0),
        "overhead_s": sum(
            float(attribution.get(k, 0.0))
            for k in ("wire_seconds", "deserialize_seconds", "dispatch_seconds", "idle_seconds")
        ),
    }


WORKLOADS = {cls.name: cls for cls in (ColdSweep, PoolEnsemble, WarmRerun, Fleet)}
