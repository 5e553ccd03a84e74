"""Command-line entry point: regenerate the paper's evaluation from a shell.

Usage::

    python -m repro                      # quick summary (headline numbers)
    python -m repro fig3                 # regenerate one artefact (cached)
    python -m repro all                  # regenerate every figure and table
    python -m repro fig3 --quick         # reduced realisation counts
    python -m repro fig3 --seed 7        # reproducible alternate seed
    python -m repro table3 --workers 4   # parallel Monte-Carlo

    python -m repro scenario list                 # catalog + families
    python -m repro scenario run fig3 --quick     # cached scenario run
    python -m repro scenario sweep delay-sweep    # expand + run a family
    python -m repro scenario compare smoke churn/paper
    python -m repro scenario run smoke --backend vectorized

    python -m repro bench --quick                 # time the backends,
                                                  # write BENCH_results.json
    python -m repro bench --distributed --quick   # shard-scaling curve,
                                                  # write BENCH_distributed.json

    python -m repro scenario sweep gain-sweep --quick --executor process
    python -m repro scenario run smoke --shards 4 # sharded Monte-Carlo
    python -m repro scenario run fig3 --profile   # span-tree timing report
    python -m repro bench --distributed --trace-output trace.ndjson

    python -m repro serve --port 8077             # HTTP results service
    python -m repro worker --connect http://HOST:8077   # join the shard fleet
    python -m repro fleet --connect http://HOST:8077 --watch 2  # fleet table
    python -m repro serve --log-level debug       # shared logging formatter
    python -m repro scenario list --json          # machine-readable catalog

    python -m repro history list                  # recorded runs + trend table
    python -m repro history show <id>             # one record + sentinel verdict
    python -m repro bench --quick --check-regression   # gate on the ledger
    python -m repro trace render trace.ndjson     # replay a saved span tree
    python -m repro docs                          # regenerate docs/scenario-catalog.md
    python -m repro docs --check --check-links    # CI: docs fresh, links valid

The heavy lifting lives in :mod:`repro.experiments`, :mod:`repro.scenarios`,
:mod:`repro.backends`, :mod:`repro.montecarlo.engine` and
:mod:`repro.service`; this module only parses arguments and prints the
rendered tables/series.  Every Monte-Carlo ensemble — serial, pooled,
vectorized or sharded — runs through the one block-planned engine, so
``--workers``/``--shards``/``--executor`` change *where* work runs, never
the result.  ``python -m repro <artefact>`` and ``scenario run`` share one
route, the scenario orchestrator: runs are content-addressed, an unchanged
scenario is served from the on-disk cache (``REPRO_CACHE_DIR`` or
``~/.cache/repro``; ``scenario run <name> --force`` recomputes), and
completed seed blocks persist in the shard store for resume and
delta-growth.
"""

from __future__ import annotations

import argparse
import os
import sys
import time


def _summary() -> str:
    """Headline reproduction numbers, computed analytically (fast)."""
    from repro.core.optimize import optimal_gain_lbp1, optimal_gain_no_failure
    from repro.core.parameters import paper_parameters
    from repro.scenarios.registry import PAPER_ARTEFACTS

    params = paper_parameters()
    failure = optimal_gain_lbp1(params, (100, 60))
    clean = optimal_gain_no_failure(params, (100, 60))
    lines = [
        "repro — Dhakal et al., IPDPS 2006 (load balancing under node failure/recovery)",
        "",
        f"  optimal LBP-1 gain with failures    : K = {failure.optimal_gain:.2f}"
        f"   (paper: 0.35)",
        f"  optimal LBP-1 gain without failures : K = {clean.optimal_gain:.2f}"
        f"   (paper: 0.45)",
        f"  minimum mean completion time        : {failure.optimal_mean:.1f} s"
        f" (paper: ~117 s)",
        "",
        "Regenerate individual artefacts with, e.g.:",
        "  python -m repro fig3",
        "  python -m repro table3 --quick",
        f"Available artefacts: {', '.join(PAPER_ARTEFACTS)}, all",
        "",
        "Explore the scenario catalog (content-addressed result cache):",
        "  python -m repro scenario list",
        "  python -m repro scenario run fig3 --quick",
        "  python -m repro scenario sweep delay-sweep --quick",
        "",
        "Benchmark the execution backends (reference vs vectorized):",
        "  python -m repro bench --quick",
        "  python -m repro scenario run mc-scaling --backend vectorized",
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# `python -m repro scenario ...` subcommands
# ---------------------------------------------------------------------------


def _print_result(result, mode: str, elapsed: float) -> None:
    cached = ", cached" if result.from_cache else ""
    print(f"=== {result.name} ({mode}, {elapsed:.1f} s{cached}) ===")
    print(result.render())
    print()


def _scenario_list(as_json: bool = False) -> int:
    if as_json:
        import json

        from repro.scenarios.catalog import catalog_payload

        print(json.dumps(catalog_payload(), indent=2, sort_keys=True))
        return 0

    from repro.scenarios import family_names, get_entry, get_family, scenario_names

    print("Scenarios (run with `python -m repro scenario run <name>`):")
    for name in scenario_names():
        entry = get_entry(name)
        print(f"  {name:<14} {entry.description}")
        print(f"  {'':<14}   hash {entry.spec.content_hash[:12]} "
              f"(quick {entry.quick.content_hash[:12]})")
    print()
    print("Families (run with `python -m repro scenario sweep <family>`):")
    for name in family_names():
        family = get_family(name)
        points = family.expand(quick=False)
        print(f"  {name:<14} {family.description} [{len(points)} points]")
        for point in points:
            print(f"  {'':<14}   {point.name}")
    return 0


def _scenario_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro scenario",
        description="Scenario catalog: list, run, sweep and compare scenarios "
        "with content-addressed result caching.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_p = sub.add_parser("list", help="show the scenario catalog and families")
    list_p.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable catalog (same payload the docs "
        "generator and the results service use)",
    )

    run_p = sub.add_parser("run", help="run one or more named scenarios")
    run_p.add_argument("names", nargs="+", help="scenario names (or family/point)")

    sweep_p = sub.add_parser("sweep", help="expand a scenario family and run it")
    sweep_p.add_argument("family", help="family name (see `scenario list`)")

    compare_p = sub.add_parser("compare", help="tabulate headline numbers")
    compare_p.add_argument("names", nargs="+", help="scenario names to compare")

    for p in (run_p, sweep_p, compare_p):
        p.add_argument("--quick", action="store_true",
                       help="use reduced realisation counts")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario's root seed")
        p.add_argument("--workers", type=int, default=None,
                       help="size of the shared Monte-Carlo process pool")
        p.add_argument("--backend", default=None,
                       help="execution backend for Monte-Carlo estimates "
                       "(reference|vectorized; participates in the cache key)")
        p.add_argument("--shards", type=int, default=None,
                       help="run Monte-Carlo kinds sharded with this many "
                       "work items (participates in the cache key; merged "
                       "results are shard-count invariant)")
        p.add_argument("--executor", default=None,
                       choices=["inline", "process"],
                       help="where engine work items run for sharded kinds "
                       "(default: process when --workers is set, else "
                       "inline); does not affect results")
        p.add_argument("--force", action="store_true",
                       help="recompute even if a cached result exists")
        p.add_argument("--no-cache", action="store_true",
                       help="neither read nor write the result cache")
        p.add_argument("--profile", action="store_true",
                       help="trace the run and print a span-tree timing "
                       "report (plan/execute/merge, per-shard) afterwards")

    args = parser.parse_args(argv)
    if args.command == "list":
        return _scenario_list(as_json=args.json)

    import contextlib

    from repro.scenarios import Orchestrator, get_family

    tracer = None
    activation = contextlib.nullcontext()
    if args.profile:
        from repro.obs.trace import Tracer

        tracer = Tracer()
        activation = tracer.activate()

    mode = "quick" if args.quick else "full"
    try:
        with activation, Orchestrator(
            workers=args.workers,
            use_cache=not args.no_cache,
            shard_executor=args.executor,
        ) as orchestrator:
            if args.command == "run":
                for name in args.names:
                    started = time.perf_counter()
                    result = orchestrator.run(
                        name,
                        quick=args.quick,
                        force=args.force,
                        seed=args.seed,
                        backend=args.backend,
                        shards=args.shards,
                    )
                    _print_result(result, mode, time.perf_counter() - started)
            elif args.command == "sweep":
                family = get_family(args.family)
                for spec in family.expand(args.quick):
                    if args.seed is not None:
                        spec = spec.with_(seed=args.seed)
                    started = time.perf_counter()
                    result = orchestrator.run(
                        spec,
                        force=args.force,
                        backend=args.backend,
                        shards=args.shards,
                    )
                    _print_result(result, mode, time.perf_counter() - started)
            else:  # compare
                names = list(args.names)
                if args.seed is not None:
                    from repro.scenarios import resolve

                    names = [
                        resolve(name, quick=args.quick).with_(seed=args.seed)
                        for name in names
                    ]
                print(
                    orchestrator.compare(
                        names,
                        quick=args.quick,
                        force=args.force,
                        backend=args.backend,
                        shards=args.shards,
                    )
                )
    except KeyError as error:
        # Unknown scenario / family names: a clean message, not a traceback.
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    except ValueError as error:
        # Unknown backends / backend-incompatible kinds: same treatment.
        print(f"error: {error}", file=sys.stderr)
        return 2
    if tracer is not None:
        print("=== timing profile ===")
        print(tracer.render_tree())
    return 0


# ---------------------------------------------------------------------------
# `python -m repro bench ...` subcommand
# ---------------------------------------------------------------------------


def _bench_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Time the execution backends against each other, KS-test "
        "statistical parity and write machine-readable BENCH_results.json.",
    )
    parser.add_argument(
        "scenarios",
        nargs="*",
        help="mc_point scenarios to benchmark (default: every benchable "
        "registry point, or the smoke set with --quick)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="benchmark the CI smoke set with quick realisation counts",
    )
    parser.add_argument(
        "--backends",
        default=None,
        help="comma-separated backends to time (default: reference,vectorized)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override every scenario's seed"
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="timing repeats per backend (best wall time is kept)",
    )
    parser.add_argument(
        "--alpha",
        type=float,
        default=None,
        help="significance level of the KS parity gate (default 0.01)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="where to write the JSON report (default: ./BENCH_results.json, "
        "or ./BENCH_distributed.json with --distributed)",
    )
    parser.add_argument(
        "--distributed",
        action="store_true",
        help="benchmark the sharded runner instead: wall-clock vs process-"
        "pool worker count, written to BENCH_distributed.json",
    )
    parser.add_argument(
        "--worker-counts",
        default=None,
        help="comma-separated pool sizes for --distributed (default: 1,2,4)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shard count for --distributed (default: the scenario's, or "
        "2x the largest worker count)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="with --distributed: compare against this committed baseline "
        "report and fail on determinism drift or throughput regression",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=10.0,
        help="allowed throughput regression factor vs the baseline "
        "(default 10; merged statistics must always match exactly)",
    )
    parser.add_argument(
        "--trace-output",
        default=None,
        help="with --distributed: also write the span trace of the whole "
        "benchmark (one JSON span per line) to this NDJSON file",
    )
    parser.add_argument(
        "--require-speedup",
        type=float,
        default=None,
        metavar="MIN",
        help="with --distributed: fail unless every multi-worker run beats "
        "MIN x speedup over 1 worker; counts above the machine's effective "
        "CPU budget are loudly skipped, never failed (a 1-CPU container "
        "cannot parallelize, and pretending it can would gate on noise)",
    )
    parser.add_argument(
        "--check-regression",
        action="store_true",
        help="judge this run's records against the run-history ledger "
        "(median ± MAD over comparable prior records; see `repro history`) "
        "and exit non-zero when any check comes back regressed",
    )
    args = parser.parse_args(argv)

    if args.distributed:
        return _bench_distributed(args)

    from repro.backends.bench import DEFAULT_ALPHA, DEFAULT_BACKENDS, run_benchmark

    backends = (
        tuple(name.strip() for name in args.backends.split(",") if name.strip())
        if args.backends
        else DEFAULT_BACKENDS
    )
    try:
        report = run_benchmark(
            scenarios=args.scenarios or None,
            backends=backends,
            quick=args.quick,
            seed=args.seed,
            alpha=DEFAULT_ALPHA if args.alpha is None else args.alpha,
            repeats=args.repeats,
        )
    except (KeyError, ValueError) as error:
        message = error.args[0] if error.args else error
        print(f"error: {message}", file=sys.stderr)
        return 2
    print(report.render())
    path = report.save(args.output or "BENCH_results.json")
    print(f"wrote {path}")
    if not report.all_parity_passed:
        return 1
    if args.check_regression and _sentinel_verdict(report) != 0:
        return 1
    return 0


def _sentinel_verdict(report) -> int:
    """Judge a bench report's fresh ledger records; 1 on any regression.

    The records were appended by the bench harness itself (attached as
    ``report.history_records``), so each is evaluated against *prior*
    comparable records only — its own id is excluded from its baseline.
    ``min_records=1`` lets a single seeded baseline (CI imports the
    committed BENCH artifacts) gate the very next run.
    """
    from repro.obs import sentinel
    from repro.obs.history import default_ledger, history_enabled

    records = [r for r in getattr(report, "history_records", []) if r]
    if not history_enabled() or not records:
        print(
            "regression check: no ledger records for this run "
            "(REPRO_HISTORY=0?) — nothing to judge"
        )
        return 0
    ledger = default_ledger()
    worst = 0
    for record in records:
        verdict = sentinel.evaluate(
            ledger, record, checks=("throughput",), min_records=1
        )
        label = record.get("scenario", "?")
        if record.get("worker_count") is not None:
            label = f"{label} @ {record['worker_count']} workers"
        check = verdict.checks[0]
        line = f"regression check: {label}: {check.status}"
        if check.baseline_median is not None and check.value is not None:
            line += (
                f" ({check.value:.1f} real/s vs baseline median "
                f"{check.baseline_median:.1f}, n={check.baseline_size})"
            )
        elif check.detail:
            line += f" ({check.detail})"
        print(line, file=sys.stderr if verdict.regressed else sys.stdout)
        if verdict.regressed:
            worst = 1
    if worst:
        print(
            "error: throughput regressed against the run-history baseline "
            "(see `repro history list --kind bench`)",
            file=sys.stderr,
        )
    else:
        print("regression check passed")
    return worst


def _bench_distributed(args) -> int:
    """`python -m repro bench --distributed`: shard-scaling curve + gate."""
    import json

    from repro.backends.bench import (
        DEFAULT_WORKER_COUNTS,
        compare_distributed_reports,
        run_distributed_benchmark,
    )

    if len(args.scenarios) > 1:
        print("error: --distributed benchmarks one scenario", file=sys.stderr)
        return 2
    worker_counts = (
        tuple(int(c) for c in args.worker_counts.split(",") if c.strip())
        if args.worker_counts
        else DEFAULT_WORKER_COUNTS
    )
    # Read the baseline before timing: an unreadable file fails fast, and
    # the fresh report saved below cannot overwrite the file it is gated on.
    baseline = None
    if args.baseline:
        try:
            with open(args.baseline, encoding="utf-8") as handle:
                baseline = json.load(handle)
        except (OSError, ValueError) as error:
            print(f"error: cannot read baseline: {error}", file=sys.stderr)
            return 2
    tracer = None
    if args.trace_output:
        from repro.obs.trace import Tracer

        tracer = Tracer()
    try:
        report = run_distributed_benchmark(
            scenario=args.scenarios[0] if args.scenarios else "mc-scaling",
            quick=args.quick,
            worker_counts=worker_counts,
            shards=args.shards,
            seed=args.seed,
            tracer=tracer,
        )
    except (KeyError, ValueError) as error:
        message = error.args[0] if error.args else error
        print(f"error: {message}", file=sys.stderr)
        return 2
    print(report.render())
    if tracer is not None:
        with open(args.trace_output, "w", encoding="utf-8") as handle:
            handle.write(tracer.to_ndjson())
        print(f"wrote {args.trace_output} ({len(tracer)} spans)")
    path = report.save(args.output or "BENCH_distributed.json")
    print(f"wrote {path}")
    if not report.merge_invariant:
        print(
            "error: merged statistics diverged across worker counts",
            file=sys.stderr,
        )
        return 1
    if baseline is not None:
        problems = compare_distributed_reports(
            report.to_dict(), baseline, tolerance=args.tolerance
        )
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        if problems:
            return 1
        print(f"baseline gate passed (tolerance {args.tolerance:g}x)")
    if args.require_speedup is not None:
        from repro.backends.bench import speedup_gate_problems
        from repro.obs.history import effective_cpus

        cpus = effective_cpus()
        problems, skipped = speedup_gate_problems(
            report, args.require_speedup, effective_cpus=cpus
        )
        for count in skipped:
            print(
                f"speedup gate: SKIPPED at {count} workers — this machine "
                f"exposes only {cpus} effective CPU(s); run on a multicore "
                f"machine to enforce the gate there"
            )
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        if problems:
            return 1
        enforced = [
            t.worker_count
            for t in report.timings
            if 1 < t.worker_count <= cpus
        ]
        if enforced:
            print(
                f"speedup gate passed (> {args.require_speedup:g}x at "
                f"{', '.join(str(c) for c in enforced)} workers)"
            )
    if args.check_regression and _sentinel_verdict(report) != 0:
        return 1
    return 0


# ---------------------------------------------------------------------------
# `python -m repro serve ...` subcommand
# ---------------------------------------------------------------------------


def _serve_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Run the scenario results service: an HTTP API for "
        "browsing the catalog, submitting runs/sweeps as background jobs "
        "and fetching content-addressed results (cache hits never touch "
        "the numerical stack).",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="interface to bind (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8077,
                        help="port to bind; 0 picks a free one (default 8077)")
    parser.add_argument("--workers", type=int, default=None,
                        help="size of the shared Monte-Carlo process pool")
    _add_log_level(parser)
    args = parser.parse_args(argv)
    _setup_logging(args.log_level)

    from repro.service.app import serve

    return serve(host=args.host, port=args.port, workers=args.workers)


# ---------------------------------------------------------------------------
# `python -m repro worker ...` subcommand
# ---------------------------------------------------------------------------


def _worker_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro worker",
        description="Join a results service's shard fleet: pull shard work "
        "items over HTTP, execute them with the local numerical stack and "
        "post partial results back.  Workers may appear, crash and "
        "reconnect at any time — the service's scheduler reassigns lost "
        "shards.",
    )
    parser.add_argument("--connect", required=True,
                        help="base URL of the results service "
                        "(e.g. http://127.0.0.1:8077)")
    parser.add_argument("--name", default=None,
                        help="worker name shown in the fleet view "
                        "(default: hostname-pid)")
    parser.add_argument("--batch", type=int, default=None,
                        help="work items to claim per round-trip (default 4)")
    parser.add_argument("--max-idle", type=float, default=None,
                        help="exit cleanly after this many idle seconds "
                        "(default: run until interrupted)")
    parser.add_argument("--once", action="store_true",
                        help="exit after the first claimed batch (up to "
                        "--batch items) that completes at least one item")
    _add_log_level(parser)
    args = parser.parse_args(argv)

    from repro.distributed.work import worker_name
    from repro.distributed.worker import run_worker

    _setup_logging(args.log_level, worker_id=worker_name(args.name))

    try:
        kwargs = dict(
            name=args.name,
            max_idle=args.max_idle,
            once=args.once,
        )
        if args.batch is not None:
            kwargs["batch"] = args.batch
        return run_worker(args.connect, **kwargs)
    except KeyboardInterrupt:
        return 0


# ---------------------------------------------------------------------------
# `python -m repro fleet ...` subcommand
# ---------------------------------------------------------------------------


def _fleet_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro fleet",
        description="Show aggregated worker telemetry from a running results "
        "service (GET /v1/fleet): items executed, busy fraction and claim "
        "overhead (parked time excluded) per worker, as a one-shot or "
        "refreshing table.",
    )
    parser.add_argument("--connect", required=True,
                        help="base URL of the results service "
                        "(e.g. http://127.0.0.1:8077)")
    parser.add_argument("--watch", type=float, default=None, metavar="SECONDS",
                        help="refresh the table every SECONDS until "
                        "interrupted (default: print once and exit)")
    parser.add_argument("--json", action="store_true",
                        help="emit the raw /v1/fleet JSON instead of a table")
    _add_log_level(parser)
    args = parser.parse_args(argv)
    _setup_logging(args.log_level)

    import json

    from repro.obs.fleet import render_fleet_table
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.connect, timeout=30.0)

    def show() -> None:
        summary = client.fleet()
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(render_fleet_table(summary))

    try:
        if args.watch is None:
            show()
            return 0
        while True:
            show()
            print()
            time.sleep(max(args.watch, 0.1))
    except KeyboardInterrupt:
        return 0
    except (ServiceError, OSError) as error:
        print(f"error: cannot reach {args.connect}: {error}", file=sys.stderr)
        return 1


# ---------------------------------------------------------------------------
# `python -m repro history ...` subcommand
# ---------------------------------------------------------------------------


def _history_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro history",
        description="Query the append-only run-history ledger: every engine "
        "run and bench timing lands there as a schema-versioned record "
        "(under $REPRO_HISTORY_DIR, default <cache>/history), and the "
        "regression sentinel judges new runs against it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_p = sub.add_parser("list", help="tabulate recorded runs, newest first")
    list_p.add_argument("--kind", default=None, choices=["run", "bench"],
                        help="only run records or only bench records")
    list_p.add_argument("--scenario", default=None)
    list_p.add_argument("--backend", default=None)
    list_p.add_argument("--executor", default=None)
    list_p.add_argument("--limit", type=int, default=20,
                        help="newest records to show (default 20)")
    list_p.add_argument("--json", action="store_true",
                        help="emit the matching records as JSON")

    show_p = sub.add_parser("show", help="one record + its sentinel verdict")
    show_p.add_argument("id", help="record id (see `history list`)")

    diff_p = sub.add_parser("diff", help="compare two records side by side")
    diff_p.add_argument("ids", nargs=2, metavar="ID",
                        help="two record ids (see `history list`)")

    prune_p = sub.add_parser("prune", help="compact the ledger")
    prune_p.add_argument("--keep", type=int, default=None,
                         help="retain only the newest N records")
    prune_p.add_argument("--older-than", type=float, default=None,
                         metavar="DAYS", help="drop records older than DAYS")

    import_p = sub.add_parser(
        "import",
        help="seed the ledger from committed BENCH_*.json reports "
        "(how CI bootstraps the regression baseline)",
    )
    import_p.add_argument("files", nargs="+", metavar="FILE",
                          help="BENCH_distributed/BENCH_scaling/BENCH_results "
                          "style JSON reports")

    args = parser.parse_args(argv)

    import json

    from repro.obs.history import RunLedger

    ledger = RunLedger()
    if args.command == "list":
        return _history_list(ledger, args)
    if args.command == "show":
        from repro.obs import sentinel

        record = ledger.get(args.id)
        if record is None:
            print(f"error: no record with id {args.id!r}", file=sys.stderr)
            return 2
        print(json.dumps(record, indent=2, sort_keys=True))
        print()
        print(sentinel.evaluate(ledger, record).render())
        return 0
    if args.command == "diff":
        return _history_diff(ledger, *args.ids)
    if args.command == "prune":
        if args.keep is None and args.older_than is None:
            print("error: prune needs --keep and/or --older-than",
                  file=sys.stderr)
            return 2
        cutoff = (
            None if args.older_than is None
            else time.time() - args.older_than * 86400.0
        )
        kept, dropped = ledger.prune(keep=args.keep, older_than=cutoff)
        print(f"pruned: kept {kept}, dropped {dropped}")
        return 0
    # import
    from pathlib import Path

    from repro.obs.history import (
        record_backend_report,
        record_distributed_report,
    )

    total = 0
    for path in args.files:
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as error:
            print(f"error: cannot read {path}: {error}", file=sys.stderr)
            return 2
        # Distributed reports carry `timings`; backend reports `scenarios`.
        if "timings" in payload:
            records = record_distributed_report(payload, ledger=ledger)
        elif "scenarios" in payload:
            records = record_backend_report(payload, ledger=ledger)
        else:
            print(f"error: {path} is not a recognised BENCH report",
                  file=sys.stderr)
            return 2
        total += len(records)
        print(f"imported {len(records)} record(s) from {path}")
    print(f"ledger now holds {len(ledger)} record(s) at {ledger.root}")
    return 0 if total else 1


def _history_list(ledger, args) -> int:
    import json

    filters = {
        key: getattr(args, key)
        for key in ("kind", "scenario", "backend", "executor")
        if getattr(args, key) is not None
    }
    records = ledger.query(limit=max(1, args.limit), **filters)
    if args.json:
        print(json.dumps(records, indent=2, sort_keys=True))
        return 0
    if not records:
        print(f"no records in {ledger.root} (run a scenario or bench first)")
        return 0
    headers = ("id", "kind", "scenario", "backend", "exec", "wall s",
               "real/s", "cache%", "age")
    rows = []
    now = time.time()
    for r in records:
        wall = r.get("wall_seconds")
        throughput = r.get("throughput")
        if throughput is None and wall and r.get("realisations"):
            throughput = float(r["realisations"]) / float(wall)
        blocks = r.get("blocks_total") or 0
        cached = r.get("blocks_cached") or 0
        execute = r.get("executor")
        if execute is None and r.get("worker_count") is not None:
            execute = f"{r['worker_count']}w"
        rows.append([
            str(r.get("id", "?")),
            str(r.get("kind", "?")),
            str(r.get("scenario", "?")),
            str(r.get("backend", "?")),
            str(execute or "-"),
            "-" if wall is None else f"{float(wall):.2f}",
            "-" if throughput is None else f"{float(throughput):.1f}",
            "-" if not blocks else f"{100.0 * cached / blocks:.0f}",
            _age(now - float(r.get("ts") or now)),
        ])
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows))
        for i in range(len(headers))
    ]
    print("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip())
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip())
    print()
    print(_history_trend(records))
    return 0


def _history_trend(records) -> str:
    """Per-cohort wall-time percentile summary of the listed records.

    The p50/p95 columns come from bucketing wall times into the metrics
    module's histogram layout and interpolating — the same estimator the
    fleet table uses for claim latency.
    """
    from repro.obs.metrics import DEFAULT_BUCKETS, histogram_quantile

    buckets = list(DEFAULT_BUCKETS) + ["+Inf"]
    cohorts = {}
    for r in records:
        key = (r.get("kind", "?"), r.get("scenario", "?"), r.get("backend", "?"))
        cohorts.setdefault(key, []).append(r)
    lines = ["trend (over listed records):",
             f"  {'cohort':<40} {'n':>3}  {'p50 s':>8}  {'p95 s':>8}"]
    for key in sorted(cohorts):
        walls = [
            float(r["wall_seconds"]) for r in cohorts[key]
            if r.get("wall_seconds") is not None
        ]
        counts = [0] * len(buckets)
        for wall in walls:
            for i, bound in enumerate(DEFAULT_BUCKETS):
                if wall <= bound:
                    counts[i] += 1
                    break
            else:
                counts[-1] += 1
        p50 = histogram_quantile(buckets, counts, 0.50)
        p95 = histogram_quantile(buckets, counts, 0.95)
        label = "/".join(str(part) for part in key)
        lines.append(
            f"  {label:<40} {len(walls):>3}  "
            f"{'-' if p50 is None else format(p50, '8.3f')}  "
            f"{'-' if p95 is None else format(p95, '8.3f')}"
        )
    return "\n".join(lines)


def _age(seconds: float) -> str:
    seconds = max(0.0, seconds)
    if seconds < 90:
        return f"{seconds:.0f}s"
    if seconds < 5400:
        return f"{seconds / 60:.0f}m"
    if seconds < 172800:
        return f"{seconds / 3600:.0f}h"
    return f"{seconds / 86400:.0f}d"


def _history_diff(ledger, id_a: str, id_b: str) -> int:
    records = []
    for record_id in (id_a, id_b):
        record = ledger.get(record_id)
        if record is None:
            print(f"error: no record with id {record_id!r}", file=sys.stderr)
            return 2
        records.append(record)
    a, b = records
    print(f"diff {id_a} ({a.get('scenario')}) -> {id_b} ({b.get('scenario')})")
    scalar_keys = [
        "kind", "scenario", "backend", "executor", "worker_count",
        "effective_cpus", "realisations", "blocks_total", "blocks_cached",
        "shards_dispatched", "wall_seconds", "throughput",
        "repro_version", "git_revision",
    ]
    rows = []
    for key in scalar_keys:
        va, vb = a.get(key), b.get(key)
        if va is None and vb is None:
            continue
        rows.append((key, va, vb))
    for section in ("timings", "attribution"):
        ta, tb = a.get(section) or {}, b.get(section) or {}
        for key in sorted(set(ta) | set(tb)):
            rows.append((f"{section}.{key}", ta.get(key), tb.get(key)))
    for key, va, vb in rows:
        delta = ""
        if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
            if va == vb:
                delta = "="
            elif va:
                delta = f"{(float(vb) - float(va)) / abs(float(va)) * 100:+.0f}%"
        fa = "-" if va is None else (
            f"{va:.4f}" if isinstance(va, float) else str(va)
        )
        fb = "-" if vb is None else (
            f"{vb:.4f}" if isinstance(vb, float) else str(vb)
        )
        marker = "" if fa == fb else "  *"
        print(f"  {key:<34} {fa:>18}  {fb:>18}  {delta:>6}{marker}")
    return 0


# ---------------------------------------------------------------------------
# `python -m repro trace ...` subcommand
# ---------------------------------------------------------------------------


def _trace_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Work with saved span traces (the NDJSON files written "
        "by `bench --trace-output` and GET /v1/jobs/{id}/trace).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    render_p = sub.add_parser(
        "render", help="replay an exported trace as an indented span tree"
    )
    render_p.add_argument("file", help="NDJSON trace export (one span per line)")
    render_p.add_argument(
        "--min-duration", type=float, default=0.0, metavar="SECONDS",
        help="hide spans shorter than this (default: show all)",
    )
    args = parser.parse_args(argv)

    from pathlib import Path

    from repro.obs.trace import Tracer

    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except OSError as error:
        print(f"error: cannot read {args.file}: {error}", file=sys.stderr)
        return 2
    try:
        tracer = Tracer.from_ndjson(text)
    except ValueError as error:
        print(f"error: {args.file} is not a span NDJSON export: {error}",
              file=sys.stderr)
        return 2
    if not len(tracer):
        print(f"{args.file}: no spans")
        return 0
    print(tracer.render_tree(min_duration=args.min_duration))
    return 0


# ---------------------------------------------------------------------------
# `python -m repro docs ...` subcommand
# ---------------------------------------------------------------------------


def _docs_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro docs",
        description="Regenerate docs/scenario-catalog.md from the scenario "
        "registry, or verify it (and the repo's markdown links) for CI.",
    )
    parser.add_argument("--check", action="store_true",
                        help="fail instead of writing when the committed "
                        "catalog page is stale")
    parser.add_argument("--check-links", action="store_true",
                        help="verify relative links and anchors in "
                        "README.md and docs/*.md")
    parser.add_argument("--root", default=".",
                        help="repository root holding README.md and docs/ "
                        "(default: current directory)")
    args = parser.parse_args(argv)

    from repro.docsgen import check_catalog, check_links, write_catalog

    failures = 0
    if args.check:
        message = check_catalog(args.root)
        if message is not None:
            print(f"error: {message}", file=sys.stderr)
            failures += 1
        else:
            print("docs/scenario-catalog.md is up to date")
    elif not args.check_links:
        path, changed = write_catalog(args.root)
        print(f"{'wrote' if changed else 'unchanged'} {path}")
    if args.check_links:
        problems = check_links(args.root)
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        if problems:
            failures += 1
        else:
            print("markdown links OK")
    return 1 if failures else 0


def _add_log_level(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--log-level",
        default=None,
        metavar="LEVEL",
        help="logging level (debug/info/warning/error; default: "
        "$REPRO_LOG_LEVEL or warning) — one shared formatter with "
        "timestamp, level, logger and worker id",
    )


def _setup_logging(level=None, worker_id=None) -> None:
    """Install the shared formatter; bad level names exit like argparse."""
    from repro.obs.logconfig import setup_logging

    try:
        setup_logging(level, worker_id=worker_id)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        raise SystemExit(2)


def main(argv=None) -> int:
    """The CLI entry point (``python -m repro`` and the ``repro`` script).

    A reader that stops early (``repro scenario list | head -n 1``) ends
    the run quietly, as the Python docs recommend for a closed pipe:
    stdout is pointed at devnull, so the interpreter's final flush cannot
    raise again, and the exit status is 1.
    """
    try:
        code = _dispatch(argv)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def _dispatch(argv) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "scenario":
        _setup_logging()
        return _scenario_main(argv[1:])
    if argv and argv[0] == "bench":
        _setup_logging()
        return _bench_main(argv[1:])
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    if argv and argv[0] == "worker":
        return _worker_main(argv[1:])
    if argv and argv[0] == "fleet":
        return _fleet_main(argv[1:])
    if argv and argv[0] == "history":
        _setup_logging()
        return _history_main(argv[1:])
    if argv and argv[0] == "trace":
        return _trace_main(argv[1:])
    if argv and argv[0] == "docs":
        return _docs_main(argv[1:])

    from repro.scenarios.registry import PAPER_ARTEFACTS

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the figures and tables of the IPDPS 2006 paper "
        "through the scenario catalog and its result cache (see `python -m "
        "repro scenario --help` for the catalog and `python -m repro bench "
        "--help` for the backend benchmark harness).",
    )
    parser.add_argument(
        "artefact",
        nargs="?",
        choices=PAPER_ARTEFACTS + ("all",),
        help="which figure/table to regenerate (omit for a quick summary)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="use reduced realisation counts (for a fast look)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the artefact's default root seed (reproducible)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="Monte-Carlo process pool size where the artefact supports it",
    )
    args = parser.parse_args(argv)

    if args.artefact is None:
        print(_summary())
        return 0

    from repro.scenarios import Orchestrator

    names = PAPER_ARTEFACTS if args.artefact == "all" else (args.artefact,)
    mode = "quick" if args.quick else "full"
    orchestrator = Orchestrator(workers=args.workers)
    for name in names:
        started = time.perf_counter()
        result = orchestrator.run(name, quick=args.quick, seed=args.seed)
        _print_result(result, mode, time.perf_counter() - started)
    return 0


if __name__ == "__main__":
    sys.exit(main())
