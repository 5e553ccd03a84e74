"""Tests for the ``python -m repro`` command-line entry point."""

import pytest

from repro.__main__ import main
from repro.scenarios.registry import PAPER_ARTEFACTS, get_entry


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Keep CLI scenario runs out of the user's real result cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


class TestCLI:
    def test_summary_without_arguments(self, capsys):
        assert main([]) == 0
        output = capsys.readouterr().out
        assert "0.35" in output
        assert "IPDPS 2006" in output

    def test_artefact_registry_covers_every_figure_and_table(self, capsys):
        assert set(PAPER_ARTEFACTS) == {
            "fig1", "fig2", "fig3", "fig4", "fig5", "table1", "table2", "table3",
        }
        for name in PAPER_ARTEFACTS:
            entry = get_entry(name)
            # One full and one genuinely reduced quick definition each.
            assert entry.quick.content_hash != entry.spec.content_hash
        # The CLI accepts exactly the registry's artefacts (plus ``all``).
        with pytest.raises(SystemExit):
            main(["--help"])
        choices = "{" + ",".join(PAPER_ARTEFACTS + ("all",)) + "}"
        assert choices in capsys.readouterr().out

    def test_quick_fig4_run(self, capsys):
        assert main(["fig4", "--quick"]) == 0
        output = capsys.readouterr().out
        assert "fig4" in output
        assert "completion times" in output
        # One quick definition per artefact: the trajectory is sampled at the
        # registry's ``sample_points``, not at a count private to the CLI.
        lines = output.splitlines()
        first_row = next(i for i, line in enumerate(lines) if line.startswith("----")) + 1
        rows = lines[first_row : lines.index("", first_row)]
        assert len(rows) == get_entry("fig4").quick.option("sample_points") == 15

    def test_quick_fig2_run(self, capsys):
        assert main(["fig2", "--quick"]) == 0
        output = capsys.readouterr().out
        assert "Fig. 2" in output

    def test_unknown_artefact_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig9"])

    def test_seed_flag_threads_through(self, capsys):
        assert main(["fig4", "--quick", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["fig4", "--quick", "--seed", "7"]) == 0
        second = capsys.readouterr().out
        # Identical seed reproduces the realisation bit-for-bit; the header
        # line contains wall-clock timing, so compare the rendered body.
        assert first.splitlines()[1:] == second.splitlines()[1:]

    def test_quick_fig4_is_genuinely_reduced(self, capsys):
        from repro.experiments.fig4_queue_traces import run as run_fig4

        full = run_fig4()
        quick = run_fig4(workload=(50, 30))
        assert quick.workload != full.workload
        assert sum(quick.workload) < sum(full.workload)


#: Artefacts whose quick run takes a few seconds stay out of tier-1.
_SLOW_TO_RUN = {"fig5", "table1", "table2", "table3"}


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=pytest.mark.slow) if name in _SLOW_TO_RUN else name
        for name in PAPER_ARTEFACTS
    ],
)
def test_artefact_cli_and_scenario_run_share_one_cache_entry(name, capsys):
    """``repro <artefact>`` is ``scenario run <artefact>``: same cache entry,
    same rendered body."""
    assert main([name, "--quick"]) == 0
    computed = capsys.readouterr().out.splitlines()
    assert main(["scenario", "run", name, "--quick"]) == 0
    served = capsys.readouterr().out.splitlines()
    assert computed[0].startswith(f"=== {name} (quick, ")
    assert "cached" not in computed[0]
    assert served[0].endswith(", cached) ===")
    assert served[1:] == computed[1:]


class TestScenarioCLI:
    def test_scenario_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        output = capsys.readouterr().out
        for name in ("fig1", "fig3", "table3", "smoke"):
            assert name in output
        for family in ("delay-sweep", "failure-sweep", "multinode", "churn"):
            assert family in output

    def test_scenario_run_smoke_caches(self, capsys):
        assert main(["scenario", "run", "smoke"]) == 0
        first = capsys.readouterr().out
        assert "cached" not in first.splitlines()[0]
        assert main(["scenario", "run", "smoke"]) == 0
        second = capsys.readouterr().out
        assert "cached" in second.splitlines()[0]
        # The cached body is bit-identical to the computed one.
        assert first.splitlines()[1:] == second.splitlines()[1:]

    def test_scenario_run_no_cache(self, capsys):
        assert main(["scenario", "run", "smoke", "--no-cache"]) == 0
        assert main(["scenario", "run", "smoke", "--no-cache"]) == 0
        output = capsys.readouterr().out
        assert "cached" not in output

    def test_scenario_run_seed_override(self, capsys):
        assert main(["scenario", "run", "smoke", "--seed", "2"]) == 0
        reseeded = capsys.readouterr().out
        assert main(["scenario", "run", "smoke"]) == 0
        default = capsys.readouterr().out
        assert reseeded.splitlines()[1:] != default.splitlines()[1:]

    def test_scenario_compare(self, capsys):
        assert main(["scenario", "compare", "smoke", "smoke"]) == 0
        output = capsys.readouterr().out
        assert "Scenario comparison" in output
        assert "mean completion time" in output

    def test_scenario_compare_force_recomputes(self, capsys):
        assert main(["scenario", "run", "smoke"]) == 0
        capsys.readouterr()
        assert main(["scenario", "compare", "smoke", "--force"]) == 0
        output = capsys.readouterr().out
        row = next(line for line in output.splitlines() if line.startswith("smoke"))
        assert "no" in row.split()[-1]

    def test_scenario_unknown_name_clean_error(self, capsys):
        assert main(["scenario", "run", "fig9"]) == 2
        captured = capsys.readouterr()
        assert "unknown scenario 'fig9'" in captured.err
        assert "Traceback" not in captured.err

    def test_scenario_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["scenario"])


class TestBackendCLI:
    def test_scenario_run_with_vectorized_backend(self, capsys):
        assert main(["scenario", "run", "smoke", "--backend", "vectorized"]) == 0
        output = capsys.readouterr().out
        assert "backend: vectorized" in output
        # The override participates in the cache key: a second run hits the
        # vectorized entry, and a reference run computes its own.
        assert main(["scenario", "run", "smoke", "--backend", "vectorized"]) == 0
        assert "cached" in capsys.readouterr().out.splitlines()[0]
        assert main(["scenario", "run", "smoke"]) == 0
        assert "cached" not in capsys.readouterr().out.splitlines()[0]

    def test_scenario_run_unknown_backend_clean_error(self, capsys):
        assert main(["scenario", "run", "smoke", "--backend", "fpga"]) == 2
        captured = capsys.readouterr()
        assert "unknown execution backend" in captured.err
        assert "Traceback" not in captured.err

    def test_scenario_run_backend_incompatible_kind(self, capsys):
        assert main(
            ["scenario", "run", "fig4", "--quick", "--backend", "vectorized"]
        ) == 2
        assert "cannot honour backend" in capsys.readouterr().err


class TestBenchCLI:
    def test_bench_writes_report(self, capsys, tmp_path):
        import json

        output = tmp_path / "BENCH_results.json"
        assert main(
            ["bench", "smoke", "--quick", "--output", str(output)]
        ) == 0
        printed = capsys.readouterr().out
        assert "Execution-backend benchmark" in printed
        assert "parity gate" in printed
        payload = json.loads(output.read_text())
        assert payload["summary"]["all_parity_passed"] is True
        (scenario,) = payload["scenarios"]
        assert set(scenario["timings"]) == {"reference", "vectorized"}

    def test_bench_backend_selection(self, capsys, tmp_path):
        output = tmp_path / "bench.json"
        assert main(
            ["bench", "smoke", "--quick", "--backends", "vectorized",
             "--output", str(output)]
        ) == 0
        import json

        payload = json.loads(output.read_text())
        assert payload["backends"] == ["vectorized"]
        # No reference sample -> no parity verdicts, trivially passing.
        assert payload["scenarios"][0]["parity"] == {}

    def test_bench_unknown_scenario_clean_error(self, capsys, tmp_path):
        assert main(
            ["bench", "nonexistent", "--output", str(tmp_path / "b.json")]
        ) == 2
        captured = capsys.readouterr()
        assert "unknown scenario" in captured.err
        assert "Traceback" not in captured.err

    def test_bench_rejects_non_mc_point(self, capsys, tmp_path):
        assert main(
            ["bench", "fig4", "--output", str(tmp_path / "b.json")]
        ) == 2
        assert "mc_point" in capsys.readouterr().err


class TestScenarioListJSON:
    def test_json_listing_matches_catalog_payload(self, capsys):
        import json

        from repro.scenarios.catalog import catalog_payload

        assert main(["scenario", "list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == catalog_payload()

    def test_json_listing_is_machine_readable(self, capsys):
        import json

        assert main(["scenario", "list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = [s["name"] for s in payload["scenarios"]]
        assert names == sorted(names)
        assert "fig3" in names
        assert payload["backends"] == ["auto", "reference", "vectorized"]


class TestDocsCLIRegistration:
    def test_docs_subcommand_is_wired(self, capsys, tmp_path):
        assert main(["docs", "--root", str(tmp_path)]) == 0
        assert "scenario-catalog.md" in capsys.readouterr().out

    def test_serve_subcommand_is_wired(self):
        import pytest as _pytest

        with _pytest.raises(SystemExit) as excinfo:
            main(["serve", "--help"])
        assert excinfo.value.code == 0


class TestFleetCLI:
    def test_fleet_help_documents_watch_mode(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--help"])
        assert excinfo.value.code == 0

    def test_fleet_unreachable_service_clean_error(self, capsys):
        assert main(["fleet", "--connect", "127.0.0.1:1"]) == 1
        err = capsys.readouterr().err
        assert "cannot reach" in err

    @staticmethod
    def _fake_summary(monkeypatch):
        from repro.service.client import ServiceClient

        summary = {
            "workers": [{
                "id": "id-a", "name": "w-a", "seq": 3,
                "seconds_since_report": 1.0, "items_ok": 4,
                "items_failed": 0, "blocks": 16, "busy_seconds": 2.0,
                "busy_fraction": 0.5, "items_per_second": 0.8,
                "claims": 4, "claims_empty": 10, "claim_seconds_mean": 0.004,
            }],
            "fleet": {
                "size": 1, "items_ok": 4, "items_failed": 0, "blocks": 16,
                "busy_seconds": 2.0, "busy_fraction": 0.5,
                "items_per_second": 0.8, "claim_seconds_mean": 0.004,
            },
        }
        monkeypatch.setattr(ServiceClient, "fleet", lambda self: summary)
        return summary

    def test_fleet_renders_table(self, capsys, monkeypatch):
        self._fake_summary(monkeypatch)
        assert main(["fleet", "--connect", "127.0.0.1:9"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("worker")
        assert "w-a" in out
        assert "fleet (1)" in out

    def test_fleet_json_output(self, capsys, monkeypatch):
        import json

        self._fake_summary(monkeypatch)
        assert main(["fleet", "--connect", "127.0.0.1:9", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fleet"]["size"] == 1


class TestLogLevelFlag:
    def test_bad_log_level_is_a_clean_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--port", "0", "--log-level", "shouting"])
        assert excinfo.value.code == 2
        assert "shouting" in capsys.readouterr().err

    def test_log_level_flag_configures_the_root_handler(self):
        import logging

        from repro.obs.logconfig import setup_logging

        handler = setup_logging("debug")
        try:
            assert logging.getLogger().level == logging.DEBUG
            assert handler in logging.getLogger().handlers
        finally:
            logging.getLogger().removeHandler(handler)

    def test_env_var_sets_the_level(self, monkeypatch):
        import logging

        from repro.obs.logconfig import setup_logging

        monkeypatch.setenv("REPRO_LOG_LEVEL", "info")
        handler = setup_logging()
        try:
            assert logging.getLogger().level == logging.INFO
        finally:
            logging.getLogger().removeHandler(handler)

    def test_worker_tag_lands_in_formatted_records(self):
        import io
        import logging

        from repro.obs.logconfig import setup_logging

        stream = io.StringIO()
        handler = setup_logging("info", worker_id="w-a", stream=stream)
        try:
            logging.getLogger("repro.worker").info("claimed")
        finally:
            logging.getLogger().removeHandler(handler)
        line = stream.getvalue()
        assert "[w-a]" in line
        assert "repro.worker" in line
        assert "claimed" in line


class TestHistoryCLI:
    def _seed_bench_records(self, count=3, throughput=1000.0, **overrides):
        from repro.obs.history import default_ledger

        ledger = default_ledger()
        records = []
        for _ in range(count):
            record = {
                "kind": "bench",
                "scenario": "mc-scaling",
                "backend": "reference",
                "realisations": 2000,
                "seed": 1234,
                "shards": 8,
                "worker_count": 1,
                "wall_seconds": 2000.0 / throughput,
                "throughput": throughput,
                "skipped": False,
            }
            record.update(overrides)
            records.append(ledger.append(record))
        return records

    def test_list_empty_ledger_is_not_an_error(self, capsys):
        assert main(["history", "list"]) == 0
        assert "no records" in capsys.readouterr().out

    def test_list_tabulates_records_with_trend(self, capsys):
        self._seed_bench_records()
        assert main(["history", "list"]) == 0
        output = capsys.readouterr().out
        assert "mc-scaling" in output
        assert "1w" in output  # bench records label the worker count
        assert "trend (over listed records):" in output
        assert "p50 s" in output

    def test_list_json_round_trips(self, capsys):
        import json

        self._seed_bench_records(count=2)
        assert main(["history", "list", "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 2
        assert all(r["kind"] == "bench" for r in records)

    def test_list_filters_by_backend(self, capsys):
        self._seed_bench_records(count=1, backend="reference")
        self._seed_bench_records(count=1, backend="vectorized")
        assert main(["history", "list", "--backend", "vectorized"]) == 0
        output = capsys.readouterr().out
        assert "vectorized" in output
        assert "reference" not in output

    def test_show_prints_record_and_sentinel_verdict(self, capsys):
        (record,) = self._seed_bench_records(count=1)
        assert main(["history", "show", record["id"]]) == 0
        output = capsys.readouterr().out
        assert record["id"] in output
        assert "sentinel verdict:" in output

    def test_show_unknown_id_is_a_clean_error(self, capsys):
        assert main(["history", "show", "deadbeef"]) == 2
        assert "no record" in capsys.readouterr().err

    def test_diff_compares_two_records(self, capsys):
        fast, slow = (
            self._seed_bench_records(count=1, throughput=1000.0)[0],
            self._seed_bench_records(count=1, throughput=500.0)[0],
        )
        assert main(["history", "diff", fast["id"], slow["id"]]) == 0
        output = capsys.readouterr().out
        assert "throughput" in output
        assert "-50%" in output

    def test_prune_needs_a_flag(self, capsys):
        assert main(["history", "prune"]) == 2
        assert "--keep" in capsys.readouterr().err

    def test_prune_keep(self, capsys):
        self._seed_bench_records(count=5)
        assert main(["history", "prune", "--keep", "2"]) == 0
        assert "kept 2, dropped 3" in capsys.readouterr().out

    def test_import_seeds_ledger_from_bench_report(self, capsys, tmp_path):
        import json

        from repro.obs.history import default_ledger

        report = tmp_path / "BENCH_distributed.json"
        report.write_text(json.dumps({
            "scenario": "mc-scaling",
            "backend": "reference",
            "shards": 8,
            "realisations": 2000,
            "seed": 1234,
            "summary": {"effective_cpus": 4},
            "timings": [
                {"worker_count": 1, "wall_seconds": 2.0, "throughput": 1000.0},
                {"worker_count": 2, "wall_seconds": 1.1, "throughput": 1800.0},
            ],
        }))
        assert main(["history", "import", str(report)]) == 0
        output = capsys.readouterr().out
        assert "imported 2 record(s)" in output
        assert len(default_ledger().query(kind="bench")) == 2

    def test_import_rejects_unrecognised_payload(self, capsys, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"hello": "world"}')
        assert main(["history", "import", str(bogus)]) == 2
        assert "not a recognised BENCH report" in capsys.readouterr().err

    def test_import_missing_file_is_a_clean_error(self, capsys, tmp_path):
        assert main(["history", "import", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestTraceCLI:
    def test_render_replays_a_saved_trace(self, capsys, tmp_path):
        from repro.obs.trace import Tracer

        tracer = Tracer()
        with tracer.span("engine.run"):
            with tracer.span("engine.execute"):
                pass
        path = tmp_path / "trace.ndjson"
        path.write_text(tracer.to_ndjson())
        assert main(["trace", "render", str(path)]) == 0
        output = capsys.readouterr().out
        assert "engine.run" in output
        assert "engine.execute" in output

    def test_render_empty_trace(self, capsys, tmp_path):
        path = tmp_path / "empty.ndjson"
        path.write_text("")
        assert main(["trace", "render", str(path)]) == 0
        assert "no spans" in capsys.readouterr().out

    def test_render_missing_file_is_a_clean_error(self, capsys, tmp_path):
        assert main(["trace", "render", str(tmp_path / "gone.ndjson")]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestBenchRegressionGate:
    def test_first_run_has_nothing_to_judge_and_passes(self, capsys, tmp_path):
        assert main(
            ["bench", "smoke", "--quick", "--backends", "vectorized",
             "--output", str(tmp_path / "b.json"), "--check-regression"]
        ) == 0
        output = capsys.readouterr().out
        assert "regression check" in output

    def test_steady_rerun_passes_the_gate(self, capsys, tmp_path):
        args = ["bench", "smoke", "--quick", "--backends", "vectorized",
                "--output", str(tmp_path / "b.json")]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--check-regression"]) == 0
        assert "regression check passed" in capsys.readouterr().out

    def test_injected_slowdown_fails_the_gate(
        self, capsys, tmp_path, monkeypatch
    ):
        import json

        # Measure once to learn this machine's real throughput...
        report_path = tmp_path / "b.json"
        assert main(
            ["bench", "smoke", "--quick", "--backends", "vectorized",
             "--output", str(report_path)]
        ) == 0
        payload = json.loads(report_path.read_text())
        # ...then seed a FRESH ledger with a doctored 100x-faster baseline,
        # making the genuine next run look like a massive slowdown.
        monkeypatch.setenv(
            "REPRO_HISTORY_DIR", str(tmp_path / "doctored-history")
        )
        for scenario in payload["scenarios"]:
            for timing in scenario["timings"].values():
                timing["throughput"] = timing["throughput"] * 100.0
                timing["wall_seconds"] = timing["wall_seconds"] / 100.0
        doctored = tmp_path / "doctored.json"
        doctored.write_text(json.dumps(payload))
        assert main(["history", "import", str(doctored)]) == 0
        capsys.readouterr()
        assert main(
            ["bench", "smoke", "--quick", "--backends", "vectorized",
             "--output", str(report_path), "--check-regression"]
        ) == 1
        captured = capsys.readouterr()
        assert "regressed" in captured.err
        assert "run-history baseline" in captured.err
