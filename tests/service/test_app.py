"""HTTP endpoint behaviour against a live in-process service."""

from __future__ import annotations

import pytest

from repro.scenarios import resolve
from repro.service.client import ServiceError


class TestDiscoveryEndpoints:
    def test_index_describes_endpoints(self, client):
        payload = client._json("GET", "/")
        assert payload["service"] == "repro scenario results service"
        assert "POST /v1/jobs" in payload["endpoints"]

    def test_healthz_schema(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert set(health["jobs"]) == {"queued", "running", "done", "failed", "total"}
        assert set(health["heavy_modules"]) == {"numpy", "scipy"}

# Whether the request path actually avoids numpy/scipy is asserted in
# tests/service/test_e2e.py, where the service runs in its own process;
# in here the service shares the pytest interpreter (numpy long loaded).

    def test_catalog_matches_registry(self, client):
        catalog = client.catalog()
        by_name = {s["name"]: s for s in catalog["scenarios"]}
        assert by_name["fig3"]["content_hash"] == resolve("fig3").content_hash
        assert {f["name"] for f in catalog["families"]} == {
            "delay-sweep", "failure-sweep", "multinode", "churn", "gain-sweep",
        }

    def test_describe_scenario_and_family_point(self, client):
        fig3 = client.scenario("fig3")
        assert fig3["spec"]["kind"] == "fig3"
        assert fig3["quick_spec"]["mc_realisations"] < fig3["spec"]["mc_realisations"]
        assert fig3["cached"] is False

        point = client.scenario("delay-sweep/d=0.5")
        assert point["name"] == "delay-sweep/d=0.5"
        assert point["content_hash"] == resolve("delay-sweep/d=0.5").content_hash

    def test_describe_family_point_with_plain_slash_url(self, client):
        # Family points are slashed names; the route must accept them raw,
        # not only percent-encoded.
        status, _, payload = client._request("GET", "/v1/scenarios/churn/fast")
        assert status == 200
        assert payload["name"] == "churn/fast"
        assert payload["content_hash"] == resolve("churn/fast").content_hash

    def test_describe_bare_family(self, client):
        family = client.scenario("delay-sweep")
        assert family["name"] == "delay-sweep"
        assert len(family["points"]) == 7
        assert all("content_hash" in point for point in family["points"])

    def test_describe_unknown_scenario_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.scenario("fig9")
        assert excinfo.value.status == 404
        assert "unknown scenario" in excinfo.value.message

    def test_unknown_endpoint_and_method(self, client):
        status, _, payload = client._request("GET", "/v1/nope")
        assert status == 404
        status, _, _ = client._request("DELETE", "/v1/scenarios")
        assert status == 405


class TestJobEndpoints:
    def test_submit_poll_fetch_flow(self, client):
        job = client.submit(scenario="smoke")
        assert job.state in ("queued", "running", "done")
        done = client.wait(job.id, timeout=60)
        assert done.completed_points == 1

        (content_hash,) = done.content_hashes
        result = client.result(content_hash)
        assert result.name == "smoke"
        assert result.spec_hash == content_hash
        assert result.backend == "reference"
        assert "mean completion time" in result.rendered
        assert result.arrays == ("completion_times",)
        assert result.etag.strip('"') == result.cache_key

    def test_submit_errors_are_400_with_message(self, client):
        for kwargs, fragment in [
            (dict(scenario="nope"), "unknown scenario"),
            (dict(scenario="smoke", backend="fpga"), "unknown execution backend"),
            (dict(scenario="fig4", backend="vectorized"), "cannot honour"),
            (dict(), "exactly one of"),
        ]:
            with pytest.raises(ServiceError) as excinfo:
                client.submit(**kwargs)
            assert excinfo.value.status == 400
            assert fragment in excinfo.value.message

    def test_malformed_json_body_is_400(self, client):
        import http.client as http_client

        connection = http_client.HTTPConnection(client.host, client.port, timeout=10)
        try:
            connection.request("POST", "/v1/jobs", body="{not json")
            response = connection.getresponse()
            assert response.status == 400
            assert b"not valid JSON" in response.read()
        finally:
            connection.close()

    def test_job_listing_newest_first(self, client):
        first = client.submit(scenario="smoke")
        client.wait(first.id, timeout=60)
        second = client.submit(scenario="smoke", seed=2)
        client.wait(second.id, timeout=60)
        listed = client.jobs()
        assert [job.id for job in listed] == [second.id, first.id]

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.job("job-404")
        assert excinfo.value.status == 404

    def test_event_stream_over_http(self, client):
        job = client.submit(scenario="smoke")
        events = list(client.events(job.id))
        assert events[0]["seq"] == 0
        assert events[0]["job"] == job.id
        assert events[-1]["state"] == "done"
        assert events[-1]["completed_points"] == 1

    def test_sweep_submission_reports_per_point_progress(self, client):
        job = client.submit(
            spec=resolve("smoke").with_(seed=11).to_dict()
        )
        client.wait(job.id, timeout=60)
        multi = client.submit(scenarios=["smoke", "smoke"], seed=11)
        done = client.wait(multi.id, timeout=60)
        assert done.total_points == 2
        # Both points share one spec, already cached by the first job.
        assert all(point["from_cache"] for point in done.results)


def _series_value(text: str, name: str, labels: str = "") -> float:
    """The sample value for one series in Prometheus text, else 0.

    ``labels`` must list the label pairs in family declaration order,
    exactly as rendered (e.g. ``'store="result",outcome="hit"'``).
    """
    prefix = f"{name}{{{labels}}} " if labels else f"{name} "
    for line in text.splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix):])
    return 0.0


class TestObservabilityEndpoints:
    def test_metrics_endpoint_serves_prometheus_text(self, client):
        import http.client as http_client

        client.catalog()  # guarantee at least one routed request
        connection = http_client.HTTPConnection(client.host, client.port, timeout=10)
        try:
            connection.request("GET", "/metrics")
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == (
                "text/plain; version=0.0.4; charset=utf-8"
            )
            text = response.read().decode("utf-8")
        finally:
            connection.close()
        assert "# TYPE repro_http_requests_total counter" in text
        assert "# TYPE repro_http_request_seconds histogram" in text
        assert "# TYPE repro_job_queue_depth gauge" in text
        # Requests are labelled by route *pattern*, not raw path.
        assert _series_value(
            text, "repro_http_requests_total",
            'route="/v1/scenarios",method="GET",status="200"',
        ) >= 1

    def test_metrics_reflect_submitted_job_and_cache_hit(self, client):
        before = client.metrics()
        job = client.submit(scenario="smoke")
        client.wait(job.id, timeout=60)
        rerun = client.submit(scenario="smoke")  # served from the result cache
        assert rerun.state == "done"
        after = client.metrics()

        def delta(name, labels=""):
            return (_series_value(after, name, labels)
                    - _series_value(before, name, labels))

        assert delta("repro_jobs_submitted_total") == 2
        assert delta("repro_jobs_completed_total", 'state="done"') == 2
        assert delta("repro_http_requests_total",
                     'route="/v1/jobs",method="POST",status="202"') == 2
        # First submission misses the result cache, the rerun hits it.
        assert delta("repro_cache_requests_total",
                     'store="result",outcome="hit"') >= 1
        assert delta("repro_cache_requests_total",
                     'store="result",outcome="miss"') >= 1
        assert delta("repro_engine_runs_total") >= 1
        # Nothing left queued once both jobs are done.
        assert _series_value(after, "repro_job_queue_depth") == 0

    def test_job_trace_endpoint(self, client):
        job = client.submit(scenario="smoke")
        client.wait(job.id, timeout=60)
        spans = client.job_trace(job.id)
        names = [span["name"] for span in spans]
        assert "job.point" in names
        assert "engine.plan" in names
        assert "engine.merge" in names
        assert all(span["v"] == 1 for span in spans)
        # Executed point spans nest under the job.point root.
        root = next(s for s in spans if s["name"] == "job.point")
        assert root["parent"] is None
        assert root["attrs"] == {"name": "smoke"}

        # A cache-served job never ran: it gets a synthetic cache.hit span
        # per point instead of an empty trace, so "no spans" always means
        # "job not finished" rather than "served from cache".
        rerun = client.submit(scenario="smoke")
        assert rerun.state == "done"
        hits = client.job_trace(rerun.id)
        assert [span["name"] for span in hits] == ["cache.hit"]
        assert hits[0]["attrs"]["name"] == "smoke"
        assert hits[0]["attrs"]["from_cache"] is True
        assert hits[0]["attrs"]["content_hash"]

    def test_job_trace_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.job_trace("job-404")
        assert excinfo.value.status == 404

    def test_events_carry_monotonic_t(self, client):
        job = client.submit(scenario="smoke")
        events = list(client.events(job.id))
        stamps = [event["t"] for event in events]
        assert all(isinstance(t, float) and t >= 0.0 for t in stamps)
        assert stamps == sorted(stamps)


class TestFleetEndpoints:
    """Worker telemetry piggybacked on claims, aggregated service-side."""

    @staticmethod
    def _worker_snapshot(blocks: float) -> dict:
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("repro_worker_blocks_total", "blocks").inc(blocks)
        registry.counter("repro_worker_busy_seconds_total", "busy").inc(0.5)
        registry.counter(
            "repro_worker_items_total", "items", labelnames=("outcome",)
        ).labels(outcome="ok").inc(2)
        return registry.snapshot()

    def test_claim_telemetry_lands_on_metrics_and_fleet(self, client):
        worker_id = client.register_worker("w-tele")
        claim = client.claim_work_batch(
            worker_id,
            telemetry={
                "name": "w-tele",
                "seq": 1,
                "metrics": self._worker_snapshot(blocks=7),
            },
        )
        assert claim.items == []  # nothing queued; the telemetry still lands

        text = client.metrics()
        assert _series_value(
            text, "repro_worker_blocks_total", 'worker="w-tele"'
        ) == 7

        fleet = client.fleet()
        (worker,) = [
            w for w in fleet["workers"] if w["name"] == "w-tele"
        ]
        assert worker["blocks"] == 7
        assert worker["items_ok"] == 2
        assert fleet["fleet"]["size"] >= 1
        # The raw board view rides along for liveness debugging.
        assert any(
            view["name"] == "w-tele" for view in fleet["board"]
        )

    def test_retried_telemetry_does_not_double_count(self, client):
        worker_id = client.register_worker("w-retry")
        payload = {
            "name": "w-retry",
            "seq": 5,
            "metrics": self._worker_snapshot(blocks=11),
        }
        client.claim_work_batch(worker_id, telemetry=payload)
        client.claim_work_batch(worker_id, telemetry=payload)  # HTTP retry re-post
        text = client.metrics()
        assert _series_value(
            text, "repro_worker_blocks_total", 'worker="w-retry"'
        ) == 11

    def test_malformed_telemetry_is_ignored_not_an_error(self, client):
        worker_id = client.register_worker("w-bad")
        claim = client.claim_work_batch(
            worker_id, telemetry={"metrics": "not-a-mapping"}
        )
        assert claim.items == []
        fleet = client.fleet()
        assert all(w["name"] != "w-bad" for w in fleet["workers"])


class TestResultEndpoint:
    def test_etag_roundtrip_and_miss(self, client):
        job = client.submit(scenario="smoke")
        done = client.wait(job.id, timeout=60)
        (content_hash,) = done.content_hashes

        result = client.result(content_hash)
        assert client.result(content_hash, etag=result.etag) is None  # 304

        with pytest.raises(ServiceError) as excinfo:
            client.result("f" * 64)
        assert excinfo.value.status == 404

    def test_arrays_are_optional_and_lossless_as_lists(self, client):
        job = client.submit(scenario="smoke")
        done = client.wait(job.id, timeout=60)
        (content_hash,) = done.content_hashes

        lean = client.result(content_hash)
        assert lean.array_values == {}

        full = client.result(content_hash, include_arrays=True)
        values = full.array_values["completion_times"]
        assert len(values) == 5  # smoke runs 5 realisations
        assert all(isinstance(v, float) for v in values)

    def test_arrays_of_a_corrupt_entry_are_a_404(self, client, tmp_path):
        from repro.scenarios.cache import ResultCache

        job = client.submit(scenario="smoke")
        done = client.wait(job.id, timeout=60)
        (content_hash,) = done.content_hashes
        cache = ResultCache(tmp_path / "cache")
        npz = cache.entry_dir(cache.find_hash(content_hash)) / "arrays.npz"
        npz.write_bytes(npz.read_bytes()[:-40])  # torn: no central directory

        with pytest.raises(ServiceError) as excinfo:
            client.result(content_hash, include_arrays=True)
        assert excinfo.value.status == 404
        # The metadata view still answers, advertising no readable arrays.
        assert client.result(content_hash).arrays == ()

    def test_arrays_flag_respects_falsy_values(self, client):
        # `?arrays=0` means "names only" — it must not inline values (or
        # drag numpy onto the request path of a fresh server).
        job = client.submit(scenario="smoke")
        done = client.wait(job.id, timeout=60)
        (content_hash,) = done.content_hashes
        for value in ("0", "false", "no"):
            _, _, payload = client._request(
                "GET", f"/v1/results/{content_hash}?arrays={value}"
            )
            assert "array_values" not in payload


class TestRunHistoryEndpoints:
    def _seed(self, count=3, **overrides):
        from repro.obs.history import default_ledger

        ledger = default_ledger()
        records = []
        for i in range(count):
            record = {
                "kind": "run",
                "scenario": "smoke",
                "spec_hash": "abc",
                "backend": "reference",
                "executor": "InlineExecutor",
                "effective_cpus": 1,
                "realisations": 100,
                "blocks_total": 4,
                "blocks_cached": 0,
                "wall_seconds": 0.5 + i,
                "attribution": {"dispatch_seconds": 0.01},
            }
            record.update(overrides)
            records.append(ledger.append(record))
        return records

    def test_empty_ledger_serves_an_empty_page(self, client):
        page = client.runs()
        assert page == {"runs": [], "total": 0, "limit": 50, "offset": 0}

    def test_runs_page_newest_first_with_pagination(self, client):
        records = self._seed(count=5)
        page = client.runs(limit=2)
        assert page["total"] == 5
        assert [r["id"] for r in page["runs"]] == [
            records[4]["id"], records[3]["id"],
        ]
        next_page = client.runs(limit=2, offset=2)
        assert [r["id"] for r in next_page["runs"]] == [
            records[2]["id"], records[1]["id"],
        ]

    def test_runs_filter_by_backend(self, client):
        self._seed(count=2, backend="reference")
        self._seed(count=1, backend="vectorized")
        page = client.runs(backend="vectorized")
        assert page["total"] == 1
        assert page["runs"][0]["backend"] == "vectorized"

    def test_run_record_carries_sentinel_verdict(self, client):
        (record,) = self._seed(count=1)
        payload = client.run_record(record["id"])
        assert payload["run"]["id"] == record["id"]
        verdict = payload["sentinel"]
        assert verdict["record_id"] == record["id"]
        assert {c["check"] for c in verdict["checks"]} == {
            "throughput", "dispatch_overhead", "cache_hit_ratio",
        }

    def test_unknown_run_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.run_record("deadbeef")
        assert excinfo.value.status == 404

    def test_bad_pagination_is_400(self, client):
        status, _, _ = client._request("GET", "/v1/runs?limit=banana")
        assert status == 400
        status, _, _ = client._request("GET", "/v1/runs?since=never")
        assert status == 400

    def test_index_lists_the_runs_endpoints(self, client):
        payload = client._json("GET", "/")
        assert "GET /v1/runs" in payload["endpoints"]
        assert "GET /v1/runs/{run_id}" in payload["endpoints"]
