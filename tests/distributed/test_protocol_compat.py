"""The worker claim protocol: batched claims and result posts on the
board, idempotent claim retries, the frames-only HTTP boundary, and the
worker's claim backoff schedule."""

import json

import pytest

from repro.distributed.frames import FRAME_CONTENT_TYPE, encode_frame
from repro.distributed.worker import CLAIM_BACKOFF_CAP, ClaimBackoff
from repro.service.shards import ShardBoard


def _item(index):
    return {"id": f"i{index}", "shard": index}


class TestBoardBatchedClaims:
    def test_claim_batch_pops_in_order_up_to_batch(self):
        board = ShardBoard()
        worker_id = board.register("alpha")
        for index in range(5):
            board.assign(worker_id, _item(index))
        first = board.claim_batch(worker_id, batch=3)
        assert [i["id"] for i in first] == ["i0", "i1", "i2"]
        rest = board.claim_batch(worker_id, batch=3)
        assert [i["id"] for i in rest] == ["i3", "i4"]
        assert board.claim_batch(worker_id, batch=3) == []

    def test_single_claim_is_batch_of_one(self):
        board = ShardBoard()
        worker_id = board.register("alpha")
        board.assign(worker_id, _item(0))
        board.assign(worker_id, _item(1))
        assert board.claim_batch(worker_id, batch=1) == [_item(0)]
        assert board.claim_batch(worker_id, batch=1) == [_item(1)]

    def test_claim_retry_with_same_token_replays_items(self):
        # The lost-response case: the worker's claim reached the board but
        # the reply never arrived.  Retrying with the same token must hand
        # back the same items — not claim (and strand) fresh ones.
        board = ShardBoard()
        worker_id = board.register("alpha")
        for index in range(4):
            board.assign(worker_id, _item(index))
        first = board.claim_batch(worker_id, batch=2, token="c1")
        replay = board.claim_batch(worker_id, batch=2, token="c1")
        assert replay == first
        # The replay popped nothing: the next token still sees i2, i3.
        fresh = board.claim_batch(worker_id, batch=2, token="c2")
        assert [i["id"] for i in fresh] == ["i2", "i3"]

    def test_replayed_items_post_exactly_once(self):
        board = ShardBoard()
        worker_id = board.register("alpha")
        board.assign(worker_id, _item(0))
        board.claim_batch(worker_id, batch=1, token="c1")
        board.claim_batch(worker_id, batch=1, token="c1")
        assert board.post_result(worker_id, "i0", result={"blocks": []})
        assert not board.post_result(worker_id, "i0", result={"blocks": []})
        assert len(board.collect(timeout=0.1)) == 1

    def test_batched_post_flags_acceptance_per_item(self):
        board = ShardBoard()
        worker_id = board.register("alpha")
        board.assign(worker_id, _item(0))
        board.assign(worker_id, _item(1))
        board.claim_batch(worker_id, batch=2)
        board.abandon(worker_id, "i1")  # reassigned while the worker ran
        accepted = board.post_results(
            worker_id,
            [
                {"id": "i0", "result": {"blocks": []}},
                {"id": "i1", "result": {"blocks": []}},
                {"id": "i9", "error": "never claimed"},
            ],
        )
        assert accepted == [True, False, False]

    def test_claim_batch_rejects_bad_batch(self):
        board = ShardBoard()
        worker_id = board.register("alpha")
        with pytest.raises(ValueError):
            board.claim_batch(worker_id, batch=0)


class TestFramesOnlyBoundary:
    """Worker request bodies come from outside the program: anything but a
    well-formed frame is a 400 that names the frame content type."""

    @pytest.fixture(autouse=True)
    def isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

    @pytest.fixture
    def worker(self, background_service):
        from repro.service.client import ServiceClient

        with background_service() as service:
            client = ServiceClient(service.url, timeout=10.0)
            yield client, client.register_worker("boundary")

    @staticmethod
    def _post(client, worker_id, endpoint, body, content_type=FRAME_CONTENT_TYPE):
        status, _headers, raw = client._exchange(
            "POST",
            f"/v1/workers/{worker_id}/{endpoint}",
            body,
            headers={"Content-Type": content_type},
        )
        return status, json.loads(raw)["error"]

    def _assert_rejected(self, client, worker_id, endpoint, body, **kwargs):
        status, error = self._post(client, worker_id, endpoint, body, **kwargs)
        assert status == 400
        assert FRAME_CONTENT_TYPE in error

    @pytest.mark.parametrize("endpoint", ["claim", "results"])
    def test_json_body_is_rejected(self, worker, endpoint):
        client, worker_id = worker
        body = json.dumps({"batch": 1, "results": []})
        self._assert_rejected(
            client, worker_id, endpoint, body, content_type="application/json"
        )

    @pytest.mark.parametrize(
        "claim",
        [{}, {"batch": 0}, {"batch": "three"}, {"batch": 2.5}],
        ids=["missing", "zero", "string", "fraction"],
    )
    def test_claim_without_a_positive_integer_batch_is_rejected(
        self, worker, claim
    ):
        client, worker_id = worker
        self._assert_rejected(client, worker_id, "claim", encode_frame(claim))

    @pytest.mark.parametrize(
        "outcome",
        [{"result": {"blocks": []}}, {"id": "i0"}],
        ids=["no-id", "no-result-or-error"],
    )
    def test_outcome_without_id_or_result_or_error_is_rejected(
        self, worker, outcome
    ):
        client, worker_id = worker
        body = encode_frame({"results": [outcome]})
        self._assert_rejected(client, worker_id, "results", body)

    def test_board_rejects_a_torn_frame_body(self, worker):
        client, worker_id = worker
        frame = encode_frame({"token": "x", "batch": 1})
        self._assert_rejected(
            client, worker_id, "claim", frame[: len(frame) - 4]
        )

    def test_well_formed_frames_round_trip(self, worker):
        client, worker_id = worker
        assert client.claim_work_batch(worker_id, batch=3, token="t0") == []
        assert client.post_work_results(
            worker_id, [{"id": "i9", "error": "never claimed"}]
        ) == [False]


class TestClaimBackoff:
    def test_deterministic_schedule_without_jitter(self):
        backoff = ClaimBackoff(base=0.2, jitter=0.0)
        delays = [backoff.next_delay() for _ in range(6)]
        assert delays == [0.2, 0.4, 0.8, 1.6, 2.0, 2.0]

    def test_reset_returns_to_base(self):
        backoff = ClaimBackoff(base=0.2, jitter=0.0)
        for _ in range(4):
            backoff.next_delay()
        backoff.reset()
        assert backoff.next_delay() == 0.2

    def test_jitter_stays_within_band_and_under_cap(self):
        import random

        backoff = ClaimBackoff(base=0.2, jitter=0.25, rng=random.Random(7))
        for expected in (0.2, 0.4, 0.8, 1.6, 2.0, 2.0, 2.0):
            delay = backoff.next_delay()
            assert expected * 0.75 <= delay <= min(
                expected * 1.25, CLAIM_BACKOFF_CAP
            )

    def test_rejects_malformed_parameters(self):
        with pytest.raises(ValueError):
            ClaimBackoff(base=0.0)
        with pytest.raises(ValueError):
            ClaimBackoff(base=0.2, cap=0.1)
        with pytest.raises(ValueError):
            ClaimBackoff(base=0.2, factor=0.5)
        with pytest.raises(ValueError):
            ClaimBackoff(base=0.2, jitter=1.0)
