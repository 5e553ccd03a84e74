"""The worker claim protocol: batched claims and result posts on the
board, idempotent claim retries, the frames-only HTTP boundary, and
long-poll claims that park until work is queued."""

import asyncio
import json
import sys
import threading
import time

import pytest

from repro.distributed.frames import FRAME_CONTENT_TYPE, encode_frame
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

    @pytest.mark.parametrize(
        "wait",
        [-1.0, True, "soon", None, float("nan")],
        ids=["negative", "bool", "string", "null", "nan"],
    )
    def test_claim_with_a_bad_wait_is_rejected(self, worker, wait):
        client, worker_id = worker
        claim = encode_frame({"batch": 1, "wait": wait})
        self._assert_rejected(client, worker_id, "claim", claim)

    def test_board_rejects_a_torn_frame_body(self, worker):
        client, worker_id = worker
        frame = encode_frame({"token": "x", "batch": 1})
        self._assert_rejected(
            client, worker_id, "claim", frame[: len(frame) - 4]
        )

    def test_a_results_frame_with_a_flipped_bit_is_a_400_and_merges_nothing(
        self, background_service
    ):
        from repro.service.client import ServiceClient

        result = {
            "blocks": [
                {
                    "index": 0,
                    "completion_times": [42.798608791643034, 22.992239201859256,
                                         39.95610135336792, 57.446507310043835],
                    "stats": {"count": 4, "total": [7.1e-15, 163.19345665691404]},
                }
            ]
        }
        with background_service() as service:
            client = ServiceClient(service.url, timeout=10.0)
            worker_id = client.register_worker("flipper")
            board = service.service.board
            board.assign(worker_id, _item(0))
            items, _parked = client.claim_work_batch(worker_id, batch=1, token="t0")
            assert [item["id"] for item in items] == ["i0"]
            frame = encode_frame({"results": [{"id": "i0", "result": result}]})
            # Every byte, each bit position in turn: prefix, tree, pool, CRC.
            for index in range(len(frame)):
                damaged = bytearray(frame)
                damaged[index] ^= 1 << (index % 8)
                self._assert_rejected(client, worker_id, "results", bytes(damaged))
            assert board.collect(timeout=0.05) == []
            # The claim is still open: the intact frame merges, once.
            assert client.post_work_results(
                worker_id, [{"id": "i0", "result": result}]
            ) == [True]
            (outcome,) = board.collect(timeout=1.0)
            assert outcome.result == result

    def test_well_formed_frames_round_trip(self, worker):
        client, worker_id = worker
        assert client.claim_work_batch(worker_id, batch=3, token="t0") == ([], 0.0)
        assert client.post_work_results(
            worker_id, [{"id": "i9", "error": "never claimed"}]
        ) == [False]


class TestBoardLongPoll:
    def test_no_wake_up_is_lost_to_racing_assignments(self):
        # Assigner threads (more than cores) race parked claims on one
        # loop; a lost wake-up would leave a claim parked until its 5 s
        # deadline and answer empty.
        board = ShardBoard(worker_timeout=20.0)
        workers = [board.register(f"w{index}") for index in range(8)]
        rounds = 25

        def assign_all(worker_id):
            for index in range(rounds):
                board.assign(
                    worker_id, {"id": f"{worker_id}-{index}", "shard": index}
                )
                time.sleep(0.001 * (index % 3))

        async def claim_all(worker_id):
            claimed = []
            for index in range(rounds):
                items, _parked = await board.claim(
                    worker_id, token=f"{worker_id}:{index}", wait=5.0
                )
                claimed.extend(item["id"] for item in items)
            return claimed

        async def race():
            claims = [asyncio.create_task(claim_all(w)) for w in workers]
            for thread in assigners:
                thread.start()
            return await asyncio.wait_for(asyncio.gather(*claims), timeout=20.0)

        assigners = [
            threading.Thread(target=assign_all, args=(w,)) for w in workers
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            started = time.monotonic()
            claimed = asyncio.run(race())
            elapsed = time.monotonic() - started
        finally:
            sys.setswitchinterval(interval)
            for thread in assigners:
                thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in assigners)
        assert claimed == [
            [f"{w}-{index}" for index in range(rounds)] for w in workers
        ]
        assert elapsed < 5.0


class TestLongPollClaims:
    """A claim with ``wait`` parks on the service's event loop until work
    is queued for its worker or the wait runs out."""

    @pytest.fixture(autouse=True)
    def isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

    @staticmethod
    def _register(service):
        from repro.service.client import ServiceClient

        client = ServiceClient(service.url, timeout=30.0)
        return client, client.register_worker("parker")

    def test_parked_claim_wakes_when_work_is_assigned(self, background_service):
        replies = []
        with background_service() as service:
            client, worker_id = self._register(service)
            board = service.service.board
            claimer = threading.Thread(
                target=lambda: replies.append(
                    client.claim_work_batch(
                        worker_id, batch=2, token="t1", wait=5.0
                    )
                )
            )
            started = time.monotonic()
            claimer.start()
            deadline = started + 5.0
            while not board.worker_views()[0]["parked"]:
                assert time.monotonic() < deadline, "the claim never parked"
                time.sleep(0.005)
            time.sleep(0.05)
            board.assign(worker_id, _item(0))
            claimer.join(timeout=5.0)
            elapsed = time.monotonic() - started
        assert not claimer.is_alive()
        (claim,) = replies
        assert claim.items == [_item(0)]
        # Woken by the assignment, long before the 5 s wait ends.
        assert 0.05 <= claim.parked <= elapsed < 1.0

    def test_parked_claim_answers_empty_when_its_wait_ends(
        self, background_service
    ):
        with background_service() as service:
            client, worker_id = self._register(service)
            started = time.monotonic()
            claim = client.claim_work_batch(worker_id, token="t1", wait=0.3)
            elapsed = time.monotonic() - started
        assert claim.items == []
        assert 0.25 <= claim.parked <= elapsed < 2.0
        assert elapsed >= 0.3

    def test_parked_worker_stays_live_for_the_whole_park(
        self, background_service
    ):
        # The service caps a wait at half its worker timeout, so a worker
        # parked for as long as it may be never drops out of the slots.
        with background_service(worker_timeout=1.0) as service:
            client, worker_id = self._register(service)
            board = service.service.board
            replies = []
            claimer = threading.Thread(
                target=lambda: replies.append(
                    client.claim_work_batch(worker_id, token="t1", wait=30.0)
                )
            )
            claimer.start()
            live = []
            while claimer.is_alive():
                live.append(worker_id in board.live_workers())
                time.sleep(0.02)
            claimer.join()
        (claim,) = replies
        assert claim.items == []
        assert 0.45 <= claim.parked < 0.9
        assert len(live) > 10 and all(live)

    def test_replayed_token_is_answered_at_once_even_with_wait(
        self, background_service
    ):
        with background_service() as service:
            client, worker_id = self._register(service)
            service.service.board.assign(worker_id, _item(0))
            first = client.claim_work_batch(worker_id, token="t1", wait=5.0)
            started = time.monotonic()
            replay = client.claim_work_batch(worker_id, token="t1", wait=5.0)
            replay_seconds = time.monotonic() - started
            empty = client.claim_work_batch(worker_id, token="t2", wait=0.2)
            started = time.monotonic()
            empty_replay = client.claim_work_batch(
                worker_id, token="t2", wait=5.0
            )
            empty_replay_seconds = time.monotonic() - started
        assert first.items == replay.items == [_item(0)]
        assert replay.parked == 0.0 and replay_seconds < 1.0
        assert empty.items == empty_replay.items == []
        assert empty_replay.parked == 0.0 and empty_replay_seconds < 1.0

    def test_stopping_the_service_answers_a_parked_claim(
        self, background_service
    ):
        replies = []

        def claim(client, worker_id):
            try:
                replies.append(
                    client.claim_work_batch(worker_id, token="t1", wait=10.0)
                )
            except OSError as error:  # the server may cut the line instead
                replies.append(error)

        with background_service() as service:
            client, worker_id = self._register(service)
            board = service.service.board
            claimer = threading.Thread(target=claim, args=(client, worker_id))
            claimer.start()
            deadline = time.monotonic() + 5.0
            while not board.worker_views()[0]["parked"]:
                assert time.monotonic() < deadline, "the claim never parked"
                time.sleep(0.01)
            stopping = time.monotonic()
        claimer.join(timeout=5.0)
        assert not claimer.is_alive()
        assert time.monotonic() - stopping < 2.0
        (reply,) = replies
        assert isinstance(reply, OSError) or reply.items == []
        # The loop that parked the claim is closed; queueing work for the
        # worker afterwards must not try to wake it there.
        board.assign(worker_id, _item(0))
        assert board.worker_views()[0]["queued_items"] == 1
