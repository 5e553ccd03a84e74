"""Scheduler tests with scripted executors: load balancing, retries,
timeout reassignment — no simulation runs here."""

from typing import Dict, List

import pytest

from repro.distributed.executors import ShardExecutor, ShardOutcome
from repro.distributed.scheduler import ShardExecutionError, ShardScheduler


def _items(n):
    return {
        i: {"task": "t", "shard": i, "spec": {}, "blocks": [], "version": 1}
        for i in range(n)
    }


class ScriptedExecutor(ShardExecutor):
    """Executes items instantly at poll time, with scriptable failures.

    ``failures`` maps a shard index to a list of slot names that must fail
    it (consumed in order); ``dead_items`` lists item ids that never
    complete (for timeout tests).
    """

    name = "scripted"

    def __init__(self, slot_names, failures=None, dead_items=()):
        self._slots = tuple(slot_names)
        self.failures: Dict[int, List[str]] = {
            k: list(v) for k, v in (failures or {}).items()
        }
        self.dead_items = set(dead_items)
        self._pending = []
        self.dispatch_log = []  # (slot, shard, item_id)
        self.abandoned = []

    def slots(self):
        return self._slots

    def start(self, slot, item):
        self.dispatch_log.append((slot, int(item["shard"]), item["id"]))
        self._pending.append((slot, item))

    def poll(self, timeout):
        outcomes = []
        still = []
        for slot, item in self._pending:
            shard = int(item["shard"])
            if item["id"] in self.dead_items:
                still.append((slot, item))
                continue
            expected = self.failures.get(shard) or []
            if expected and expected[0] == slot:
                expected.pop(0)
                outcomes.append(
                    ShardOutcome(
                        item_id=item["id"], shard=shard, slot=slot,
                        error=f"scripted failure on {slot}",
                    )
                )
            else:
                outcomes.append(
                    ShardOutcome(
                        item_id=item["id"], shard=shard, slot=slot,
                        result={"shard": shard, "blocks": [], "wall_seconds": 0.0},
                    )
                )
        self._pending = still
        return outcomes

    def abandon(self, slot, item_id):
        self.abandoned.append((slot, item_id))
        self._pending = [(s, i) for s, i in self._pending if i["id"] != item_id]


class TestAssignment:
    def test_least_loaded_spreads_work_evenly(self):
        executor = ScriptedExecutor(["a", "b", "c"])
        scheduler = ShardScheduler(executor, poll_interval=0.01)
        results = scheduler.run(_items(9))
        assert set(results) == set(range(9))
        assert scheduler.slot_completed == {"a": 3, "b": 3, "c": 3}


class TestRetries:
    def test_failed_shard_retries_on_another_slot(self):
        executor = ScriptedExecutor(["a", "b"], failures={0: ["a"], 1: []})
        events = []
        scheduler = ShardScheduler(
            executor, poll_interval=0.01, on_event=events.append
        )
        results = scheduler.run(_items(2))
        assert set(results) == {0, 1}
        # Shard 0's retry avoided the slot that failed it.
        retry_slots = [
            slot for slot, shard, _ in executor.dispatch_log if shard == 0
        ]
        assert retry_slots[0] == "a" and all(s == "b" for s in retry_slots[1:])
        assert any(e["event"] == "failed" for e in events)

    def test_exhausted_attempts_raise(self):
        executor = ScriptedExecutor(["a"], failures={0: ["a", "a"]})
        scheduler = ShardScheduler(executor, max_attempts=2, poll_interval=0.01)
        with pytest.raises(ShardExecutionError, match="after 2 attempts"):
            scheduler.run(_items(1))

    def test_fresh_item_id_per_attempt(self):
        executor = ScriptedExecutor(["a", "b"], failures={0: ["a"]})
        ShardScheduler(executor, poll_interval=0.01).run(_items(1))
        ids = [item_id for _, _, item_id in executor.dispatch_log]
        assert len(ids) == len(set(ids)) == 2


class TestReassignmentObservability:
    def test_reassignment_logs_warning_and_counts(self, caplog):
        from repro.obs.metrics import REGISTRY

        counter = REGISTRY.counter(
            "repro_scheduler_reassignments_total",
            "Shards requeued after a failure or timeout.",
            labelnames=("executor",),
        )
        before = counter.labels(executor="ScriptedExecutor").get()
        executor = ScriptedExecutor(["a", "b"], failures={0: ["a"]})
        with caplog.at_level("WARNING", logger="repro.distributed.scheduler"):
            ShardScheduler(executor, poll_interval=0.01).run(_items(1))
        assert counter.labels(executor="ScriptedExecutor").get() == before + 1
        (warning,) = [
            r for r in caplog.records
            if r.name == "repro.distributed.scheduler" and r.levelname == "WARNING"
        ]
        # The operator needs the shard, the item id, the attempt count and
        # where it ran — enough to correlate with worker-side logs.
        assert "shard 0" in warning.getMessage()
        assert "t:s0:a1" in warning.getMessage()
        assert "attempt 1/3" in warning.getMessage()
        assert "ScriptedExecutor" in warning.getMessage()

    def test_clean_run_logs_nothing(self, caplog):
        executor = ScriptedExecutor(["a", "b"])
        with caplog.at_level("WARNING", logger="repro.distributed.scheduler"):
            ShardScheduler(executor, poll_interval=0.01).run(_items(4))
        assert not [
            r for r in caplog.records if r.name == "repro.distributed.scheduler"
        ]


class TestTimeouts:
    def test_timed_out_shard_is_abandoned_and_reassigned(self):
        # The first attempt (on whichever slot) never completes; the
        # scheduler must abandon it and finish via a second attempt.
        executor = ScriptedExecutor(["a", "b"], dead_items={"t:s0:a1"})
        scheduler = ShardScheduler(
            executor, shard_timeout=0.05, poll_interval=0.01
        )
        results = scheduler.run(_items(1))
        assert 0 in results
        assert executor.abandoned and executor.abandoned[0][1] == "t:s0:a1"

    def test_no_slots_ever_raises_after_slot_wait(self):
        executor = ScriptedExecutor([])
        scheduler = ShardScheduler(executor, slot_wait=0.1, poll_interval=0.01)
        with pytest.raises(ShardExecutionError, match="no executor slot"):
            scheduler.run(_items(1))
