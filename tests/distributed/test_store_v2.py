"""ShardStore v2: columnar segments and the corruption drills.

The store's contract is *clean misses*: any damaged byte — truncated
segment, torn index line, stale format version, foreign bytes where a
frame should be — must read as "not cached" (so the engine recomputes the
block) and never as an exception or, worse, a wrong payload.
"""

from __future__ import annotations

import json

from repro.distributed.frames import encode_frame
from repro.distributed.store import BLOCK_FORMAT_VERSION, ShardStore
from repro.obs.metrics import REGISTRY


def _block(index: int = 0) -> dict:
    return {
        "index": index,
        "completion_times": [float(i) + 0.5 for i in range(8)],
        "stats": {"count": 8, "mean": 4.0},
    }


def _write_v1(store: ShardStore, key: str, block: dict) -> None:
    """A per-block JSON document as older releases wrote them."""
    path = store.root / key[:2] / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(
            {"format_version": BLOCK_FORMAT_VERSION, "key": key, "block": block},
            sort_keys=True,
        )
    )


def _read_bytes_metric() -> float:
    family = REGISTRY.snapshot().get("repro_cache_read_bytes_total", {})
    return sum(
        series["value"]
        for series in family.get("series", [])
        if series["labels"].get("store") == "shard"
    )


class TestV2Layout:
    def test_put_get_round_trip_via_segments(self, tmp_path):
        store = ShardStore(tmp_path)
        block = _block()
        store.put("a" * 40, block)
        assert store.get("a" * 40) == block
        assert store.hits == 1 and store.misses == 0
        # The bytes live in a segment + sidecar, not a per-key JSON file.
        assert not list(store.root.glob("??/*.json"))
        segments = list(store.segment_dir.glob("*.seg"))
        sidecars = list(store.segment_dir.glob("*.idx"))
        assert len(segments) == 1 and len(sidecars) == 1

    def test_one_segment_per_writer_many_blocks(self, tmp_path):
        store = ShardStore(tmp_path)
        for i in range(10):
            store.put(f"{i:02d}" + "f" * 38, _block(i))
        assert len(list(store.segment_dir.glob("*.seg"))) == 1
        assert len(store) == 10
        for i in range(10):
            assert store.get(f"{i:02d}" + "f" * 38) == _block(i)

    def test_fresh_instance_reads_another_writers_segment(self, tmp_path):
        writer = ShardStore(tmp_path)
        writer.put("b" * 40, _block(3))
        reader = ShardStore(tmp_path)
        assert reader.get("b" * 40) == _block(3)
        assert reader.hits == 1

    def test_rewrite_shadows_earlier_append(self, tmp_path):
        store = ShardStore(tmp_path)
        store.put("c" * 40, _block(1))
        store.put("c" * 40, _block(2))
        assert store.get("c" * 40) == _block(2)
        assert len(ShardStore(tmp_path)) == 1

    def test_read_bytes_metric_counts_segment_reads(self, tmp_path):
        store = ShardStore(tmp_path)
        store.put("d" * 40, _block())
        before = _read_bytes_metric()
        assert ShardStore(tmp_path).get("d" * 40) == _block()
        assert _read_bytes_metric() > before

    def test_clear_removes_segments_and_key_dirs(self, tmp_path):
        store = ShardStore(tmp_path)
        store.put("e" * 40, _block())
        _write_v1(store, "f" * 40, _block())
        assert store.clear() == 1
        assert len(store) == 0
        assert not store.segment_dir.exists()
        # Leftover per-block JSON dirs from older releases go too.
        assert not list(store.root.glob("??"))
        store.put("e" * 40, _block(9))  # the store stays usable
        assert store.get("e" * 40) == _block(9)

    def test_legacy_v1_documents_read_as_misses(self, tmp_path):
        """Per-block JSON documents from older releases are not read: the
        engine recomputes those blocks bit-identically."""
        store = ShardStore(tmp_path)
        _write_v1(store, "1a" + "c" * 38, _block(7))
        assert store.get("1a" + "c" * 38) is None
        assert store.misses == 1
        assert len(store) == 0


class TestCorruption:
    """The drills: every way the disk can lie must read as a clean miss."""

    def _seeded(self, tmp_path) -> ShardStore:
        store = ShardStore(tmp_path)
        store.put("aa" + "9" * 38, _block(1))
        return store

    def test_truncated_segment_is_a_clean_miss(self, tmp_path):
        self._seeded(tmp_path)
        reader = ShardStore(tmp_path)
        (segment,) = reader.segment_dir.glob("*.seg")
        data = segment.read_bytes()
        segment.write_bytes(data[: len(data) // 2])
        assert reader.get("aa" + "9" * 38) is None
        assert reader.misses == 1

    def test_zeroed_frame_bytes_are_a_clean_miss(self, tmp_path):
        self._seeded(tmp_path)
        reader = ShardStore(tmp_path)
        (segment,) = reader.segment_dir.glob("*.seg")
        segment.write_bytes(b"\x00" * segment.stat().st_size)
        assert reader.get("aa" + "9" * 38) is None

    def test_torn_index_line_is_pending_not_fatal(self, tmp_path):
        store = self._seeded(tmp_path)
        (idx,) = store.segment_dir.glob("*.idx")
        whole = idx.read_bytes()
        # A writer died mid-append: the final line has no newline yet.
        idx.write_bytes(whole[:-10])
        reader = ShardStore(tmp_path)
        assert reader.get("aa" + "9" * 38) is None  # entry not yet visible
        # The write completes later; the same reader then sees it.
        idx.write_bytes(whole)
        assert reader.get("aa" + "9" * 38) == _block(1)

    def test_corrupt_complete_index_line_is_skipped(self, tmp_path):
        store = self._seeded(tmp_path)
        store.put("bb" + "8" * 38, _block(2))
        (idx,) = store.segment_dir.glob("*.idx")
        lines = idx.read_bytes().splitlines(keepends=True)
        lines[0] = b"{torn garbage}\n"
        idx.write_bytes(b"".join(lines))
        reader = ShardStore(tmp_path)
        assert reader.get("aa" + "9" * 38) is None
        assert reader.get("bb" + "8" * 38) == _block(2)

    def test_index_pointing_past_the_segment_is_a_miss(self, tmp_path):
        store = self._seeded(tmp_path)
        (idx,) = store.segment_dir.glob("*.idx")
        idx.write_text(
            json.dumps({"key": "cc" + "7" * 38, "offset": 10_000, "length": 64})
            + "\n"
        )
        reader = ShardStore(tmp_path)
        assert reader.get("cc" + "7" * 38) is None

    def test_stale_frame_version_in_segment_is_a_miss(self, tmp_path):
        store = ShardStore(tmp_path)
        key = "dd" + "6" * 38
        frame = bytearray(
            encode_frame(
                {"format_version": BLOCK_FORMAT_VERSION, "key": key,
                 "block": _block()}
            )
        )
        frame[4] = 200  # an unknown future frame version
        store.segment_dir.mkdir(parents=True)
        seg = store.segment_dir / "000001-deadbeef.seg"
        seg.write_bytes(bytes(frame))
        seg.with_suffix(".idx").write_text(
            json.dumps({"key": key, "offset": 0, "length": len(frame)}) + "\n"
        )
        assert store.get(key) is None

    def test_stale_block_format_version_is_a_miss(self, tmp_path):
        store = ShardStore(tmp_path)
        key = "ee" + "5" * 38
        frame = encode_frame({"format_version": 999, "key": key, "block": _block()})
        store.segment_dir.mkdir(parents=True)
        seg = store.segment_dir / "000002-deadbeef.seg"
        seg.write_bytes(frame)
        seg.with_suffix(".idx").write_text(
            json.dumps({"key": key, "offset": 0, "length": len(frame)}) + "\n"
        )
        assert store.get(key) is None

    def test_key_mismatch_inside_the_frame_is_a_miss(self, tmp_path):
        """An index entry pointing at some *other* key's frame must not
        serve the wrong block."""
        store = self._seeded(tmp_path)
        (idx,) = store.segment_dir.glob("*.idx")
        entry = json.loads(idx.read_text())
        entry["key"] = "ff" + "4" * 38
        idx.write_text(json.dumps(entry) + "\n")
        reader = ShardStore(tmp_path)
        assert reader.get("ff" + "4" * 38) is None

    def test_corrupted_blocks_are_recomputed_exactly(self, tmp_path, monkeypatch):
        """The acceptance drill: damage the cache under a sharded run and
        the resumed run recomputes the lost blocks bit-identically."""
        import numpy as np

        from repro.montecarlo.engine import EngineRequest, run_engine
        from repro.scenarios.spec import PolicySpec, ScenarioSpec, SystemSpec

        spec = ScenarioSpec(
            name="corruption-drill", kind="mc_point", system=SystemSpec.paper(),
            workload=(20, 12),
            policy=PolicySpec(kind="lbp1", gain=0.35, sender=0, receiver=1),
            mc_realisations=20, seed=7, shards=2, shard_block=4,
        )
        store = ShardStore(tmp_path)
        first = run_engine(EngineRequest(spec=spec, executor="inline", store=store))
        assert store.misses == 5 and store.hits == 0

        for segment in store.segment_dir.glob("*.seg"):
            data = segment.read_bytes()
            segment.write_bytes(data[: len(data) // 3])

        damaged = ShardStore(tmp_path)
        resumed = run_engine(
            EngineRequest(spec=spec, executor="inline", store=damaged)
        )
        assert damaged.misses > 0  # the damage was actually exercised
        assert resumed.estimate.summary == first.estimate.summary
        np.testing.assert_array_equal(
            resumed.estimate.completion_times, first.estimate.completion_times
        )


def _drill_spec(**overrides):
    from repro.scenarios.spec import PolicySpec, ScenarioSpec, SystemSpec

    fields = dict(
        name="flip-drill", kind="mc_point", system=SystemSpec.paper(),
        workload=(20, 12),
        policy=PolicySpec(kind="lbp1", gain=0.35, sender=0, receiver=1),
        mc_realisations=8, seed=11, shards=2, shard_block=4,
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


def _exact(payload) -> str:
    """A rendering that tells every float bit apart (``-0.0`` included)."""
    return json.dumps(payload, sort_keys=True)


class TestFlipSweep:
    """One flipped bit anywhere in a stored block — its frame or its
    index line — reads back as a counted miss or as the very same block,
    never as a different one; and the run after the damage recomputes
    bit-identically."""

    def test_every_single_bit_flip_is_a_miss_or_identical(self, tmp_path, bit_flips):
        from repro.montecarlo.engine import EngineRequest, run_engine

        spec = _drill_spec(mc_realisations=4, shards=1)
        writer = ShardStore(tmp_path)
        run_engine(EngineRequest(spec=spec, executor="inline", store=writer))
        ((key, _where),) = writer._index.items()
        stored = _exact(ShardStore(tmp_path).get(key))
        (segment,) = writer.segment_dir.glob("*.seg")
        for path in (segment, segment.with_suffix(".idx")):
            for index, bit in bit_flips(path):
                reader = ShardStore(tmp_path)
                block = reader.get(key)
                if block is None:
                    assert (reader.hits, reader.misses) == (0, 1)
                else:
                    assert _exact(block) == stored, (path.suffix, index, bit)
        assert _exact(ShardStore(tmp_path).get(key)) == stored

    def test_rerun_after_a_flipped_sample_is_bit_identical(self, tmp_path):
        import struct

        from repro.montecarlo.engine import EngineRequest, run_engine

        spec = _drill_spec()
        first = run_engine(
            EngineRequest(spec=spec, executor="inline", store=ShardStore(tmp_path))
        )
        # Flip the lowest mantissa bit of one stored sample in place.
        sample = struct.pack("<d", float(first.estimate.completion_times[5]))
        (segment,) = ShardStore(tmp_path).segment_dir.glob("*.seg")
        data = bytearray(segment.read_bytes())
        data[data.index(sample)] ^= 0x01
        segment.write_bytes(bytes(data))

        damaged = ShardStore(tmp_path)
        rerun = run_engine(EngineRequest(spec=spec, executor="inline", store=damaged))
        assert damaged.misses == 1 and damaged.hits == 1
        assert rerun.estimate.summary == first.estimate.summary
        assert (
            rerun.estimate.completion_times.tobytes()
            == first.estimate.completion_times.tobytes()
        )
