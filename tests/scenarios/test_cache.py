"""Cache round-trip, hit/miss accounting and environment override."""

from __future__ import annotations

import numpy as np
import pytest

from repro.scenarios.cache import (
    CACHE_DIR_ENV,
    CachedArrays,
    ResultCache,
    ScenarioResult,
    cache_key,
)
from repro.scenarios.spec import PolicySpec, ScenarioSpec, SystemSpec


@pytest.fixture
def spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="cached",
        kind="mc_point",
        system=SystemSpec.paper(),
        workload=(20, 12),
        policy=PolicySpec(kind="lbp1", gain=0.35, sender=0, receiver=1),
        mc_realisations=3,
        seed=9,
    )


def make_result(spec: ScenarioSpec) -> ScenarioResult:
    return ScenarioResult(
        name=spec.name,
        kind=spec.kind,
        spec_hash=spec.content_hash,
        scalars={"mean_completion_time": 14.409, "winner": "lbp1", "none": None},
        arrays={
            "completion_times": np.array([9.7, 14.4, 23.9]),
            "grid": np.arange(5, dtype=np.int64),
        },
        rendered="line one\nline two",
        runtime_seconds=1.25,
    )


class TestRoundTrip:
    def test_miss_then_hit(self, tmp_path, spec):
        cache = ResultCache(tmp_path)
        assert cache.get(spec) is None
        assert not cache.contains(spec)
        assert cache.misses == 1

        cache.put(spec, make_result(spec))
        assert cache.contains(spec)
        loaded = cache.get(spec)
        assert loaded is not None
        assert cache.hits == 1

    def test_round_trip_is_bit_identical(self, tmp_path, spec):
        cache = ResultCache(tmp_path)
        original = make_result(spec)
        cache.put(spec, original)
        loaded = cache.get(spec)
        assert loaded.identical_to(original)
        assert loaded.from_cache and not original.from_cache
        assert loaded.rendered == original.rendered
        assert loaded.scalars == original.scalars
        np.testing.assert_array_equal(
            loaded.arrays["completion_times"], original.arrays["completion_times"]
        )
        assert loaded.arrays["grid"].dtype == np.int64
        assert loaded.runtime_seconds == original.runtime_seconds

    def test_different_spec_is_a_miss(self, tmp_path, spec):
        cache = ResultCache(tmp_path)
        cache.put(spec, make_result(spec))
        assert cache.get(spec.with_(seed=10)) is None

    def test_entry_is_keyed_by_cache_key(self, tmp_path, spec):
        cache = ResultCache(tmp_path)
        cache.put(spec, make_result(spec))
        key = cache_key(spec)
        assert key != spec.content_hash
        assert (tmp_path / key[:2] / key / "meta.json").is_file()
        # A renamed but otherwise identical spec hits the same entry, and the
        # loaded result carries the requesting spec's name, not the stored one.
        renamed = cache.get(spec.with_(name="renamed"))
        assert renamed is not None
        assert renamed.name == "renamed"


class TestCacheKey:
    def test_key_is_stable(self, spec):
        assert cache_key(spec) == cache_key(spec)

    def test_backend_participates_in_key(self, tmp_path, spec):
        cache = ResultCache(tmp_path)
        cache.put(spec, make_result(spec))
        vectorized = spec.with_(backend="vectorized")
        assert cache_key(vectorized) != cache_key(spec)
        # A result computed by one kernel is never served for another.
        assert cache.get(vectorized) is None

    def test_package_version_participates_in_key(self, tmp_path, spec, monkeypatch):
        cache = ResultCache(tmp_path)
        cache.put(spec, make_result(spec))
        import repro.scenarios.cache as cache_module

        monkeypatch.setattr(cache_module, "__version__", "999.0.0")
        assert cache.get(spec) is None

    def test_meta_records_provenance(self, tmp_path, spec):
        import json

        cache = ResultCache(tmp_path)
        entry = cache.put(spec, make_result(spec))
        meta = json.loads((entry / "meta.json").read_text())["meta"]
        assert meta["backend"] == "reference"
        assert meta["repro_version"]
        assert meta["cache_key"] == cache_key(spec)
        assert meta["spec_hash"] == spec.content_hash


class TestMaintenance:
    def test_len_evict_clear(self, tmp_path, spec):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        cache.put(spec, make_result(spec))
        other = spec.with_(seed=11)
        cache.put(other, make_result(other))
        assert len(cache) == 2
        assert cache.evict(spec)
        assert not cache.evict(spec)
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_corrupt_meta_reads_as_miss(self, tmp_path, spec):
        cache = ResultCache(tmp_path)
        entry = cache.put(spec, make_result(spec))
        (entry / "meta.json").write_text("{ not json")
        assert cache.get(spec) is None

    @pytest.mark.parametrize("damage", ["torn", "flipped"])
    def test_corrupt_arrays_read_as_miss_until_rewritten(
        self, tmp_path, spec, damage
    ):
        cache = ResultCache(tmp_path)
        original = make_result(spec)
        entry = cache.put(spec, original)
        npz = entry / "arrays.npz"
        data = bytearray(npz.read_bytes())
        if damage == "torn":
            del data[len(data) // 2:]  # a write cut short
        else:
            # One flipped bit in the stored sample: only its CRC tells.
            stored = original.arrays["completion_times"].tobytes()
            data[data.index(stored) + 3] ^= 0x10
        npz.write_bytes(bytes(data))

        assert cache.get(spec) is None
        assert (cache.hits, cache.misses) == (0, 1)
        cache.put(spec, original)  # what a recompute stores
        reloaded = cache.get(spec)
        assert reloaded.identical_to(original)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_overwrite_replaces_entry(self, tmp_path, spec):
        cache = ResultCache(tmp_path)
        cache.put(spec, make_result(spec))
        updated = make_result(spec)
        updated.rendered = "updated"
        cache.put(spec, updated)
        assert cache.get(spec).rendered == "updated"


def _smoke(root):
    """Compute ``smoke`` into a cache at ``root``; its spec and result."""
    from repro.scenarios import Orchestrator
    from repro.scenarios.registry import resolve

    spec = resolve("smoke")
    with Orchestrator(cache=ResultCache(root)) as orchestrator:
        computed = orchestrator.run(spec)
    assert not computed.from_cache
    return spec, computed


def _same(got: ScenarioResult, want: ScenarioResult) -> bool:
    return got.kind == want.kind and got.identical_to(want)


class TestFlipSweep:
    """One flipped bit in ``meta.json`` or ``arrays.npz`` reads through
    ``ResultCache.get`` as a miss or as the stored result itself — never
    a different number and never an exception — and the run after the
    damage recomputes bit-identically."""

    @staticmethod
    def _cache(root, spec) -> ResultCache:
        """A cache that hashes ``spec`` once: a sweep reads one entry
        thousands of times, and should time the reads, not the hashing."""
        cache = ResultCache(root)
        key = cache.key_for(spec)
        cache.key_for = lambda asked: key if asked is spec else cache_key(asked)
        return cache

    def test_every_flip_of_meta_json_is_a_miss_or_identical(
        self, tmp_path, bit_flips
    ):
        spec, computed = _smoke(tmp_path)
        cache = self._cache(tmp_path, spec)
        meta = cache.entry_dir(cache.key_for(spec)) / "meta.json"
        for index, bit in bit_flips(meta):
            got = cache.get(spec)
            assert got is None or _same(got, computed), (index, bit)
        assert _same(cache.get(spec), computed)

    def test_every_flip_of_a_multi_member_arrays_npz_is_a_miss_or_identical(
        self, tmp_path, spec, bit_flips
    ):
        cache = self._cache(tmp_path, spec)
        original = make_result(spec)
        rng = np.random.default_rng(3)
        original.arrays = {
            name: rng.normal(115.8, 38.6, 9)
            for name in (
                "gains", "theory", "theory_no_failure", "monte_carlo", "experiment",
            )
        }
        cache.put(spec, original)
        npz = cache.entry_dir(cache.key_for(spec)) / "arrays.npz"
        for index, bit in bit_flips(npz):
            got = cache.get(spec)
            assert got is None or _same(got, original), (index, bit)
        assert _same(cache.get(spec), original)

    def test_rerun_after_a_flipped_bit_is_bit_identical(self, tmp_path):
        from repro.scenarios import Orchestrator

        spec, computed = _smoke(tmp_path)
        cache = ResultCache(tmp_path)
        entry = cache.entry_dir(cache.key_for(spec))
        mean = f'"mean_completion_time": {computed.scalars["mean_completion_time"]!r}'
        sample = computed.arrays["completion_times"].tobytes()
        for name, needle in (("meta.json", mean.encode()), ("arrays.npz", sample)):
            data = bytearray((entry / name).read_bytes())
            data[data.index(needle) + len(needle) - 1] ^= 0x01  # the value's last byte
            (entry / name).write_bytes(bytes(data))
            with Orchestrator(cache=cache) as orchestrator:
                rerun = orchestrator.run(spec)
            assert not rerun.from_cache, name
            assert _same(rerun, computed), name
            assert _same(cache.get(spec), computed), name  # the entry is rewritten


class TestHitArrays:
    """A hit's arrays are verified at ``get`` and parsed on first access."""

    def test_hit_arrays_match_the_computed_result(self, tmp_path):
        import pickle

        from repro.scenarios import Orchestrator
        from repro.scenarios.registry import resolve

        with Orchestrator(cache=ResultCache(tmp_path)) as orchestrator:
            computed = orchestrator.run(resolve("smoke"))
            hit = orchestrator.run(resolve("smoke"))
        assert hit.from_cache and not computed.from_cache
        assert isinstance(hit.arrays, CachedArrays)
        got = hit.arrays["completion_times"]
        want = computed.arrays["completion_times"]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        clone = pickle.loads(pickle.dumps(hit))
        assert type(clone.arrays) is dict
        assert hit.identical_to(computed) and clone.identical_to(computed)

    def test_hit_arrays_outlive_their_entry(self, tmp_path, spec):
        cache = ResultCache(tmp_path)
        original = make_result(spec)
        cache.put(spec, original)
        hit = cache.get(spec)
        assert list(hit.arrays) == ["completion_times", "grid"]
        assert "grid" in hit.arrays and "missing" not in hit.arrays
        cache.evict(spec)
        other = make_result(spec)
        other.arrays = {"grid": np.zeros(5, dtype=np.int64)}
        cache.put(spec, other)
        assert hit.identical_to(original)
        with pytest.raises(TypeError):
            hit.arrays["grid"] = np.zeros(1)
        with pytest.raises(KeyError):
            hit.arrays["missing"]

    def test_concurrent_first_reads_parse_each_array_once(self, tmp_path, spec):
        import sys
        import threading

        cache = ResultCache(tmp_path)
        cache.put(spec, make_result(spec))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                arrays = cache.get(spec).arrays
                seen, errors = [], []

                def read():
                    try:
                        seen.append(tuple(id(arrays[name]) for name in arrays))
                    except Exception as error:  # a lost update surfaces here
                        errors.append(error)

                threads = [threading.Thread(target=read) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert errors == []
                assert len(set(seen)) == 1 and len(seen) == 8
        finally:
            sys.setswitchinterval(interval)

    def test_cached_cli_rerun_never_imports_numpy(self, tmp_path):
        import os
        import pathlib
        import subprocess
        import sys

        repo = pathlib.Path(__file__).resolve().parents[2]
        env = dict(
            os.environ,
            PYTHONPATH=str(repo / "src"),
            REPRO_CACHE_DIR=str(tmp_path / "cache"),
            REPRO_HISTORY_DIR=str(tmp_path / "history"),
        )
        argv = ["scenario", "run", "smoke", "--seed", "5"]
        cold = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            env=env, capture_output=True, text=True, check=True,
        )
        code = (
            "import runpy, sys\n"
            f"sys.argv = ['repro', *{argv!r}]\n"
            "try:\n"
            "    runpy.run_module('repro', run_name='__main__')\n"
            "except SystemExit as exit:\n"
            "    assert not exit.code, exit.code\n"
            "assert 'numpy' not in sys.modules, 'numpy on the cached re-run'\n"
        )
        warm = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True,
        )
        assert ", cached)" in warm.stdout.splitlines()[0]
        # The body after the timing header is the cold run's, byte for byte.
        assert warm.stdout.splitlines()[1:] == cold.stdout.splitlines()[1:]


class TestEnvironment:
    def test_env_var_sets_root(self, tmp_path, monkeypatch, spec):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "envcache"))
        cache = ResultCache()
        assert cache.root == tmp_path / "envcache"
        cache.put(spec, make_result(spec))
        assert ResultCache().get(spec) is not None

    def test_explicit_root_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "envcache"))
        cache = ResultCache(tmp_path / "explicit")
        assert cache.root == tmp_path / "explicit"


class TestMetadataReads:
    """The numpy-free read paths the results service is built on."""

    def test_peek_returns_scalars_without_arrays(self, tmp_path, spec):
        cache = ResultCache(tmp_path)
        assert cache.peek(spec) is None
        assert cache.misses == 1
        cache.put(spec, make_result(spec))
        peeked = cache.peek(spec)
        assert peeked.from_cache
        assert peeked.arrays == {}
        assert peeked.scalars["mean_completion_time"] == 14.409
        assert peeked.rendered == "line one\nline two"
        assert cache.hits == 1

    def test_load_meta_by_key(self, tmp_path, spec):
        cache = ResultCache(tmp_path)
        cache.put(spec, make_result(spec))
        meta = cache.load_meta(cache.key_for(spec))
        assert meta["spec_hash"] == spec.content_hash
        assert meta["cache_key"] == cache.key_for(spec)
        assert cache.load_meta("0" * 64) is None

    def test_array_names_via_zipfile(self, tmp_path, spec):
        cache = ResultCache(tmp_path)
        cache.put(spec, make_result(spec))
        assert cache.array_names(cache.key_for(spec)) == (
            "completion_times", "grid",
        )
        assert cache.array_names("0" * 64) == ()

    def test_find_hash_resolves_content_hash_to_cache_key(self, tmp_path, spec):
        cache = ResultCache(tmp_path)
        assert cache.find_hash(spec.content_hash) is None
        cache.put(spec, make_result(spec))
        assert cache.find_hash(spec.content_hash) == cache.key_for(spec)
        assert cache.find_hash("f" * 64) is None

    def test_find_hash_prefers_current_package_version(self, tmp_path, spec, monkeypatch):
        import repro.scenarios.cache as cache_module

        cache = ResultCache(tmp_path)
        monkeypatch.setattr(cache_module, "__version__", "0.9.9")
        cache.put(spec, make_result(spec))
        stale_key = cache.key_for(spec)
        monkeypatch.undo()
        cache.put(spec, make_result(spec))
        current_key = cache.key_for(spec)
        assert stale_key != current_key
        assert cache.find_hash(spec.content_hash) == current_key

    def test_metadata_reads_are_numpy_free(self, tmp_path, spec):
        import os
        import pathlib
        import subprocess
        import sys

        cache = ResultCache(tmp_path)
        cache.put(spec, make_result(spec))
        repo = pathlib.Path(__file__).resolve().parents[2]
        code = (
            "import sys\n"
            "from repro.scenarios.cache import ResultCache\n"
            "from repro.scenarios.spec import PolicySpec, ScenarioSpec, SystemSpec\n"
            f"spec = ScenarioSpec.from_json({spec.to_json()!r})\n"
            f"cache = ResultCache({str(tmp_path)!r})\n"
            "assert cache.contains(spec)\n"
            "result = cache.peek(spec)\n"
            "assert result.scalars['winner'] == 'lbp1'\n"
            "key = cache.find_hash(spec.content_hash)\n"
            "assert cache.array_names(key) == ('completion_times', 'grid')\n"
            "assert 'numpy' not in sys.modules, 'numpy on the metadata path'\n"
        )
        env = dict(os.environ, PYTHONPATH=str(repo / "src"))
        subprocess.run([sys.executable, "-c", code], check=True, env=env)

    def test_put_writes_hash_index_for_o1_lookup(self, tmp_path, spec):
        cache = ResultCache(tmp_path)
        cache.put(spec, make_result(spec))
        index = tmp_path / "by-hash" / spec.content_hash[:2] / spec.content_hash
        assert index.read_text() == cache.key_for(spec)

    def test_find_hash_repairs_missing_index(self, tmp_path, spec):
        import shutil

        cache = ResultCache(tmp_path)
        cache.put(spec, make_result(spec))
        shutil.rmtree(tmp_path / "by-hash")  # pre-index store layout
        assert cache.find_hash(spec.content_hash) == cache.key_for(spec)
        index = tmp_path / "by-hash" / spec.content_hash[:2] / spec.content_hash
        assert index.is_file()  # the scan rebuilt the pointer

    def test_find_hash_scan_skips_a_corrupt_entry(self, tmp_path, spec):
        import shutil

        cache = ResultCache(tmp_path)
        entry = cache.put(spec, make_result(spec))
        shutil.rmtree(tmp_path / "by-hash")  # force the metadata scan
        meta = entry / "meta.json"
        data = bytearray(meta.read_bytes())
        data[data.index(b"line one")] ^= 0x01  # still valid JSON
        meta.write_bytes(bytes(data))
        assert cache.find_hash(spec.content_hash) is None
        assert not (tmp_path / "by-hash").exists()  # no pointer to it

    def test_stale_index_pointer_falls_back_to_scan(self, tmp_path, spec):
        cache = ResultCache(tmp_path)
        cache.put(spec, make_result(spec))
        index = tmp_path / "by-hash" / spec.content_hash[:2] / spec.content_hash
        index.write_text("0" * 64)  # points at a nonexistent entry
        assert cache.find_hash(spec.content_hash) == cache.key_for(spec)

    def test_evict_removes_index_pointer(self, tmp_path, spec):
        cache = ResultCache(tmp_path)
        cache.put(spec, make_result(spec))
        assert cache.evict(spec)
        assert cache.find_hash(spec.content_hash) is None
        index = tmp_path / "by-hash" / spec.content_hash[:2] / spec.content_hash
        assert not index.exists()

    def test_index_dir_does_not_count_as_entries(self, tmp_path, spec):
        cache = ResultCache(tmp_path)
        cache.put(spec, make_result(spec))
        assert len(cache) == 1
