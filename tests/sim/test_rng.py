"""Tests for reproducible random-stream management."""

import numpy as np
import pytest

from repro.sim.rng import (
    EXPONENTIAL_CHUNK,
    RandomStreams,
    exponential_draws,
    hash_name,
    spawn_seeds,
)


class TestRandomStreams:
    def test_same_seed_same_stream(self):
        a = RandomStreams(7).stream("x").random(5)
        b = RandomStreams(7).stream("x").random(5)
        assert np.allclose(a, b)

    def test_different_seeds_differ(self):
        a = RandomStreams(7).stream("x").random(5)
        b = RandomStreams(8).stream("x").random(5)
        assert not np.allclose(a, b)

    def test_different_names_differ(self):
        streams = RandomStreams(7)
        assert not np.allclose(streams.stream("a").random(5), streams.stream("b").random(5))

    def test_stream_is_cached(self):
        streams = RandomStreams(0)
        assert streams.stream("x") is streams.stream("x")

    def test_creation_order_is_irrelevant(self):
        first = RandomStreams(3)
        _ = first.stream("alpha")
        values_beta_after = first.stream("beta").random(3)

        second = RandomStreams(3)
        values_beta_first = second.stream("beta").random(3)
        assert np.allclose(values_beta_after, values_beta_first)

    def test_spawn_produces_independent_children(self):
        children = RandomStreams(5).spawn(3)
        draws = [child.stream("x").random(4) for child in children]
        assert not np.allclose(draws[0], draws[1])
        assert not np.allclose(draws[1], draws[2])

    def test_spawn_is_reproducible(self):
        a = RandomStreams(5).spawn(2)[1].stream("svc").random(3)
        b = RandomStreams(5).spawn(2)[1].stream("svc").random(3)
        assert np.allclose(a, b)

    def test_spawned_children_differ_from_parent(self):
        parent = RandomStreams(5)
        child = parent.spawn(1)[0]
        assert not np.allclose(parent.stream("x").random(4), child.stream("x").random(4))

    def test_contains_and_len(self):
        streams = RandomStreams(0)
        assert "x" not in streams
        streams.stream("x")
        assert "x" in streams
        assert len(streams) == 1
        assert list(iter(streams)) == ["x"]

    def test_names_listing(self):
        streams = RandomStreams(0)
        streams.stream("b")
        streams.stream("a")
        assert set(streams.names()) == {"a", "b"}

    def test_root_entropy_exposed(self):
        assert RandomStreams(123).root_entropy == (123,)

    def test_accepts_seed_sequence(self):
        sequence = np.random.SeedSequence(9)
        streams = RandomStreams(sequence)
        assert streams.stream("x") is not None

    @pytest.mark.parametrize("name", ["node-1.failure", "network.delay", "x"])
    def test_stream_matches_explicit_derivation_under_spawn_key(self, name):
        digest = np.frombuffer(name.encode("utf-8"), dtype=np.uint8)
        key = int(digest.sum()) * 1_000_003 + len(name) * 7_919
        explicit = np.random.default_rng(
            np.random.SeedSequence(
                entropy=99, spawn_key=(4, 2, hash_name(name), key)
            )
        ).random(4)
        # The name's spawn-key suffix is memoised across collections: it
        # must combine with each collection's own root spawn key.
        for root_key in [(4, 2), (5,), (4, 2)]:
            streams = RandomStreams(np.random.SeedSequence(99, spawn_key=root_key))
            drawn = streams.stream(name).random(4)
            if root_key == (4, 2):
                assert drawn.tolist() == explicit.tolist()
            else:
                assert drawn.tolist() != explicit.tolist()


class TestExponentialDraws:
    def test_equals_scalar_exponential_across_chunk_boundaries(self):
        # Alternating scales, like a failure/recovery stream.
        scales = [20.0, 10.0, 1.0 / 1.08, 0.5]
        draw = exponential_draws(np.random.default_rng(2006))
        reference = np.random.default_rng(2006)
        for k in range(3 * EXPONENTIAL_CHUNK + 7):
            scale = scales[k % len(scales)]
            assert draw(scale) == float(reference.exponential(scale))

    def test_returns_python_floats(self):
        assert type(exponential_draws(np.random.default_rng(0))(2.0)) is float

    def test_draws_nothing_until_first_use(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        draw = exponential_draws(rng)
        assert rng.bit_generator.state == before
        draw(1.0)
        assert rng.bit_generator.state != before


class TestHelpers:
    def test_hash_name_is_stable(self):
        assert hash_name("node-0.service") == hash_name("node-0.service")

    def test_hash_name_differs_for_different_names(self):
        assert hash_name("a") != hash_name("b")

    def test_hash_name_is_32_bit(self):
        assert 0 <= hash_name("anything at all") < 2**32

    def test_spawn_seeds_count(self):
        assert len(spawn_seeds(0, 5)) == 5

    def test_spawn_seeds_accepts_seed_sequence(self):
        root = np.random.SeedSequence(4)
        seeds = spawn_seeds(root, 2)
        assert len(seeds) == 2

    def test_spawn_seeds_children_distinct(self):
        seeds = spawn_seeds(1, 2)
        a = np.random.default_rng(seeds[0]).random(4)
        b = np.random.default_rng(seeds[1]).random(4)
        assert not np.allclose(a, b)
