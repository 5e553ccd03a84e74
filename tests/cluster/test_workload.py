"""Tests for workload construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.workload import (
    PAPER_CDF_WORKLOADS,
    PAPER_PRIMARY_WORKLOAD,
    PAPER_TABLE_WORKLOADS,
    Workload,
    generate_workload,
)
from repro.sim.distributions import Exponential


class TestWorkload:
    def test_basic_accessors(self):
        workload = Workload((100, 60))
        assert workload.num_nodes == 2
        assert workload.total == 160
        assert workload.count(0) == 100
        assert workload[1] == 60
        assert list(workload) == [100, 60]
        assert len(workload) == 2

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            Workload((10, -1))

    def test_rejects_non_integer_counts(self):
        with pytest.raises(ValueError):
            Workload((10.5, 2))

    def test_swapped(self):
        assert tuple(Workload((100, 60)).swapped()) == (60, 100)

    def test_materialise_counts_and_origins(self):
        workload = Workload((3, 2))
        tasks = workload.materialise()
        assert len(tasks[0]) == 3
        assert len(tasks[1]) == 2
        assert all(task.origin == 0 for task in tasks[0])
        assert all(task.origin == 1 for task in tasks[1])

    def test_materialise_unique_ids(self):
        tasks = Workload((5, 5)).materialise()
        ids = [task.task_id for node in tasks.values() for task in node]
        assert len(set(ids)) == 10

    def test_materialise_with_size_distribution(self):
        rng = np.random.default_rng(0)
        tasks = Workload((50, 0)).materialise(
            rng=rng, size_distribution=Exponential(1.0)
        )
        sizes = [task.size for task in tasks[0]]
        assert len(set(sizes)) > 1  # genuinely random sizes

    def test_materialise_default_unit_sizes(self):
        tasks = Workload((4, 0)).materialise()
        assert all(task.size == 1.0 for task in tasks[0])

    def test_materialise_unit_sizes_builds_no_generator(self, monkeypatch):
        def no_generator(*args, **kwargs):
            raise AssertionError("unit sizes need no random generator")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        tasks = Workload((3, 2)).materialise()
        assert [(t.task_id, t.origin, t.size) for n in (0, 1) for t in tasks[n]] == [
            (0, 0, 1.0), (1, 0, 1.0), (2, 0, 1.0), (3, 1, 1.0), (4, 1, 1.0)
        ]

    def test_generate_workload_helper(self):
        workload, tasks = generate_workload([2, 3])
        assert workload.total == 5
        assert len(tasks[1]) == 3

    def test_empty_workload(self):
        workload = Workload((0, 0))
        assert workload.total == 0
        assert workload.materialise() == {0: [], 1: []}


class TestPaperWorkloads:
    def test_primary_workload_matches_paper(self):
        assert tuple(PAPER_PRIMARY_WORKLOAD) == (100, 60)

    def test_table_workloads_match_paper(self):
        assert [tuple(w) for w in PAPER_TABLE_WORKLOADS] == [
            (200, 200),
            (200, 100),
            (100, 200),
            (200, 50),
            (50, 200),
        ]

    def test_cdf_workloads_match_paper(self):
        assert [tuple(w) for w in PAPER_CDF_WORKLOADS] == [(50, 0), (25, 50)]


class TestWorkloadProperties:
    @given(counts=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_total_is_sum(self, counts):
        assert Workload(tuple(counts)).total == sum(counts)

    @given(counts=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_materialise_preserves_counts(self, counts):
        tasks = Workload(tuple(counts)).materialise()
        assert [len(tasks[i]) for i in range(len(counts))] == list(counts)

    @given(counts=st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=2))
    @settings(max_examples=30, deadline=None)
    def test_swapped_is_involution(self, counts):
        workload = Workload(tuple(counts))
        assert tuple(workload.swapped().swapped()) == tuple(workload)
