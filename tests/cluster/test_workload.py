"""Tests for workload construction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.workload import (
    PAPER_CDF_WORKLOADS,
    PAPER_PRIMARY_WORKLOAD,
    PAPER_TABLE_WORKLOADS,
    Workload,
)


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

    def test_empty_workload(self):
        workload = Workload((0, 0))
        assert workload.total == 0
        assert tuple(workload) == (0, 0)


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

    @given(counts=st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=2))
    @settings(max_examples=30, deadline=None)
    def test_swapped_is_involution(self, counts):
        workload = Workload(tuple(counts))
        assert tuple(workload.swapped().swapped()) == tuple(workload)
