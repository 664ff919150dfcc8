from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sampspectra.combinatorics import (
    PartitionPath,
    bell,
    catalan,
    is_crossing,
    iter_cores,
    iter_partition_paths,
    narayana,
    narayana_row,
    reduce_path,
    reduction_trace,
    stirling2,
    transition_multigraph,
)
from sampspectra.volumes import volume_of

def _to_rgs(raw):
    labels = []
    mx = 0
    for r in raw:
        label = 1 + r % (mx + 1)
        labels.append(label)
        mx = max(mx, label)
    return tuple(labels)


# First-appearance label sequences of bounded length, for property tests.
rgs = st.lists(st.integers(0, 10), min_size=1, max_size=7).map(_to_rgs)


class TestPartitionPath:
    def test_accepts_lists_tuples_and_paths(self):
        base = PartitionPath.of([1, 2, 1])
        assert PartitionPath.of((1, 2, 1)) == base
        assert PartitionPath.of(base) is base

    def test_p_k_blocks(self):
        path = PartitionPath.of([1, 2, 1, 3])
        assert path.p == 4
        assert path.k == 3

    def test_str(self):
        assert str(PartitionPath.of([1, 2, 1, 2])) == "[1,2,1,2]"
        assert str(PartitionPath.of([])) == "[]"

    @pytest.mark.parametrize("bad", [[2], [0, 1], [1, 3], [1, 2, 4], [1, -1],
                                     [1, 2.7, 1], [1, 2.0, 1], [1, "2", 1]])
    def test_rejects_non_restricted_growth(self, bad):
        with pytest.raises(ValueError, match="position"):
            PartitionPath.of(bad)

    def test_volume_of_rejects_a_fractional_label(self):
        # Truncating 2.9 to 2 would give the volume 2/3 of [1, 2, 1, 2].
        with pytest.raises(ValueError, match="label 2.9 at position 2 "):
            volume_of([1, 2.9, 1, 2])

    def test_accepts_numpy_integer_labels(self):
        path = PartitionPath.of(np.array([1, 2, 1, 2]))
        assert path.labels == (1, 2, 1, 2)
        assert all(type(v) is int for v in path.labels)


class TestEnumeration:
    def test_p4_is_lexicographic_and_complete(self):
        paths = list(iter_partition_paths(4))
        assert len(paths) == 15
        assert paths[0] == (1, 1, 1, 1)
        assert paths[-1] == (1, 2, 3, 4)
        assert paths == sorted(paths)
        assert len(set(paths)) == 15
        for labels in paths:
            PartitionPath.of(labels)

    @pytest.mark.parametrize("p", range(1, 9))
    def test_counts_match_closed_forms(self, p):
        counts = Counter(max(w) for w in iter_partition_paths(p))
        assert sum(counts.values()) == bell(p)
        assert counts == {k: stirling2(p, k) for k in range(1, p + 1)}


class TestCountingFunctions:
    def test_bell_values(self):
        assert [bell(p) for p in range(1, 9)] == [1, 2, 5, 15, 52, 203, 877, 4140]
        assert bell(10) == 115975

    def test_catalan_values(self):
        assert [catalan(p) for p in range(1, 9)] == [1, 2, 5, 14, 42, 132, 429, 1430]

    def test_stirling_recurrence(self):
        # S(p, k) = k S(p-1, k) + S(p-1, k-1), an independent route to the
        # alternating-sum formula used by stirling2.
        for p in range(2, 11):
            for k in range(2, p):
                assert stirling2(p, k) == k * stirling2(p - 1, k) + stirling2(p - 1, k - 1)

    def test_narayana_sums_to_catalan(self):
        for p in range(1, 11):
            assert sum(narayana(p, k) for k in range(1, p + 1)) == catalan(p)

    def test_narayana_row_matches_the_closed_form(self):
        for p in range(1, 51):
            assert narayana_row(p) == [narayana(p, k) for k in range(1, p + 1)]
        with pytest.raises(ValueError):
            narayana_row(0)

    @pytest.mark.parametrize("fn", [stirling2, narayana])
    def test_block_count_range_checked(self, fn):
        with pytest.raises(ValueError):
            fn(4, 0)
        with pytest.raises(ValueError):
            fn(4, 5)


class TestCrossing:
    @pytest.mark.parametrize("labels, expected", [
        ([1, 2, 1, 2], True),
        ([1, 2, 2, 1], False),
        ([1, 1, 1, 1], False),
        ([1, 2, 3, 1, 2, 3], True),
        ([1, 2, 3, 3, 2, 1], False),
        ([1], False),
    ])
    def test_known_cases(self, labels, expected):
        assert is_crossing(labels) is expected

    @pytest.mark.parametrize("p", range(1, 8))
    def test_non_crossing_counts(self, p):
        counts = Counter(max(w) for w in iter_partition_paths(p) if not is_crossing(w))
        assert sum(counts.values()) == catalan(p)
        assert counts == {k: narayana(p, k) for k in range(1, p + 1)}


class TestReduction:
    def test_singleton_removed_before_adjacency(self):
        # [1,2,2]: block 1 is a singleton and positions 2,3 are adjacent in
        # block 2; the singleton rule must win.
        trace = reduction_trace([1, 2, 2])
        assert (trace[0].rule, trace[0].index) == (1, 1)
        assert trace[1].path.labels == (1, 1)

    def test_adjacency_prefers_positions_after_one(self):
        # For [1,1] both elements form the only adjacent pair (circularly);
        # position 2 is removed so relabeling is untouched.
        trace = reduction_trace([1, 1])
        assert (trace[0].rule, trace[0].index) == (2, 2)
        # The wrap pair (p, 1) is claimed by its first element.
        trace = reduction_trace([1, 2, 1, 2, 1])
        assert (trace[0].rule, trace[0].index) == (2, 5)

    def test_relabeling_after_removal(self):
        # Removing the singleton at position 1 of [1,2,3,2] leaves labels
        # (2,3,2), which must be renumbered by first appearance.
        trace = reduction_trace([1, 2, 3, 2])
        assert (trace[0].rule, trace[0].index) == (1, 1)
        assert trace[1].path.labels == (1, 2, 1)

    def test_terminal_step_has_no_rule(self):
        trace = reduction_trace([1, 2, 1, 2])
        assert len(trace) == 1
        assert trace[0].rule is None and trace[0].index is None

    def test_empty_path_is_reduced(self):
        assert reduce_path([]).labels == ()

    @pytest.mark.parametrize("labels, reduced", [
        ([1], ()),
        ([1, 1, 1], ()),
        ([1, 2], ()),
        ([1, 2, 1, 2], (1, 2, 1, 2)),
        ([1, 2, 1, 2, 2], (1, 2, 1, 2)),
        ([1, 2, 3, 1, 2, 3], (1, 2, 3, 1, 2, 3)),
        ([1, 2, 1, 3, 2, 3], (1, 2, 1, 3, 2, 3)),
    ])
    def test_reduced_forms(self, labels, reduced):
        assert reduce_path(labels).labels == reduced

    def test_reduced_path_has_no_applicable_rule(self):
        for p in range(1, 8):
            for labels in iter_partition_paths(p):
                final = reduce_path(labels)
                assert all(n > 1 for n in Counter(final.labels).values())
                q = final.p
                for i in range(q):
                    assert final.labels[i] != final.labels[(i + 1) % q]

    @given(rgs)
    @settings(deadline=None, max_examples=200)
    def test_reduction_is_idempotent(self, labels):
        once = reduce_path(labels)
        assert reduce_path(once) == once

    def test_non_crossing_paths_reduce_to_nothing(self):
        # Non-crossing paths always admit a removal; induction empties them.
        for p in range(1, 8):
            for labels in iter_partition_paths(p):
                if not is_crossing(labels):
                    assert reduce_path(labels).labels == ()


class TestCores:
    @pytest.mark.parametrize("e", range(10))
    def test_cores_are_the_fixed_points_of_reduction(self, e):
        cores = list(iter_cores(e))
        fixed = {w for w in iter_partition_paths(e) if reduce_path(w).labels == w}
        assert len(cores) == len(set(cores))
        assert set(cores) == fixed

    def test_core_counts(self):
        counts = [sum(1 for _ in iter_cores(e)) for e in range(10)]
        assert counts == [1, 0, 0, 0, 1, 0, 5, 14, 66, 307]
        with pytest.raises(ValueError):
            list(iter_cores(-1))


class TestTransitionMultigraph:
    def test_edges_loops_and_first_crossing_order(self):
        # Pairs (1,1), (1,2), (2,1), (1,2), (2,3), (3,1) around the circle.
        edges = transition_multigraph([1, 1, 2, 1, 2, 3])
        assert edges == Counter({(1, 1): 1, (1, 2): 3, (2, 3): 1, (1, 3): 1})
        assert list(edges) == [(1, 1), (1, 2), (2, 3), (1, 3)]

    @given(rgs)
    @settings(deadline=None, max_examples=60)
    def test_one_edge_per_position_and_even_degrees(self, labels):
        edges = transition_multigraph(labels)
        assert sum(edges.values()) == len(labels)
        degree = Counter()
        for (a, b), m in edges.items():
            assert a <= b
            degree[a] += m
            degree[b] += m
        # A closed walk enters and leaves each block once per visit.
        assert degree == Counter({v: 2 * n for v, n in Counter(labels).items()})
