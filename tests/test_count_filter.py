"""Tests for count filtering and size filtering (Lemma 1).

The join applies the count filter through ``compare_qgrams``' mismatch
counts (``|Q_r ∩ Q_s| = |Q_r| − ε_r``) and its ``count_pruned``
bailout, so these tests read the common count and the verdict there.
"""

import pytest
from hypothesis import given, settings

from repro.core import (
    compare_qgrams,
    count_lower_bound,
    extract_qgrams,
    passes_size_filter,
    size_lower_bound,
)
from repro.datasets import figure1_graphs
from repro.exceptions import ParameterError
from repro.ged import graph_edit_distance

from .conftest import graph_pairs_within, path_graph, sorted_profiles


def common_count(a, b, q=1):
    """``|Q_a ∩ Q_b|`` as the join computes it."""
    pa, pb = sorted_profiles([a, b], q)
    return pa.size - compare_qgrams(pa, pb).epsilon_r


class TestPaperExample:
    def test_example4_bound_q1(self):
        r, s = figure1_graphs()
        pr, ps = sorted_profiles([r, s], 1)
        assert count_lower_bound(pr, ps, tau=1) == 2  # max(4-3, 5-3)
        assert common_count(r, s) == 3  # three C-C grams (Example 5)
        assert not compare_qgrams(pr, ps, tau=1).count_pruned

    def test_example4_bound_q2(self):
        r, s = figure1_graphs()
        pr, ps = extract_qgrams(r, 2), extract_qgrams(s, 2)
        assert count_lower_bound(pr, ps, tau=1) == 1  # max(5-5, 7-6)


class TestCommonCount:
    def test_multiset_semantics(self):
        a = path_graph(["A", "A", "A"])  # two A-x-A grams
        b = path_graph(["A", "A"])  # one A-x-A gram
        assert common_count(a, b) == 1

    def test_disjoint_graphs_share_nothing(self):
        a = path_graph(["A", "B"])
        b = path_graph(["C", "D"])
        assert common_count(a, b) == 0

    def test_symmetric(self):
        a = path_graph(["A", "B", "C"])
        b = path_graph(["B", "C", "D"])
        assert common_count(a, b) == common_count(b, a)


class TestSoundness:
    def test_negative_tau_rejected(self):
        r, s = figure1_graphs()
        pr, ps = extract_qgrams(r, 1), extract_qgrams(s, 1)
        with pytest.raises(ParameterError):
            count_lower_bound(pr, ps, tau=-1)

    @settings(max_examples=40, deadline=None)
    @given(graph_pairs_within(tau_max=3, max_vertices=5))
    def test_count_filter_never_prunes_true_results(self, pair):
        """Lemma 1: pairs within tau always pass count filtering."""
        r, s, k = pair
        tau = max(k, graph_edit_distance(r, s))
        for q in (1, 2):
            pr, ps = sorted_profiles([r, s], q)
            assert not compare_qgrams(pr, ps, tau).count_pruned
            assert not compare_qgrams(ps, pr, tau).count_pruned

    @settings(max_examples=40, deadline=None)
    @given(graph_pairs_within(tau_max=3, max_vertices=5))
    def test_size_filter_never_prunes_true_results(self, pair):
        r, s, k = pair
        tau = max(k, graph_edit_distance(r, s))
        assert passes_size_filter(r, s, tau)
        assert size_lower_bound(r, s) <= tau

    def test_size_lower_bound_values(self):
        a = path_graph(["A", "B", "C"])  # 3 vertices, 2 edges
        b = path_graph(["A", "B"])  # 2 vertices, 1 edge
        assert size_lower_bound(a, b) == 2
        assert passes_size_filter(a, b, 2)
        assert not passes_size_filter(a, b, 1)
