"""Tests for CompareQGrams (mismatching q-gram extraction)."""

import pytest
from hypothesis import given, settings

from repro.core import build_vocabulary, compare_qgrams, extract_qgrams
from repro.grams.qgrams import LabelTable
from repro.datasets import figure1_graphs
from repro.exceptions import ParameterError

from .conftest import (
    graph_pairs_within,
    path_graph,
    profile_counts,
    small_graphs,
    sorted_profiles,
)
from .counter_compare import counter_compare


def absent_keys(grams, mask):
    """Keys of the mismatching instances the mask flags as absent."""
    return {gram.key for gram, required in zip(grams, mask) if required}


def assert_same_result(merged, counted):
    """The merge and the Counter oracle agree on everything they report."""
    assert merged.count_pruned == counted.count_pruned
    if merged.count_pruned:
        return  # the merge stopped early: its lists are partial
    for side in ("r", "s"):
        assert getattr(merged, f"epsilon_{side}") == getattr(
            counted, f"epsilon_{side}"
        )
        assert [(g.key, g.path) for g in getattr(merged, f"mismatch_{side}")] == [
            (g.key, g.path) for g in getattr(counted, f"mismatch_{side}")
        ]
        assert getattr(merged, f"required_mask_{side}") == getattr(
            counted, f"required_mask_{side}"
        )


class TestFigure1:
    def test_mismatch_counts(self):
        r, s = figure1_graphs()
        pr, ps = sorted_profiles([r, s], 1)
        result = compare_qgrams(pr, ps)
        # r \ s = {C=O}; s \ r = {C-O, C-N}.
        assert result.epsilon_r == 1
        assert result.epsilon_s == 2
        assert {g.key for g in result.mismatch_r} == {("C", "=", "O")}
        assert {g.key for g in result.mismatch_s} == {
            ("C", "-", "O"),
            ("C", "-", "N"),
        }

    def test_absent_keys(self):
        r, s = figure1_graphs()
        result = compare_qgrams(*sorted_profiles([r, s], 1))
        assert absent_keys(result.mismatch_r, result.required_mask_r) == {
            ("C", "=", "O")
        }
        assert absent_keys(result.mismatch_s, result.required_mask_s) == {
            ("C", "-", "O"),
            ("C", "-", "N"),
        }


class TestMultisetSemantics:
    def test_partial_overlap_surplus(self):
        a = path_graph(["A", "A", "A"])  # A-A gram x2
        b = path_graph(["A", "A"])  # A-A gram x1
        result = compare_qgrams(*sorted_profiles([a, b], 1))
        assert result.epsilon_r == 1  # surplus of one instance
        assert result.epsilon_s == 0
        # The key occurs in both graphs, so it is NOT fully absent.
        assert result.required_mask_r == [False]

    def test_identical_profiles_have_no_mismatch(self):
        g = path_graph(["A", "B", "C"])
        result = compare_qgrams(*sorted_profiles([g, g.copy()], 1))
        assert result.epsilon_r == result.epsilon_s == 0
        assert result.mismatch_r == [] and result.mismatch_s == []

    def test_profiles_of_two_vocabularies_are_refused(self):
        a, b = path_graph(["A", "B"]), path_graph(["A", "C"])
        unsorted = extract_qgrams(a, 1)
        (pa,), (pb,) = sorted_profiles([a], 1), sorted_profiles([b], 1)
        for p_r, p_s in ((pa, pb), (unsorted, pb), (pb, unsorted)):
            with pytest.raises(ParameterError, match="sort_profile"):
                compare_qgrams(p_r, p_s)


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(graph_pairs_within(tau_max=2, max_vertices=5))
    def test_epsilon_equals_multiset_difference(self, pair):
        r, s, _ = pair
        pr, ps = sorted_profiles([r, s], 1)
        result = compare_qgrams(pr, ps)
        keys_r, keys_s = profile_counts(pr)[0], profile_counts(ps)[0]
        expected_r = sum(
            max(0, c - keys_s.get(k, 0)) for k, c in keys_r.items()
        )
        expected_s = sum(
            max(0, c - keys_r.get(k, 0)) for k, c in keys_s.items()
        )
        assert result.epsilon_r == expected_r
        assert result.epsilon_s == expected_s

    @settings(max_examples=30, deadline=None)
    @given(small_graphs(max_vertices=5))
    def test_self_comparison_is_empty(self, g):
        (p,) = sorted_profiles([g], 2)
        result = compare_qgrams(p, p)
        assert result.mismatch_r == [] and result.mismatch_s == []

    @settings(max_examples=30, deadline=None)
    @given(graph_pairs_within(tau_max=2, max_vertices=5))
    def test_absent_key_instances_all_selected(self, pair):
        """Every instance of a fully-absent key must be in the mismatch
        list (they are all guaranteed affected)."""
        r, s, _ = pair
        pr, ps = sorted_profiles([r, s], 1)
        result = compare_qgrams(pr, ps)
        for key in absent_keys(result.mismatch_r, result.required_mask_r):
            chosen = sum(1 for g in result.mismatch_r if g.key == key)
            assert chosen == profile_counts(pr)[0][key]

    @settings(max_examples=40, deadline=None)
    @given(graph_pairs_within(tau_max=3, max_vertices=6))
    def test_merge_matches_counter_oracle(self, pair):
        """The merge equals the Counter computation over object keys —
        instances, their order, masks and the count bailout — on
        profiles sorted in one vocabulary, also when their keys were
        unseen at build time: interned later (overflow ids) or only
        ranked for a query (temporary ids)."""
        r, s, _ = pair
        for q in (1, 2):
            for built_on in ((r, s), (r,), ()):
                table = LabelTable.of([r, s])
                vocab = build_vocabulary(
                    [extract_qgrams(g, q, table) for g in built_on], table
                )
                pr, ps = extract_qgrams(r, q, table), extract_qgrams(s, q, table)
                vocab.sort_profile(pr)
                vocab.sort_profile(ps, intern=bool(built_on))
                for tau in (None, 0, 1, 2):
                    assert_same_result(
                        compare_qgrams(pr, ps, tau), counter_compare(pr, ps, tau)
                    )
                    assert_same_result(
                        compare_qgrams(ps, pr, tau), counter_compare(ps, pr, tau)
                    )
