"""Tests for global and local label filtering (Section V)."""

from collections import Counter

from hypothesis import given, settings

from repro.core import (
    compare_qgrams,
    connected_gram_components,
    extract_qgrams,
    gamma,
    global_label_lower_bound,
    local_label_lower_bound,
)
from repro.datasets import figure1_graphs, figure4_graphs
from repro.ged import graph_edit_distance

from .conftest import graph_pairs_within, path_graph, sorted_profiles


class TestGamma:
    def test_identical_multisets(self):
        assert gamma(Counter("AAB"), Counter("AAB")) == 0

    def test_disjoint_multisets(self):
        assert gamma(Counter("AA"), Counter("BB")) == 2

    def test_partial_overlap(self):
        assert gamma(Counter("AAB"), Counter("ABC")) == 1

    def test_size_difference(self):
        assert gamma(Counter("AAAA"), Counter("A")) == 3

    def test_empty(self):
        assert gamma(Counter(), Counter()) == 0
        assert gamma(Counter("A"), Counter()) == 1


class TestGlobalLabelFilter:
    def test_figure1_bound(self):
        r, s = figure1_graphs()
        # L_V: {C:3, O:1} vs {C:3, O:1, N:1} -> Gamma = max(4,5) - 4 = 1
        # L_E: {-:3, =:1} vs {-:5}           -> Gamma = max(4,5) - 3 = 2
        assert global_label_lower_bound(r, s) == 3  # == ged(r, s)

    def test_precomputed_labels_match(self):
        r, s = figure1_graphs()
        rl = (r.vertex_label_multiset(), r.edge_label_multiset())
        sl = (s.vertex_label_multiset(), s.edge_label_multiset())
        assert global_label_lower_bound(r, s, rl, sl) == global_label_lower_bound(r, s)

    @settings(max_examples=40, deadline=None)
    @given(graph_pairs_within(tau_max=3, max_vertices=5))
    def test_sound_lower_bound(self, pair):
        r, s, _ = pair
        assert global_label_lower_bound(r, s) <= graph_edit_distance(r, s)


class TestComponents:
    def test_disjoint_grams_separate_components(self):
        _, s = figure1_graphs()
        pr, _ = None, None
        r, s = figure1_graphs()
        mismatch = compare_qgrams(*sorted_profiles([s, r], 1))
        components = connected_gram_components(mismatch.mismatch_r)
        # C-O and C-N attach to different ring carbons -> 2 components.
        assert len(components) == 2

    def test_overlapping_grams_merge(self):
        g = path_graph(["A", "B", "C"])
        profile = extract_qgrams(g, 1)
        components = connected_gram_components(profile.grams)
        assert len(components) == 1  # both grams share vertex 1

    def test_empty(self):
        assert connected_gram_components([]) == []


class TestLocalLabelFilter:
    def test_figure1_example8(self):
        """Example 8: the C-N mismatching 1-gram of s incurs an edit
        because r has no nitrogen; C-O overlaps r's labels, and the two
        components together give a lower bound of 2 > tau = 1."""
        r, s = figure1_graphs()
        mismatch = compare_qgrams(*sorted_profiles([s, r], 1))
        bound = local_label_lower_bound(
            mismatch.mismatch_r, s, r, tau=1,
            required_mask=mismatch.required_mask_r,
        )
        assert bound == 2

    def test_empty_mismatch_is_zero(self):
        r, _ = figure1_graphs()
        assert local_label_lower_bound([], r, r, tau=2) == 0

    def test_greedy_variant_not_larger(self):
        r, s = figure4_graphs()
        mismatch = compare_qgrams(*sorted_profiles([s, r], 2))
        exact = local_label_lower_bound(
            mismatch.mismatch_r, s, r, tau=4,
            required_mask=mismatch.required_mask_r, exact=True,
        )
        greedy = local_label_lower_bound(
            mismatch.mismatch_r, s, r, tau=4,
            required_mask=mismatch.required_mask_r, exact=False,
        )
        assert greedy <= exact or greedy <= 4

    @settings(max_examples=50, deadline=None)
    @given(graph_pairs_within(tau_max=3, max_vertices=5))
    def test_sound_lower_bound_both_directions(self, pair):
        """The regression property behind the PROTEIN bug: the local
        label bound must never exceed the true edit distance, on the
        join's path (the merge's instances and masks, under the count
        filter's bailout at ``tau = ged``, which never fires)."""
        r, s, _ = pair
        ged = graph_edit_distance(r, s)
        for q in (1, 2):
            mismatch = compare_qgrams(*sorted_profiles([r, s], q), ged)
            assert not mismatch.count_pruned
            b_r = local_label_lower_bound(
                mismatch.mismatch_r, r, s, tau=ged,
                required_mask=mismatch.required_mask_r,
            )
            b_s = local_label_lower_bound(
                mismatch.mismatch_s, s, r, tau=ged,
                required_mask=mismatch.required_mask_s,
            )
            assert b_r <= ged
            assert b_s <= ged
