"""Tests for minimum edit filtering (Section IV, Algorithms 2-4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    build_vocabulary,
    extract_qgrams,
    min_edit_exact,
    min_edit_lower_bound,
    min_prefix_length,
)
from repro.grams.mismatch import mismatching_grams
from repro.datasets import figure1_graphs, figure4_graphs
from repro.exceptions import ParameterError

from .conftest import path_graph, small_graphs


class TestMinEditExact:
    def test_empty_multiset(self):
        assert min_edit_exact([], cap=3) == 0

    def test_figure1_disjoint_mismatches(self):
        """Example 5: the two mismatching 1-grams of s (C-O, C-N) are
        disjoint, so two edit operations are needed."""
        r, s = figure1_graphs()
        pr, ps = extract_qgrams(r, 1), extract_qgrams(s, 1)
        mismatch = mismatching_grams(ps, pr)
        assert len(mismatch) == 2
        assert min_edit_exact(mismatch, cap=3) == 2

    def test_figure4_overlapping_mismatches(self):
        """Example 6: the mismatching 2-grams from s (toluidine) to r
        (phenol) include C-C-C, C-C-N and C=C-N and can be wiped out by
        exactly two vertex relabelings."""
        r, s = figure4_graphs()
        pr, ps = extract_qgrams(r, 2), extract_qgrams(s, 2)
        mismatch = mismatching_grams(ps, pr)
        keys = {g.key for g in mismatch}
        assert ("C", "-", "C", "-", "C") in keys
        assert ("C", "-", "C", "-", "N") in keys
        assert ("C", "=", "C", "-", "N") in keys
        assert min_edit_exact(mismatch, cap=4) == 2

    def test_single_gram_needs_one(self):
        g = path_graph(["A", "B"])
        profile = extract_qgrams(g, 1)
        assert min_edit_exact(profile.grams, cap=2) == 1

    def test_cap_saturation(self):
        g = path_graph(["A", "B", "C", "D", "E", "F"])
        profile = extract_qgrams(g, 1)  # 5 disjoint-ish grams need 3 hits
        exact = min_edit_exact(profile.grams, cap=10)
        assert min_edit_exact(profile.grams, cap=exact - 1) == exact  # == cap+1


class TestMinEditLowerBound:
    def test_empty(self):
        assert min_edit_lower_bound([]) == 0

    @settings(max_examples=30, deadline=None)
    @given(small_graphs(max_vertices=6))
    def test_lower_bound_sound(self, g):
        profile = extract_qgrams(g, 2)
        if not profile.grams:
            return
        exact = min_edit_exact(profile.grams, cap=10)
        bound = min_edit_lower_bound(profile.grams)
        assert 1 <= bound <= exact

    @settings(max_examples=30, deadline=None)
    @given(small_graphs(max_vertices=5))
    def test_monotonicity(self, g):
        """Proposition 1: min-edit is monotone under multiset inclusion."""
        profile = extract_qgrams(g, 1)
        grams = profile.grams
        if len(grams) < 2:
            return
        for cut in range(1, len(grams)):
            a = min_edit_exact(grams[:cut], cap=10)
            b = min_edit_exact(grams[: cut + 1], cap=10)
            assert a <= b


class TestMinPrefixLength:
    def _sorted_profile(self, g, q):
        profile = extract_qgrams(g, q)
        build_vocabulary([profile]).sort_profile(profile)
        return profile

    def test_example7_prefix_length(self):
        """Example 7: s's five 1-grams in the listed order (C-N, C-O,
        C-C x3) give a minimum prefix length of 2 at tau = 1."""
        _, s = figure1_graphs()
        profile = extract_qgrams(s, 1)
        listed = sorted(
            profile.grams,
            key=lambda gr: {"N": 0, "O": 1, "C": 2}[gr.key[-1]],
        )
        assert [g.key[-1] for g in listed[:2]] == ["N", "O"]
        length = min_prefix_length(listed, tau=1, d_path=profile.d_path)
        assert length == 2

    def test_prefix_never_exceeds_basic(self):
        _, s = figure1_graphs()
        profile = self._sorted_profile(s, 1)
        length = min_prefix_length(profile.grams, tau=1, d_path=profile.d_path)
        assert length is not None
        assert length <= 1 * profile.d_path + 1

    def test_underflow_returns_none(self):
        # A 2-vertex path: every 1-gram contains both vertices, so one
        # relabel kills the whole multiset -> no valid prefix at tau=1.
        g = path_graph(["A", "B"])
        profile = self._sorted_profile(g, 1)
        assert min_prefix_length(profile.grams, tau=1, d_path=profile.d_path) is None

    def test_empty_multiset_returns_none(self):
        assert min_prefix_length([], tau=1, d_path=0) is None

    def test_negative_tau_rejected(self):
        with pytest.raises(ParameterError):
            min_prefix_length([], tau=-1, d_path=1)

    @settings(max_examples=30, deadline=None)
    @given(small_graphs(max_vertices=6), st.integers(min_value=0, max_value=2))
    def test_returned_prefix_requires_tau_plus_one_edits(self, g, tau):
        """Soundness of Lemma 3's precondition: the returned prefix cannot
        be fully affected by tau operations."""
        profile = self._sorted_profile(g, 2)
        length = min_prefix_length(profile.grams, tau=tau, d_path=profile.d_path)
        if length is None:
            # Underflow: the entire admissible prefix is killable.
            limit = min(tau * profile.d_path + 1, profile.size)
            assert min_edit_exact(profile.grams[:limit], cap=tau) <= tau
        else:
            assert min_edit_exact(profile.grams[:length], cap=tau) > tau
            # Minimality: one gram shorter must be killable.
            if length > tau + 1:
                assert min_edit_exact(profile.grams[: length - 1], cap=tau) <= tau
