"""Tests for basic and minimum-edit prefix schemes (Lemmas 2-3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import basic_prefix, build_vocabulary, extract_qgrams, minedit_prefix
from repro.datasets import figure1_graphs
from repro.exceptions import ParameterError

from .conftest import path_graph, small_graphs


def sorted_profile(g, q):
    profile = extract_qgrams(g, q)
    build_vocabulary([profile]).sort_profile(profile)
    return profile


class TestBasicPrefix:
    def test_figure1_prefix(self):
        r, _ = figure1_graphs()
        profile = sorted_profile(r, 1)
        info = basic_prefix(profile, tau=1)
        # tau * D_path + 1 = 4 == |Q_r| -> still prunable (needs exactly all)
        assert info.length == 4
        assert info.prunable

    def test_underflow_not_prunable(self):
        g = path_graph(["A", "B"])  # one 1-gram, D_path = 1
        profile = sorted_profile(g, 1)
        info = basic_prefix(profile, tau=1)  # tau*D+1 = 2 > |Q| = 1
        assert not info.prunable
        assert info.length == 1

    def test_gramless_graph_not_prunable(self):
        g = path_graph(["A"])  # no 1-grams at all
        profile = sorted_profile(g, 1)
        info = basic_prefix(profile, tau=1)
        assert not info.prunable
        assert info.length == 0

    def test_tau_zero(self):
        g = path_graph(["A", "B", "C"])
        profile = sorted_profile(g, 1)
        info = basic_prefix(profile, tau=0)
        assert info.length == 1 and info.prunable

    def test_negative_tau_rejected(self):
        profile = sorted_profile(path_graph(["A", "B"]), 1)
        with pytest.raises(ParameterError):
            basic_prefix(profile, tau=-1)


class TestMineditPrefix:
    def test_never_longer_than_basic(self):
        _, s = figure1_graphs()
        profile = sorted_profile(s, 1)
        for tau in (1, 2):
            me = minedit_prefix(profile, tau)
            ba = basic_prefix(profile, tau)
            if me.prunable and ba.prunable:
                assert me.length <= ba.length

    def test_underflow_matches_basic_semantics(self):
        g = path_graph(["A", "B"])
        profile = sorted_profile(g, 1)
        info = minedit_prefix(profile, tau=1)
        assert not info.prunable
        assert info.length == profile.size

    @settings(max_examples=30, deadline=None)
    @given(small_graphs(max_vertices=6), st.integers(min_value=0, max_value=2))
    def test_minedit_prefix_at_most_basic(self, g, tau):
        profile = sorted_profile(g, 2)
        me = minedit_prefix(profile, tau)
        ba = basic_prefix(profile, tau)
        if me.prunable and ba.prunable:
            assert tau + 1 <= me.length <= ba.length
        assert me.length <= profile.size
