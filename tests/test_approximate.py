"""Tests for the bipartite GED upper bound (the DFS verifier's incumbent)."""

from hypothesis import given, settings

from repro.datasets import figure1_graphs
from repro.ged import bipartite_upper_bound, brute_force_ged
from repro.graph.graph import Graph

from .conftest import graph_pairs_within, path_graph


class TestBipartiteUpperBound:
    def test_identical_graphs(self):
        g = path_graph(["A", "B", "C"])
        assert bipartite_upper_bound(g, g.copy()) == 0

    def test_empty_graphs(self):
        assert bipartite_upper_bound(Graph(), Graph()) == 0

    def test_one_side_empty(self):
        g = path_graph(["A", "B"])
        assert bipartite_upper_bound(Graph(), g) == 3  # 2 inserts + edge
        assert bipartite_upper_bound(g, Graph()) == 3

    @settings(max_examples=30, deadline=None)
    @given(graph_pairs_within(tau_max=2, max_vertices=4))
    def test_upper_bounds_exact(self, pair):
        r, s, _ = pair
        assert bipartite_upper_bound(r, s) >= brute_force_ged(r, s)

    def test_close_on_near_duplicates(self):
        r, s = figure1_graphs()
        assert 3 <= bipartite_upper_bound(r, s) <= 8
