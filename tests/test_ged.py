"""Tests for the A*-based graph edit distance computation."""

import pytest
from hypothesis import given, settings

from repro.core import compare_qgrams
from repro.datasets import figure1_graphs
from repro.exceptions import ParameterError
from repro.ged import (
    brute_force_ged,
    ged_within,
    graph_edit_distance,
    graph_edit_distance_detailed,
    induced_edit_cost,
    input_vertex_order,
    label_heuristic,
    make_local_label_heuristic,
    mismatch_vertex_order,
    spanning_tree_vertex_order,
    zero_heuristic,
)
from repro.graph import are_isomorphic
from repro.graph.graph import Graph

from .conftest import (
    build_graph,
    graph_pairs_within,
    path_graph,
    small_graphs,
    sorted_profiles,
)


class TestKnownDistances:
    def test_figure1_distance_is_three(self):
        r, s = figure1_graphs()
        assert graph_edit_distance(r, s) == 3  # Example 1

    def test_identical_graphs(self):
        g = path_graph(["A", "B", "C"])
        assert graph_edit_distance(g, g.copy()) == 0

    def test_single_relabel(self):
        assert graph_edit_distance(path_graph(["A", "B"]), path_graph(["A", "C"])) == 1

    def test_edge_relabel(self):
        g = path_graph(["A", "B"], edge_label="x")
        h = path_graph(["A", "B"], edge_label="y")
        assert graph_edit_distance(g, h) == 1

    def test_vertex_plus_edge_insertion(self):
        g = path_graph(["A", "B"])
        h = path_graph(["A", "B", "C"])
        assert graph_edit_distance(g, h) == 2

    def test_empty_to_graph(self):
        g = Graph()
        h = path_graph(["A", "B"])
        assert graph_edit_distance(g, h) == 3  # two inserts + one edge

    def test_empty_to_empty(self):
        assert graph_edit_distance(Graph(), Graph()) == 0

    def test_deleting_connected_vertex_costs_degree_plus_one(self):
        g = build_graph(["A", "B", "C"], [(0, 1, "x"), (0, 2, "x")])
        h = path_graph(["B"])  # wait: lone B vertex
        h = build_graph(["B"], [])
        # Delete A (2 edges + vertex), delete C: 4 ops total.
        assert graph_edit_distance(g, h) == 4


class TestThreshold:
    def test_within_threshold_returns_exact(self):
        r, s = figure1_graphs()
        assert graph_edit_distance(r, s, threshold=3) == 3
        assert graph_edit_distance(r, s, threshold=5) == 3

    def test_exceeding_threshold_returns_tau_plus_one(self):
        r, s = figure1_graphs()
        assert graph_edit_distance(r, s, threshold=2) == 3  # tau + 1
        assert graph_edit_distance(r, s, threshold=0) == 1

    def test_ged_within(self):
        r, s = figure1_graphs()
        assert ged_within(r, s, 3)
        assert not ged_within(r, s, 2)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ParameterError):
            graph_edit_distance(Graph(), Graph(), threshold=-1)

    def test_invalid_vertex_order_rejected(self):
        g = path_graph(["A", "B"])
        with pytest.raises(ParameterError, match="permutation"):
            graph_edit_distance(g, g, vertex_order=[0])


class TestAgainstBruteForce:
    @settings(max_examples=40, deadline=None)
    @given(graph_pairs_within(tau_max=3, max_vertices=4))
    def test_astar_matches_brute_force(self, pair):
        r, s, _ = pair
        assert graph_edit_distance(r, s) == brute_force_ged(r, s)

    @settings(max_examples=25, deadline=None)
    @given(graph_pairs_within(tau_max=2, max_vertices=4))
    def test_all_heuristics_agree(self, pair):
        r, s, _ = pair
        expected = brute_force_ged(r, s)
        for heuristic in (
            zero_heuristic,
            label_heuristic,
            make_local_label_heuristic(1, 4),
            make_local_label_heuristic(2, 4, max_remaining=None),
        ):
            assert graph_edit_distance(r, s, heuristic=heuristic) == expected

    @settings(max_examples=25, deadline=None)
    @given(graph_pairs_within(tau_max=2, max_vertices=4))
    def test_all_vertex_orders_agree(self, pair):
        r, s, _ = pair
        expected = brute_force_ged(r, s)
        mismatch = compare_qgrams(*sorted_profiles([r, s], 1))
        for order in (
            input_vertex_order(r),
            spanning_tree_vertex_order(r),
            mismatch_vertex_order(r, mismatch.mismatch_r),
        ):
            assert graph_edit_distance(r, s, vertex_order=order) == expected


class TestMetricProperties:
    @settings(max_examples=30, deadline=None)
    @given(graph_pairs_within(tau_max=2, max_vertices=4))
    def test_symmetry(self, pair):
        r, s, _ = pair
        assert graph_edit_distance(r, s) == graph_edit_distance(s, r)

    @settings(max_examples=30, deadline=None)
    @given(small_graphs(max_vertices=4))
    def test_identity_iff_isomorphic(self, g):
        h = g.relabel_vertices({v: v + 50 for v in g.vertices()})
        assert graph_edit_distance(g, h) == 0
        assert are_isomorphic(g, h)

    @settings(max_examples=20, deadline=None)
    @given(
        graph_pairs_within(tau_max=2, max_vertices=3),
        small_graphs(max_vertices=3),
    )
    def test_triangle_inequality(self, pair, t):
        r, s, _ = pair
        assert graph_edit_distance(r, s) <= (
            graph_edit_distance(r, t) + graph_edit_distance(t, s)
        )


class TestInducedCost:
    def test_total_mapping_required(self):
        g = path_graph(["A", "B"])
        with pytest.raises(ParameterError, match="total"):
            induced_edit_cost(g, g, {0: 0})

    def test_injectivity_required(self):
        g = path_graph(["A", "B"])
        with pytest.raises(ParameterError, match="injective"):
            induced_edit_cost(g, g, {0: 0, 1: 0})

    def test_unknown_target_rejected(self):
        g = path_graph(["A", "B"])
        with pytest.raises(ParameterError, match="not a vertex"):
            induced_edit_cost(g, g, {0: 0, 1: 99})

    def test_identity_mapping_zero_cost(self):
        g = path_graph(["A", "B", "C"])
        assert induced_edit_cost(g, g.copy(), {0: 0, 1: 1, 2: 2}) == 0

    def test_all_deleted(self):
        g = path_graph(["A", "B"])
        # Delete vertexes (2) + edge (1) + insert s entirely (3) = 6.
        assert induced_edit_cost(g, g.copy(), {0: None, 1: None}) == 6

    @settings(max_examples=25, deadline=None)
    @given(graph_pairs_within(tau_max=2, max_vertices=4))
    def test_any_mapping_upper_bounds_ged(self, pair):
        r, s, _ = pair
        identityish = {}
        targets = list(s.vertices())
        for i, u in enumerate(r.vertices()):
            identityish[u] = targets[i] if i < len(targets) else None
        assert induced_edit_cost(r, s, identityish) >= graph_edit_distance(r, s)


class TestSearchStatistics:
    def test_detailed_result_fields(self):
        r, s = figure1_graphs()
        result = graph_edit_distance_detailed(r, s, threshold=3)
        assert result.distance == 3
        assert not result.exceeded_threshold
        assert result.expanded > 0
        assert result.generated >= result.expanded

    def test_exceeded_flag(self):
        r, s = figure1_graphs()
        result = graph_edit_distance_detailed(r, s, threshold=1)
        assert result.exceeded_threshold
        assert result.distance == 2

    def test_better_heuristic_expands_no_more_states(self):
        r, s = figure1_graphs()
        weak = graph_edit_distance_detailed(r, s, heuristic=zero_heuristic)
        strong = graph_edit_distance_detailed(r, s, heuristic=label_heuristic)
        assert strong.distance == weak.distance
        assert strong.expanded <= weak.expanded
