"""Tests for directed graph support — the paper's footnote-1 extension.

Everything in the core pipeline (paths, q-grams, filters, A*, joins)
honours ``Graph(directed=True)``; the κ-AT/AppFull baselines are
undirected-only like their original publications and must refuse.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    GSimIndex,
    GSimJoinOptions,
    assign_ids,
    gsim_join,
    gsim_join_rs,
    naive_join,
)
from repro.baselines import appfull_join, kat_join
from repro.core import extract_qgrams
from repro.datasets import aids_like
from repro.exceptions import GraphError, ParameterError
from repro.ged import (
    beam_search_ged,
    brute_force_ged,
    graph_edit_distance,
    induced_edit_cost,
)
from repro.graph import are_isomorphic, loads_graphs, dumps_graphs, perturb
from repro.graph.generators import random_labeled_graph
from repro.graph.graph import Graph
from repro.graph.gxl import dumps_gxl, loads_gxl
from repro.graph.paths import count_simple_paths

VERTEX_LABELS = ["A", "B", "C"]
EDGE_LABELS = ["x", "y"]


def digraph(vertex_labels, edges, graph_id=None) -> Graph:
    g = Graph(graph_id, directed=True)
    for v, label in enumerate(vertex_labels):
        g.add_vertex(v, label)
    for u, v, label in edges:
        g.add_edge(u, v, label)
    return g


def directed_copy(g: Graph, graph_id=None) -> Graph:
    """``g`` with directed semantics, one arc per undirected edge."""
    d = Graph(g.graph_id if graph_id is None else graph_id, directed=True)
    for v in g.vertices():
        d.add_vertex(v, g.vertex_label(v))
    for u, v, label in g.edges():
        d.add_edge(u, v, label)
    return d


@st.composite
def small_digraphs(draw, max_vertices=4):
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=n * (n - 1)))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = random.Random(seed)
    return random_labeled_graph(
        rng, n, m, VERTEX_LABELS, EDGE_LABELS, directed=True
    )


@st.composite
def digraph_pairs_within(draw, tau_max=2, max_vertices=4):
    g = draw(small_digraphs(max_vertices=max_vertices))
    k = draw(st.integers(min_value=0, max_value=tau_max))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = random.Random(seed)
    return g, perturb(g, k, rng, VERTEX_LABELS, EDGE_LABELS), k


class TestDirectedGraphType:
    def test_directional_edges(self):
        g = digraph(["A", "B"], [(0, 1, "x")])
        assert g.is_directed
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)
        assert g.out_degree(0) == 1 and g.in_degree(0) == 0
        assert g.degree(1) == 1

    def test_antiparallel_edges_allowed(self):
        g = digraph(["A", "B"], [(0, 1, "x"), (1, 0, "y")])
        assert g.num_edges == 2
        assert g.edge_label(0, 1) == "x"
        assert g.edge_label(1, 0) == "y"

    def test_parallel_edge_rejected(self):
        g = digraph(["A", "B"], [(0, 1, "x")])
        with pytest.raises(GraphError, match="already exists"):
            g.add_edge(0, 1, "y")

    def test_remove_vertex_cleans_both_directions(self):
        g = digraph(["A", "B", "C"], [(0, 1, "x"), (2, 0, "y")])
        g.remove_vertex(0)
        assert g.num_edges == 0
        assert g.num_vertices == 2

    def test_remove_and_relabel_edge(self):
        g = digraph(["A", "B"], [(0, 1, "x")])
        g.set_edge_label(0, 1, "y")
        assert g.edge_label(0, 1) == "y"
        assert list(g.in_neighbor_items(1)) == [(0, "y")]
        g.remove_edge(0, 1)
        assert g.num_edges == 0
        assert list(g.in_neighbors(1)) == []

    def test_neighbors_views(self):
        g = digraph(["A", "B", "C"], [(0, 1, "x"), (2, 0, "y")])
        assert sorted(g.neighbors(0)) == [1]
        assert sorted(g.in_neighbors(0)) == [2]
        assert sorted(g.all_neighbors(0)) == [1, 2]

    def test_weak_connectivity(self):
        g = digraph(["A", "B", "C"], [(0, 1, "x")])
        comps = sorted(g.connected_components(), key=len)
        assert comps == [{2}, {0, 1}]

    def test_copy_and_subgraph_preserve_directedness(self):
        g = digraph(["A", "B", "C"], [(0, 1, "x"), (1, 2, "y")])
        assert g.copy().is_directed
        sub = g.subgraph([0, 1])
        assert sub.is_directed and sub.has_edge(0, 1) and not sub.has_edge(1, 0)

    def test_not_equal_to_undirected_twin(self):
        d = digraph(["A"], [])
        u = Graph()
        u.add_vertex(0, "A")
        assert d != u

    def test_repr_shows_digraph(self):
        assert "DiGraph" in repr(digraph(["A"], []))


class TestDirectedPathsAndQGrams:
    def test_paths_follow_direction(self):
        g = digraph(["A", "B", "C"], [(0, 1, "x"), (1, 2, "x")])
        assert count_simple_paths(g, 1) == 2
        assert count_simple_paths(g, 2) == 1  # only 0 -> 1 -> 2

    def test_opposite_chain_has_no_long_path(self):
        g = digraph(["A", "B", "C"], [(1, 0, "x"), (1, 2, "x")])
        assert count_simple_paths(g, 2) == 0  # 1 is a source both ways

    def test_directed_keys_keep_orientation(self):
        forward = digraph(["A", "B"], [(0, 1, "x")])
        backward = digraph(["A", "B"], [(1, 0, "x")])
        kf = list(extract_qgrams(forward, 1).key_counts)[0]
        kb = list(extract_qgrams(backward, 1).key_counts)[0]
        assert kf == ("A", "x", "B")
        assert kb == ("B", "x", "A")
        assert kf != kb

    def test_cycle_paths(self):
        g = digraph(["A", "B", "C"], [(0, 1, "x"), (1, 2, "x"), (2, 0, "x")])
        assert count_simple_paths(g, 1) == 3
        assert count_simple_paths(g, 2) == 3


class TestDirectedIsomorphism:
    def test_orientation_matters(self):
        a = digraph(["A", "B"], [(0, 1, "x")])
        b = digraph(["A", "B"], [(1, 0, "x")])
        assert not are_isomorphic(a, b)

    def test_relabeled_copy_isomorphic(self):
        g = digraph(["A", "B", "C"], [(0, 1, "x"), (2, 1, "y")])
        h = g.relabel_vertices({0: 10, 1: 11, 2: 12})
        assert are_isomorphic(g, h)

    def test_directed_vs_undirected_never_isomorphic(self):
        d = digraph(["A"], [])
        u = Graph()
        u.add_vertex(0, "A")
        assert not are_isomorphic(d, u)


class TestDirectedGed:
    def test_edge_reversal_costs_two(self):
        a = digraph(["A", "B"], [(0, 1, "x")])
        b = digraph(["A", "B"], [(1, 0, "x")])
        # Mapping A->A, B->B: delete 0->1, insert 1->0.
        assert graph_edit_distance(a, b) == 2

    def test_antiparallel_pair(self):
        a = digraph(["A", "A"], [(0, 1, "x")])
        b = digraph(["A", "A"], [(0, 1, "x"), (1, 0, "x")])
        assert graph_edit_distance(a, b) == 1

    def test_mixed_directedness_rejected(self):
        d = digraph(["A"], [])
        u = Graph()
        u.add_vertex(0, "A")
        with pytest.raises(ParameterError, match="directed"):
            graph_edit_distance(d, u)
        with pytest.raises(ParameterError, match="directed"):
            induced_edit_cost(d, u, {0: 0})

    @settings(max_examples=40, deadline=None)
    @given(digraph_pairs_within(tau_max=2, max_vertices=4))
    def test_astar_matches_brute_force(self, pair):
        r, s, _ = pair
        assert graph_edit_distance(r, s) == brute_force_ged(r, s)

    @settings(max_examples=20, deadline=None)
    @given(digraph_pairs_within(tau_max=2, max_vertices=4))
    def test_symmetry(self, pair):
        r, s, _ = pair
        assert graph_edit_distance(r, s) == graph_edit_distance(s, r)

    @settings(max_examples=20, deadline=None)
    @given(digraph_pairs_within(tau_max=2, max_vertices=4))
    def test_beam_search_upper_bounds(self, pair):
        r, s, _ = pair
        assert beam_search_ged(r, s, beam_width=4) >= brute_force_ged(r, s)


class TestDirectedJoins:
    def random_digraph_collection(self, seed, size=8):
        rng = random.Random(seed)
        graphs = []
        while len(graphs) < size:
            n = rng.randint(1, 5)
            m = rng.randint(0, n * (n - 1))
            g = random_labeled_graph(
                rng, n, m, VERTEX_LABELS, EDGE_LABELS, directed=True
            )
            graphs.append(g)
            if rng.random() < 0.5 and len(graphs) < size:
                graphs.append(
                    perturb(g, rng.randint(1, 2), rng, VERTEX_LABELS, EDGE_LABELS)
                )
        return assign_ids(graphs)

    @pytest.mark.parametrize("tau", [0, 1, 2])
    def test_gsimjoin_matches_naive_on_digraphs(self, tau):
        graphs = self.random_digraph_collection(seed=tau + 7)
        expected = naive_join(graphs, tau, use_size_filter=False).pair_set()
        for options in (
            GSimJoinOptions.basic(q=2),
            GSimJoinOptions.full(q=2),
            GSimJoinOptions.extended(q=2),
        ):
            got = gsim_join(graphs, tau, options=options).pair_set()
            assert got == expected

    @settings(max_examples=8, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=1, max_value=2),
    )
    def test_property_equivalence(self, seed, tau, q):
        graphs = self.random_digraph_collection(seed=seed)
        expected = naive_join(graphs, tau, use_size_filter=False).pair_set()
        got = gsim_join(graphs, tau, options=GSimJoinOptions.full(q=q)).pair_set()
        assert got == expected

    def test_mixed_collections_rejected(self):
        d = digraph(["A"], [], graph_id=0)
        u = Graph(1)
        u.add_vertex(0, "A")
        with pytest.raises(ParameterError, match="mix"):
            gsim_join([d, u], tau=1)
        # R×S sides are validated together (ids may repeat across R and
        # S), and an index checks every insert and query graph.
        outer = aids_like(20, seed=1)[:10]
        inner = [directed_copy(g) for g in outer]
        gs = aids_like(30, seed=1)
        d3 = directed_copy(gs[3], graph_id="d3")
        cases = [
            lambda: gsim_join_rs(outer, inner, 2),
            lambda: GSimIndex(gs + [d3]),
            lambda: GSimIndex(gs).add(d3),
            lambda: GSimIndex(gs).query(d3, 2),
        ]
        for case in cases:
            with pytest.raises(
                ParameterError,
                match="cannot mix directed and undirected graphs",
            ):
                case()

    def test_baselines_reject_directed(self):
        graphs = self.random_digraph_collection(seed=3, size=4)
        with pytest.raises(ParameterError, match="undirected"):
            kat_join(graphs, tau=1)
        with pytest.raises(ParameterError, match="undirected"):
            appfull_join(graphs, tau=1)

    def test_search_index_on_digraphs(self):
        graphs = self.random_digraph_collection(seed=5, size=10)
        index = GSimIndex(graphs, tau_max=2, options=GSimJoinOptions.full(q=2))
        from repro.ged import ged_within

        for query in graphs[:3]:
            got = {gid for gid, _ in index.query(query, tau=2)}
            expected = {
                g.graph_id
                for g in graphs
                if g.graph_id != query.graph_id and ged_within(query, g, 2)
            }
            assert got == expected


class TestDirectedSerialization:
    def test_text_round_trip(self):
        g = digraph(["A", "B"], [(1, 0, "x")], graph_id=0)
        back = loads_graphs(dumps_graphs([g]))[0]
        assert back.is_directed
        assert back.num_edges == 1
        # Orientation preserved: exactly one directed edge.
        (u, v, _), = list(back.edges())
        assert back.has_edge(u, v) and not back.has_edge(v, u)

    def test_gxl_round_trip(self):
        g = digraph(["A", "B"], [(0, 1, "x")], graph_id="d1")
        back = loads_gxl(dumps_gxl([g]))[0]
        assert back.is_directed
        assert back.num_edges == 1

    def test_gxl_edgemode_parsing(self):
        text = (
            "<gxl><graph id='g' edgemode='directed'>"
            "<node id='a'/><node id='b'/>"
            "<edge from='a' to='b'/></graph></gxl>"
        )
        g = loads_gxl(text)[0]
        assert g.is_directed
        assert g.has_edge("a", "b") and not g.has_edge("b", "a")
