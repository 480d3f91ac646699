"""Unit tests for the Graph data structure."""

import pytest

from repro.exceptions import GraphError
from repro.graph import Graph

from .conftest import build_graph, cycle_graph, path_graph


class TestConstruction:
    def test_empty_graph(self):
        g = Graph("g0")
        assert g.graph_id == "g0"
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert len(g) == 0
        assert list(g.vertices()) == []
        assert list(g.edges()) == []

    def test_add_vertices_and_edges(self):
        g = build_graph(["C", "C", "O"], [(0, 1, "-"), (1, 2, "=")])
        assert g.num_vertices == 3
        assert g.num_edges == 2
        assert g.vertex_label(0) == "C"
        assert g.vertex_label(2) == "O"
        assert g.edge_label(0, 1) == "-"
        assert g.edge_label(1, 0) == "-"  # undirected
        assert g.edge_label(2, 1) == "="

    def test_duplicate_vertex_rejected(self):
        g = Graph()
        g.add_vertex(0, "C")
        with pytest.raises(GraphError, match="already exists"):
            g.add_vertex(0, "N")

    def test_self_loop_rejected(self):
        g = Graph()
        g.add_vertex(0, "C")
        with pytest.raises(GraphError, match="self-loop"):
            g.add_edge(0, 0, "-")

    def test_parallel_edge_rejected(self):
        g = build_graph(["C", "C"], [(0, 1, "-")])
        with pytest.raises(GraphError, match="already exists"):
            g.add_edge(1, 0, "=")

    def test_edge_requires_endpoints(self):
        g = Graph()
        g.add_vertex(0, "C")
        with pytest.raises(GraphError, match="does not exist"):
            g.add_edge(0, 1, "-")

    def test_missing_vertex_queries(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.vertex_label(3)
        with pytest.raises(GraphError):
            g.degree(3)
        g.add_vertex(0, "C")
        g.add_vertex(1, "C")
        with pytest.raises(GraphError):
            g.edge_label(0, 1)


class TestMutation:
    def test_remove_edge(self):
        g = build_graph(["A", "B"], [(0, 1, "x")])
        g.remove_edge(0, 1)
        assert g.num_edges == 0
        assert not g.has_edge(0, 1)
        with pytest.raises(GraphError):
            g.remove_edge(0, 1)

    def test_remove_vertex_removes_incident_edges(self):
        g = cycle_graph(["A", "B", "C"])
        g.remove_vertex(0)
        assert g.num_vertices == 2
        assert g.num_edges == 1
        assert g.has_edge(1, 2)

    def test_set_labels(self):
        g = build_graph(["A", "B"], [(0, 1, "x")])
        g.set_vertex_label(0, "Z")
        g.set_edge_label(1, 0, "y")
        assert g.vertex_label(0) == "Z"
        assert g.edge_label(0, 1) == "y"


class TestQueries:
    def test_degree_and_neighbors(self):
        g = build_graph(["A", "B", "C"], [(0, 1, "x"), (0, 2, "y")])
        assert g.degree(0) == 2
        assert g.degree(1) == 1
        assert sorted(g.neighbors(0)) == [1, 2]
        assert dict(g.neighbor_items(0)) == {1: "x", 2: "y"}
        assert g.max_degree() == 2

    def test_max_degree_empty(self):
        assert Graph().max_degree() == 0

    def test_label_multisets(self):
        g = build_graph(["C", "C", "O"], [(0, 1, "-"), (1, 2, "-")])
        assert g.vertex_label_multiset() == {"C": 2, "O": 1}
        assert g.edge_label_multiset() == {"-": 2}

    def test_edges_iterated_once(self):
        g = cycle_graph(["A", "B", "C", "D"])
        edges = list(g.edges())
        assert len(edges) == 4
        keys = {frozenset((u, v)) for u, v, _ in edges}
        assert len(keys) == 4

    def test_contains(self):
        g = build_graph(["A"], [])
        assert 0 in g
        assert 1 not in g


class TestDerivedGraphs:
    def test_copy_is_deep(self):
        g = build_graph(["A", "B"], [(0, 1, "x")])
        h = g.copy()
        h.set_vertex_label(0, "Z")
        h.remove_edge(0, 1)
        assert g.vertex_label(0) == "A"
        assert g.has_edge(0, 1)

    def test_copy_with_new_id(self):
        g = build_graph(["A"], [], graph_id="orig")
        assert g.copy().graph_id == "orig"
        assert g.copy(graph_id="new").graph_id == "new"

    def test_subgraph_induced(self):
        g = cycle_graph(["A", "B", "C", "D"])
        sub = g.subgraph([0, 1, 2])
        assert sub.num_vertices == 3
        assert sub.num_edges == 2  # edges 0-1, 1-2; the 3-0 and 2-3 edges drop
        assert sub.has_edge(0, 1) and sub.has_edge(1, 2)
        # Vertices and edges keep the parent's insertion order, not the
        # order (or, for strings, the hash order) of the requested set.
        for ids in ([5, 1, 3, 8], ["v5", "v1", "v3", "v8"]):
            g = Graph()
            for v, label in zip(ids, "ABCD"):
                g.add_vertex(v, label)
            g.add_edge(ids[3], ids[0], "x")
            g.add_edge(ids[2], ids[1], "y")
            g.add_edge(ids[0], ids[2], "z")
            keep = ids[:3]
            for request in (keep, keep[::-1], frozenset(keep)):
                sub = g.subgraph(request)
                assert list(sub.vertices()) == keep
                assert [(u, v) for u, v, _ in sub.edges()] == [
                    (ids[0], ids[2]), (ids[1], ids[2])
                ]

    def test_relabel_vertices(self):
        g = build_graph(["A", "B"], [(0, 1, "x")])
        h = g.relabel_vertices({0: 10, 1: 11})
        assert sorted(h.vertices()) == [10, 11]
        assert h.has_edge(10, 11)
        assert h.vertex_label(10) == "A"

    def test_relabel_rejects_non_injective(self):
        g = build_graph(["A", "B"], [])
        with pytest.raises(GraphError, match="injective"):
            g.relabel_vertices({0: 5, 1: 5})


class TestTraversal:
    def test_connected_components(self):
        g = build_graph(["A"] * 5, [(0, 1, "x"), (2, 3, "x")])
        components = sorted(g.connected_components(), key=lambda c: min(c))
        assert components == [{0, 1}, {2, 3}, {4}]

    def test_spanning_tree_order_covers_all(self):
        g = build_graph(["A"] * 5, [(0, 1, "x"), (2, 3, "x")])
        order = g.spanning_tree_order()
        assert sorted(order) == [0, 1, 2, 3, 4]

    def test_spanning_tree_order_within(self):
        g = path_graph(["A", "B", "C", "D"])
        order = g.spanning_tree_order(within=[1, 2])
        assert sorted(order) == [1, 2]
        # BFS from 1 must reach 2 through the restriction.
        assert order == [1, 2]

    def test_spanning_tree_order_neighbors_adjacent_in_tree(self):
        g = path_graph(["A", "B", "C", "D"])
        order = g.spanning_tree_order()
        assert order == [0, 1, 2, 3]


class TestEquality:
    def test_structural_equality(self):
        g = build_graph(["A", "B"], [(0, 1, "x")])
        h = build_graph(["A", "B"], [(0, 1, "x")])
        assert g == h
        h.set_edge_label(0, 1, "y")
        assert g != h

    def test_not_equal_to_other_types(self):
        assert build_graph(["A"], []) != 42

    def test_repr(self):
        g = build_graph(["A", "B"], [(0, 1, "x")], graph_id=7)
        assert "7" in repr(g) and "|V|=2" in repr(g)
