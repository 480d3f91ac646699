"""Tests for the GSimIndex similarity-selection index."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GSimIndex, GSimJoinOptions, JoinStatistics
from repro.datasets import aids_like
from repro.exceptions import ParameterError
from repro.ged import ged_within, graph_edit_distance

from .conftest import path_graph
from .test_join import molecule_collection
from .test_soundness import random_collection


def naive_selection(graphs, query, tau):
    return {
        g.graph_id
        for g in graphs
        if g.graph_id != query.graph_id and ged_within(query, g, tau)
    }


class TestConstruction:
    def test_empty_index(self):
        index = GSimIndex(tau_max=2)
        assert len(index) == 0
        assert index.query(path_graph(["A", "B"], graph_id="q"), tau=1) == []

    def test_negative_tau_max_rejected(self):
        with pytest.raises(ParameterError):
            GSimIndex(tau_max=-1)

    def test_graphs_need_ids(self):
        with pytest.raises(ParameterError, match="need an id"):
            GSimIndex([path_graph(["A"])], tau_max=1)

    def test_duplicate_ids_rejected(self):
        index = GSimIndex(tau_max=1)
        index.add(path_graph(["A"], graph_id=0))
        with pytest.raises(ParameterError, match="duplicate"):
            index.add(path_graph(["B"], graph_id=0))


class TestQueries:
    def test_query_validation(self):
        index = GSimIndex(molecule_collection(6, seed=1), tau_max=2)
        q = index.graphs[0]
        with pytest.raises(ParameterError, match="exceeds"):
            index.query(q, tau=3)
        with pytest.raises(ParameterError):
            index.query(q, tau=-1)

    def test_self_excluded_by_id(self):
        graphs = molecule_collection(8, seed=2)
        index = GSimIndex(graphs, tau_max=2)
        matches = index.query(graphs[0], tau=2)
        assert graphs[0].graph_id not in {gid for gid, _ in matches}

    def test_matches_report_exact_distance(self):
        graphs = molecule_collection(12, seed=3)
        index = GSimIndex(graphs, tau_max=3)
        for gid, dist in index.query(graphs[0], tau=3):
            other = next(g for g in graphs if g.graph_id == gid)
            assert dist == graph_edit_distance(graphs[0], other)
            assert dist <= 3

    def test_sorted_by_distance(self):
        graphs = molecule_collection(16, seed=4)
        index = GSimIndex(graphs, tau_max=3)
        for query in graphs[:4]:
            dists = [d for _, d in index.query(query, tau=3)]
            assert dists == sorted(dists)

    @pytest.mark.parametrize("tau", [0, 1, 2])
    def test_equals_naive_selection(self, tau):
        graphs = molecule_collection(14, seed=5)
        index = GSimIndex(graphs, tau_max=2)
        for query in graphs[:5]:
            got = {gid for gid, _ in index.query(query, tau=tau)}
            assert got == naive_selection(graphs, query, tau)

    def test_external_query_graph(self):
        graphs = molecule_collection(10, seed=6)
        index = GSimIndex(graphs, tau_max=2)
        external = graphs[0].copy(graph_id="external")
        got = {gid for gid, _ in index.query(external, tau=0)}
        assert graphs[0].graph_id in got


class TestIncremental:
    def test_add_after_queries(self):
        graphs = molecule_collection(10, seed=7)
        index = GSimIndex(graphs[:5], tau_max=2)
        for g in graphs[5:]:
            index.add(g)
        for query in graphs[:3]:
            got = {gid for gid, _ in index.query(query, tau=2)}
            assert got == naive_selection(graphs, query, tau=2)

    def test_unseen_qgram_keys_stay_sound(self):
        """Graphs added later may contain q-grams absent from the frozen
        ordering; selection must remain exact."""
        base = molecule_collection(6, seed=8)
        index = GSimIndex(base, tau_max=2)
        exotic = path_graph(["Zr", "Zr", "Zr", "Zr", "Zr"], graph_id="exotic")
        twin = path_graph(["Zr", "Zr", "Zr", "Zr", "Xx"], graph_id="twin")
        index.add(exotic)
        index.add(twin)
        got = {gid for gid, _ in index.query(exotic, tau=1)}
        assert "twin" in got

    def test_queries_leave_the_vocabulary_unchanged(self):
        """A query's unseen q-gram keys are not interned: the vocabulary
        keeps its size, and a long-lived index answers and counts
        exactly like a freshly built one; an insert still interns."""
        indexed = aids_like(60, seed=1)
        queries = aids_like(40, seed=99)
        for k, g in enumerate(queries):
            g.graph_id = f"query-{k}"
        index = GSimIndex(indexed, tau_max=2)
        size = len(index._sorter)
        stats, fresh_stats = JoinStatistics(), JoinStatistics()
        for g in queries:
            fresh = GSimIndex(indexed, tau_max=2)
            assert index.query(g, 2, stats=stats) == fresh.query(
                g, 2, stats=fresh_stats
            )
        assert len(index._sorter) == size
        for field in dataclasses.fields(stats):
            value = getattr(fresh_stats, field.name)
            if isinstance(value, int):
                assert getattr(stats, field.name) == value, field.name
        index.add(queries[0])
        assert len(index._sorter) > size


class TestPropertyEquivalence:
    @settings(max_examples=8, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=0, max_value=2),
    )
    def test_random_collections(self, seed, tau):
        graphs = random_collection(seed, size=8)
        index = GSimIndex(graphs, tau_max=2, options=GSimJoinOptions.full(q=2))
        for query in graphs[:3]:
            got = {gid for gid, _ in index.query(query, tau=tau)}
            assert got == naive_selection(graphs, query, tau)


class TestTopK:
    def test_k_validation(self):
        index = GSimIndex(molecule_collection(6, seed=10), tau_max=2)
        with pytest.raises(ParameterError):
            index.query_top_k(index.graphs[0], k=0)

    def test_returns_k_nearest(self):
        graphs = molecule_collection(16, seed=11)
        index = GSimIndex(graphs, tau_max=3)
        query = graphs[0]
        got = index.query_top_k(query, k=2)
        assert len(got) <= 2
        # Compare against a brute-force ranking within tau_max.
        all_matches = sorted(
            (
                (graph_edit_distance(query, g, threshold=3), repr(g.graph_id))
                for g in graphs
                if g.graph_id != query.graph_id
            ),
        )
        within = [m for m in all_matches if m[0] <= 3]
        expected_dists = [d for d, _ in within[:2]]
        assert [d for _, d in got] == expected_dists

    def test_fewer_than_k_within_tau_max(self):
        graphs = molecule_collection(8, seed=12)
        index = GSimIndex(graphs, tau_max=0)
        got = index.query_top_k(graphs[0], k=5)
        assert all(d == 0 for _, d in got)

    def test_distances_sorted(self):
        graphs = molecule_collection(14, seed=13)
        index = GSimIndex(graphs, tau_max=3)
        got = index.query_top_k(graphs[0], k=4)
        dists = [d for _, d in got]
        assert dists == sorted(dists)
