"""Tests for path-based q-gram extraction, anchored to the paper's examples."""

import gc
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GSimJoinOptions, gsim_join
from repro.core import extract_qgrams
from repro.datasets import figure1_graphs
from repro.engine.prefix import basic_prefix, minedit_prefix
from repro.exceptions import ParameterError
from repro.grams.mismatch import compare_qgrams
from repro.grams.qgrams import LabelTable, qgram_key
from repro.grams.vocab import build_vocabulary
from repro.graph.graph import Graph
from repro.graph.paths import simple_paths

from .conftest import build_graph, cycle_graph, path_graph, profile_counts, small_graphs
from .recursive_walk import oracle_extract, oracle_profile
from .test_join import molecule_collection
from .test_vocab import assert_stat_parity

#: Vertex ids that are neither contiguous, sorted nor all integers.
MIXED_IDS = [11, 3, -4, 250, "u", "v7", ("t", 1), ("t", 2), 2.5]
#: Labels of mixed types: each inner list holds equal labels that print
#: differently (``1 == True == 1.0``, ``0 == False == 0.0 == -0.0``),
#: of which one graph spells each one way.
MIXED_LABELS = [["A"], ["B"], [1, True, 1.0], [0, False, 0.0, -0.0], [None], [("l", 1)]]


@st.composite
def mixed_graphs(draw, max_vertices=7):
    """Directed or undirected graphs over :data:`MIXED_IDS` and
    :data:`MIXED_LABELS`, each label spelled one way."""
    directed = draw(st.booleans())
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    ids = draw(st.permutations(MIXED_IDS))[:n]
    labels = [draw(st.sampled_from(spellings)) for spellings in MIXED_LABELS]
    g = Graph("mixed", directed=directed)
    for v in ids:
        g.add_vertex(v, draw(st.sampled_from(labels)))
    pairs = [
        (u, v)
        for i, u in enumerate(ids)
        for j, v in enumerate(ids)
        if i != j and (directed or i < j)
    ]
    if pairs:
        for u, v in draw(st.lists(st.sampled_from(pairs), unique=True)):
            g.add_edge(u, v, draw(st.sampled_from(labels)))
    return g


class TestPaperExamples:
    """Example 3 / Example 4 of the paper, verbatim."""

    def test_figure1_one_grams_of_r(self):
        r, _ = figure1_graphs()
        profile = extract_qgrams(r, 1)
        assert profile_counts(profile)[0] == {
            ("C", "-", "C"): 3,
            ("C", "=", "O"): 1,
        }
        assert profile.size == 4

    def test_figure1_one_grams_of_s(self):
        _, s = figure1_graphs()
        profile = extract_qgrams(s, 1)
        assert profile_counts(profile)[0] == {
            ("C", "-", "C"): 3,
            ("C", "-", "O"): 1,
            ("C", "-", "N"): 1,
        }
        assert profile.size == 5

    def test_figure1_d_path_q1(self):
        # Example 4: changing the label of C1 gives max |Q_u| = 3 for both.
        r, s = figure1_graphs()
        assert extract_qgrams(r, 1).d_path == 3
        assert extract_qgrams(s, 1).d_path == 3

    def test_figure1_q2_sizes_and_dpath(self):
        # Example 4 (q=2): lower bound max(5-5, 7-6) = 1 at tau=1.
        r, s = figure1_graphs()
        pr, ps = extract_qgrams(r, 2), extract_qgrams(s, 2)
        assert (pr.size, pr.d_path) == (5, 5)
        assert (ps.size, ps.d_path) == (7, 6)


class TestExtraction:
    def test_q0_grams_are_vertex_labels(self):
        g = path_graph(["A", "B", "A"])
        profile = extract_qgrams(g, 0)
        assert profile_counts(profile)[0] == {("A",): 2, ("B",): 1}
        assert profile.d_path == 1

    def test_mixed_spellings_refused_without_a_table(self):
        # A graph's own label table refuses labels that are equal but
        # print differently, as every join and index entry point does.
        g = path_graph([1, True, "A"])
        with pytest.raises(ParameterError, match="equal but print differently"):
            extract_qgrams(g, 1)

    def test_label_missing_from_the_table_refused(self):
        table = LabelTable.of([path_graph(["A", "B"])])
        with pytest.raises(ParameterError, match="not in the label table"):
            extract_qgrams(path_graph(["A", "C"]), 1, table)

    def test_negative_q_rejected(self):
        with pytest.raises(ParameterError):
            extract_qgrams(Graph(), -1)

    def test_empty_graph(self):
        profile = extract_qgrams(Graph(), 2)
        assert profile.size == 0
        assert profile.d_path == 0

    def test_graph_smaller_than_q_has_no_grams(self):
        g = path_graph(["A", "B"])
        profile = extract_qgrams(g, 3)
        assert profile.size == 0
        assert profile_counts(profile)[1] == {0: 0, 1: 0}

    def test_canonical_orientation(self):
        # Path A-x-B read from either end: key must be the lexicographically
        # smaller sequence regardless of construction order.
        g1 = path_graph(["A", "B"])
        g2 = path_graph(["B", "A"])
        k1 = list(profile_counts(extract_qgrams(g1, 1))[0])[0]
        k2 = list(profile_counts(extract_qgrams(g2, 1))[0])[0]
        assert k1 == k2 == ("A", "x", "B")

    def test_qgram_key_includes_edge_labels(self):
        g = build_graph(["A", "A"], [(0, 1, "x")])
        h = build_graph(["A", "A"], [(0, 1, "y")])
        assert list(profile_counts(extract_qgrams(g, 1))[0]) != list(
            profile_counts(extract_qgrams(h, 1))[0]
        )

    def test_vertex_counts_sum(self):
        g = cycle_graph(["A", "B", "C", "D"])
        profile = extract_qgrams(g, 2)
        # Each q-gram covers q+1 vertices.
        assert sum(profile_counts(profile)[1].values()) == profile.size * 3

    def test_gram_paths_are_real_paths(self):
        g = cycle_graph(["A", "B", "C", "D", "E"])
        profile = extract_qgrams(g, 3)
        for gram in profile.grams:
            assert len(gram.path) == 4
            for i in range(3):
                assert g.has_edge(gram.path[i], gram.path[i + 1])
            assert qgram_key(g, gram.path) == gram.key

    def test_edge_pairs(self):
        g = path_graph(["A", "B", "C"])
        profile = extract_qgrams(g, 2)
        gram = profile.grams[0]
        assert len(gram.edge_pairs()) == 2
        assert gram.vertex_set == frozenset({0, 1, 2})


class TestInvariance:
    @settings(max_examples=30, deadline=None)
    @given(small_graphs(max_vertices=6))
    def test_key_multiset_is_isomorphism_invariant(self, g):
        h = g.relabel_vertices({v: v + 100 for v in g.vertices()})
        for q in (1, 2):
            assert profile_counts(extract_qgrams(g, q))[0] == profile_counts(extract_qgrams(h, q))[0]

    @settings(max_examples=30, deadline=None)
    @given(small_graphs(max_vertices=6))
    def test_d_path_bounds_vertex_counts(self, g):
        profile = extract_qgrams(g, 2)
        assert all(c <= profile.d_path for c in profile_counts(profile)[1].values())

    def test_count_lower_bound_method(self):
        r, _ = figure1_graphs()
        profile = extract_qgrams(r, 1)
        assert profile.count_lower_bound(1) == 4 - 3


class TestLevelWiseWalk:
    """The level-wise walk against the recursive walk it replaced and an
    independent reference built from :func:`simple_paths`."""

    @settings(max_examples=300, deadline=None)
    @given(mixed_graphs(), st.integers(min_value=0, max_value=4))
    def test_matches_recursive_oracle(self, g, q):
        profile = extract_qgrams(g, q)
        grams, vertex_counts, d_path = oracle_extract(g, q)
        # The exact (key, path) sequence, down to each label's repr.
        assert [(repr(gram.key), gram.path) for gram in profile.grams] == [
            (repr(gram.key), gram.path) for gram in grams
        ]
        assert list(profile_counts(profile)[1].items()) == list(vertex_counts.items())
        assert profile.d_path == d_path
        assert profile.size == len(grams)
        # The key multiset, its order and each key's representative.
        expected = Counter(gram.key for gram in grams)
        assert [(repr(k), c) for k, c in profile_counts(profile)[0].items()] == [
            (repr(k), c) for k, c in expected.items()
        ]

    @settings(max_examples=300, deadline=None)
    @given(mixed_graphs(), st.integers(min_value=0, max_value=4))
    def test_key_multiset_matches_path_reference(self, g, q):
        reference = Counter(qgram_key(g, path) for path in simple_paths(g, q))
        assert profile_counts(extract_qgrams(g, q))[0] == reference

    def test_walks_are_dense_ids_of_the_paths(self):
        g = Graph()
        for v, label in (("c", "C"), ("a", "A"), ("b", "B")):
            g.add_vertex(v, label)
        g.add_edge("c", "a", "x")
        g.add_edge("a", "b", "y")
        profile = extract_qgrams(g, 2)
        assert profile.vertices == ["c", "a", "b"]
        assert list(profile.walks) == [0, 1, 2]
        # Ranks: A=0, B=1, C=2 and x=0, y=1, one bit each (width 2).
        assert profile.codes == [0b01_01_00_00_10]
        assert [gram.key for gram in profile.grams] == [("B", "y", "A", "x", "C")]
        assert list(profile.gram_keys) == [0]
        assert profile.grams[0].path == ("c", "a", "b")

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_join_matches_recursive_walk_on_equal_labels(self, monkeypatch, q):
        # Labels that are equal but print differently are refused at
        # join entry.  Spelled one way each, the same non-string labels
        # give the join over the level-wise walk's profiles the pairs
        # and statistics of the join over the recursive walk's.
        rng = random.Random(61 + q)
        spellings = {"C": [1, True, 1.0], "N": [0, False, 0.0]}
        mixed = molecule_collection(12, seed=60 + q)
        consistent = molecule_collection(12, seed=60 + q)
        for g, h in zip(mixed, consistent):
            for v in list(g.vertices()):
                choices = spellings.get(g.vertex_label(v))
                if choices:
                    g.set_vertex_label(v, rng.choice(choices))
                    h.set_vertex_label(v, choices[q - 1])
        with pytest.raises(ParameterError, match="equal but print differently"):
            gsim_join(mixed, 2, GSimJoinOptions.full(q=q))
        for make in (GSimJoinOptions.minedit, GSimJoinOptions.full):
            walked = gsim_join(consistent, 2, make(q=q))
            with monkeypatch.context() as patch:
                patch.setattr("repro.engine.executor.extract_qgrams", oracle_profile)
                recursive = gsim_join(consistent, 2, make(q=q))
            assert walked.pairs == recursive.pairs
            assert_stat_parity(walked.stats, recursive.stats)


class TestNoCyclicGarbage:
    def test_grams_layer_frees_by_reference_counting(self):
        # Profiles, signatures, prefixes and mismatch results must hold
        # no reference cycle: a profile kept alive until a full GC keeps
        # its graph alive with it, which shows up as peak memory in the
        # long joins.
        graphs = molecule_collection(10, seed=71)
        odd = path_graph(["Zz", "Zy", "Zx"])  # keys the vocabulary never saw
        stranger = path_graph(["Zz", "Zw", "Zx"])
        gc.collect()
        gc.disable()
        try:
            table = LabelTable.of(graphs + [odd])
            profiles = [extract_qgrams(g, 2, table) for g in graphs]
            vocab = build_vocabulary(profiles)
            overflow = extract_qgrams(odd, 2, table)
            probe = extract_qgrams(stranger, 2, table.covering(stranger))
            for profile in profiles + [overflow]:
                vocab.sort_profile(profile)
                basic_prefix(profile, 1)
                minedit_prefix(profile, 2)
            vocab.sort_profile(probe, intern=False)  # temporary ids
            merged = compare_qgrams(profiles[0], profiles[1])
            assert merged.required_mask_r is not None
            overflowed = compare_qgrams(profiles[2], overflow, tau=1)
            assert overflowed.count_pruned
            probed = compare_qgrams(probe, overflow)
            assert probed.epsilon_r == probed.epsilon_s == 1  # one 2-gram each
            assert len(profiles[4].grams) == profiles[4].size
            del table, profiles, vocab, overflow, probe, merged, overflowed, probed
            assert gc.collect() == 0
        finally:
            gc.enable()
