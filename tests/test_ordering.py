"""Tests for the object-key document-frequency q-gram ordering (the
oracle of ``tests/legacy_drivers.py``)."""

from repro.core import extract_qgrams

from .conftest import path_graph
from .object_key_ordering import build_ordering


class TestDocumentFrequency:
    def test_counts_graphs_not_instances(self):
        # A-A occurs twice inside g1 but only in one graph.
        g1 = path_graph(["A", "A", "A"])
        g2 = path_graph(["A", "B"])
        g3 = path_graph(["A", "B"])
        profiles = [extract_qgrams(g, 1) for g in (g1, g2, g3)]
        ordering = build_ordering(profiles)
        df = ordering.document_frequency
        assert df[("A", "x", "A")] == 1
        assert df[("A", "x", "B")] == 2

    def test_rare_grams_sort_first(self):
        g1 = path_graph(["A", "A", "B"])
        g2 = path_graph(["A", "B"])
        profiles = [extract_qgrams(g, 1) for g in (g1, g2)]
        ordering = build_ordering(profiles)
        sorted_grams = ordering.sort_profile(profiles[0])
        # A-A appears in 1 graph, A-B in 2 -> A-A first.
        assert sorted_grams[0].key == ("A", "x", "A")
        assert sorted_grams[1].key == ("A", "x", "B")

    def test_sort_profile_mutates_in_place(self):
        g = path_graph(["A", "A", "B"])
        profile = extract_qgrams(g, 1)
        ordering = build_ordering([profile])
        returned = ordering.sort_profile(profile)
        assert returned is profile.grams

    def test_unknown_keys_sort_last(self):
        g = path_graph(["A", "B"])
        ordering = build_ordering([extract_qgrams(g, 1)])
        known = ordering.sort_token(("A", "x", "B"))
        unknown = ordering.sort_token(("Z", "z", "Z"))
        assert known < unknown

    def test_tokens_are_deterministic_and_key_injective(self):
        g1 = path_graph(["A", "B"])
        g2 = path_graph(["C", "D"])
        ordering = build_ordering([extract_qgrams(g, 1) for g in (g1, g2)])
        t1 = ordering.sort_token(("A", "x", "B"))
        t2 = ordering.sort_token(("C", "x", "D"))
        # Same document frequency, distinct keys -> distinct tokens
        # (prefix filtering soundness relies on a total order over keys).
        assert t1 != t2
        assert ordering.sort_token(("A", "x", "B")) == t1
