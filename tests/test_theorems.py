"""Property-based checks of the paper's formal claims.

Each test targets one numbered statement:

* Theorem 1  — one edit operation affects at most ``D_path`` q-grams;
* Lemma 1    — count filtering never prunes a true result;
* Lemma 2    — basic prefixes of a true result share a q-gram;
* Lemma 3    — minimum-edit prefixes of a true result share a q-gram;
* Lemma 4/5  — label filtering bounds never exceed the distance;
* Prop. 1    — min-edit monotonicity (also in test_minedit);
* Prop. 2    — min-edit additivity over vertex-disjoint gram sets.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    basic_prefix,
    build_vocabulary,
    extract_qgrams,
    global_label_lower_bound,
    min_edit_exact,
    minedit_prefix,
)
from repro.ged import graph_edit_distance
from repro.graph.operations import random_edit

from .conftest import EDGE_LABELS, VERTEX_LABELS, graph_pairs_within, small_graphs


class TestTheorem1:
    @settings(max_examples=50, deadline=None)
    @given(
        small_graphs(max_vertices=6),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from([1, 2, 3]),
    )
    def test_single_edit_affects_at_most_d_path_grams(self, g, seed, q):
        """Apply one random edit; count the q-grams of the ORIGINAL graph
        that no longer appear (as a multiset) — must be <= D_path."""
        rng = random.Random(seed)
        before = extract_qgrams(g, q)
        h = g.copy()
        op = random_edit(h, rng, VERTEX_LABELS, EDGE_LABELS)
        if op is None:
            return
        op.apply(h)
        after = extract_qgrams(h, q)
        lost = sum(
            max(0, c - after.key_counts.get(k, 0))
            for k, c in before.key_counts.items()
        )
        assert lost <= before.d_path


class TestLemma1:
    @settings(max_examples=40, deadline=None)
    @given(graph_pairs_within(tau_max=3, max_vertices=5), st.sampled_from([1, 2]))
    def test_true_results_share_enough_qgrams(self, pair, q):
        r, s, _ = pair
        tau = graph_edit_distance(r, s)
        pr, ps = extract_qgrams(r, q), extract_qgrams(s, q)
        common = sum((pr.key_counts & ps.key_counts).values())
        bound = max(pr.size - tau * pr.d_path, ps.size - tau * ps.d_path)
        assert common >= bound


def _sorted_profiles(r, s, q):
    pr, ps = extract_qgrams(r, q), extract_qgrams(s, q)
    vocab = build_vocabulary([pr, ps])
    vocab.sort_profile(pr)
    vocab.sort_profile(ps)
    return pr, ps


class TestLemma2:
    @settings(max_examples=40, deadline=None)
    @given(graph_pairs_within(tau_max=2, max_vertices=5), st.sampled_from([1, 2]))
    def test_basic_prefixes_share_a_gram(self, pair, q):
        r, s, _ = pair
        tau = graph_edit_distance(r, s)
        pr, ps = _sorted_profiles(r, s, q)
        info_r, info_s = basic_prefix(pr, tau), basic_prefix(ps, tau)
        if not (info_r.prunable and info_s.prunable):
            return  # underflow: the lemma does not apply
        prefix_r = {g.key for g in pr.grams[: info_r.length]}
        prefix_s = {g.key for g in ps.grams[: info_s.length]}
        assert prefix_r & prefix_s


class TestLemma3:
    @settings(max_examples=40, deadline=None)
    @given(graph_pairs_within(tau_max=2, max_vertices=5), st.sampled_from([1, 2]))
    def test_minedit_prefixes_share_a_gram(self, pair, q):
        r, s, _ = pair
        tau = graph_edit_distance(r, s)
        pr, ps = _sorted_profiles(r, s, q)
        info_r, info_s = minedit_prefix(pr, tau), minedit_prefix(ps, tau)
        if not (info_r.prunable and info_s.prunable):
            return
        prefix_r = {g.key for g in pr.grams[: info_r.length]}
        prefix_s = {g.key for g in ps.grams[: info_s.length]}
        assert prefix_r & prefix_s


class TestLemmas4And5:
    @settings(max_examples=40, deadline=None)
    @given(graph_pairs_within(tau_max=3, max_vertices=5))
    def test_global_label_bound_sound(self, pair):
        r, s, _ = pair
        assert global_label_lower_bound(r, s) <= graph_edit_distance(r, s)

    @settings(max_examples=40, deadline=None)
    @given(graph_pairs_within(tau_max=3, max_vertices=5))
    def test_local_label_bound_on_any_subgraph(self, pair):
        """Lemma 4 for the induced subgraph on half the vertices."""
        r, s, _ = pair
        vertices = list(r.vertices())
        if not vertices:
            return
        sub = r.subgraph(vertices[: max(1, len(vertices) // 2)])
        lv = sum((sub.vertex_label_multiset() - s.vertex_label_multiset()).values())
        le = sum((sub.edge_label_multiset() - s.edge_label_multiset()).values())
        assert lv + le <= graph_edit_distance(r, s)


class TestProposition2:
    @settings(max_examples=40, deadline=None)
    @given(small_graphs(max_vertices=6), small_graphs(max_vertices=6))
    def test_min_edit_additive_over_disjoint_components(self, g1, g2):
        """Vertex-disjoint gram sets: min-edit adds up."""
        p1 = extract_qgrams(g1, 1)
        # Shift g2's vertex ids so the gram vertex sets are disjoint.
        g2_shift = g2.relabel_vertices({v: (v, "b") for v in g2.vertices()})
        p2 = extract_qgrams(g2_shift, 1)
        if not p1.grams or not p2.grams:
            return
        cap = 12
        a = min_edit_exact(p1.grams, cap)
        b = min_edit_exact(p2.grams, cap)
        combined = min_edit_exact(p1.grams + p2.grams, cap)
        if a <= cap and b <= cap and a + b <= cap:
            assert combined == a + b
