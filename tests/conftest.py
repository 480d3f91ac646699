"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import strategies as st

from repro.graph.generators import random_labeled_graph
from repro.graph.graph import Graph
from repro.grams.qgrams import LabelTable, extract_qgrams
from repro.grams.vocab import build_vocabulary

VERTEX_LABELS = ["A", "B", "C"]
EDGE_LABELS = ["x", "y"]


def build_graph(vertex_labels, edges, graph_id=None) -> Graph:
    """Compact constructor: labels list + (u, v, label) edge triples."""
    g = Graph(graph_id)
    for v, label in enumerate(vertex_labels):
        g.add_vertex(v, label)
    for u, v, label in edges:
        g.add_edge(u, v, label)
    return g


def path_graph(labels, edge_label="x", graph_id=None) -> Graph:
    """A labeled path P_n."""
    return build_graph(
        labels, [(i, i + 1, edge_label) for i in range(len(labels) - 1)], graph_id
    )


def cycle_graph(labels, edge_label="x", graph_id=None) -> Graph:
    """A labeled cycle C_n (n >= 3)."""
    n = len(labels)
    edges = [(i, (i + 1) % n, edge_label) for i in range(n)]
    return build_graph(labels, edges, graph_id)


def star_graph(center_label, leaf_labels, edge_label="x", graph_id=None) -> Graph:
    """A star with the given centre and leaves."""
    labels = [center_label] + list(leaf_labels)
    edges = [(0, i + 1, edge_label) for i in range(len(leaf_labels))]
    return build_graph(labels, edges, graph_id)


def shared_profiles(graphs, q):
    """Unsorted q-gram profiles of ``graphs`` under one label table —
    what one vocabulary can sort."""
    table = LabelTable.of(graphs)
    return [extract_qgrams(g, q, table) for g in graphs]


def sorted_profiles(graphs, q):
    """Q-gram profiles of ``graphs`` sorted by one vocabulary built over
    them — what ``compare_qgrams`` needs."""
    profiles = shared_profiles(graphs, q)
    vocab = build_vocabulary(profiles)
    for profile in profiles:
        vocab.sort_profile(profile)
    return profiles


def profile_counts(profile):
    """``(key multiset, |Q_u| per vertex)`` of a profile, rebuilt from its
    grams: the key Counter in first-enumeration order, and every
    vertex's count (0 for a vertex in no q-gram) in vertex order."""
    grams = profile.grams
    if profile.order is not None:  # back to enumeration order
        grams = [gram for _, gram in sorted(zip(profile.order, grams))]
    per_vertex = Counter(v for gram in grams for v in gram.path)
    return (
        Counter(gram.key for gram in grams),
        {v: per_vertex[v] for v in profile.vertices},
    )


@st.composite
def small_graphs(draw, max_vertices=5, vertex_labels=None, edge_labels=None):
    """Hypothesis strategy: a small random labeled simple graph."""
    vertex_labels = vertex_labels or VERTEX_LABELS
    edge_labels = edge_labels or EDGE_LABELS
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    max_edges = n * (n - 1) // 2
    m = draw(st.integers(min_value=0, max_value=max_edges))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = random.Random(seed)
    return random_labeled_graph(rng, n, m, vertex_labels, edge_labels)


@st.composite
def graph_pairs_within(draw, tau_max=3, max_vertices=5):
    """A base graph plus a perturbation within ``k <= tau_max`` edits."""
    from repro.graph.operations import perturb

    g = draw(small_graphs(max_vertices=max_vertices))
    k = draw(st.integers(min_value=0, max_value=tau_max))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = random.Random(seed)
    h = perturb(g, k, rng, VERTEX_LABELS, EDGE_LABELS)
    return g, h, k


@pytest.fixture
def rng():
    return random.Random(12345)
