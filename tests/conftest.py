"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from repro.graph.generators import random_labeled_graph
from repro.graph.graph import Graph
from repro.grams.qgrams import extract_qgrams
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


def sorted_profiles(graphs, q):
    """Q-gram profiles of ``graphs`` sorted by one vocabulary built over
    them — what ``compare_qgrams`` needs."""
    profiles = [extract_qgrams(g, q) for g in graphs]
    vocab = build_vocabulary(profiles)
    for profile in profiles:
        vocab.sort_profile(profile)
    return profiles


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
