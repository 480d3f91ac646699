"""Cross-algorithm equivalence on randomized collections.

The single most important property of the system: every filtered join
(GSimJoin in all variants, κ-AT, AppFull) returns exactly the naive
join's result set, on collections with planted near-duplicates, mixed
graph sizes, and graphs with no q-grams at all.  Where that cannot hold
— labels that are equal but print differently — every in-memory entry
point refuses the input instead.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    GSimJoinOptions,
    assign_ids,
    gsim_join,
    gsim_join_rs,
    naive_join,
)
from repro.baselines import appfull_join, kat_join
from repro.core.parallel import gsim_join_parallel
from repro.core.search import GSimIndex
from repro.exceptions import ParameterError
from repro.graph.graph import Graph
from repro.graph.generators import random_labeled_graph
from repro.graph.operations import perturb

VERTEX_LABELS = ["A", "B", "C"]
EDGE_LABELS = ["x", "y"]


def random_collection(seed: int, size: int):
    """A messy little collection: random graphs + perturbed clones."""
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < size:
        n = rng.randint(1, 6)
        m = rng.randint(0, n * (n - 1) // 2)
        g = random_labeled_graph(rng, n, m, VERTEX_LABELS, EDGE_LABELS)
        graphs.append(g)
        if rng.random() < 0.5 and len(graphs) < size:
            graphs.append(
                perturb(g, rng.randint(1, 2), rng, VERTEX_LABELS, EDGE_LABELS)
            )
    return assign_ids(graphs)


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=3),
)
def test_gsimjoin_variants_match_naive(seed, tau, q):
    graphs = random_collection(seed, size=10)
    expected = naive_join(graphs, tau, use_size_filter=False).pair_set()
    for options in (
        GSimJoinOptions.basic(q=q),
        GSimJoinOptions.minedit(q=q),
        GSimJoinOptions.full(q=q),
    ):
        got = gsim_join(graphs, tau, options=options).pair_set()
        assert got == expected, (
            f"tau={tau} q={q} opts={options}: "
            f"missing={expected - got} extra={got - expected}"
        )


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=0, max_value=2),
)
def test_baselines_match_naive(seed, tau):
    graphs = random_collection(seed, size=8)
    expected = naive_join(graphs, tau, use_size_filter=False).pair_set()
    assert kat_join(graphs, tau, q=1).pair_set() == expected
    assert appfull_join(graphs, tau, verify=True).pair_set() == expected


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_size_filter_changes_nothing(seed):
    graphs = random_collection(seed, size=8)
    with_filter = naive_join(graphs, 2, use_size_filter=True).pair_set()
    without = naive_join(graphs, 2, use_size_filter=False).pair_set()
    assert with_filter == without


def respelled(graphs, spell):
    """``graphs`` with the ``k``-th vertex labelled ``C`` relabelled
    ``spell(k)``."""
    count = itertools.count()
    for g in graphs:
        for v in list(g.vertices()):
            if g.vertex_label(v) == "C":
                g.set_vertex_label(v, spell(next(count)))
    return graphs


def labelled_path(graph_id, vertex_label, edge_labels):
    """A path whose vertices all carry ``vertex_label`` and whose edges
    carry ``edge_labels`` in order."""
    g = Graph(graph_id)
    for v in range(len(edge_labels) + 1):
        g.add_vertex(v, vertex_label)
    for v, label in enumerate(edge_labels):
        g.add_edge(v, v + 1, label)
    return g


def test_labels_spelled_two_ways_are_refused():
    """``C`` spelled as both ``1`` and ``True``: the labels are equal
    but print differently, so path q-grams would orient equal paths
    apart and the count and prefix filters could drop true pairs.
    Every in-memory entry point refuses such a collection, within one
    graph, across graphs, and across R and S; spelled one way, the same
    collection joins exactly like the naive join."""
    mixed = respelled(random_collection(5, size=12), lambda k: (1, True)[k % 2])
    ones = respelled(random_collection(5, size=12), lambda k: 1)
    trues = respelled(random_collection(5, size=12), lambda k: True)
    # The first graph after the sixth that has a ``C``.
    late = next(k for k in range(6, 12) if 1 in ones[k].vertex_label_multiset())
    index = GSimIndex(ones[:late], tau_max=2)
    refused = {
        "gsim_join": lambda: gsim_join(mixed, 2),
        "gsim_join_rs": lambda: gsim_join_rs(ones[:late], trues[late:], 2),
        "gsim_join_parallel": lambda: gsim_join_parallel(mixed, 2, workers=2),
        "GSimIndex": lambda: GSimIndex(mixed, tau_max=2),
        "GSimIndex.add": lambda: index.add(trues[late]),
        "GSimIndex.query": lambda: index.query(trues[late], 1),
        "edge labels": lambda: gsim_join(
            [labelled_path(0, "C", [1, "x"]), labelled_path(1, "C", [True])], 1
        ),
    }
    for name, call in refused.items():
        with pytest.raises(ParameterError, match="1 and True are equal"):
            call()
    # Vertex and edge labels are ranked apart, so one spelling each is
    # enough.
    apart = [labelled_path(0, 1, [True, True]), labelled_path(1, 1, [True])]
    assert gsim_join(apart, 1).pair_set() == naive_join(apart, 1).pair_set()
    # A refused insert leaves the index as it was.
    assert len(index) == late
    index.add(ones[late])
    assert len(index) == late + 1

    for consistent in (ones, trues):
        for tau in (1, 2):
            expected = naive_join(consistent, tau, use_size_filter=False)
            for q in (1, 2, 3):
                got = gsim_join(consistent, tau, GSimJoinOptions.full(q=q))
                assert got.pair_set() == expected.pair_set(), (q, tau)
