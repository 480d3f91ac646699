"""The κ-AT baseline (Wang et al., TKDE 2010) — tree-based q-grams.

κ-AT defines one q-gram per vertex: the depth-``q`` tree unfolding
rooted there (for ``q = 1``, the star of the vertex).  An edit operation
affects at most

    ``D_tree = 1 + γ·Σ_{i=0}^{q−1} (γ−1)^i``

q-grams (``γ`` = maximum degree), giving the count filtering bound
``LB_tree = max(|V(r)| − τ·D_tree(r), |V(s)| − τ·D_tree(s))``.  The
paper's key criticism — which the benchmarks reproduce — is that
``D_tree`` explodes with density and ``q``, so ``LB_tree`` *underflows*
(≤ 0) and κ-AT degenerates to an all-pair comparison unless ``q`` is
kept very small.

The join below follows the experimental setup of Section VII-A: size
filtering, prefix filtering (document-frequency ordering) and global
label filtering, then A* GED verification.  Tree q-grams are encoded as
depth-bounded unfoldings with parent-blocking, which is isomorphism
invariant (two isomorphic graphs produce identical key multisets), so
count filtering stays sound for every ``q``.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.count_filter import passes_size_filter
from repro.engine.inverted_index import InvertedIndex
from repro.grams.labels import global_label_lower_bound
from repro.engine.result import JoinResult, JoinStatistics
from repro.exceptions import ParameterError
from repro.ged.astar import graph_edit_distance_detailed
from repro.graph.graph import Graph, Vertex

__all__ = ["tree_gram_key", "tree_gram_multiset", "d_tree", "kat_join", "KatProfile"]


def tree_gram_key(g: Graph, root: Vertex, q: int):
    """Canonical key of the tree-based q-gram rooted at ``root``.

    The depth-``q`` unfolding with parent-blocking: children of a vertex
    are all neighbours except the one it was reached from, recursively
    encoded and sorted — a rooted-tree canonical form.
    """

    def encode(v: Vertex, parent: Optional[Vertex], depth: int):
        label = repr(g.vertex_label(v))
        if depth == 0:
            return (label,)
        children = sorted(
            (repr(edge_label), encode(u, v, depth - 1))
            for u, edge_label in g.neighbor_items(v)
            if u != parent
        )
        return (label, tuple(children))

    return encode(root, None, q)


def tree_gram_multiset(g: Graph, q: int) -> Counter:
    """The multiset of tree-based q-grams of ``g`` (one per vertex)."""
    if q < 0:
        raise ParameterError(f"q must be >= 0, got {q}")
    return Counter(tree_gram_key(g, v, q) for v in g.vertices())


def _neighbourhood_size(max_degree: int, q: int) -> int:
    """``N_q(γ) = 1 + γ·Σ_{i=0}^{q−1}(γ−1)^i`` — unfolded q-ball size."""
    if q == 0 or max_degree == 0:
        return 1
    return 1 + max_degree * sum((max_degree - 1) ** i for i in range(q))


def d_tree(max_degree: int, q: int) -> int:
    """``D_tree``: max tree q-grams affected by one edit operation.

    The κ-AT paper's formula is ``N_q(γ) = 1 + γ·Σ_{i<q}(γ−1)^i`` — the
    number of roots whose depth-``q`` unfolding can contain a given
    vertex.  That covers relabelings and deletions, but an *edge
    insertion* changes the unfolding of every root within ``q−1`` hops
    of either new endpoint — up to ``2·N_{q−1}(γ)`` grams — which
    exceeds ``N_q(γ)`` on very sparse graphs (e.g. two grams on a
    degree-0 graph at ``q = 1``).  We take the maximum of both, which
    keeps κ-AT's count filter sound for every input; on the
    moderate-degree graphs of the paper's datasets the two coincide.
    (Path-based q-grams avoid the issue altogether: an edge insertion
    leaves every existing simple path intact — Theorem 1.)
    """
    if q < 0:
        raise ParameterError(f"q must be >= 0, got {q}")
    if q == 0:
        return 1
    return max(
        _neighbourhood_size(max_degree, q),
        2 * _neighbourhood_size(max_degree, q - 1),
    )


@dataclass
class KatProfile:
    """Per-graph κ-AT signature: sorted keys, counts, and ``D_tree``."""

    graph: Graph
    keys: List  #: tree-gram keys sorted in the global ordering
    key_counts: Counter
    d_tree: int

    @property
    def size(self) -> int:
        return len(self.keys)


def _common_count(a: Counter, b: Counter) -> int:
    if len(b) < len(a):
        a, b = b, a
    return sum(min(c, b[k]) for k, c in a.items() if k in b)


def kat_join(
    graphs: Sequence[Graph],
    tau: int,
    q: int = 1,
) -> JoinResult:
    """κ-AT self-join with size, prefix, global label and count filtering.

    The paper benchmarks κ-AT at ``q = 1`` (its best setting); other
    lengths are supported for the underflow experiments.
    """
    if tau < 0:
        raise ParameterError(f"tau must be >= 0, got {tau}")
    ids = [g.graph_id for g in graphs]
    if any(gid is None for gid in ids) or len(set(ids)) != len(ids):
        raise ParameterError("graphs need distinct ids; use assign_ids() first")
    if any(g.is_directed for g in graphs):
        raise ParameterError("the kappa-AT baseline supports undirected graphs only")

    stats = JoinStatistics(num_graphs=len(graphs), tau=tau, q=q)
    result = JoinResult(stats=stats)

    started = time.perf_counter()
    profiles: List[KatProfile] = []
    document_frequency: Dict[object, int] = {}
    for g in graphs:
        counts = tree_gram_multiset(g, q)
        profiles.append(
            KatProfile(graph=g, keys=[], key_counts=counts, d_tree=d_tree(g.max_degree(), q))
        )
        for key in counts:
            document_frequency[key] = document_frequency.get(key, 0) + 1

    def token(key):
        return (document_frequency[key], repr(key))

    prefix_lengths: List[int] = []
    prunable_flags: List[bool] = []
    labels: List[Tuple[Counter, Counter]] = []
    for profile in profiles:
        keys = [k for k, c in profile.key_counts.items() for _ in range(c)]
        keys.sort(key=token)
        profile.keys = keys
        ideal = tau * profile.d_tree + 1
        prunable = profile.size >= ideal
        length = ideal if prunable else profile.size
        prefix_lengths.append(length)
        prunable_flags.append(prunable)
        stats.total_prefix_length += length
        if not prunable:
            stats.unprunable_graphs += 1
        g = profile.graph
        labels.append((g.vertex_label_multiset(), g.edge_label_multiset()))
    stats.index_time += time.perf_counter() - started

    index = InvertedIndex()
    unprunable: List[int] = []

    for i, profile in enumerate(profiles):
        r = profile.graph

        started = time.perf_counter()
        candidate_ids: Dict[int, bool] = {}
        if prunable_flags[i]:
            for key in profile.keys[: prefix_lengths[i]]:
                for j in index.probe(key):
                    if j not in candidate_ids and passes_size_filter(
                        r, profiles[j].graph, tau
                    ):
                        candidate_ids[j] = True
            for j in unprunable:
                if j not in candidate_ids and passes_size_filter(
                    r, profiles[j].graph, tau
                ):
                    candidate_ids[j] = True
        else:
            for j in range(i):
                if passes_size_filter(r, profiles[j].graph, tau):
                    candidate_ids[j] = True
        stats.cand1 += len(candidate_ids)
        stats.candidate_time += time.perf_counter() - started

        started = time.perf_counter()
        for j in candidate_ids:
            other = profiles[j]
            s = other.graph
            if global_label_lower_bound(r, s, labels[i], labels[j]) > tau:
                stats.pruned_by_global_label += 1
                continue
            bound = max(
                profile.size - tau * profile.d_tree,
                other.size - tau * other.d_tree,
            )
            if bound > 0 and _common_count(profile.key_counts, other.key_counts) < bound:
                stats.pruned_by_count += 1
                continue
            stats.cand2 += 1
            ged_started = time.perf_counter()
            search = graph_edit_distance_detailed(r, s, threshold=tau)
            stats.ged_time += time.perf_counter() - ged_started
            stats.ged_calls += 1
            stats.ged_expansions += search.expanded
            if search.distance <= tau:
                result.pairs.append((s.graph_id, r.graph_id))
        stats.verify_time += time.perf_counter() - started

        started = time.perf_counter()
        if prunable_flags[i]:
            for key in profile.keys[: prefix_lengths[i]]:
                index.add(key, i)
        else:
            unprunable.append(i)
        stats.index_time += time.perf_counter() - started

    stats.results = len(result.pairs)
    stats.index_distinct_keys = index.num_distinct_keys
    stats.index_postings = index.num_postings
    stats.index_bytes = index.size_bytes
    return result
