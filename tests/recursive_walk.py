"""The recursive q-gram walk — the enumeration-order oracle.

:func:`repro.grams.qgrams.extract_qgrams` walks paths level by level
over dense vertex ids and builds no :class:`QGram` until a filter asks
for one.  The order in which it enumerates instances matters beyond the
multiset: the stable sort in ``QGramProfile.attach_signature`` breaks
ties between equal keys by it, so every prefix depends on it.  This
module keeps the depth-first walk the extraction used to run — one
recursive call per path step, a ``QGram`` per leaf — so the tests can
demand the exact ``(key, path)`` sequence, ``|Q_u|`` counts and
``D_path`` from the level-wise walk.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple

from repro.grams.qgrams import QGram, QGramProfile
from repro.graph.graph import Graph, Vertex

__all__ = ["oracle_extract", "oracle_profile"]


def _walk_grams(g: Graph, q: int, vertex_counts: Dict[Vertex, int]) -> List[QGram]:
    """Fused path walk + key construction.

    Carries the interleaved label sequence (and its repr view, for the
    canonical-orientation comparison) along the DFS so shared path
    prefixes never re-fetch labels.
    """
    grams: List[QGram] = []
    append_gram = grams.append
    directed = g.is_directed
    position = {v: i for i, v in enumerate(g.vertices())}
    # Per-vertex (label, repr) and per-neighbor (u, position, label, repr)
    # are resolved once up front, so the walk never calls repr() or
    # touches the graph's label maps.
    vlabel = {v: g.vertex_label(v) for v in g.vertices()}
    vrepr = {v: repr(label) for v, label in vlabel.items()}
    adjacency = {
        v: [
            (u, position[u], label, repr(label))
            for u, label in g.neighbor_items(v)
        ]
        for v in g.vertices()
    }

    path: List[Vertex] = []
    labels: List[object] = []
    reprs: List[str] = []
    on_path = set()
    last_depth = q + 1

    def extend(v: Vertex, depth: int) -> None:
        path.append(v)
        on_path.add(v)
        labels.append(vlabel[v])
        reprs.append(vrepr[v])
        if depth == last_depth:
            forward = tuple(labels)
            if directed:
                key = forward
            else:
                backward_r = reprs[::-1]
                key = tuple(reversed(labels)) if backward_r < reprs else forward
            append_gram(QGram(key, tuple(path)))
            for u in path:
                vertex_counts[u] += 1
        elif depth == q:
            # Final step: apply the undirected orientation filter before
            # descending, so discarded-orientation leaves are never built.
            start_position = position[path[0]]
            for u, u_position, edge_label, edge_repr in adjacency[v]:
                if u not in on_path and (directed or start_position < u_position):
                    labels.append(edge_label)
                    reprs.append(edge_repr)
                    extend(u, last_depth)
                    labels.pop()
                    reprs.pop()
        else:
            for u, _, edge_label, edge_repr in adjacency[v]:
                if u not in on_path:
                    labels.append(edge_label)
                    reprs.append(edge_repr)
                    extend(u, depth + 1)
                    labels.pop()
                    reprs.pop()
        on_path.discard(v)
        path.pop()
        labels.pop()
        reprs.pop()

    for start in g.vertices():
        extend(start, 1)
    return grams


def oracle_extract(g: Graph, q: int) -> Tuple[List[QGram], Dict[Vertex, int], int]:
    """``(grams in enumeration order, |Q_u| per vertex, D_path)`` of ``g``."""
    vertex_counts: Dict[Vertex, int] = {v: 0 for v in g.vertices()}
    if q == 0:
        grams = [QGram((g.vertex_label(v),), (v,)) for v in g.vertices()]
        for v in vertex_counts:
            vertex_counts[v] = 1
    else:
        grams = _walk_grams(g, q, vertex_counts)
    return grams, vertex_counts, max(vertex_counts.values(), default=0)


def oracle_profile(g: Graph, q: int) -> QGramProfile:
    """A :class:`QGramProfile` laid out from :func:`oracle_extract`.

    A drop-in for :func:`repro.grams.qgrams.extract_qgrams`, so a join
    can run on profiles of the recursive walk and be compared with one
    on the level-wise walk.  Distinct keys are told apart by their label
    ``repr`` sequence, as the level-wise walk tells them apart.
    """
    grams, vertex_counts, d_path = oracle_extract(g, q)
    vertices = list(g.vertices())
    position = {v: i for i, v in enumerate(vertices)}
    index: Dict[Tuple[str, ...], int] = {}
    keys = []
    gram_keys = []
    for gram in grams:
        token = tuple(map(repr, gram.key))
        if token not in index:
            index[token] = len(keys)
            keys.append(gram.key)
        gram_keys.append(index[token])
    return QGramProfile(
        graph=g,
        q=q,
        key_counts=Counter(gram.key for gram in grams),
        vertex_counts=vertex_counts,
        d_path=d_path,
        vertices=vertices,
        keys=keys,
        gram_keys=gram_keys,
        walks=[position[v] for gram in grams for v in gram.path],
    )
