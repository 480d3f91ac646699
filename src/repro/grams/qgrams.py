"""Path-based q-grams (Definition 1) and per-graph q-gram profiles.

A path-based q-gram is a simple path of length ``q``.  Reading the vertex
and edge labels from either end produces two label sequences; the
lexicographically smaller one is the q-gram's *key* (so the two
orientations of the same undirected path compare equal).  A graph's
q-grams form a *multiset* — unlike string q-grams they carry no starting
position, so equal-label paths are genuinely duplicated.

:class:`QGramProfile` bundles everything the filters need about one
graph: the instance list (with concrete vertex tuples, required by
minimum edit filtering and local label filtering), the key multiset, the
per-vertex counts ``|Q_u|`` and their maximum ``D_path`` (Theorem 1).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.exceptions import ParameterError
from repro.graph.graph import Graph, Vertex

__all__ = ["QGram", "QGramProfile", "extract_qgrams", "qgram_key"]

#: A q-gram key: the canonical interleaved label sequence
#: ``(l(v0), l(e01), l(v1), ..., l(vq))``.
Key = Tuple[object, ...]


def qgram_key(g: Graph, path: Tuple[Vertex, ...]) -> Key:
    """Canonical label sequence of a path.

    Undirected: the lexicographically smaller of the two reading
    directions (label types may be heterogeneous, so the comparison is on
    ``repr`` strings; the returned key keeps the original label objects).
    Directed: the forward sequence — a directed path has only one
    reading.
    """
    labels: List[object] = []
    for i, v in enumerate(path):
        if i:
            labels.append(g.edge_label(path[i - 1], v))
        labels.append(g.vertex_label(v))
    forward = tuple(labels)
    if g.is_directed:
        return forward
    backward = tuple(reversed(labels))
    if tuple(map(repr, backward)) < tuple(map(repr, forward)):
        return backward
    return forward


@dataclass(frozen=True)
class QGram:
    """One q-gram instance: a canonical key plus its concrete path."""

    key: Key
    path: Tuple[Vertex, ...]

    @property
    def vertex_set(self) -> FrozenSet[Vertex]:
        """The vertices covered by this q-gram (hitting-set elements)."""
        return frozenset(self.path)

    def edge_pairs(self) -> List[Tuple[Vertex, Vertex]]:
        """The path's edges as endpoint pairs, in traversal order.

        Callers that need duplicate-free edge sets across q-grams should
        canonicalize each pair with ``graph.canonical_edge`` (directed
        graphs keep the orientation, undirected graphs normalize it).
        """
        return [
            (self.path[i], self.path[i + 1]) for i in range(len(self.path) - 1)
        ]


@dataclass
class QGramProfile:
    """All q-gram derived quantities of one graph.

    Attributes
    ----------
    graph:
        The profiled graph.
    q:
        The q-gram length used.
    grams:
        Every q-gram instance (the multiset ``Q_r``), in enumeration
        order until :meth:`repro.grams.vocab.QGramVocabulary.sort_profile`
        reorders them in the global q-gram ordering.
    key_counts:
        The key multiset as a :class:`collections.Counter`.
    vertex_counts:
        ``|Q_u|`` for every vertex ``u`` (vertices in no q-gram included
        with count 0).
    d_path:
        ``D_path = max_u |Q_u|`` — the maximum number of q-grams a single
        edit operation can affect (Theorem 1); 0 for a gram-less graph.
    signature:
        Interned integer ids of the (sorted) grams, aligned index by
        index — attached by :meth:`repro.grams.vocab.QGramVocabulary.
        sort_profile`; ``None`` until then.
    signature_total:
        ``True`` when the signature contains only frozen-range ids, so
        ascending id *is* the global ordering and two such signatures
        from the same vocabulary can be compared by a pure integer
        merge.  ``False`` when overflow ids are present (streaming
        inserts/queries) — pairwise comparison then falls back to the
        Counter path of :func:`repro.grams.mismatch.compare_qgrams`.
    signature_source:
        The vocabulary that interned the signature (identity-compared by
        :func:`repro.grams.mismatch.compare_qgrams` so signatures from
        different vocabularies are never merged).
    """

    graph: Graph
    q: int
    grams: List[QGram]
    key_counts: Counter = field(repr=False)
    vertex_counts: Dict[Vertex, int] = field(repr=False)
    d_path: int
    signature: Optional[List[int]] = field(default=None, repr=False)
    signature_total: bool = field(default=False, repr=False)
    signature_source: Optional[object] = field(default=None, repr=False)

    @property
    def size(self) -> int:
        """``|Q_r|`` — the total number of q-gram instances."""
        return len(self.grams)

    def count_lower_bound(self, tau: int) -> int:
        """This graph's side of the count filtering bound: |Q_r| − τ·D_path."""
        return self.size - tau * self.d_path

    def attach_signature(
        self,
        ids: List[int],
        source: Optional[object] = None,
        sort_token: Optional[Callable[[int], Tuple[int, int, str]]] = None,
    ) -> None:
        """Sort ``grams`` by interned id and record the aligned signature.

        ``ids[k]`` must be the interned id of ``grams[k].key``.  Without
        ``sort_token`` ascending id is taken to be the global ordering
        (a pure integer sort — the fast path); with it, each id is
        ranked by its token instead (used for overflow ids, which rank
        by key ``repr``) and the signature is marked non-mergeable.
        Equal ids keep their enumeration order: the sort is stable,
        matching a sort by object key exactly.
        """
        if sort_token is None:
            order = sorted(range(len(ids)), key=ids.__getitem__)
            self.signature_total = True
        else:
            order = sorted(range(len(ids)), key=lambda k: sort_token(ids[k]))
            self.signature_total = False
        self.grams = [self.grams[k] for k in order]
        self.signature = [ids[k] for k in order]
        self.signature_source = source

    def prefix_keys(self, length: int) -> Sequence[object]:
        """The first ``length`` index/probe keys in the global ordering.

        Interned ids when a signature is attached (every profile the
        engine sorts), otherwise the grams' object keys — both are
        valid inverted-index keys.
        """
        signature = self.signature
        if signature is not None:
            return signature[:length]
        return [gram.key for gram in self.grams[:length]]


def _walk_grams(g: Graph, q: int, vertex_counts: Dict[Vertex, int]) -> List[QGram]:
    """Fused path walk + key construction.

    Carries the interleaved label sequence (and its repr view, for the
    canonical-orientation comparison) along the DFS so shared path
    prefixes never re-fetch labels — extraction is the hottest loop of
    the whole system (it runs per graph at index time and per state in
    the improved heuristic).
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


def extract_qgrams(g: Graph, q: int) -> QGramProfile:
    """Extract the path-based q-gram profile of ``g``.

    For ``q = 0`` every vertex is its own q-gram and ``D_path = 1``
    (relabeling or deleting a vertex affects exactly its own 0-gram).

    Raises
    ------
    ParameterError
        If ``q`` is negative.
    """
    if q < 0:
        raise ParameterError(f"q must be >= 0, got {q}")
    vertex_counts: Dict[Vertex, int] = {v: 0 for v in g.vertices()}
    if q == 0:
        grams = [QGram((g.vertex_label(v),), (v,)) for v in g.vertices()]
        for v in vertex_counts:
            vertex_counts[v] = 1
    else:
        grams = _walk_grams(g, q, vertex_counts)
    key_counts = Counter(gram.key for gram in grams)
    d_path = max(vertex_counts.values(), default=0)
    return QGramProfile(
        graph=g,
        q=q,
        grams=grams,
        key_counts=key_counts,
        vertex_counts=vertex_counts,
        d_path=d_path,
    )
