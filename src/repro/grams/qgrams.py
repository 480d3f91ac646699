"""Path-based q-grams (Definition 1) and per-graph q-gram profiles.

A path-based q-gram is a simple path of length ``q``.  Reading the vertex
and edge labels from either end produces two label sequences; the
lexicographically smaller one is the q-gram's *key* (so the two
orientations of the same undirected path compare equal).  A graph's
q-grams form a *multiset* — unlike string q-grams they carry no starting
position, so equal-label paths are genuinely duplicated.

:class:`QGramProfile` bundles everything the filters need about one
graph: the key multiset, the per-vertex counts ``|Q_u|`` and their
maximum ``D_path`` (Theorem 1), and the instances themselves with their
concrete vertex paths (required by minimum edit filtering and local
label filtering).  The instances are kept as flat integer arrays over
the graph's dense vertex ids; :class:`QGram` objects are built only for
the instances a filter reads.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

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


class QGramProfile:
    """All q-gram derived quantities of one graph.

    Built eagerly by :func:`extract_qgrams` (the instance arrays are in
    *enumeration order*, the order of the depth-first path walk):

    ``graph``, ``q``
        The profiled graph and the q-gram length used.
    ``key_counts``
        The key multiset as a :class:`collections.Counter`.
    ``vertex_counts``
        ``|Q_u|`` for every vertex ``u`` (vertices in no q-gram included
        with count 0).
    ``d_path``
        ``D_path = max_u |Q_u|`` — the maximum number of q-grams a single
        edit operation can affect (Theorem 1); 0 for a gram-less graph.
    ``vertices``
        The graph's vertices; a *dense id* is an index into this list.
    ``keys``
        The graph's distinct keys, one per distinct oriented label
        sequence, in order of first enumeration.  Labels with equal
        ``repr`` count as one label.
    ``gram_keys``
        Per instance, the index of its key in ``keys`` (a compact
        unsigned :class:`array.array`).
    ``walks``
        The instances' paths laid end to end: ``q + 1`` dense ids per
        instance (a compact unsigned :class:`array.array`).

    Attached by :meth:`repro.grams.vocab.QGramVocabulary.sort_profile`
    (``None``/``False`` until then):

    ``order``
        The sort permutation: position ``k`` of the global ordering
        holds the instance enumerated ``order[k]``-th.
    ``signature``
        Interned integer ids of the instances in the global ordering.
    ``signature_total``
        ``True`` when the signature contains only frozen-range ids, so
        ascending id *is* the global ordering and two such signatures
        from the same vocabulary can be compared by a pure integer
        merge.  ``False`` when overflow ids are present (streaming
        inserts/queries) — pairwise comparison then falls back to the
        Counter path of :func:`repro.grams.mismatch.compare_qgrams`.
    ``signature_source``
        The vocabulary that interned the signature (identity-compared by
        :func:`repro.grams.mismatch.compare_qgrams` so signatures from
        different vocabularies are never merged).

    Built on demand: :attr:`grams`, the instances as :class:`QGram`
    objects in the current order, and :meth:`instances`, a run of them.
    """

    __slots__ = (
        "graph",
        "q",
        "key_counts",
        "vertex_counts",
        "d_path",
        "vertices",
        "keys",
        "gram_keys",
        "walks",
        "order",
        "signature",
        "signature_total",
        "signature_source",
        "_grams",
    )

    def __init__(
        self,
        graph: Graph,
        q: int,
        key_counts: Counter,
        vertex_counts: Dict[Vertex, int],
        d_path: int,
        vertices: List[Vertex],
        keys: List[Key],
        gram_keys: Sequence[int],
        walks: Sequence[int],
    ) -> None:
        self.graph = graph
        self.q = q
        self.key_counts = key_counts
        self.vertex_counts = vertex_counts
        self.d_path = d_path
        self.vertices = vertices
        self.keys = keys
        self.gram_keys = gram_keys
        self.walks = walks
        self.order: Optional[List[int]] = None
        self.signature: Optional[List[int]] = None
        self.signature_total = False
        self.signature_source: Optional[object] = None
        self._grams: Optional[List[QGram]] = None

    def __repr__(self) -> str:
        return f"QGramProfile(graph={self.graph!r}, q={self.q}, d_path={self.d_path})"

    @property
    def size(self) -> int:
        """``|Q_r|`` — the total number of q-gram instances."""
        return len(self.gram_keys)

    @property
    def grams(self) -> List[QGram]:
        """Every q-gram instance (the multiset ``Q_r``) as :class:`QGram`
        objects: in the global ordering once sorted, else in enumeration
        order.  Built on first access and kept, so callers may reorder
        it in place."""
        grams = self._grams
        if grams is None:
            grams = self._grams = self.instances(0, self.size)
        return grams

    def _enumerated(self, start: int, stop: int) -> Sequence[int]:
        """Enumeration indices of positions ``start:stop`` of the current
        order."""
        order = self.order
        if order is None:
            return range(self.size)[start:stop]
        return order[start:stop]

    def instances(self, start: int, stop: int) -> List[QGram]:
        """The instances at positions ``start:stop`` of the current order."""
        keys, gram_keys, vertices = self.keys, self.gram_keys, self.vertices
        walks, width = self.walks, self.q + 1
        return [
            QGram(
                keys[gram_keys[e]],
                tuple([vertices[v] for v in walks[e * width : e * width + width]]),
            )
            for e in self._enumerated(start, stop)
        ]

    def prefix_walks(self, length: int) -> List[Sequence[int]]:
        """Dense-id paths of the first ``length`` instances of the current
        order (the input of the minimum-edit prefix search)."""
        walks, width = self.walks, self.q + 1
        return [walks[e * width : e * width + width] for e in self._enumerated(0, length)]

    def count_lower_bound(self, tau: int) -> int:
        """This graph's side of the count filtering bound: |Q_r| − τ·D_path."""
        return self.size - tau * self.d_path

    def attach_signature(
        self,
        ids: List[int],
        source: Optional[object] = None,
        sort_token: Optional[Callable[[int], Tuple[int, int, str]]] = None,
    ) -> None:
        """Sort the instances by interned id and record the signature.

        ``ids[k]`` must be the interned id of the key of the ``k``-th
        enumerated instance.  Without ``sort_token`` ascending id is
        taken to be the global ordering (a pure integer sort — the fast
        path); with it, each id is ranked by its token instead (used for
        overflow ids, which rank by key ``repr``) and the signature is
        marked non-mergeable.  Equal ids keep their enumeration order:
        the sort is stable, matching a sort by object key exactly.  The
        instance arrays stay in enumeration order; the permutation goes
        to ``order``, and a built ``grams`` list is dropped so the next
        access rebuilds it in the new order.
        """
        positions = range(len(ids))
        if sort_token is None:
            order = sorted(positions, key=ids.__getitem__)
            self.signature_total = True
        else:
            tokens = [sort_token(key_id) for key_id in ids]
            order = sorted(positions, key=tokens.__getitem__)
            self.signature_total = False
        self.order = order
        self.signature = [ids[k] for k in order]
        self.signature_source = source
        self._grams = None

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


def _compact(values: Iterable[int], bound: int) -> Sequence[int]:
    """``values``, each below ``bound``, as the narrowest unsigned array.

    A profile keeps its per-gram integers for the whole join; one to
    two bytes an entry instead of a list's eight-byte pointers keeps
    that footprint small.
    """
    typecode = "B" if bound <= 1 << 8 else "H" if bound <= 1 << 16 else "Q"
    return array(typecode, values)


def _ranked(table: Dict[str, object]) -> Tuple[Dict[str, int], List[object]]:
    """Rank the labels of ``table`` (repr -> label) by repr.

    Returns the repr -> rank map and the rank -> label list.
    """
    reprs = sorted(table)
    ranks = {text: rank for rank, text in enumerate(reprs)}
    return ranks, [table[text] for text in reprs]


def extract_qgrams(g: Graph, q: int) -> QGramProfile:
    """Extract the path-based q-gram profile of ``g``.

    For ``q = 0`` every vertex is its own q-gram and ``D_path = 1``
    (relabeling or deleting a vertex affects exactly its own 0-gram).

    The walk runs level by level over dense vertex ids: level ``d``
    holds every simple path of ``d`` edges, each extended by every
    neighbour not on it, parents and neighbours in enumeration order —
    so the leaves come out in depth-first order.  Each graph's vertex
    and edge labels are ranked once by ``repr``, and every partial path
    carries its label sequence read in both directions as an integer
    with one fixed-width digit per label, so the canonical orientation
    of a leaf is the smaller of two integers.  Undirected paths are kept
    in the orientation whose start precedes its end in enumeration
    order, which reports each path once.  Each distinct oriented
    sequence is decoded to its label-tuple key once per graph.

    Raises
    ------
    ParameterError
        If ``q`` is negative.
    """
    if q < 0:
        raise ParameterError(f"q must be >= 0, got {q}")
    vertices = list(g.vertices())
    position = {v: i for i, v in enumerate(vertices)}
    vertex_labels = [g.vertex_label(v) for v in vertices]
    vertex_reprs = [repr(label) for label in vertex_labels]
    # (neighbour id, edge label repr, edge label) per adjacency entry.
    neighbours = [
        [(position[u], repr(label), label) for u, label in g.neighbor_items(v)]
        for v in vertices
    ]
    vertex_rank, vertex_table = _ranked(dict(zip(vertex_reprs, vertex_labels)))
    edge_rank, edge_table = _ranked(
        {text: label for row in neighbours for _, text, label in row}
    )
    # A label sequence is an integer, one ``width``-bit digit per label.
    width = max(len(vertex_table), len(edge_table)).bit_length()
    mask = (1 << width) - 1
    ranks = [vertex_rank[text] for text in vertex_reprs]
    # Per adjacency entry: (neighbour id, forward step, backward step) —
    # the two label digits the step appends to the forward reading and
    # prepends to the backward one.
    adjacency = [
        [
            (u, edge << width | ranks[u], ranks[u] << width | edge)
            for u, text, _ in row
            for edge in (edge_rank[text],)
        ]
        for row in neighbours
    ]

    # (path, forward code, backward code) per partial path.
    level = [((i,), rank, rank) for i, rank in enumerate(ranks)]
    step_bits = 2 * width
    for depth in range(1, q):
        shift = (2 * depth - 1) * width
        level = [
            (path + (u,), forward << step_bits | step, back_step << shift | backward)
            for path, forward, backward in level
            for u, step, back_step in adjacency[path[-1]]
            if u not in path
        ]
    if q == 0:
        leaves = [(path, forward) for path, forward, _ in level]
    elif g.is_directed:
        leaves = [
            (path + (u,), forward << step_bits | step)
            for path, forward, _ in level
            for u, step, _ in adjacency[path[-1]]
            if u not in path
        ]
    else:
        shift = (2 * q - 1) * width
        leaves = [
            (path + (u,), ahead if ahead <= behind else behind)
            for path, forward, backward in level
            for u, step, back_step in adjacency[path[-1]]
            if path[0] < u and u not in path
            for ahead in (forward << step_bits | step,)
            for behind in (back_step << shift | backward,)
        ]
    del level
    walks = _compact(chain.from_iterable([path for path, _ in leaves]), len(vertices))
    codes = [code for _, code in leaves]
    del leaves

    code_counts = Counter(codes)
    index = {code: k for k, code in enumerate(code_counts)}
    gram_keys = _compact([index[code] for code in codes], len(index))
    # Decode each distinct code, most significant digit first: vertex
    # labels at even positions, edge labels at odd ones.
    digits = [
        ((2 * q - i) * width, vertex_table if i % 2 == 0 else edge_table)
        for i in range(2 * q + 1)
    ]
    keys = [
        tuple([table[code >> shift & mask] for shift, table in digits])
        for code in code_counts
    ]
    key_counts: Counter = Counter()
    for key, count in zip(keys, code_counts.values()):
        key_counts[key] += count

    per_vertex = Counter(walks)
    vertex_counts = {v: per_vertex[i] for i, v in enumerate(vertices)}
    return QGramProfile(
        graph=g,
        q=q,
        key_counts=key_counts,
        vertex_counts=vertex_counts,
        d_path=max(vertex_counts.values(), default=0),
        vertices=vertices,
        keys=keys,
        gram_keys=gram_keys,
        walks=walks,
    )
