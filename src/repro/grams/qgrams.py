"""Path-based q-grams (Definition 1), one label table per collection, and
per-graph q-gram profiles.

A path-based q-gram is a simple path of length ``q``.  Reading the vertex
and edge labels from either end produces two label sequences; the
lexicographically smaller one is the q-gram's *key* (so the two
orientations of the same undirected path compare equal).  A graph's
q-grams form a *multiset* — unlike string q-grams they carry no starting
position, so equal-label paths are genuinely duplicated.

A :class:`LabelTable` ranks a collection's vertex labels and its edge
labels once, by ``repr``, so a label sequence is one integer — its
*code*, one fixed-width digit per label — that means the same in every
graph extracted under the table.  :class:`QGramProfile` bundles what the
filters need about one graph: its distinct codes, the per-instance index
into them, ``D_path`` (Theorem 1), and the instances' concrete vertex
paths (required by minimum edit filtering and local label filtering).
The instances are kept as flat integer arrays over the graph's dense
vertex ids; :class:`QGram` objects, and the label-tuple keys they carry,
are built only for the instances a filter reads.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.exceptions import ParameterError
from repro.graph.graph import Graph, Label, Vertex

__all__ = [
    "LabelSpellings",
    "LabelTable",
    "QGram",
    "QGramProfile",
    "extract_qgrams",
    "qgram_key",
    "recode",
    "reject_mixed_label_spellings",
]

#: A q-gram key: the canonical interleaved label sequence
#: ``(l(v0), l(e01), l(v1), ..., l(vq))``.
Key = Tuple[object, ...]

#: Vertex labels, then edge labels: each label seen -> its ``repr``.
LabelSpellings = Tuple[Dict[Label, str], Dict[Label, str]]


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


def reject_mixed_label_spellings(
    graphs: Iterable[Graph], known: Optional[LabelSpellings] = None
) -> LabelSpellings:
    """Map every label of ``graphs`` to its ``repr``, refusing labels
    that are equal but print differently.

    A :class:`LabelTable` ranks labels by ``repr`` and looks them up by
    label, so equal labels spelled differently — ``1``, ``True`` and
    ``1.0`` — would share one rank under one spelling, and paths that
    print differently would get equal keys.  Vertex and edge labels are
    checked apart (they are ranked apart).  The result is what
    :class:`LabelTable` is built from, so one pass over the labels both
    checks them and feeds the table.  ``known`` holds the spellings of
    graphs checked earlier, as returned by an earlier call (a
    long-lived index passes its own); it is not modified.

    Returns
    -------
    LabelSpellings
        The spellings of ``known`` and ``graphs`` together.

    Raises
    ------
    ParameterError
        Naming both spellings of the first label spelled two ways.
    """
    vertex_seen, edge_seen = (
        ({}, {}) if known is None else (dict(known[0]), dict(known[1]))
    )
    for g in graphs:
        _record_spellings(
            vertex_seen, [g.vertex_label(v) for v in g.vertices()], "vertex"
        )
        _record_spellings(
            edge_seen, [label for _, _, label in g.edges()], "edge"
        )
    return vertex_seen, edge_seen


def _record_spellings(
    seen: Dict[Label, str], labels: List[Label], kind: str
) -> None:
    """Add one graph's ``labels`` to ``seen``, refusing a second spelling."""
    spelled = dict(zip(map(repr, labels), labels))
    for text, label in spelled.items():
        first = seen.setdefault(label, text)
        if first != text:
            raise ParameterError(
                f"{kind} labels {first} and {text} are equal but print "
                "differently; spell each label one way"
            )


class _Ranking:
    """The ranks of one kind of label (vertex or edge).

    ``ranks`` maps each label to its rank and ``labels`` each rank to a
    label that spells it; ``texts`` maps each ``repr`` to its rank, so
    labels with equal ``repr`` count as one label.
    """

    __slots__ = ("ranks", "labels", "texts")

    def __init__(self, spellings: Dict[Label, str]) -> None:
        first: Dict[str, Label] = {}
        for label, text in spellings.items():
            first.setdefault(text, label)
        texts = sorted(first)
        self.labels: List[Label] = [first[text] for text in texts]
        self.texts: Dict[str, int] = {text: rank for rank, text in enumerate(texts)}
        self.ranks: Dict[Label, int] = {
            label: self.texts[text] for label, text in spellings.items()
        }

    def copy(self) -> "_Ranking":
        """An independent copy (for a temporary extension)."""
        other = _Ranking({})
        other.ranks, other.labels = dict(self.ranks), list(self.labels)
        other.texts = dict(self.texts)
        return other

    def append(self, labels: Iterable[Label]) -> bool:
        """Rank the unranked of ``labels`` after every ranked label, in
        the given order (a label whose ``repr`` is ranked takes that
        rank); whether any was unranked."""
        grew = False
        for label in labels:
            if label in self.ranks:
                continue
            text = repr(label)
            rank = self.texts.get(text)
            if rank is None:
                rank = self.texts[text] = len(self.labels)
                self.labels.append(label)
            self.ranks[label] = rank
            grew = True
        return grew


class _Keys(dict):
    """Label-tuple keys of the codes of one ``q`` and digit width: the
    most significant digit first, vertex ranks at even positions and
    edge ranks at odd ones.  Indexing decodes a code once and keeps its
    key (the instances of a mismatch run are decoded pair after pair);
    :meth:`decode` keeps nothing."""

    __slots__ = ("digits", "mask")

    def __init__(self, digits: List[Tuple[int, List[Label]]], mask: int) -> None:
        super().__init__()
        self.digits = digits
        self.mask = mask

    def decode(self, code: int) -> Key:
        """The key of ``code``."""
        mask = self.mask
        return tuple([labels[code >> shift & mask] for shift, labels in self.digits])

    def __missing__(self, code: int) -> Key:
        key = self[code] = self.decode(code)
        return key


class LabelTable:
    """One ranking of a collection's vertex labels and of its edge labels.

    Built from :func:`reject_mixed_label_spellings`' result, each kind
    ranked by ``repr``.  A q-gram's *code* holds one ``width``-bit digit
    per label — vertex ranks at even positions, edge ranks at odd ones,
    the path's first label most significant — so it is the same integer
    in every graph extracted under the table, and comparing two codes
    compares their label sequences in ``repr`` order.

    Ranks are append-only.  :meth:`admit` ranks labels first seen after
    the build (a long-lived index's inserts) after every ranked label,
    in arrival order, and widens the digits when a rank outgrows them;
    a path that carries such a label is then oriented by that rank, not
    by ``repr``.  :meth:`covering` does the same on a temporary copy
    (an index query), leaving this table as it was.  Profiles record the
    width they were coded at, so a code stays decodable after a
    widening.
    """

    __slots__ = ("vertex", "edge", "width", "base", "_keys")

    def __init__(self, spellings: Optional[LabelSpellings] = None) -> None:
        vertex, edge = spellings if spellings is not None else ({}, {})
        self.vertex = _Ranking(vertex)
        self.edge = _Ranking(edge)
        self.width = 0
        self._keys: Dict[Tuple[int, int], _Keys] = {}
        #: The table a temporary extension extends (else ``None``).
        self.base: Optional[LabelTable] = None
        self._widen()

    @classmethod
    def of(cls, graphs: Iterable[Graph]) -> "LabelTable":
        """The table of ``graphs``' labels (spellings checked)."""
        return cls(reject_mixed_label_spellings(graphs))

    def _widen(self) -> None:
        self.width = max(
            self.width, max(len(self.vertex.labels), len(self.edge.labels)).bit_length()
        )

    def admit(self, g: Graph) -> bool:
        """Rank ``g``'s unseen labels after the ranked ones, in arrival
        order — vertex labels in vertex order, edge labels in edge order
        — widening the digits if a rank outgrows them; whether any label
        was unseen."""
        vertex = self.vertex.append(g.vertex_label(v) for v in g.vertices())
        edge = self.edge.append(label for _, _, label in g.edges())
        self._widen()
        return vertex or edge

    def covering(self, g: Graph) -> "LabelTable":
        """This table when it ranks every label of ``g``; otherwise a
        temporary extension that ranks ``g``'s unseen labels as
        :meth:`admit` would, while this table stays as it was."""
        extension = LabelTable()
        extension.vertex, extension.edge = self.vertex.copy(), self.edge.copy()
        extension.width, extension.base = self.width, self
        return extension if extension.admit(g) else self

    def keys(self, q: int, width: int) -> _Keys:
        """The keys of ``q``-gram codes cut at digit ``width``, decoded on
        demand (ranks are append-only, so a decoded key never goes
        stale)."""
        keys = self._keys.get((q, width))
        if keys is None:
            digits = [
                ((2 * q - i) * width, self.vertex.labels if i % 2 == 0 else self.edge.labels)
                for i in range(2 * q + 1)
            ]
            keys = self._keys[q, width] = _Keys(digits, (1 << width) - 1)
        return keys


def recode(codes: Iterable[int], q: int, width: int, new_width: int) -> List[int]:
    """``codes`` of ``q``-grams re-cut from ``width``-bit to
    ``new_width``-bit digits.

    Widening always fits.  Narrowing gives ``-1``, which is no code,
    for a code with a digit past the narrower range: such a code holds
    a label the narrower digits never ranked.
    """
    mask, limit = (1 << width) - 1, 1 << new_width
    shifts = [(i * width, i * new_width) for i in range(2 * q + 1)]
    recoded: List[int] = []
    for code in codes:
        digits = [(code >> old & mask, new) for old, new in shifts]
        recoded.append(
            -1
            if any(digit >= limit for digit, _ in digits)
            else sum(digit << new for digit, new in digits)
        )
    return recoded


class QGramProfile:
    """All q-gram derived quantities of one graph.

    Built eagerly by :func:`extract_qgrams` (the instance arrays are in
    *enumeration order*, the order of the depth-first path walk):

    ``graph``, ``q``
        The profiled graph and the q-gram length used.
    ``d_path``
        ``D_path = max_u |Q_u|`` — the maximum number of q-grams a single
        edit operation can affect (Theorem 1); 0 for a gram-less graph.
    ``vertices``
        The graph's vertices; a *dense id* is an index into this list.
    ``table``, ``width``
        The :class:`LabelTable` the codes are under and the digit width
        they were cut at.
    ``codes``
        The graph's distinct codes, one per distinct oriented label
        sequence, in order of first enumeration.
    ``gram_keys``
        Per instance, the index of its code in ``codes`` (a compact
        unsigned :class:`array.array`).
    ``walks``
        The instances' paths laid end to end: ``q + 1`` dense ids per
        instance (a compact unsigned :class:`array.array`).

    Attached by :meth:`repro.grams.vocab.QGramVocabulary.sort_profile`
    (``None`` until then):

    ``order``
        The sort permutation: position ``k`` of the global ordering
        holds the instance enumerated ``order[k]``-th.
    ``signature``
        Interned integer ids of the instances in the global ordering,
        which is ascending id.
    ``signature_source``
        The vocabulary that interned the signature (identity-compared by
        :func:`repro.grams.mismatch.compare_qgrams` and the columnar
        store, which refuse signatures from different vocabularies).

    Built on demand: :attr:`grams`, the instances as :class:`QGram`
    objects in the current order (keys decoded from the table), and
    :meth:`instances`, a run of them.
    """

    __slots__ = (
        "graph",
        "q",
        "d_path",
        "vertices",
        "table",
        "width",
        "codes",
        "gram_keys",
        "walks",
        "order",
        "signature",
        "signature_source",
        "_grams",
    )

    def __init__(
        self,
        graph: Graph,
        q: int,
        d_path: int,
        vertices: List[Vertex],
        table: LabelTable,
        width: int,
        codes: List[int],
        gram_keys: Sequence[int],
        walks: Sequence[int],
    ) -> None:
        self.graph = graph
        self.q = q
        self.d_path = d_path
        self.vertices = vertices
        self.table = table
        self.width = width
        self.codes = codes
        self.gram_keys = gram_keys
        self.walks = walks
        self.order: Optional[List[int]] = None
        self.signature: Optional[List[int]] = None
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
        codes, gram_keys, vertices = self.codes, self.gram_keys, self.vertices
        walks, width = self.walks, self.q + 1
        keys = self.table.keys(self.q, self.width)
        return [
            QGram(
                keys[codes[gram_keys[e]]],
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

    def attach_signature(self, ids: List[int], source: object) -> None:
        """Sort the instances by interned id and record the signature.

        ``ids[k]`` must be the interned id of the key of the ``k``-th
        enumerated instance, and ascending id the global ordering.
        Equal ids keep their enumeration order: the sort is stable,
        matching a sort by object key exactly.  The instance arrays stay
        in enumeration order; the permutation goes to ``order``, and a
        built ``grams`` list is dropped so the next access rebuilds it
        in the new order.
        """
        order = sorted(range(len(ids)), key=ids.__getitem__)
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


def extract_qgrams(
    g: Graph, q: int, table: Optional[LabelTable] = None
) -> QGramProfile:
    """Extract the path-based q-gram profile of ``g`` under ``table``.

    ``table`` must rank every label of ``g``; without one, ``g`` is
    profiled under a table of its own labels (:meth:`LabelTable.of`).
    For ``q = 0`` every vertex is its own q-gram and ``D_path = 1``
    (relabeling or deleting a vertex affects exactly its own 0-gram).

    The walk runs level by level over dense vertex ids: level ``d``
    holds every simple path of ``d`` edges, each extended by every
    neighbour not on it, parents and neighbours in enumeration order —
    so the leaves come out in depth-first order.  Each label is looked
    up in the table once per graph, and every partial path carries its
    label sequence read in both directions as a code, so the canonical
    orientation of a leaf is the smaller of two integers.  Undirected
    paths are kept in the orientation whose start precedes its end in
    enumeration order, which reports each path once.  Nothing is
    decoded: keys are built from the codes only when a :class:`QGram`
    is.

    Raises
    ------
    ParameterError
        If ``q`` is negative, ``table`` lacks a label of ``g``, or
        (without a table) ``g`` has labels that are equal but print
        differently.
    """
    if q < 0:
        raise ParameterError(f"q must be >= 0, got {q}")
    if table is None:
        table = LabelTable.of([g])
    vertices = list(g.vertices())
    position = {v: i for i, v in enumerate(vertices)}
    vertex_rank, edge_rank = table.vertex.ranks, table.edge.ranks
    # A label sequence is an integer, one ``width``-bit digit per label.
    width = table.width
    try:
        ranks = [vertex_rank[g.vertex_label(v)] for v in vertices]
        # Per adjacency entry: (neighbour id, forward step, backward
        # step) — the two label digits the step appends to the forward
        # reading and prepends to the backward one.
        adjacency = [
            [
                (u, edge << width | ranks[u], ranks[u] << width | edge)
                for w, label in g.neighbor_items(v)
                for u, edge in ((position[w], edge_rank[label]),)
            ]
            for v in vertices
        ]
    except KeyError as missing:
        raise ParameterError(
            f"label {missing.args[0]!r} of graph {g.graph_id!r} is not in "
            "the label table"
        ) from None

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

    index = {code: k for k, code in enumerate(dict.fromkeys(codes))}
    return QGramProfile(
        graph=g,
        q=q,
        d_path=max(Counter(walks).values(), default=0),
        vertices=vertices,
        table=table,
        width=width,
        codes=list(index),
        gram_keys=_compact([index[code] for code in codes], len(index)),
        walks=walks,
    )
