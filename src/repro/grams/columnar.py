"""Columnar (CSR-style) signature store over a profile collection.

The per-pair filter cascade consumes interned q-gram signatures and
label multisets one Python object at a time; the batch kernels of
:mod:`repro.engine.batch` instead evaluate whole candidate blocks as
numpy array operations.  This module owns the data layout those kernels
read: the entire collection laid out as contiguous int64 arrays.

Multisets are stored *compressed*: each CSR row is a sorted run of
distinct values with a parallel count column, so a row costs
``O(distinct)`` elements rather than ``O(multiplicity)`` — label
multisets over a handful of distinct labels shrink ~10×, and the
intersection kernel (:func:`repro.engine.batch.block_multiset_intersections`)
reduces to ``Σ min(count_row, count_r)`` over matched values.

* ``sig_offsets``/``sig_values``/``sig_counts`` — compressed rows of
  each graph's interned q-gram multiset (``sig_size`` keeps the total
  with multiplicity);
* ``lab_offsets``/``lab_values``/``lab_counts`` — compressed rows of
  the *combined* vertex+edge label multisets: vertex labels interned to
  ``2·id``, edge labels to ``2·id + 1`` (disjoint even/odd ranges), so
  the global label filter's two per-type intersections collapse into
  one kernel call — ``Γ_v + Γ_e = max(|Av|,|Bv|) + max(|Ae|,|Be|) −
  |A ∩ B|`` with the per-type sizes kept in the ``vlab_len``/
  ``elab_len`` columns;
* parallel scalar columns ``num_vertices``, ``num_edges``, ``d_path``
  and ``sig_size``.

Every row's signature ids come from the store's one vocabulary (the
first row's ``signature_source``): the batch count kernel intersects
ids, so a profile sorted by another vocabulary is refused.

Rows are only ever appended, by one encoder: :meth:`ColumnarStore.extend`
encodes the new rows and concatenates them onto every column, and
:func:`build_columnar_store` is an empty store extended by a whole
collection.  An extended store therefore equals a fresh build over all
its rows, in every column and in its label interners.  A join builds
one store per run and never extends it, so its store is safe to ship
to worker processes (plain ndarrays and label dicts).
:class:`~repro.core.search.GSimIndex` keeps one store for its whole
life: its first batched query builds it, and each later query that
follows inserts extends it by the graphs inserted since.  That query
pays the new rows' encoding plus one copy of every column, not a
re-encoding of every row (``docs/PERFORMANCE.md`` § Extending the
index's store has the timings).  ``extend`` changes the store object
in place: it rebinds each column to a new, longer array and adds
unseen labels to the interners, so every holder of the store sees the
new rows, while arrays handed out before (the views of
:meth:`ColumnarStore.row`) are never written.

A graph outside the store (an index query, sorted by the store's
vocabulary) enters the kernels through
:meth:`ColumnarStore.external_row`, which maps unseen labels to unique
*negative* ids — never colliding with the store's non-negative ids, so
multiset intersections stay exact.

Requires numpy; import the module freely, but call
:func:`build_columnar_store` only when :data:`HAVE_NUMPY` is true (the
engine's scalar path never touches this module).
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ParameterError
from repro.grams.qgrams import QGramProfile

if TYPE_CHECKING:
    import numpy as np
else:
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - exercised by the no-numpy job
        np = None

#: Whether numpy is importable — the batch pipeline's availability flag.
HAVE_NUMPY = np is not None

__all__ = ["HAVE_NUMPY", "SignatureRow", "ColumnarStore", "build_columnar_store"]


class SignatureRow:
    """One graph's columns, as the batch kernels consume them.

    Either a zero-copy view into a :class:`ColumnarStore` row
    (:meth:`ColumnarStore.row`) or a store-compatible encoding of an
    outside graph (:meth:`ColumnarStore.external_row`).
    ``sig_values``/``sig_counts`` hold the compressed interned q-gram
    multiset (sorted distinct ids + multiplicities, ``sig_size`` the
    total), ``lab_values``/``lab_counts`` the compressed combined
    even/odd label multiset (``vlab_len``/``elab_len`` the per-type
    totals).
    """

    __slots__ = (
        "sig_values",
        "sig_counts",
        "sig_size",
        "num_vertices",
        "num_edges",
        "d_path",
        "lab_values",
        "lab_counts",
        "vlab_len",
        "elab_len",
    )

    def __init__(
        self,
        sig_values: "np.ndarray",
        sig_counts: "np.ndarray",
        sig_size: int,
        num_vertices: int,
        num_edges: int,
        d_path: int,
        lab_values: "np.ndarray",
        lab_counts: "np.ndarray",
        vlab_len: int,
        elab_len: int,
    ) -> None:
        """Bind one row's columns (arrays are not copied)."""
        self.sig_values = sig_values
        self.sig_counts = sig_counts
        self.sig_size = sig_size
        self.num_vertices = num_vertices
        self.num_edges = num_edges
        self.d_path = d_path
        self.lab_values = lab_values
        self.lab_counts = lab_counts
        self.vlab_len = vlab_len
        self.elab_len = elab_len


def _compress(counts: Counter) -> Tuple["np.ndarray", "np.ndarray"]:
    """A ``{value: count}`` mapping as sorted (values, counts) arrays."""
    if not counts:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    items = sorted(counts.items())
    values = np.asarray([v for v, _ in items], dtype=np.int64)
    cnts = np.asarray([c for _, c in items], dtype=np.int64)
    return values, cnts


def _combined_labels(
    labels: Tuple,
    vlabel_ids: Dict[object, int],
    elabel_ids: Dict[object, int],
) -> Counter:
    """One graph's label pair as a combined even/odd id Counter.

    Grows the interners as needed; vertex labels encode to ``2·id``,
    edge labels to ``2·id + 1``.
    """
    combined: Counter = Counter()
    for counts, interner, parity in zip(
        labels, (vlabel_ids, elabel_ids), (0, 1)
    ):
        for label, count in counts.items():
            combined[2 * interner.setdefault(label, len(interner)) + parity] = (
                count
            )
    return combined


def _require_signed(profile: QGramProfile, source: Optional[object]) -> None:
    """Refuse a profile not sorted by the store's vocabulary ``source``."""
    if source is None or profile.signature_source is not source:
        raise ParameterError(
            "the columnar store needs every profile sorted by its own "
            "vocabulary: sort it with the QGramVocabulary that sorted "
            "the store's rows"
        )


def _appended_csr(
    offsets: "np.ndarray",
    values: "np.ndarray",
    counts: "np.ndarray",
    rows: List[Tuple["np.ndarray", "np.ndarray"]],
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """New CSR columns: ``(offsets, values, counts)`` plus ``rows``."""
    lengths = [row_values.shape[0] for row_values, _ in rows]
    ends = offsets[-1] + np.cumsum(lengths, dtype=np.int64)
    return (
        np.concatenate((offsets, ends)),
        np.concatenate([values] + [v for v, _ in rows]),
        np.concatenate([counts] + [c for _, c in rows]),
    )


def _grown(column: "np.ndarray", tail: Sequence) -> "np.ndarray":
    """A new array: ``column`` followed by ``tail`` in its dtype."""
    return np.concatenate((column, np.asarray(tail, dtype=column.dtype)))


class ColumnarStore:
    """The whole collection as contiguous parallel numpy columns.

    Built by :func:`build_columnar_store` and grown only by
    :meth:`extend`.  Row order is the profile order the store was built
    and extended from, so join/search drivers index it by the same
    positions they use for ``profiles`` (plus a caller-side base offset
    for concatenated collections).
    """

    __slots__ = (
        "source",
        "sig_offsets",
        "sig_values",
        "sig_counts",
        "lab_offsets",
        "lab_values",
        "lab_counts",
        "num_vertices",
        "num_edges",
        "d_path",
        "sig_size",
        "vlab_len",
        "elab_len",
        "vlabel_ids",
        "elabel_ids",
    )

    def __init__(self) -> None:
        """An empty store: no rows, no vocabulary, empty interners."""
        self.source: Optional[object] = None
        self.sig_offsets = np.zeros(1, dtype=np.int64)
        self.sig_values = np.zeros(0, dtype=np.int64)
        self.sig_counts = np.zeros(0, dtype=np.int64)
        self.lab_offsets = np.zeros(1, dtype=np.int64)
        self.lab_values = np.zeros(0, dtype=np.int64)
        self.lab_counts = np.zeros(0, dtype=np.int64)
        self.num_vertices = np.zeros(0, dtype=np.int64)
        self.num_edges = np.zeros(0, dtype=np.int64)
        self.d_path = np.zeros(0, dtype=np.int64)
        self.sig_size = np.zeros(0, dtype=np.int64)
        self.vlab_len = np.zeros(0, dtype=np.int64)
        self.elab_len = np.zeros(0, dtype=np.int64)
        self.vlabel_ids: Dict[object, int] = {}
        self.elabel_ids: Dict[object, int] = {}

    def extend(
        self, profiles: Sequence[QGramProfile], labels: Sequence[Tuple]
    ) -> None:
        """Append one row per profile, in order — the store's one encoder.

        ``labels[i]`` is the ``(vertex, edge)`` label-multiset pair of
        ``profiles[i].graph``.  A store without a vocabulary yet takes
        the first profile's ``signature_source``.  Labels the store
        never saw are interned after the existing ids, so the result
        equals :func:`build_columnar_store` over all rows at once.
        Every column is rebound to a new, longer array; arrays handed
        out before (``row`` views) keep the rows they had.

        Raises
        ------
        ParameterError
            If a profile is not sorted by the store's vocabulary (the
            store is then unchanged).
        """
        source = self.source
        if source is None and profiles:
            source = profiles[0].signature_source
        for profile in profiles:
            _require_signed(profile, source)
        self.source = source
        sig_rows: List[Tuple["np.ndarray", "np.ndarray"]] = []
        lab_rows: List[Tuple["np.ndarray", "np.ndarray"]] = []
        scalars: List[Tuple[int, int, int, int, int, int]] = []
        for profile, pair in zip(profiles, labels):
            sig_rows.append(_compress(Counter(profile.signature)))
            lab_rows.append(
                _compress(_combined_labels(pair, self.vlabel_ids, self.elabel_ids))
            )
            g = profile.graph
            scalars.append((
                g.num_vertices,
                g.num_edges,
                profile.d_path,
                profile.size,
                sum(pair[0].values()),
                sum(pair[1].values()),
            ))
        self.sig_offsets, self.sig_values, self.sig_counts = _appended_csr(
            self.sig_offsets, self.sig_values, self.sig_counts, sig_rows
        )
        self.lab_offsets, self.lab_values, self.lab_counts = _appended_csr(
            self.lab_offsets, self.lab_values, self.lab_counts, lab_rows
        )
        (
            num_vertices, num_edges, d_path, sig_size, vlab_len, elab_len,
        ) = np.asarray(scalars, dtype=np.int64).reshape(-1, 6).T
        self.num_vertices = _grown(self.num_vertices, num_vertices)
        self.num_edges = _grown(self.num_edges, num_edges)
        self.d_path = _grown(self.d_path, d_path)
        self.sig_size = _grown(self.sig_size, sig_size)
        self.vlab_len = _grown(self.vlab_len, vlab_len)
        self.elab_len = _grown(self.elab_len, elab_len)

    def __len__(self) -> int:
        """Number of rows (graphs) in the store."""
        return len(self.num_vertices)

    def row(self, i: int) -> SignatureRow:
        """Row ``i`` as a :class:`SignatureRow` of zero-copy views.

        Scalar fields stay numpy scalars (no ``int()`` round-trips —
        the kernels only feed them back into array arithmetic, and the
        conversion cost is measurable at one row per probe).
        """
        sig_span = slice(self.sig_offsets[i], self.sig_offsets[i + 1])
        lab_span = slice(self.lab_offsets[i], self.lab_offsets[i + 1])
        return SignatureRow(
            sig_values=self.sig_values[sig_span],
            sig_counts=self.sig_counts[sig_span],
            sig_size=self.sig_size[i],
            num_vertices=self.num_vertices[i],
            num_edges=self.num_edges[i],
            d_path=self.d_path[i],
            lab_values=self.lab_values[lab_span],
            lab_counts=self.lab_counts[lab_span],
            vlab_len=self.vlab_len[i],
            elab_len=self.elab_len[i],
        )

    def external_row(self, profile: QGramProfile, labels: Tuple) -> SignatureRow:
        """Encode a graph *outside* the store for batching against it.

        ``labels`` is the graph's ``(vertex, edge)`` label-multiset
        pair, as the drivers cache it.  Labels the store never saw map
        to unique negative ids of the matching parity (the same unseen
        label always maps to the same negative id within this row), so
        they can never match a store id and the intersection kernels
        stay exact.

        Raises
        ------
        ParameterError
            If the profile is not sorted by the store's vocabulary.
        """
        _require_signed(profile, self.source)
        sig_values, sig_counts = _compress(Counter(profile.signature))
        combined: Counter = Counter()
        lens = []
        for counts, interner, parity in zip(
            labels, (self.vlabel_ids, self.elabel_ids), (0, 1)
        ):
            unseen: Dict[object, int] = {}
            size = 0
            for label, count in counts.items():
                label_id = interner.get(label)
                if label_id is None:
                    label_id = unseen.setdefault(label, -1 - len(unseen))
                combined[2 * label_id + parity] = count
                size += count
            lens.append(size)
        lab_values, lab_counts = _compress(combined)
        g = profile.graph
        return SignatureRow(
            sig_values=sig_values,
            sig_counts=sig_counts,
            sig_size=profile.size,
            num_vertices=g.num_vertices,
            num_edges=g.num_edges,
            d_path=profile.d_path,
            lab_values=lab_values,
            lab_counts=lab_counts,
            vlab_len=lens[0],
            elab_len=lens[1],
        )


def build_columnar_store(
    profiles: Sequence[QGramProfile], labels: Sequence[Tuple]
) -> ColumnarStore:
    """Lay ``profiles`` (with their cached label pairs) out columnar.

    An empty :class:`ColumnarStore` extended by every row at once; see
    :meth:`ColumnarStore.extend` for the encoding.
    """
    store = ColumnarStore()
    store.extend(profiles, labels)
    return store
