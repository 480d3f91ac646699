"""Vectorized batch filter kernels over the columnar signature store.

The scalar engine evaluates the size, global-label (Lemma 5) and count
(Lemma 1) filters one :class:`~repro.engine.stages.PairContext` at a
time; this module evaluates them over whole candidate blocks as numpy
array operations against a :class:`~repro.grams.columnar.ColumnarStore`.
Survivors fall through to the scalar ``LabelFilter``/``MulticoverFilter``
/``Verify`` stages unchanged, carrying a *hint set* of stage names the
kernels already proved passed so the scalar cascade skips them.

Parity contract (asserted by ``tests/test_batch_parity.py`` and
in-bench): for every pair the kernels reproduce the scalar filters'
verdicts bit-for-bit —

* size: ``||V_r|−|V_s|| + ||E_r|−|E_s|| ≤ τ`` is a pure broadcast
  compare over the ``num_vertices``/``num_edges`` columns;
* global label: ``Γ(A, B) = max(|A|, |B|) − |A ∩ B|`` with the multiset
  intersection computed by :func:`block_multiset_intersections` over
  the interned label-id rows — label interning is bijective, so id
  intersections equal label intersections;
* count: the scalar filter prunes iff the *final* mismatch counts
  satisfy ``ε_r > τ·D_path(r)`` or ``ε_s > τ·D_path(s)`` (the merge
  path's early bailout triggers exactly when the final counts would,
  since the counts only grow), and ``ε_r = |Q_r| − |Q_r ∩ Q_s|``, so
  one signature-intersection kernel decides the whole block.  Applies
  only to rows whose signature ids come from the store's vocabulary
  (``mergeable``); other pairs simply leave the batch and rejoin the
  scalar cascade with the hints they earned.

Prune *attribution* matches the scalar cascade because stages run in
plan order and each pair is charged to the first stage that prunes it.
"""

from __future__ import annotations

import time
from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.engine.options import GSimJoinOptions
from repro.engine.stages import PairFilter
from repro.exceptions import ParameterError
from repro.grams.columnar import HAVE_NUMPY, ColumnarStore, SignatureRow, np

__all__ = [
    "MIN_BATCH_BLOCK",
    "BlockVerdicts",
    "resolve_batch",
    "block_multiset_intersections",
    "block_size_filter",
    "evaluate_block",
]

#: Blocks smaller than this are not worth a kernel dispatch: the fixed
#: per-call numpy overhead (~tens of µs) exceeds the scalar cascade's
#: cost on a handful of pairs, so the engine falls back to the scalar
#: stages below it.  Parity is unaffected — both paths compute the
#: same verdicts; only the dispatch choice shifts.
MIN_BATCH_BLOCK = 8


def resolve_batch(options: GSimJoinOptions) -> bool:
    """Decide whether this run batches, validating an explicit request.

    ``batch=None`` (the default) resolves to "yes" exactly when numpy
    is importable and the pipeline runs on interned signatures — the
    object-key reference path (``interned=False``) stays the scalar
    parity oracle.  An explicit ``batch=True`` must be honorable.

    Raises
    ------
    ParameterError
        On ``batch=True`` without numpy installed, or combined with
        ``interned=False``.
    """
    if options.batch is None:
        return HAVE_NUMPY and options.interned
    if not options.batch:
        return False
    if not HAVE_NUMPY:
        raise ParameterError(
            "GSimJoinOptions(batch=True) requires numpy, which is not "
            "installed; install the 'fast' extra (pip install "
            "'repro[fast]') or leave batch unset to use the scalar path"
        )
    if not options.interned:
        raise ParameterError(
            "GSimJoinOptions(batch=True) requires interned=True: the "
            "batch kernels operate on interned integer signatures"
        )
    return True


class BlockVerdicts:
    """Per-pair outcomes of the batch kernels over one candidate block.

    Positions index the block (the ``rows`` sequence given to
    :func:`evaluate_block`).  ``tags[t]`` is the prune tag of a pair
    the kernels rejected (``None`` for survivors); ``depths[t]`` is how
    many leading cascade stages position ``t`` passed in batch —
    :meth:`hint_for` turns it into the stage-name set the scalar
    cascade may skip.  ``pruned_per_stage``/``stage_seconds`` carry the
    per-stage accounting the executor folds into its statistics rows;
    they cover only the stages that actually ran, which may be fewer
    than requested when :func:`evaluate_block` exits early on a
    shrunken block.
    """

    __slots__ = (
        "tags",
        "depths",
        "pruned_per_stage",
        "stage_seconds",
        "hint_sets",
    )

    def __init__(
        self,
        tags: List[Optional[str]],
        depths: List[int],
        pruned_per_stage: List[int],
        stage_seconds: List[float],
        hint_sets: Tuple[FrozenSet[str], ...],
    ) -> None:
        """Bind one block's verdicts (see :func:`evaluate_block`)."""
        self.tags = tags
        self.depths = depths
        self.pruned_per_stage = pruned_per_stage
        self.stage_seconds = stage_seconds
        self.hint_sets = hint_sets

    def hint_for(self, t: int) -> Optional[FrozenSet[str]]:
        """Stage names position ``t`` already passed (``None`` if none)."""
        depth = self.depths[t]
        return self.hint_sets[depth] if depth else None


def block_multiset_intersections(
    r_values: "np.ndarray",
    r_counts: "np.ndarray",
    flat_values: "np.ndarray",
    flat_counts: "np.ndarray",
    offsets: "np.ndarray",
    rows: "np.ndarray",
) -> "np.ndarray":
    """``|M_r ∩ M_j|`` for every row ``j`` in ``rows``, vectorized.

    All multisets are *compressed*: sorted distinct values with a
    parallel count column (``r_values``/``r_counts`` for the probe
    side, ``flat_values``/``flat_counts``/``offsets`` a CSR matrix for
    the store side).  Each gathered distinct value contributes
    ``min(count_row, count_r)`` when present in ``r`` — one
    ``searchsorted`` over the whole block plus a per-segment
    ``bincount`` yields ``Σ_v min(c_row(v), c_r(v))`` exactly, touching
    ``O(distinct)`` elements per row instead of ``O(multiplicity)``.
    """
    block = rows.shape[0]
    starts = offsets[rows]
    lens = offsets[rows + 1] - starts
    total = int(lens.sum())
    if total == 0 or r_values.shape[0] == 0:
        return np.zeros(block, dtype=np.int64)
    seg_ids = np.repeat(np.arange(block, dtype=np.int64), lens)
    # Gather index: global position minus its segment's start, plus the
    # segment's CSR start — one repeat instead of two per-element
    # gathers.
    idx = np.arange(total, dtype=np.int64) + np.repeat(
        starts - (np.cumsum(lens) - lens), lens
    )
    values = flat_values[idx]
    pos = np.searchsorted(r_values, values)
    pos[pos == r_values.shape[0]] = 0  # any in-range slot; masked below
    contrib = np.minimum(flat_counts[idx], r_counts[pos])
    contrib *= r_values[pos] == values
    return np.bincount(
        seg_ids, weights=contrib, minlength=block
    ).astype(np.int64)


def block_size_filter(
    store: ColumnarStore,
    num_vertices: int,
    num_edges: int,
    rows: "np.ndarray",
    tau: int,
) -> "np.ndarray":
    """Size-filter pass mask for one probe graph against ``rows``.

    The vectorized twin of
    :func:`repro.engine.count_filter.passes_size_filter`:
    ``||V_r|−|V_j|| + ||E_r|−|E_j|| ≤ τ``.
    """
    return (
        np.abs(store.num_vertices[rows] - num_vertices)
        + np.abs(store.num_edges[rows] - num_edges)
    ) <= tau


def _global_label_prune(
    store: ColumnarStore, r_row: SignatureRow, rows: "np.ndarray", tau: int
) -> "np.ndarray":
    """Prune mask of the global label filter (Lemma 5) over ``rows``.

    The store keeps vertex and edge label ids combined in disjoint
    even/odd ranges, so one intersection kernel yields
    ``|A_v ∩ B_v| + |A_e ∩ B_e|`` and
    ``Γ_v + Γ_e = max(|A_v|,|B_v|) + max(|A_e|,|B_e|)`` minus it.
    """
    inter = block_multiset_intersections(
        r_row.lab_values,
        r_row.lab_counts,
        store.lab_values,
        store.lab_counts,
        store.lab_offsets,
        rows,
    )
    gamma = (
        np.maximum(store.vlab_len[rows], r_row.vlab_len)
        + np.maximum(store.elab_len[rows], r_row.elab_len)
        - inter
    )
    return gamma > tau


def _count_prune(
    store: ColumnarStore, r_row: SignatureRow, rows: "np.ndarray", tau: int
) -> "np.ndarray":
    """Prune mask of the count filter (Lemma 1) over mergeable ``rows``."""
    inter = block_multiset_intersections(
        r_row.sig_values,
        r_row.sig_counts,
        store.sig_values,
        store.sig_counts,
        store.sig_offsets,
        rows,
    )
    eps_r = r_row.sig_size - inter
    eps_s = store.sig_size[rows] - inter
    return (eps_r > tau * r_row.d_path) | (eps_s > tau * store.d_path[rows])


def evaluate_block(
    store: ColumnarStore,
    r_row: SignatureRow,
    rows: Sequence[int],
    tau: int,
    stages: Sequence[PairFilter],
) -> BlockVerdicts:
    """Run the cascade's leading batchable filters over one block.

    ``stages`` are the plan's first two pair filters (global label,
    then count); they are evaluated in that order,
    pairs being charged to the first stage that prunes them.  A pair
    the count kernel cannot handle (either side not ``mergeable``)
    leaves the batch at that stage with the hints it earned; it is
    neither pruned nor hinted further, and the scalar cascade resumes
    from exactly that stage.  The same applies to every survivor when
    the block shrinks under :data:`MIN_BATCH_BLOCK` mid-cascade: later
    stages are skipped wholesale (the verdicts then report fewer
    stages than requested) and the scalar cascade finishes the pairs.
    """
    block = len(rows)
    row_array = np.asarray(rows, dtype=np.int64)
    alive = np.ones(block, dtype=bool)
    depth = np.zeros(block, dtype=np.int64)
    tags: List[Optional[str]] = [None] * block
    pruned_per_stage: List[int] = []
    stage_seconds: List[float] = []
    names: List[str] = []
    for stage in stages:
        names.append(stage.name)
        started = time.perf_counter()
        kernel = (
            _count_prune if stage.name == "count-filter"
            else _global_label_prune
        )
        if stage.name == "count-filter":
            if not r_row.mergeable:
                # The probe side has no store-vocabulary signature: the
                # whole remaining block leaves the batch here.
                alive[:] = False
                pruned_per_stage.append(0)
                stage_seconds.append(time.perf_counter() - started)
                continue
            eligible = alive & store.mergeable[row_array]
        else:
            eligible = alive
        # Whole-block kernel when everything is still eligible (the
        # common case); subset only when rows have already dropped out,
        # so the steady state pays no gather/scatter bookkeeping.
        if eligible.all():
            prune = kernel(store, r_row, row_array, tau)
        elif not eligible.any():
            alive = eligible
            pruned_per_stage.append(0)
            stage_seconds.append(time.perf_counter() - started)
            continue
        else:
            idx = np.nonzero(eligible)[0]
            prune = np.zeros(block, dtype=bool)
            prune[idx[kernel(store, r_row, row_array[idx], tau)]] = True
        alive = eligible & ~prune
        n_pruned = int(prune.sum())
        if n_pruned:
            for t in np.nonzero(prune)[0].tolist():
                tags[t] = stage.tag
        depth[alive] += 1
        pruned_per_stage.append(n_pruned)
        stage_seconds.append(time.perf_counter() - started)
        # Once the surviving block is smaller than the dispatch
        # threshold, further kernel calls cost more than the scalar
        # cascade — stop here and let survivors continue scalar with
        # the hints they earned (callers must not assume all stages
        # ran; see BlockVerdicts).
        if (
            len(names) < len(stages)
            and int(alive.sum()) < MIN_BATCH_BLOCK
        ):
            break
    hint_sets = tuple(
        frozenset(names[:d]) for d in range(len(names) + 1)
    )
    return BlockVerdicts(
        tags=tags,
        depths=depth.tolist(),
        pruned_per_stage=pruned_per_stage,
        stage_seconds=stage_seconds,
        hint_sets=hint_sets,
    )
