"""The staged execution engine driving every join/search entry point.

One :class:`Executor` instance carries the cross-cutting run state —
threshold, options, :class:`~repro.engine.plan.JoinPlan`, statistics,
optional :class:`~repro.runtime.budget.VerificationBudget` and the
compiled-verifier :class:`~repro.ged.compiled.VerificationCache` — and
exposes the plan's stages as driver-callable operations: ``prepare``
(collection preparation + prefix decisions), ``collect_candidates``
(index probing with the fused size filter), ``verify_candidate`` (the
timed per-pair cascade + GED), and ``replay``/``apply_worker_record``
(accruing journaled or worker-produced
:class:`~repro.runtime.journal.VerificationRecord` outcomes).

The four public entry points — ``gsim_join``, ``gsim_join_rs``,
``gsim_join_parallel`` and ``GSimIndex.query`` — are thin drivers over
this one machine: :func:`execute_self_join` and :func:`execute_rs_join`
live here, the parallel driver in :mod:`repro.engine.parallel`, and the
index in :mod:`repro.core.search`.  Every stage reports survivor counts
and wall time into the :class:`~repro.engine.result.StageStatistics`
rows of the run's :class:`~repro.engine.result.JoinStatistics` (merged
by stage name, so a long-lived index accumulates across queries).

Phase-timing semantics (``index_time``/``candidate_time``/
``verify_time``/``ged_time``) are owned by the *drivers* and preserved
exactly from the pre-engine implementations; the per-stage rows are the
new, finer-grained layer underneath them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.engine.batch import (
    MIN_BATCH_BLOCK,
    BlockVerdicts,
    batchable_prefix,
    block_size_filter,
    evaluate_block,
    resolve_batch,
)
from repro.engine.count_filter import passes_size_filter
from repro.engine.inverted_index import InvertedIndex
from repro.engine.options import (
    GSimJoinOptions,
    Sorter,
    build_sorter,
    validate_collection,
)
from repro.engine.plan import JoinPlan, build_plan, reorder_pair_filters
from repro.engine.planner import (
    advise_parameters,
    collect_statistics,
    static_choice,
)
from repro.engine.prefix import PrefixInfo
from repro.engine.result import (
    BoundedPair,
    JoinResult,
    JoinStatistics,
    StageStatistics,
)
from repro.engine.stages import PairContext, VerifyOutcome
from repro.exceptions import ParameterError
from repro.ged.compiled import VerificationCache
from repro.ged.portfolio import validate_backend_options
from repro.graph.graph import Graph
from repro.grams.columnar import (
    ColumnarStore,
    SignatureRow,
    build_columnar_store,
    np,
)
from repro.grams.qgrams import QGramProfile, extract_qgrams
from repro.runtime.budget import VerificationBudget
from repro.runtime.faults import FaultPlan
from repro.runtime.journal import JoinJournal, VerificationRecord

__all__ = [
    "Executor",
    "execute_self_join",
    "execute_rs_join",
    "record_of",
    "self_join_meta",
    "rs_join_meta",
]

#: Which JoinStatistics counter each filter's ``pruned_by`` tag feeds
#: (``multicover`` shares the local-label counter, as historically).
_PRUNE_COUNTERS: Dict[str, str] = {
    "global_label": "pruned_by_global_label",
    "count": "pruned_by_count",
    "local_label": "pruned_by_local_label",
    "multicover": "pruned_by_local_label",
}

LabelPair = Tuple


def record_of(i: int, j: int, outcome: VerifyOutcome) -> VerificationRecord:
    """Freeze one verification outcome into a journal record."""
    return VerificationRecord(
        i=i,
        j=j,
        is_result=outcome.is_result,
        pruned_by=outcome.pruned_by,
        ged=outcome.ged,
        expansions=outcome.expansions,
        ged_seconds=outcome.ged_seconds,
        undecided=outcome.undecided,
        lower=outcome.lower,
        upper=outcome.upper,
        backend=outcome.backend,
    )


def _options_meta(options: GSimJoinOptions) -> dict:
    """``options`` as a journal-header dict, omitting an unset plan.

    Pre-engine journals were written before the ``plan`` field existed,
    so a defaulted plan is dropped from the header — a resumed run with
    ``plan=None`` reproduces the historical meta byte-for-byte.  An
    explicit plan stays in (reordering the cascade shifts journaled
    prune attribution, so such journals must not cross plans).
    ``batch`` is *always* dropped: the batch kernels are bit-identical
    to the scalar cascade, so a journal written under either mode must
    resume under the other (and reproduce the pre-batch header).
    """
    options_dict = dataclasses.asdict(options)
    if options_dict.get("plan") is None:
        options_dict.pop("plan", None)
    options_dict.pop("batch", None)
    return options_dict


def _collection_sha(graphs: Sequence[Graph]) -> str:
    """A 16-hex fingerprint of a collection's ids, sizes and labels."""
    ids_blob = repr(
        [
            (
                g.graph_id,
                g.num_vertices,
                g.num_edges,
                sorted(g.vertex_label_multiset().items()),
            )
            for g in graphs
        ]
    ).encode("utf-8")
    return hashlib.sha256(ids_blob).hexdigest()[:16]


def self_join_meta(
    graphs: Sequence[Graph],
    tau: int,
    options: GSimJoinOptions,
    budget: Optional[VerificationBudget],
) -> dict:
    """The journal header identifying one self-join run.

    A resumed join must re-derive exactly the same meta, so it contains
    only deterministic inputs: a collection fingerprint (id sequence
    plus per-graph sizes and vertex labels — enough to catch a swapped
    collection whose ids happen to coincide), ``tau``, the full
    options, and the budget.
    """
    return {
        "kind": "self-join",
        "n": len(graphs),
        "tau": tau,
        "ids_sha": _collection_sha(graphs),
        "options": _options_meta(options),
        "budget": (
            None
            if budget is None
            else [budget.max_expansions, budget.max_seconds]
        ),
    }


def rs_join_meta(
    outer: Sequence[Graph],
    inner: Sequence[Graph],
    tau: int,
    options: GSimJoinOptions,
    budget: Optional[VerificationBudget],
) -> dict:
    """The journal header identifying one R×S join run.

    Both collections are fingerprinted separately — swapping outer and
    inner changes every journaled ``(i, j)`` key's meaning, so it must
    invalidate the journal.
    """
    return {
        "kind": "rs-join",
        "n_outer": len(outer),
        "n_inner": len(inner),
        "tau": tau,
        "outer_sha": _collection_sha(outer),
        "inner_sha": _collection_sha(inner),
        "options": _options_meta(options),
        "budget": (
            None
            if budget is None
            else [budget.max_expansions, budget.max_seconds]
        ),
    }


class Executor:
    """Drives one :class:`~repro.engine.plan.JoinPlan` for one run.

    Parameters
    ----------
    tau:
        The edit distance threshold of this run (for an index, of the
        current query).
    options:
        The run configuration the plan was (or will be) built from.
    stats:
        The :class:`~repro.engine.result.JoinStatistics` to accrue
        into.  Per-stage :class:`~repro.engine.result.StageStatistics`
        rows are attached to it in plan order, merged by name, so a
        caller reusing one statistics object across executors (the
        search index across queries) accumulates.
    budget:
        Optional per-pair A* budget, threaded into verification.
    cache:
        Compiled-verifier cache to reuse; when ``None`` and the options
        select the compiled verifier, the executor creates one for the
        run (every graph is compiled at most once per run).
    plan:
        A pre-built plan; defaults to ``build_plan(options)``.
    """

    def __init__(
        self,
        tau: int,
        options: GSimJoinOptions,
        stats: JoinStatistics,
        budget: Optional[VerificationBudget] = None,
        cache: Optional[VerificationCache] = None,
        plan: Optional[JoinPlan] = None,
    ) -> None:
        self.tau = tau
        self.options = options
        self.stats = stats
        self.budget = budget
        self.plan = plan if plan is not None else build_plan(options)
        if cache is None:
            cache = VerificationCache()
        self.cache = cache
        existing = {row.name: row for row in stats.stages}
        self._rows: Dict[str, StageStatistics] = {}
        for stage in self.plan.stages:
            row = existing.get(stage.name)
            if row is None:
                row = StageStatistics(name=stage.name, role=stage.role)
                stats.stages.append(row)
            self._rows[stage.name] = row
        self._row_prepare = self._rows[self.plan.prepare.name]
        self._row_prefix = self._rows[self.plan.prefix.name]
        self._row_candidates = self._rows[self.plan.candidates.name]
        self._row_size = self._rows[self.plan.size_filter.name]
        self._row_verify = self._rows[self.plan.verify.name]
        #: Whether this run uses the vectorized batch kernels
        #: (resolved from ``options.batch``; see repro.engine.batch).
        self.batch: bool = resolve_batch(options)
        self._bind_cascade()
        self._store: Optional[ColumnarStore] = None
        self._target_base = 0
        # plan="auto": the first prepare() picks the cascade order once,
        # before any pair.  A caller-supplied pre-built plan (the search
        # index) already fixed the order.
        self._auto = options.plan == "auto" and plan is None

    # --- Columnar store (batch mode) -----------------------------------

    def attach_store(self, store: ColumnarStore, target_base: int = 0) -> None:
        """Attach the run's columnar store for the batch kernels.

        ``target_base`` offsets candidate positions into store rows —
        an R×S join stores outer followed by inner, so inner position
        ``j`` lives at store row ``target_base + j``.
        """
        self._store = store
        self._target_base = target_base

    def build_store(
        self,
        profiles: Sequence[QGramProfile],
        labels: Sequence[LabelPair],
        prefixes: Optional[Sequence[PrefixInfo]] = None,
        target_base: int = 0,
    ) -> Optional[ColumnarStore]:
        """Build and attach the columnar store when this run batches.

        Returns ``None`` (and attaches nothing) on the scalar path, so
        drivers call it unconditionally after :meth:`prepare`.
        """
        if not self.batch:
            return None
        store = build_columnar_store(
            profiles,
            labels,
            prefix_lengths=(
                [info.length for info in prefixes]
                if prefixes is not None
                else None
            ),
        )
        self.attach_store(store, target_base)
        return store

    def store_row(self, position: int) -> SignatureRow:
        """The probe-side :class:`SignatureRow` for store row ``position``."""
        assert self._store is not None
        return self._store.row(position)

    # --- Collection preparation ---------------------------------------

    def prepare(
        self, graphs: Sequence[Graph]
    ) -> Tuple[List[QGramProfile], List[PrefixInfo], List[LabelPair], Sorter]:
        """Extract q-grams, build/apply the global ordering, compute
        prefixes and label multisets for ``graphs``.

        Accrues ``total_prefix_length``/``unprunable_graphs`` and the
        prepare/prefix stage rows.  The caller owns the ``index_time``
        phase timer, as historically.
        """
        stats, tau = self.stats, self.tau
        started = time.perf_counter()
        profiles = [extract_qgrams(g, self.options.q) for g in graphs]
        sorter = build_sorter(profiles, self.options)
        for profile in profiles:
            sorter.sort_profile(profile)
        prepared = time.perf_counter()

        prefix_stage = self.plan.prefix
        prefixes: List[PrefixInfo] = []
        prunable = 0
        for profile in profiles:
            info = prefix_stage.prefix_info(profile, tau)
            prefixes.append(info)
            stats.total_prefix_length += info.length
            if info.prunable:
                prunable += 1
            else:
                stats.unprunable_graphs += 1
        prefixed = time.perf_counter()

        labels = [
            (g.vertex_label_multiset(), g.edge_label_multiset()) for g in graphs
        ]
        done = time.perf_counter()

        row = self._row_prepare
        row.input += len(profiles)
        row.survivors += len(profiles)
        row.seconds += (prepared - started) + (done - prefixed)
        row = self._row_prefix
        row.input += len(profiles)
        row.survivors += prunable
        row.seconds += prefixed - prepared

        if self._auto:
            self._auto = False
            self._plan_once(profiles, labels)
        return profiles, prefixes, labels, sorter

    def _plan_once(
        self, profiles: Sequence[QGramProfile], labels: Sequence[LabelPair]
    ) -> None:
        """Pick the ``plan="auto"`` cascade order before the first pair.

        Re-orders the plan (and the stage rows, which stay in execution
        order) to the static model's choice, and records the model's
        estimated selectivity and unit cost on each cascade row so
        ``--explain-plan`` can set them against the observed rates.
        """
        order, rates, costs = static_choice(
            profiles, labels, self.tau, self.plan.pair_filters
        )
        self.stats.plan_advice = advise_parameters(
            collect_statistics(profiles, labels), self.options.q, self.tau
        )
        self.plan = reorder_pair_filters(self.plan, order)
        self._bind_cascade()
        stages = self.stats.stages
        slots = [k for k, row in enumerate(stages) if row.name in rates]
        for k, (stage, row) in zip(slots, self._cascade):
            stages[k] = row
            row.estimated_selectivity = rates[stage.name]
            row.estimated_cost = costs[stage.name]

    def _bind_cascade(self) -> None:
        """Bind the plan's pair filters to their rows and batch prefix."""
        self._cascade = tuple(
            (stage, self._rows[stage.name]) for stage in self.plan.pair_filters
        )
        self._batch_stages = (
            batchable_prefix(self.plan.pair_filters) if self.batch else ()
        )

    def worker_options(self) -> GSimJoinOptions:
        """The options a worker process verifies with.

        Workers never plan: an ``"auto"`` plan is replaced by the order
        this executor picked, so every pair of the run sees one cascade.
        """
        if self.options.plan != "auto":
            return self.options
        return dataclasses.replace(
            self.options,
            plan=tuple(stage.name for stage in self.plan.pair_filters),
        )

    # --- Candidate generation -----------------------------------------

    def collect_candidates(
        self,
        profile: QGramProfile,
        info: PrefixInfo,
        index: InvertedIndex,
        unprunable: Sequence[int],
        targets: Sequence[QGramProfile],
        fallback_count: int,
    ) -> Dict[int, bool]:
        """Probe ``index`` with ``profile``'s prefix, size-filter fused.

        ``targets`` maps posting positions to profiles; an unprunable
        probe graph falls back to testing positions
        ``range(fallback_count)`` (the scan prefix for the self-join,
        the whole inner/indexed collection otherwise).  Accrues
        ``cand1`` and the candidates/size-filter stage rows; the caller
        owns the ``candidate_time`` phase timer.
        """
        stats, tau = self.stats, self.tau
        r = profile.graph
        started = time.perf_counter()
        if self._store is not None:
            encounters, tests, candidate_ids = self._collect_batch(
                profile, info, index, targets, unprunable, fallback_count
            )
        else:
            encounters = 0
            tests = 0
            candidate_ids = {}
            if info.prunable:
                for key in profile.prefix_keys(info.length):
                    for j in index.probe(key):
                        encounters += 1
                        if j not in candidate_ids:
                            tests += 1
                            if passes_size_filter(r, targets[j].graph, tau):
                                candidate_ids[j] = True
                for j in unprunable:
                    encounters += 1
                    if j not in candidate_ids:
                        tests += 1
                        if passes_size_filter(r, targets[j].graph, tau):
                            candidate_ids[j] = True
            else:
                for j in range(fallback_count):
                    encounters += 1
                    tests += 1
                    if passes_size_filter(r, targets[j].graph, tau):
                        candidate_ids[j] = True
        stats.cand1 += len(candidate_ids)
        elapsed = time.perf_counter() - started

        row = self._row_candidates
        row.input += encounters
        row.survivors += tests
        row.seconds += elapsed
        row = self._row_size
        row.input += tests
        row.survivors += len(candidate_ids)
        return candidate_ids

    def _collect_batch(
        self,
        profile: QGramProfile,
        info: PrefixInfo,
        index: InvertedIndex,
        targets: Sequence[QGramProfile],
        unprunable: Sequence[int],
        fallback_count: int,
    ) -> Tuple[int, int, Dict[int, bool]]:
        """Batch-mode candidate collection: one vectorized size filter.

        Reproduces the scalar probe loop's accounting exactly: every
        encounter counts once; a distinct id is size-*tested* once when
        it passes but on every encounter while it keeps failing (the
        scalar loop never memoizes failures); ``candidate_ids`` keeps
        first-encounter order.  Blocks below
        :data:`~repro.engine.batch.MIN_BATCH_BLOCK` are size-tested
        scalar — same verdicts, no kernel dispatch overhead.
        """
        store, tau = self._store, self.tau
        assert store is not None
        r = profile.graph
        candidate_ids: Dict[int, bool] = {}
        if info.prunable:
            encountered: List[int] = []
            for key in profile.prefix_keys(info.length):
                encountered.extend(index.probe(key))
            encountered.extend(unprunable)
            encounters = len(encountered)
            distinct = list(dict.fromkeys(encountered))
            if not distinct:
                return encounters, 0, candidate_ids
            if len(distinct) < MIN_BATCH_BLOCK:
                passed_list = [
                    passes_size_filter(r, targets[j].graph, tau)
                    for j in distinct
                ]
            else:
                rows = (
                    np.asarray(distinct, dtype=np.int64) + self._target_base
                )
                passed_list = block_size_filter(
                    store, r.num_vertices, r.num_edges, rows, tau
                ).tolist()
            tests = sum(passed_list)
            if tests != len(distinct):
                failing = {
                    j for j, ok in zip(distinct, passed_list) if not ok
                }
                tests += sum(1 for j in encountered if j in failing)
            for j, ok in zip(distinct, passed_list):
                if ok:
                    candidate_ids[j] = True
            return encounters, tests, candidate_ids
        if fallback_count >= MIN_BATCH_BLOCK:
            rows = (
                np.arange(fallback_count, dtype=np.int64) + self._target_base
            )
            passed = block_size_filter(
                store, r.num_vertices, r.num_edges, rows, tau
            )
            for j, ok in enumerate(passed.tolist()):
                if ok:
                    candidate_ids[j] = True
        else:
            for j in range(fallback_count):
                if passes_size_filter(r, targets[j].graph, tau):
                    candidate_ids[j] = True
        return fallback_count, fallback_count, candidate_ids

    def batch_prefilter(
        self, r_row: SignatureRow, js: Sequence[int]
    ) -> Optional[BlockVerdicts]:
        """Run the batchable cascade prefix over one candidate block.

        Returns ``None`` when nothing can batch (scalar mode, no store,
        empty cascade prefix, or a block smaller than
        :data:`~repro.engine.batch.MIN_BATCH_BLOCK` — the caller's
        scalar cascade computes the same verdicts without the kernel
        dispatch overhead).  Statistics for the *batch-pruned* pairs
        are accrued here, exactly as the scalar cascade would have: a
        pair pruned at stage ``k`` entered stages ``0..k`` and survived
        ``0..k-1``.  Survivors' stage rows are accrued by
        :meth:`verify_candidate` via the hint set.
        """
        if (
            self._store is None
            or not self._batch_stages
            or len(js) < MIN_BATCH_BLOCK
        ):
            return None
        rows = np.asarray(js, dtype=np.int64)
        if self._target_base:
            rows = rows + self._target_base
        verdicts = evaluate_block(
            self._store, r_row, rows, self.tau, self._batch_stages
        )
        stats = self.stats
        remaining = sum(verdicts.pruned_per_stage)
        # zip, not enumerate: evaluate_block may exit early once the
        # surviving block drops under the dispatch threshold, reporting
        # fewer stages than the full batchable prefix.
        for stage, pruned_here, seconds in zip(
            self._batch_stages,
            verdicts.pruned_per_stage,
            verdicts.stage_seconds,
        ):
            row = self._rows[stage.name]
            row.seconds += seconds
            row.input += remaining
            row.survivors += remaining - pruned_here
            if pruned_here:
                setattr(
                    stats,
                    stage.counter,
                    getattr(stats, stage.counter) + pruned_here,
                )
            remaining -= pruned_here
        return verdicts

    # --- Verification --------------------------------------------------

    def verify_candidate(
        self,
        p_r: QGramProfile,
        p_s: QGramProfile,
        labels_r: LabelPair,
        labels_s: LabelPair,
        hinted: Optional[FrozenSet[str]] = None,
    ) -> VerifyOutcome:
        """Run the plan's pair-filter cascade, then GED, on one pair.

        Statistics semantics are those of the historical
        ``verify_pair`` (prune counters, Cand-2, GED timings), plus the
        per-stage rows.  The caller owns the ``verify_time`` phase
        timer.  ``hinted`` names stages the batch kernels already
        proved passed for this pair; they are skipped (accruing their
        input/survivor counts — the batch kernel already charged its
        wall time to the stage row).
        """
        stats = self.stats
        ctx = PairContext(p_r, p_s, self.tau, labels_r, labels_s)
        for stage, row in self._cascade:
            row.input += 1
            if hinted is not None and stage.name in hinted:
                row.survivors += 1
                continue
            started = time.perf_counter()
            tag = stage.prune(ctx)
            row.seconds += time.perf_counter() - started
            if tag is not None:
                setattr(stats, stage.counter, getattr(stats, stage.counter) + 1)
                return VerifyOutcome(False, tag)
            row.survivors += 1
        row = self._row_verify
        row.input += 1
        started = time.perf_counter()
        outcome = self.plan.verify.run(
            ctx, stats=stats, budget=self.budget, cache=self.cache
        )
        row.seconds += time.perf_counter() - started
        if outcome.is_result:
            row.survivors += 1
        return outcome

    # --- Record replay -------------------------------------------------

    def _accrue_record_rows(self, rec: VerificationRecord) -> None:
        """Derive stage-row counts from a completed record.

        Filters contribute counts but no wall time (nothing re-runs on
        replay); the verify row gets the journaled ``ged_seconds``.
        Fallback ``"error"`` records never passed any stage and are
        skipped.
        """
        if rec.pruned_by == "error":
            return
        for stage, row in self._cascade:
            row.input += 1
            if rec.pruned_by is not None and rec.pruned_by == stage.tag:
                return
            row.survivors += 1
        if rec.ran_ged:
            row = self._row_verify
            row.input += 1
            row.seconds += rec.ged_seconds
            if rec.is_result:
                row.survivors += 1

    def replay(self, rec: VerificationRecord) -> None:
        """Apply a journaled outcome's statistics exactly as a fresh
        verification would, plus one ``replayed_pairs`` tick."""
        stats = self.stats
        counter = _PRUNE_COUNTERS.get(rec.pruned_by or "")
        if counter is not None:
            setattr(stats, counter, getattr(stats, counter) + 1)
        if rec.ran_ged:
            stats.cand2 += 1
            stats.ged_calls += 1
            stats.ged_expansions += rec.expansions
            stats.ged_time += rec.ged_seconds
            if rec.backend:
                stats.verify_backends[rec.backend] = (
                    stats.verify_backends.get(rec.backend, 0) + 1
                )
        if rec.undecided:
            stats.undecided += 1
        stats.replayed_pairs += 1
        self._accrue_record_rows(rec)

    def apply_worker_record(self, rec: VerificationRecord) -> None:
        """Accrue one parallel-worker record (fresh work, not a replay)."""
        self.replay(rec)
        self.stats.replayed_pairs -= 1

    # --- Run finalization ----------------------------------------------

    def finish(self, result: JoinResult, index: Optional[InvertedIndex]) -> None:
        """Fill the end-of-run statistics (results, index and cache sizes)."""
        stats = self.stats
        stats.results = len(result.pairs)
        if index is not None:
            stats.index_distinct_keys = index.num_distinct_keys
            stats.index_postings = index.num_postings
            stats.index_bytes = index.size_bytes
        if self.cache is not None:
            stats.compile_time = self.cache.compile_seconds
            stats.compiled_graphs = len(self.cache)


def _reject_unbudgetable(
    options: GSimJoinOptions, budget: Optional[VerificationBudget]
) -> None:
    """Registry-driven capability gate for the requested features."""
    validate_backend_options(
        options.verifier, budget=budget, anchor_bound=options.anchor_bound
    )


def execute_self_join(
    graphs: Sequence[Graph],
    tau: int,
    options: Optional[GSimJoinOptions] = None,
    budget: Optional[VerificationBudget] = None,
    checkpoint: Optional[Union[str, os.PathLike]] = None,
    fault: Optional[FaultPlan] = None,
) -> JoinResult:
    """Self-join: all pairs within edit distance ``tau`` (Algorithm 1).

    The engine-side implementation behind
    :func:`repro.core.join.gsim_join` — see there for the public
    contract.  Index-nested-loop: each graph probes the inverted index
    over the *earlier* graphs' prefixes, verifies its candidates
    through the plan's cascade, then inserts its own prefix.
    """
    if options is None:
        options = GSimJoinOptions()
    validate_collection(graphs, tau, options)
    _reject_unbudgetable(options, budget)

    stats = JoinStatistics(num_graphs=len(graphs), tau=tau, q=options.q)
    result = JoinResult(stats=stats)
    executor = Executor(tau, options, stats, budget=budget)

    started = time.perf_counter()
    profiles, prefixes, labels, _sorter = executor.prepare(graphs)
    executor.build_store(profiles, labels, prefixes)
    stats.index_time += time.perf_counter() - started

    index = InvertedIndex()
    unprunable: List[int] = []
    journal = (
        JoinJournal.open(checkpoint, self_join_meta(graphs, tau, options, budget))
        if checkpoint is not None
        else None
    )
    injector = fault.start() if fault is not None else None

    try:
        for i, profile in enumerate(profiles):
            info = prefixes[i]
            r = profile.graph

            started = time.perf_counter()
            candidate_ids = executor.collect_candidates(
                profile, info, index, unprunable, profiles, i
            )
            stats.candidate_time += time.perf_counter() - started

            started = time.perf_counter()
            fresh = [
                j for j in candidate_ids
                if journal is None or (i, j) not in journal.completed
            ]
            block = (
                executor.batch_prefilter(executor.store_row(i), fresh)
                if executor.batch and fresh
                else None
            )
            block_pos = (
                {j: t for t, j in enumerate(fresh)}
                if block is not None
                else {}
            )
            for j in candidate_ids:
                rec = (
                    journal.completed.get((i, j))
                    if journal is not None
                    else None
                )
                if rec is None:
                    if injector is not None:
                        injector.step()
                    tag = (
                        block.tags[block_pos[j]]
                        if block is not None
                        else None
                    )
                    if tag is not None:
                        outcome = VerifyOutcome(False, tag)
                    else:
                        outcome = executor.verify_candidate(
                            profile, profiles[j], labels[i], labels[j],
                            hinted=(
                                block.hint_for(block_pos[j])
                                if block is not None
                                else None
                            ),
                        )
                    if journal is not None:
                        journal.append(record_of(i, j, outcome))
                    is_result, undecided = outcome.is_result, outcome.undecided
                    lower, upper = outcome.lower, outcome.upper
                else:
                    executor.replay(rec)
                    is_result, undecided = rec.is_result, rec.undecided
                    lower, upper = rec.lower, rec.upper
                if is_result:
                    result.pairs.append((profiles[j].graph.graph_id, r.graph_id))
                elif undecided:
                    result.undecided.append(
                        BoundedPair(
                            profiles[j].graph.graph_id, r.graph_id, lower, upper
                        )
                    )
            stats.verify_time += time.perf_counter() - started

            started = time.perf_counter()
            if info.prunable:
                for key in profile.prefix_keys(info.length):
                    index.add(key, i)
            else:
                unprunable.append(i)
            stats.index_time += time.perf_counter() - started
    finally:
        if journal is not None:
            journal.close()

    executor.finish(result, index)
    return result


def execute_rs_join(
    outer: Sequence[Graph],
    inner: Sequence[Graph],
    tau: int,
    options: Optional[GSimJoinOptions] = None,
    budget: Optional[VerificationBudget] = None,
    checkpoint: Optional[Union[str, os.PathLike]] = None,
    fault: Optional[FaultPlan] = None,
) -> JoinResult:
    """R×S join: ``{⟨r, s⟩ | ged(r, s) ≤ τ, r ∈ outer, s ∈ inner}``.

    The engine-side implementation behind
    :func:`repro.core.join.gsim_join_rs` — see there for the public
    contract.  The inner collection is fully indexed first, then each
    outer graph probes; the global q-gram ordering spans both
    collections so prefixes are comparable.  ``checkpoint``/``fault``
    mirror the self-join's journal resume and fault injection; journal
    keys are ``(outer_position, inner_position)``.
    """
    if options is None:
        options = GSimJoinOptions()
    validate_collection(outer, tau, options)
    validate_collection(inner, tau, options)
    _reject_unbudgetable(options, budget)

    stats = JoinStatistics(
        num_graphs=len(outer) + len(inner), tau=tau, q=options.q
    )
    result = JoinResult(stats=stats)
    executor = Executor(tau, options, stats, budget=budget)

    started = time.perf_counter()
    all_graphs = list(outer) + list(inner)
    profiles_all, prefixes_all, labels_all, _sorter = executor.prepare(all_graphs)
    n_outer = len(outer)
    outer_profiles = profiles_all[:n_outer]
    inner_profiles = profiles_all[n_outer:]
    executor.build_store(
        profiles_all, labels_all, prefixes_all, target_base=n_outer
    )

    index = InvertedIndex()
    inner_unprunable: List[int] = []
    for j, profile in enumerate(inner_profiles):
        info = prefixes_all[n_outer + j]
        if info.prunable:
            for key in profile.prefix_keys(info.length):
                index.add(key, j)
        else:
            inner_unprunable.append(j)
    stats.index_time += time.perf_counter() - started

    journal = (
        JoinJournal.open(
            checkpoint, rs_join_meta(outer, inner, tau, options, budget)
        )
        if checkpoint is not None
        else None
    )
    injector = fault.start() if fault is not None else None

    try:
        for i, profile in enumerate(outer_profiles):
            info = prefixes_all[i]
            r = profile.graph

            started = time.perf_counter()
            candidate_ids = executor.collect_candidates(
                profile, info, index, inner_unprunable, inner_profiles,
                len(inner_profiles),
            )
            stats.candidate_time += time.perf_counter() - started

            started = time.perf_counter()
            fresh = [
                j for j in candidate_ids
                if journal is None or (i, j) not in journal.completed
            ]
            block = (
                executor.batch_prefilter(executor.store_row(i), fresh)
                if executor.batch and fresh
                else None
            )
            block_pos = (
                {j: t for t, j in enumerate(fresh)}
                if block is not None
                else {}
            )
            for j in candidate_ids:
                rec = (
                    journal.completed.get((i, j))
                    if journal is not None
                    else None
                )
                if rec is None:
                    if injector is not None:
                        injector.step()
                    tag = (
                        block.tags[block_pos[j]]
                        if block is not None
                        else None
                    )
                    if tag is not None:
                        outcome = VerifyOutcome(False, tag)
                    else:
                        outcome = executor.verify_candidate(
                            profile, inner_profiles[j],
                            labels_all[i], labels_all[n_outer + j],
                            hinted=(
                                block.hint_for(block_pos[j])
                                if block is not None
                                else None
                            ),
                        )
                    if journal is not None:
                        journal.append(record_of(i, j, outcome))
                    is_result, undecided = outcome.is_result, outcome.undecided
                    lower, upper = outcome.lower, outcome.upper
                else:
                    executor.replay(rec)
                    is_result, undecided = rec.is_result, rec.undecided
                    lower, upper = rec.lower, rec.upper
                if is_result:
                    result.pairs.append(
                        (r.graph_id, inner_profiles[j].graph.graph_id)
                    )
                elif undecided:
                    result.undecided.append(
                        BoundedPair(
                            r.graph_id,
                            inner_profiles[j].graph.graph_id,
                            lower,
                            upper,
                        )
                    )
            stats.verify_time += time.perf_counter() - started
    finally:
        if journal is not None:
            journal.close()

    executor.finish(result, index)
    return result
