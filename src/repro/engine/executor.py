"""The driver core behind every join and search entry point.

One :class:`Executor` instance carries the cross-cutting run state —
threshold, options, :class:`~repro.engine.plan.JoinPlan`, statistics,
optional :class:`~repro.runtime.budget.VerificationBudget`, the
compiled-verifier :class:`~repro.ged.compiled.VerificationCache`, and
the run's journal and fault injector — and owns the two loops Algorithm
1 is made of:

* :meth:`Executor.scan` — the index-nested loop over the prepared
  collection, in the two shapes the joins need: the *triangle
  self-scan* (graph ``i`` probes the inverted index over graphs
  ``0..i-1``, then inserts its own prefix) and *index-then-probe R×S*
  (the inner part is indexed first, then every outer graph probes).  It
  owns the inverted index, every insert and the ``index_time``/
  ``candidate_time`` phase timers.
* :meth:`Executor.verify_block` — the per-candidate step for one
  probe's candidate block: journal replay, the batch prefilter, one
  fault step per fresh pair, the timed pair-filter cascade + GED
  (:meth:`Executor.verify_candidate`), the journal append, and the one
  record→result mapping (:func:`add_outcome`, :func:`bounded_pair`).
  It owns the ``verify_time`` phase timer.

The entry points are thin callers of these two.
:func:`execute_self_join` and :func:`execute_rs_join` (here) run the
scan and verify each block in place; the parallel driver
(:mod:`repro.engine.parallel`) collects the scan's blocks, replays its
journal through :meth:`~Executor.verify_block` and defers the fresh
pairs to pool workers, which verify them on a worker-local executor;
the sharded driver (:mod:`repro.engine.sharded`) runs one executor per
sub-shard combo; ``GSimIndex.query`` (:mod:`repro.core.search`) runs
one block per query.  What each driver still owns is what genuinely
differs: pair enumeration (which scan shape, over which graphs), result
assembly, journal keying (``positions``), spill queues and manifest,
and the process pool.

Every stage reports survivor counts and wall time into the
:class:`~repro.engine.result.StageStatistics` rows of the run's
:class:`~repro.engine.result.JoinStatistics` (merged by stage name, so
a long-lived index accumulates across queries).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import os
import time
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.engine.batch import (
    MIN_BATCH_BLOCK,
    BlockVerdicts,
    block_size_filter,
    evaluate_block,
    resolve_batch,
)
from repro.engine.count_filter import passes_size_filter
from repro.engine.inverted_index import InvertedIndex
from repro.engine.options import (
    GSimJoinOptions,
    build_sorter,
    reject_mixed_directedness,
    validate_collection,
)
from repro.engine.plan import JoinPlan, build_plan
from repro.engine.prefix import PrefixInfo
from repro.engine.result import (
    BoundedPair,
    JoinResult,
    JoinStatistics,
    StageStatistics,
)
from repro.engine.stages import PairContext, VerifyOutcome
from repro.ged.compiled import VerificationCache
from repro.graph.graph import Graph
from repro.grams.columnar import (
    ColumnarStore,
    SignatureRow,
    build_columnar_store,
    np,
)
from repro.grams.qgrams import QGramProfile, extract_qgrams
from repro.grams.vocab import QGramVocabulary
from repro.runtime.budget import VerificationBudget
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.journal import JoinJournal, VerificationRecord

__all__ = [
    "Executor",
    "execute_self_join",
    "execute_rs_join",
    "record_of",
    "bounded_pair",
    "add_outcome",
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

#: Filter-pruned pairs (batch or scalar) share one frozen outcome per tag.
_PRUNED: Dict[str, VerifyOutcome] = {
    tag: VerifyOutcome(False, tag) for tag in _PRUNE_COUNTERS
}

LabelPair = Tuple

#: A fresh verification outcome or a journaled/worker record — both
#: carry ``is_result``, ``pruned_by``, ``undecided``, ``lower``/``upper``.
Outcome = Union[VerifyOutcome, VerificationRecord]

#: ``emit(r, s, outcome)``: a result or undecided pair, as profile
#: positions with ``r`` the verified (probe-side) graph.
Emit = Callable[[int, int, Outcome], None]


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


def bounded_pair(
    outcome: Outcome, first_id: object, second_id: object
) -> BoundedPair:
    """The undecided-channel entry of an outcome — one mapping for every
    driver: the in-process fallback's ``pruned_by="error"`` records map
    to ``reason="error"``, exhausted budgets to ``"budget"``."""
    return BoundedPair(
        first_id,
        second_id,
        outcome.lower,
        outcome.upper,
        "error" if outcome.pruned_by == "error" else "budget",
    )


def add_outcome(
    result: JoinResult, outcome: Outcome, first_id: object, second_id: object
) -> None:
    """Add one outcome's contribution to ``result`` (pair, undecided or
    nothing), the ids in the driver's reporting order."""
    if outcome.is_result:
        result.pairs.append((first_id, second_id))
    elif outcome.undecided:
        result.undecided.append(bounded_pair(outcome, first_id, second_id))


def _options_meta(options: GSimJoinOptions) -> dict:
    """``options`` as a journal-header dict, without ``batch``.

    The batch kernels are bit-identical to the scalar cascade, so a
    journal written under either mode must resume under the other (and
    reproduce the pre-batch header).  A journal whose header still
    carries a ``plan`` (a cascade order) is from a different run.
    """
    options_dict = dataclasses.asdict(options)
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
    options, and the budget.  The sequential and the parallel self-join
    write the same header, so either resumes the other's journal.
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
        search index across queries, the sharded driver across combos)
        accumulates.
    budget:
        Optional per-pair A* budget, threaded into verification.
    cache:
        Compiled-verifier cache to reuse; when ``None`` the executor
        creates one for the run (every graph is compiled at most once
        per run).
    plan:
        A pre-built plan; defaults to ``build_plan(options)``.
    journal:
        The run's journal: :meth:`verify_block` replays the pairs it
        holds and appends every freshly verified one.
    injector:
        The run's fault injector, stepped once per fresh pair right
        before it is verified (or deferred to a pool).
    positions:
        Journal coordinates of the prepared graphs (the sharded
        driver's global scan positions).  When set, each pair verifies
        with the later position as ``r`` — bounded verdicts depend on
        orientation — and journals under ``(positions[r],
        positions[s])``; otherwise under ``(probe, candidate)``.
    io_faults:
        Whether journal appends are I/O fault events (``step_io``), as
        in the sharded driver's durable-write schedule.

    The prepared collection lives in ``profiles``/``prefixes``/
    ``labels``/``sorter`` (set by :meth:`prepare`, or directly by a
    caller serving its own sequences: the search index, pool workers).
    """

    def __init__(
        self,
        tau: int,
        options: GSimJoinOptions,
        stats: JoinStatistics,
        budget: Optional[VerificationBudget] = None,
        cache: Optional[VerificationCache] = None,
        plan: Optional[JoinPlan] = None,
        journal: Optional[JoinJournal] = None,
        injector: Optional[FaultInjector] = None,
        positions: Optional[Sequence[int]] = None,
        io_faults: bool = False,
    ) -> None:
        self.tau = tau
        self.options = options
        self.stats = stats
        self.budget = budget
        self.plan = plan if plan is not None else build_plan(options)
        if cache is None:
            cache = VerificationCache()
        self.cache = cache
        self.journal = journal
        self.injector = injector
        self.positions = positions
        self.io_faults = io_faults
        self.profiles: Sequence[QGramProfile] = ()
        self.prefixes: Sequence[PrefixInfo] = ()
        self.labels: Sequence[LabelPair] = ()
        self.sorter: Optional[QGramVocabulary] = None
        self.index: Optional[InvertedIndex] = None
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
        self._cascade = tuple(
            (stage, self._rows[stage.name]) for stage in self.plan.pair_filters
        )
        # The batch kernels evaluate the cascade's leading global-label
        # and count filters.
        self._batch_stages = self.plan.pair_filters[:2] if self.batch else ()
        self._store: Optional[ColumnarStore] = None
        self._target_base = 0

    # --- Columnar store (batch mode) -----------------------------------

    def attach_store(self, store: ColumnarStore) -> None:
        """Attach a columnar store over ``profiles`` for the batch kernels."""
        self._store = store

    def build_store(self) -> Optional[ColumnarStore]:
        """Build and attach the columnar store when this run batches.

        Returns ``None`` (and attaches nothing) on the scalar path, so
        drivers call it unconditionally after :meth:`prepare`.  Accrues
        ``index_time``.
        """
        if not self.batch:
            return None
        started = time.perf_counter()
        store = build_columnar_store(
            self.profiles,
            self.labels,
            prefix_lengths=[info.length for info in self.prefixes],
        )
        self.attach_store(store)
        self.stats.index_time += time.perf_counter() - started
        return store

    # --- Collection preparation ---------------------------------------

    def prepare(self, graphs: Sequence[Graph]) -> None:
        """Extract q-grams, build/apply the global ordering, compute
        prefixes and label multisets for ``graphs``.

        Sets ``profiles``/``prefixes``/``labels``/``sorter``; accrues
        ``total_prefix_length``/``unprunable_graphs``, the prepare/
        prefix stage rows and ``index_time``.
        """
        stats, tau = self.stats, self.tau
        started = time.perf_counter()
        profiles = [extract_qgrams(g, self.options.q) for g in graphs]
        sorter = build_sorter(profiles)
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

        self.profiles, self.prefixes = profiles, prefixes
        self.labels, self.sorter = labels, sorter
        stats.index_time += time.perf_counter() - started

    # --- The scan (Algorithm 1) ----------------------------------------

    def scan(
        self, split: Optional[int] = None
    ) -> Iterator[Tuple[int, Dict[int, bool]]]:
        """Algorithm 1's index-nested loop over the prepared collection.

        ``split=None`` is the triangle self-scan: graph ``i`` probes the
        index over graphs ``0..i-1`` and is inserted after the consumer
        has handled its candidates.  ``split=k`` is index-then-probe
        R×S: graphs ``k..`` are indexed first (candidate ids count from
        ``k``), then graphs ``0..k-1`` probe.  Yields ``(i,
        candidate_ids)`` per probe; the consumer verifies the block
        before asking for the next one.  Owns the inverted index
        (``self.index``), every insert (``index_time``) and every probe
        (``candidate_time``).
        """
        stats = self.stats
        profiles, prefixes = self.profiles, self.prefixes
        index = InvertedIndex()
        unprunable: List[int] = []
        self.index = index
        self._target_base = split or 0

        def insert(k: int, position: int) -> None:
            info = prefixes[k]
            if info.prunable:
                for key in profiles[k].prefix_keys(info.length):
                    index.add(key, position)
            else:
                unprunable.append(position)

        if split is None:
            targets: Sequence[QGramProfile] = profiles
            probes = len(profiles)
        else:
            targets, probes = profiles[split:], split
            started = time.perf_counter()
            for j in range(len(targets)):
                insert(split + j, j)
            stats.index_time += time.perf_counter() - started
        for i in range(probes):
            started = time.perf_counter()
            candidate_ids = self.collect_candidates(
                profiles[i], prefixes[i], index, unprunable, targets,
                i if split is None else len(targets),
            )
            stats.candidate_time += time.perf_counter() - started
            yield i, candidate_ids
            if split is None:
                started = time.perf_counter()
                insert(i, i)
                stats.index_time += time.perf_counter() - started

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
        """Run the batched global-label and count filters over one block.

        Returns ``None`` when nothing can batch (scalar mode, no store,
        or a block smaller than
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
        # fewer stages than it was given.
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

    def verify_block(
        self,
        i: int,
        js: Iterable[int],
        emit: Optional[Emit] = None,
        before: Optional[Callable[[int, int], None]] = None,
        defer: Optional[List[Tuple[int, int]]] = None,
        probe: Optional[Tuple[QGramProfile, LabelPair]] = None,
    ) -> None:
        """Verify probe ``i``'s candidate block ``js`` (one driver step).

        Per candidate, in block order: orient the pair (``r`` is the
        probe, or the later of ``positions``), call ``before(r, s)``,
        replay a journaled record, or else take one fault step and
        either defer the pair to ``defer`` (a pool verifies it later,
        see :meth:`accept`) or verify it — batch-pruned pairs straight
        from the block verdicts, the rest through
        :meth:`verify_candidate` — and journal the fresh record.
        ``emit(r, s, outcome)`` then receives every result and
        undecided pair.  ``s`` counts from the scan's split, so R×S
        candidates index the prepared collection directly.

        ``probe`` supplies an external probe graph's ``(profile,
        labels)`` (an index query; ``i`` is then only reported back).
        Accrues ``verify_time``.
        """
        started = time.perf_counter()
        journal, injector, positions = self.journal, self.injector, self.positions
        completed = journal.completed if journal is not None else None
        base = self._target_base
        block = None
        if defer is None and self._store is not None:
            # Batching implies no ``positions``: pairs keep (i, j) keys.
            fresh = [j for j in js if not completed or (i, j) not in completed]
            if fresh:
                block = self.batch_prefilter(
                    self._store.row(i)
                    if probe is None
                    else self._store.external_row(*probe),
                    fresh,
                )
            if block is not None:
                slot = {j: t for t, j in enumerate(fresh)}
        profiles, labels = self.profiles, self.labels
        for j in js:
            r, s = i, (base + j if base else j)
            if positions is not None and positions[s] > positions[r]:
                r, s = s, r
            if before is not None:
                before(r, s)
            if completed:
                rec = completed.get(
                    (i, j) if positions is None else (positions[r], positions[s])
                )
                if rec is not None:
                    self.replay(rec)
                    if emit is not None and (rec.is_result or rec.undecided):
                        emit(r, s, rec)
                    continue
            if injector is not None:
                injector.step()
            if defer is not None:
                defer.append((r, s))
                continue
            tag = block.tags[slot[j]] if block is not None else None
            if tag is not None:
                outcome = _PRUNED[tag]
            else:
                outcome = self.verify_candidate(
                    profiles[r] if probe is None else probe[0],
                    profiles[s],
                    labels[r] if probe is None else probe[1],
                    labels[s],
                    hinted=block.hint_for(slot[j]) if block is not None else None,
                )
            if journal is not None:
                self._append(
                    record_of(i, j, outcome)
                    if positions is None
                    else record_of(positions[r], positions[s], outcome)
                )
            if emit is not None and (outcome.is_result or outcome.undecided):
                emit(r, s, outcome)
        self.stats.verify_time += time.perf_counter() - started

    def verify_candidate(
        self,
        p_r: QGramProfile,
        p_s: QGramProfile,
        labels_r: LabelPair,
        labels_s: LabelPair,
        hinted: Optional[FrozenSet[str]] = None,
    ) -> VerifyOutcome:
        """Run the plan's pair-filter cascade, then GED, on one pair.

        Accrues the prune counters, Cand-2, the GED timings and the
        per-stage rows.  ``hinted`` names stages the batch kernels
        already proved passed for this pair; they are skipped (accruing
        their input/survivor counts — the batch kernel already charged
        its wall time to the stage row).
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
                return _PRUNED[tag]
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

    def _append(self, rec: VerificationRecord) -> None:
        """Journal one record (an I/O fault event under ``io_faults``)."""
        if self.io_faults and self.injector is not None:
            self.injector.step_io()
        assert self.journal is not None
        self.journal.append(rec)

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
            if rec.backend == "memo":
                stats.memo_hits += 1
            else:
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

    def accept(
        self, rec: VerificationRecord, emit: Optional[Emit] = None
    ) -> VerificationRecord:
        """Fold in one pool-verified record (fresh work, not a replay).

        ``rec`` is keyed by profile positions ``(r, s)``; it is re-keyed
        to journal coordinates, accrued, journaled, and — when a result
        or undecided pair — passed to ``emit(r, s, record)``.
        """
        r, s = rec.i, rec.j
        if self.positions is not None:
            rec = dataclasses.replace(
                rec, i=self.positions[r], j=self.positions[s]
            )
        self.replay(rec)
        self.stats.replayed_pairs -= 1
        if self.journal is not None:
            self._append(rec)
        if emit is not None and (rec.is_result or rec.undecided):
            emit(r, s, rec)
        return rec

    # --- Run finalization ----------------------------------------------

    def finish(self, result: Optional[JoinResult] = None) -> None:
        """Accrue the end-of-run counters: the result count, and the
        index and verifier-cache sizes (summed, so executors sharing one
        statistics object — the sharded driver's combos — add up)."""
        stats = self.stats
        if result is not None:
            stats.results = len(result.pairs)
        if self.index is not None:
            stats.index_distinct_keys += self.index.num_distinct_keys
            stats.index_postings += self.index.num_postings
            stats.index_bytes += self.index.size_bytes
        stats.compile_time += self.cache.compile_seconds
        stats.compiled_graphs += len(self.cache)


def _join(
    graphs: Sequence[Graph],
    split: Optional[int],
    tau: int,
    options: GSimJoinOptions,
    budget: Optional[VerificationBudget],
    checkpoint: Optional[Union[str, os.PathLike]],
    meta: Optional[dict],
    fault: Optional[FaultPlan],
) -> JoinResult:
    """Run the scan over ``graphs`` and verify every block in place.

    ``split=None`` self-joins (pairs reported earlier graph first);
    otherwise graphs ``[:split]`` probe the index over ``[split:]``
    (pairs reported outer graph first).
    """
    stats = JoinStatistics(num_graphs=len(graphs), tau=tau, q=options.q)
    result = JoinResult(stats=stats)
    ids = [g.graph_id for g in graphs]
    if split is None:

        def emit(r: int, s: int, outcome: Outcome) -> None:
            add_outcome(result, outcome, ids[s], ids[r])

    else:

        def emit(r: int, s: int, outcome: Outcome) -> None:
            add_outcome(result, outcome, ids[r], ids[s])

    with (
        JoinJournal.open(checkpoint, meta)
        if checkpoint is not None
        else contextlib.nullcontext()
    ) as journal:
        executor = Executor(
            tau, options, stats, budget=budget, journal=journal,
            injector=fault.start() if fault is not None else None,
        )
        executor.prepare(graphs)
        executor.build_store()
        for i, candidate_ids in executor.scan(split):
            executor.verify_block(i, candidate_ids, emit)
    executor.finish(result)
    return result


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
    meta = (
        self_join_meta(graphs, tau, options, budget)
        if checkpoint is not None
        else None
    )
    return _join(graphs, None, tau, options, budget, checkpoint, meta, fault)


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
    graphs = list(outer) + list(inner)
    reject_mixed_directedness(graphs)
    meta = (
        rs_join_meta(outer, inner, tau, options, budget)
        if checkpoint is not None
        else None
    )
    return _join(
        graphs, len(outer), tau, options, budget, checkpoint, meta, fault
    )
