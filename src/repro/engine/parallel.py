"""Multi-core GSimJoin with a fault-tolerant verification executor.

The join's phases have very different parallelism profiles: index
construction and candidate generation are cheap and inherently
sequential (the index-nested-loop consumes its own output), while
verification — the filter cascade plus A* — dominates the runtime and
is embarrassingly parallel across candidate pairs.
:func:`execute_parallel_join` therefore runs Algorithm 1's scan once to
*collect* the candidate pairs, then verifies them in chunks on a
``concurrent.futures`` process pool.

Each worker lazily builds its own q-gram profile cache, so graphs are
profiled at most once per worker regardless of how many candidate pairs
they participate in.  The parent ships the frozen global ordering (the
interning vocabulary, or the object-key ordering on the reference path)
to every worker via the pool initializer, and workers sort each profile
in it — mismatch-instance selection and the improved A* vertex order
therefore match the sequential join exactly.

Workers return one :class:`~repro.runtime.journal.VerificationRecord`
per pair; the parent accrues those records into the join statistics —
including the per-stage :class:`~repro.engine.result.StageStatistics`
rows, derived from each record's prune attribution — in chunk order, so
results *and* per-pair statistics are identical to the sequential join
(asserted by the test suite) while wall-clock phase timings reflect the
parent's view (``verify_time`` is the elapsed pool time and
``ged_time`` the summed worker search time).

Fault tolerance (``docs/ROBUSTNESS.md``): chunks are awaited with an
optional per-chunk timeout; a timeout, a dead worker
(``BrokenProcessPool`` — e.g. an OOM kill), or an exception escaping a
worker tears the pool down, re-dispatches the unfinished chunks on a
fresh pool with capped exponential backoff, and after ``max_retries``
failed attempts verifies the poisoned chunk's pairs *in-process* under
a strict budget, catching per-pair errors — so the join always
terminates with a complete accounting: every candidate pair ends up in
``pairs``, rejected, or in the ``undecided`` channel.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.engine.batch import (
    MIN_BATCH_BLOCK,
    batchable_prefix,
    evaluate_block,
)
from repro.engine.executor import (
    Executor,
    record_of,
    self_join_meta,
)
from repro.engine.inverted_index import InvertedIndex
from repro.engine.options import GSimJoinOptions, Sorter, validate_collection
from repro.engine.result import BoundedPair, JoinResult, JoinStatistics
from repro.engine.stages import VerifyOutcome
from repro.engine.verify import _filters_for, _filters_for_order, verify_pair
from repro.exceptions import ParameterError, ReproError
from repro.ged.compiled import VerificationCache
from repro.ged.portfolio import validate_backend_options
from repro.graph.graph import Graph
from repro.grams.columnar import ColumnarStore
from repro.grams.qgrams import extract_qgrams
from repro.runtime.budget import VerificationBudget
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.journal import JoinJournal, VerificationRecord

__all__ = ["execute_parallel_join", "DEFAULT_FALLBACK_BUDGET"]

#: Budget applied to poisoned pairs verified in-process after
#: ``max_retries`` — strict enough that one adversarial pair cannot
#: wedge the join's final accounting pass.
DEFAULT_FALLBACK_BUDGET = VerificationBudget(
    max_expansions=100_000, max_seconds=10.0
)

#: Cap on the exponential retry backoff (seconds).
_MAX_BACKOFF = 5.0

# Per-worker state, populated by the pool initializer.
_worker: dict = {}


def _init_worker(
    graphs: Sequence[Graph],
    tau: int,
    options: GSimJoinOptions,
    sorter: Sorter,
    budget: Optional[VerificationBudget] = None,
    fault: Optional[FaultPlan] = None,
    store: Optional[ColumnarStore] = None,
) -> None:
    _worker["graphs"] = list(graphs)
    _worker["tau"] = tau
    _worker["options"] = options
    _worker["sorter"] = sorter
    _worker["budget"] = budget
    _worker["injector"] = fault.start() if fault is not None else None
    _worker["profiles"] = {}
    _worker["labels"] = {}
    # Each worker compiles the graphs it touches once, however many
    # candidate pairs they appear in across this worker's chunks.
    _worker["cache"] = VerificationCache()
    # The cascade order this worker verifies with: a tuple plan (the
    # parent ships its auto-picked order this way — never the raw
    # "auto" marker, which only the parent's executor interprets) or
    # the default order otherwise.
    plan = options.plan
    plan_order = plan if isinstance(plan, tuple) else None
    _worker["plan_order"] = plan_order
    # Batch mode: the parent ships its columnar store so workers run the
    # vectorized kernels over each chunk's same-probe runs.  The
    # batchable prefix is derived from the same cascade ``verify_pair``
    # will run — keeping the records' prune attribution identical to
    # scalar workers.
    _worker["store"] = store
    _worker["batch_stages"] = (
        batchable_prefix(
            _filters_for_order(plan_order)
            if plan_order is not None
            else _filters_for(options.local_label, options.multicover)
        )
        if store is not None
        else ()
    )


def _profile_of(i: int):
    cached = _worker["profiles"].get(i)
    if cached is None:
        g = _worker["graphs"][i]
        cached = extract_qgrams(g, _worker["options"].q)
        _worker["sorter"].sort_profile(cached)
        # Fork-safety waivers: this memo is per-process verification
        # state — each worker fills and reads only its own copy, and the
        # parent never reads it back, so worker-local divergence is the
        # design, not a race.
        _worker["profiles"][i] = cached  # repro: ignore[fork-safety]
        _worker["labels"][i] = (  # repro: ignore[fork-safety]
            g.vertex_label_multiset(), g.edge_label_multiset()
        )
    return cached, _worker["labels"][i]


def _verify_chunk(chunk: List[Tuple[int, int]]) -> List[VerificationRecord]:
    """Verify a batch of candidate pairs inside a worker process.

    In batch mode the chunk's runs of consecutive pairs sharing one
    probe graph are prefiltered through the vectorized kernels first;
    batch-pruned pairs produce their (identical) prune records without
    ever materializing q-gram profiles, and survivors verify with the
    stages they already passed hinted away.  The fault injector still
    steps once per pair in chunk order, so fault timing matches scalar
    workers exactly.
    """
    options: GSimJoinOptions = _worker["options"]
    tau: int = _worker["tau"]
    budget: Optional[VerificationBudget] = _worker["budget"]
    injector: Optional[FaultInjector] = _worker["injector"]
    store: Optional[ColumnarStore] = _worker["store"]
    batch_stages = _worker["batch_stages"]
    records: List[VerificationRecord] = []
    pos = 0
    while pos < len(chunk):
        end = pos
        while end < len(chunk) and chunk[end][0] == chunk[pos][0]:
            end += 1
        run = chunk[pos:end]
        block = (
            evaluate_block(
                store,
                store.row(run[0][0]),
                [j for _, j in run],
                tau,
                batch_stages,
            )
            if store is not None
            and batch_stages
            and len(run) >= MIN_BATCH_BLOCK
            else None
        )
        for t, (i, j) in enumerate(run):
            tag = block.tags[t] if block is not None else None
            if tag is not None:
                if injector is not None:
                    injector.step()
                records.append(record_of(i, j, VerifyOutcome(False, tag)))
                continue
            p_i, labels_i = _profile_of(i)
            p_j, labels_j = _profile_of(j)
            if injector is not None:
                injector.step()
            outcome = verify_pair(
                p_i,
                p_j,
                tau,
                labels_i,
                labels_j,
                use_local_label=options.local_label,
                improved_order=options.improved_order,
                improved_h=options.improved_h,
                stats=None,
                use_multicover=options.multicover,
                verifier=options.verifier,
                budget=budget,
                cache=_worker["cache"],
                anchor_bound=options.anchor_bound,
                hinted=block.hint_for(t) if block is not None else None,
                plan_order=_worker["plan_order"],
            )
            records.append(record_of(i, j, outcome))
        pos = end
    return records


def _shutdown_pool(executor: ProcessPoolExecutor) -> None:
    """Tear a (possibly wedged) pool down without waiting on it.

    ``shutdown(wait=False)`` alone would leave a hung worker alive —
    and, being non-daemonic, it would block interpreter exit — so any
    surviving worker processes are killed outright.  Reaches into the
    executor's process table; if that private attribute ever disappears
    the fallback is a plain blocking shutdown.
    """
    executor.shutdown(wait=False, cancel_futures=True)
    processes = getattr(executor, "_processes", None)
    if processes is None:
        executor.shutdown(wait=True)
        return
    for process in list(processes.values()):
        if process.is_alive():
            process.kill()


def _fallback_verify(
    chunk: List[Tuple[int, int]],
    graphs: Sequence[Graph],
    tau: int,
    options: GSimJoinOptions,
    sorter: Sorter,
    budget: Optional[VerificationBudget],
    stats: JoinStatistics,
) -> List[VerificationRecord]:
    """Verify a poisoned chunk in-process, never letting a pair escape.

    Runs under ``budget`` (strict by construction) with no fault
    injector armed; a pair that still raises a library error is
    recorded as undecided with ``pruned_by="error"`` so the join's
    accounting stays complete.
    """
    _init_worker(graphs, tau, options, sorter, budget, None)
    records: List[VerificationRecord] = []
    try:
        for i, j in chunk:
            stats.fallback_pairs += 1
            try:
                records.extend(_verify_chunk([(i, j)]))
            except ReproError:
                stats.failed_pairs += 1
                records.append(
                    VerificationRecord(
                        i=i, j=j, is_result=False, pruned_by="error",
                        undecided=True,
                    )
                )
    finally:
        _worker.clear()
    return records


def execute_parallel_join(
    graphs: Sequence[Graph],
    tau: int,
    options: Optional[GSimJoinOptions] = None,
    workers: int = 2,
    chunk_size: int = 8,
    budget: Optional[VerificationBudget] = None,
    checkpoint: Optional[Union[str, os.PathLike]] = None,
    fault: Optional[FaultPlan] = None,
    max_retries: int = 2,
    chunk_timeout: Optional[float] = None,
    retry_backoff: float = 0.1,
    fallback_budget: Optional[VerificationBudget] = None,
) -> JoinResult:
    """Self-join with verification parallelized over ``workers`` processes.

    The engine-side implementation behind
    :func:`repro.core.parallel.gsim_join_parallel` — see there for the
    public contract.  Produces exactly the pairs of
    :func:`repro.engine.executor.execute_self_join`; result order
    follows the candidate scan.  ``workers=1`` degrades to an
    in-process loop (useful for debugging without a pool).

    Raises
    ------
    ParameterError
        Same validation as the sequential join, plus ``workers >= 1``,
        ``chunk_size >= 1``, ``max_retries >= 0`` and positive
        ``chunk_timeout``/non-negative ``retry_backoff``.
    """
    if options is None:
        options = GSimJoinOptions()
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    if chunk_size < 1:
        raise ParameterError(f"chunk_size must be >= 1, got {chunk_size}")
    if max_retries < 0:
        raise ParameterError(f"max_retries must be >= 0, got {max_retries}")
    if chunk_timeout is not None and chunk_timeout <= 0:
        raise ParameterError(
            f"chunk_timeout must be > 0, got {chunk_timeout}"
        )
    if retry_backoff < 0:
        raise ParameterError(
            f"retry_backoff must be >= 0, got {retry_backoff}"
        )
    validate_collection(graphs, tau, options)
    validate_backend_options(
        options.verifier, budget=budget, anchor_bound=options.anchor_bound
    )

    stats = JoinStatistics(num_graphs=len(graphs), tau=tau, q=options.q)
    result = JoinResult(stats=stats)
    executor = Executor(tau, options, stats, budget=budget)

    # --- Phase 1: sequential scan, collecting candidate pairs ---------
    started = time.perf_counter()
    profiles, prefixes, labels, sorter = executor.prepare(graphs)
    store = executor.build_store(profiles, labels, prefixes)
    stats.index_time += time.perf_counter() - started

    started = time.perf_counter()
    index = InvertedIndex()
    unprunable: List[int] = []
    pairs: List[Tuple[int, int]] = []
    for i, profile in enumerate(profiles):
        info = prefixes[i]
        candidate_ids = executor.collect_candidates(
            profile, info, index, unprunable, profiles, i
        )
        pairs.extend((i, j) for j in candidate_ids)
        if info.prunable:
            for key in profile.prefix_keys(info.length):
                index.add(key, i)
        else:
            unprunable.append(i)
    stats.candidate_time += time.perf_counter() - started
    stats.index_distinct_keys = index.num_distinct_keys
    stats.index_postings = index.num_postings
    stats.index_bytes = index.size_bytes

    # --- Phase 2: replay the journal, then verify the rest in parallel
    journal = (
        JoinJournal.open(checkpoint, self_join_meta(graphs, tau, options, budget))
        if checkpoint is not None
        else None
    )
    records: Dict[Tuple[int, int], VerificationRecord] = {}
    try:
        todo: List[Tuple[int, int]] = []
        for key in pairs:
            rec = journal.completed.get(key) if journal is not None else None
            if rec is not None:
                executor.replay(rec)
                records[key] = rec
            else:
                todo.append(key)

        started = time.perf_counter()
        # Workers receive an auto plan as the order the parent picked in
        # prepare() (the journal header keeps the original options: the
        # order is derived state, re-derived identically on resume).
        worker_options = executor.worker_options()

        chunks = [
            todo[k : k + chunk_size] for k in range(0, len(todo), chunk_size)
        ]
        if workers == 1:
            _init_worker(
                list(graphs), tau, worker_options, sorter, budget, fault,
                store,
            )
            try:
                for chunk in chunks:
                    for rec in _verify_chunk(chunk):
                        executor.apply_worker_record(rec)
                        records[(rec.i, rec.j)] = rec
                        if journal is not None:
                            journal.append(rec)
            finally:
                _worker.clear()
        elif chunks:
            chunk_records = _run_chunks(
                chunks,
                graphs=list(graphs),
                tau=tau,
                options=worker_options,
                sorter=sorter,
                budget=budget,
                fault=fault,
                store=store,
                workers=workers,
                max_retries=max_retries,
                chunk_timeout=chunk_timeout,
                retry_backoff=retry_backoff,
                fallback_budget=(
                    fallback_budget
                    if fallback_budget is not None
                    else (budget if budget is not None else DEFAULT_FALLBACK_BUDGET)
                ),
                stats=stats,
            )
            for idx in range(len(chunks)):
                for rec in chunk_records[idx]:
                    executor.apply_worker_record(rec)
                    records[(rec.i, rec.j)] = rec
                    if journal is not None:
                        journal.append(rec)
        stats.verify_time += time.perf_counter() - started
    finally:
        if journal is not None:
            journal.close()

    # --- Assembly: walk the candidate scan order once ------------------
    for i, j in pairs:
        rec = records[(i, j)]
        if rec.is_result:
            result.pairs.append((graphs[j].graph_id, graphs[i].graph_id))
        elif rec.undecided:
            result.undecided.append(
                BoundedPair(
                    graphs[j].graph_id,
                    graphs[i].graph_id,
                    rec.lower,
                    rec.upper,
                    "error" if rec.pruned_by == "error" else "budget",
                )
            )
    stats.results = len(result.pairs)
    return result


def _run_chunks(
    chunks: List[List[Tuple[int, int]]],
    graphs: Sequence[Graph],
    tau: int,
    options: GSimJoinOptions,
    sorter: Sorter,
    budget: Optional[VerificationBudget],
    fault: Optional[FaultPlan],
    store: Optional[ColumnarStore],
    workers: int,
    max_retries: int,
    chunk_timeout: Optional[float],
    retry_backoff: float,
    fallback_budget: Optional[VerificationBudget],
    stats: JoinStatistics,
) -> Dict[int, List[VerificationRecord]]:
    """Run every chunk to completion, surviving worker death and hangs.

    Each round dispatches the still-unfinished chunks on a fresh pool
    and collects results in submission order.  The first chunk whose
    future times out, arrives broken (``BrokenProcessPool``) or raises
    is charged a retry; once a chunk exceeds ``max_retries`` its pairs
    are verified in-process via :func:`_fallback_verify`.  Progress is
    guaranteed: every failing round increments some chunk's retry
    count, so rounds are bounded by ``len(chunks) · (max_retries + 1)``.
    """
    chunk_records: Dict[int, List[VerificationRecord]] = {}
    retries = [0] * len(chunks)
    pending = [idx for idx in range(len(chunks))]
    while pending:
        executor = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(graphs, tau, options, sorter, budget, fault, store),
        )
        failed: Optional[int] = None
        clean = True
        try:
            futures = {
                idx: executor.submit(_verify_chunk, chunks[idx])
                for idx in pending
            }
            for idx in pending:
                try:
                    chunk_records[idx] = futures[idx].result(
                        timeout=chunk_timeout
                    )
                except Exception:
                    # TimeoutError (hung worker), BrokenProcessPool (dead
                    # worker), or an exception escaping _verify_chunk.
                    failed = idx
                    clean = False
                    break
        finally:
            if clean:
                executor.shutdown(wait=True)
            else:
                _shutdown_pool(executor)
        pending = [idx for idx in pending if idx not in chunk_records]
        if failed is None:
            continue
        stats.chunk_retries += 1
        retries[failed] += 1
        if retries[failed] > max_retries:
            pending = [idx for idx in pending if idx != failed]
            chunk_records[failed] = _fallback_verify(
                chunks[failed],
                graphs,
                tau,
                options,
                sorter,
                fallback_budget,
                stats,
            )
        elif retry_backoff > 0:
            time.sleep(
                min(retry_backoff * 2 ** (retries[failed] - 1), _MAX_BACKOFF)
            )
    return chunk_records
