"""Multi-core GSimJoin with a fault-tolerant verification pool.

The join's phases have very different parallelism profiles: index
construction and candidate generation are cheap and inherently
sequential (the index-nested-loop consumes its own output), while
verification — the filter cascade plus A* — dominates the runtime and
is embarrassingly parallel across candidate pairs.
:func:`execute_parallel_join` therefore runs the driver core's scan
(:meth:`~repro.engine.executor.Executor.scan`) once to *collect* every
probe's candidate block, replays its journal through
:meth:`~repro.engine.executor.Executor.verify_block` — which defers the
fresh pairs instead of verifying them — and verifies the deferred pairs
in chunks on a ``concurrent.futures`` process pool.

What this module owns is the pool: each worker verifies its chunks on a
worker-local :class:`~repro.engine.executor.Executor` built from the
shipped options, columnar store and frozen global ordering (the
interning vocabulary), one
:meth:`~repro.engine.executor.Executor.verify_block` per run of pairs
sharing a probe graph.  Profiles and label multisets are built
lazily, at most once per worker and only for pairs that need them, and
sorted in the shipped ordering, so mismatch-instance selection and the
improved A* vertex order match the sequential join exactly.

Workers return one :class:`~repro.runtime.journal.VerificationRecord`
per pair (their executor journals into the chunk's record list); the
parent folds the records into the join statistics with
:meth:`~repro.engine.executor.Executor.accept` — including the
per-stage :class:`~repro.engine.result.StageStatistics` rows, derived
from each record's prune attribution — in chunk order, so results *and*
per-pair statistics are identical to the sequential join (asserted by
the test suite) while wall-clock phase timings reflect the parent's
view (``verify_time`` includes the elapsed pool time and ``ged_time``
the summed worker search time).  The sharded driver reuses the same
pool for its ``workers > 1`` runs.

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

import contextlib
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.engine.executor import (
    Executor,
    Outcome,
    add_outcome,
    self_join_meta,
)
from repro.engine.options import GSimJoinOptions, validate_collection
from repro.engine.result import JoinResult, JoinStatistics
from repro.exceptions import ParameterError, ReproError
from repro.graph.graph import Graph
from repro.grams.columnar import ColumnarStore
from repro.grams.qgrams import QGramProfile, extract_qgrams
from repro.grams.vocab import QGramVocabulary
from repro.runtime.budget import VerificationBudget
from repro.runtime.faults import FaultPlan
from repro.runtime.journal import JoinJournal, VerificationRecord

__all__ = ["execute_parallel_join", "DEFAULT_FALLBACK_BUDGET", "PoolSettings"]

#: Budget applied to poisoned pairs verified in-process after
#: ``max_retries`` — strict enough that one adversarial pair cannot
#: wedge the join's final accounting pass.
DEFAULT_FALLBACK_BUDGET = VerificationBudget(
    max_expansions=100_000, max_seconds=10.0
)

#: Cap on the exponential retry backoff (seconds).
_MAX_BACKOFF = 5.0

Pair = Tuple[int, int]


@dataclass(frozen=True)
class PoolSettings:
    """Worker count and failure policy of a pool-verified run.

    The parallel and the sharded driver share it, so both check their
    runtime arguments and back off between retries the same way.

    Raises
    ------
    ParameterError
        Unless ``workers >= 1``, ``max_retries >= 0``,
        ``retry_backoff >= 0`` and ``chunk_timeout`` is unset or
        positive.
    """

    workers: int = 1
    max_retries: int = 2
    retry_backoff: float = 0.1
    chunk_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        """Validate the settings (see the class docstring)."""
        if self.workers < 1:
            raise ParameterError(f"workers must be >= 1, got {self.workers}")
        if self.max_retries < 0:
            raise ParameterError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.chunk_timeout is not None and self.chunk_timeout <= 0:
            raise ParameterError(
                f"chunk_timeout must be > 0, got {self.chunk_timeout}"
            )
        if self.retry_backoff < 0:
            raise ParameterError(
                f"retry_backoff must be >= 0, got {self.retry_backoff}"
            )

    def backoff(self, attempt: int) -> None:
        """Sleep before retry ``attempt`` (1-based): exponential, capped."""
        if self.retry_backoff > 0:
            time.sleep(
                min(self.retry_backoff * 2 ** (attempt - 1), _MAX_BACKOFF)
            )


class _Lazy:
    """A sequence whose item ``k`` is built on first access, then kept."""

    __slots__ = ("_build", "_items")

    def __init__(self, build: Callable[[int], Any]) -> None:
        self._build = build
        self._items: Dict[int, Any] = {}

    def __getitem__(self, k: int) -> Any:
        item = self._items.get(k)
        if item is None:
            item = self._build(k)
            self._items[k] = item
        return item


class _ChunkLog:
    """A worker executor's journal: collects each fresh record of one
    chunk for the parent to fold in (there is nothing to replay)."""

    def __init__(self) -> None:
        self.completed: Dict[Pair, VerificationRecord] = {}
        self.records: List[VerificationRecord] = []

    def append(self, record: VerificationRecord) -> None:
        """Collect one record."""
        self.records.append(record)


def _local_executor(
    graphs: Sequence[Graph],
    tau: int,
    options: GSimJoinOptions,
    sorter: QGramVocabulary,
    budget: Optional[VerificationBudget],
    fault: Optional[FaultPlan],
    store: Optional[ColumnarStore],
) -> Executor:
    """A worker-local executor over the shipped collection.

    ``options`` are the parent executor's, so the worker builds the same
    plan; profiles are built lazily and sorted in the shipped global
    ordering; a shipped ``store`` enables the batch prefilter.
    """
    executor = Executor(
        tau, options, JoinStatistics(), budget=budget,
        injector=fault.start() if fault is not None else None,
    )

    def profile(k: int) -> QGramProfile:
        built = extract_qgrams(graphs[k], options.q)
        sorter.sort_profile(built)
        return built

    def labels(k: int) -> Tuple:
        g = graphs[k]
        return g.vertex_label_multiset(), g.edge_label_multiset()

    executor.profiles = _Lazy(profile)
    executor.labels = _Lazy(labels)
    if store is not None:
        executor.attach_store(store)
    return executor


def _chunk_records(
    executor: Executor, chunk: Sequence[Pair]
) -> List[VerificationRecord]:
    """Verify ``chunk`` on ``executor``, one block per run of pairs
    sharing a probe graph; one record per pair, in chunk order."""
    log = _ChunkLog()
    executor.journal = log
    start = 0
    while start < len(chunk):
        i = chunk[start][0]
        end = start + 1
        while end < len(chunk) and chunk[end][0] == i:
            end += 1
        executor.verify_block(i, [j for _, j in chunk[start:end]])
        start = end
    return log.records


# Per-worker state, installed by the pool initializer.
_worker: Dict[str, Executor] = {}


def _init_worker(
    graphs: Sequence[Graph],
    tau: int,
    options: GSimJoinOptions,
    sorter: QGramVocabulary,
    budget: Optional[VerificationBudget] = None,
    fault: Optional[FaultPlan] = None,
    store: Optional[ColumnarStore] = None,
) -> None:
    _worker["executor"] = _local_executor(
        list(graphs), tau, options, sorter, budget, fault, store
    )


def _verify_chunk(chunk: List[Pair]) -> List[VerificationRecord]:
    """Pool entry point: verify one chunk on this worker's executor."""
    return _chunk_records(_worker["executor"], chunk)


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
    chunk: List[Pair],
    graphs: Sequence[Graph],
    tau: int,
    options: GSimJoinOptions,
    sorter: QGramVocabulary,
    budget: Optional[VerificationBudget],
    stats: JoinStatistics,
) -> List[VerificationRecord]:
    """Verify a poisoned chunk in-process, never letting a pair escape.

    Runs under ``budget`` (strict by construction) with no fault
    injector armed; a pair that still raises a library error is
    recorded as undecided with ``pruned_by="error"`` so the join's
    accounting stays complete.
    """
    executor = _local_executor(graphs, tau, options, sorter, budget, None, None)
    records: List[VerificationRecord] = []
    for i, j in chunk:
        stats.fallback_pairs += 1
        try:
            records.extend(_chunk_records(executor, [(i, j)]))
        except ReproError:
            stats.failed_pairs += 1
            records.append(
                VerificationRecord(
                    i=i, j=j, is_result=False, pruned_by="error",
                    undecided=True,
                )
            )
    return records


def verify_on_pool(
    pairs: List[Pair],
    graphs: Sequence[Graph],
    tau: int,
    options: GSimJoinOptions,
    sorter: QGramVocabulary,
    budget: Optional[VerificationBudget],
    settings: PoolSettings,
    stats: JoinStatistics,
    chunk_size: int = 8,
    fault: Optional[FaultPlan] = None,
    store: Optional[ColumnarStore] = None,
    fallback_budget: Optional[VerificationBudget] = None,
) -> Iterator[VerificationRecord]:
    """Verify ``pairs`` (profile positions ``(r, s)`` into ``graphs``)
    in chunks, yielding one record per pair in chunk order.

    ``workers=1`` verifies in-process, chunk by chunk as the caller
    consumes the records (a fault propagates); otherwise every chunk
    runs on the fault-tolerant pool of :func:`_run_chunks` first.
    ``fallback_budget`` defaults to ``budget``, else
    :data:`DEFAULT_FALLBACK_BUDGET`.
    """
    chunks = [
        pairs[k : k + chunk_size] for k in range(0, len(pairs), chunk_size)
    ]
    if settings.workers == 1:
        executor = _local_executor(
            graphs, tau, options, sorter, budget, fault, store
        )
        for chunk in chunks:
            yield from _chunk_records(executor, chunk)
        return
    if fallback_budget is None:
        fallback_budget = budget if budget is not None else DEFAULT_FALLBACK_BUDGET
    chunk_records = _run_chunks(
        chunks, list(graphs), tau, options, sorter, budget, fault, store,
        settings, fallback_budget, stats,
    )
    for idx in range(len(chunks)):
        yield from chunk_records[idx]


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
    if chunk_size < 1:
        raise ParameterError(f"chunk_size must be >= 1, got {chunk_size}")
    settings = PoolSettings(workers, max_retries, retry_backoff, chunk_timeout)
    validate_collection(graphs, tau, options)

    stats = JoinStatistics(num_graphs=len(graphs), tau=tau, q=options.q)
    result = JoinResult(stats=stats)
    found: Dict[Pair, Outcome] = {}

    def keep(r: int, s: int, outcome: Outcome) -> None:
        found[r, s] = outcome

    with (
        JoinJournal.open(
            checkpoint, self_join_meta(graphs, tau, options, budget)
        )
        if checkpoint is not None
        else contextlib.nullcontext()
    ) as journal:
        executor = Executor(tau, options, stats, budget=budget, journal=journal)
        executor.prepare(graphs)
        store = executor.build_store()
        # Phase 1: the whole scan, then the journal's replay; the fresh
        # pairs are deferred to the pool in scan order.
        blocks = list(executor.scan())
        todo: List[Pair] = []
        for i, candidate_ids in blocks:
            executor.verify_block(i, candidate_ids, keep, defer=todo)

        # Phase 2: verify the rest on the pool.  Workers build their
        # plan from the parent executor's options.
        started = time.perf_counter()
        for rec in verify_on_pool(
            todo, graphs, tau, executor.options, executor.sorter,
            budget, settings, stats, chunk_size=chunk_size, fault=fault,
            store=store, fallback_budget=fallback_budget,
        ):
            executor.accept(rec, keep)
        stats.verify_time += time.perf_counter() - started

    # Assembly: walk the candidate scan order once.
    ids = [g.graph_id for g in graphs]
    for i, candidate_ids in blocks:
        for j in candidate_ids:
            outcome = found.get((i, j))
            if outcome is not None:
                add_outcome(result, outcome, ids[j], ids[i])
    executor.finish(result)
    return result


def _run_chunks(
    chunks: List[List[Pair]],
    graphs: Sequence[Graph],
    tau: int,
    options: GSimJoinOptions,
    sorter: QGramVocabulary,
    budget: Optional[VerificationBudget],
    fault: Optional[FaultPlan],
    store: Optional[ColumnarStore],
    settings: PoolSettings,
    fallback_budget: VerificationBudget,
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
            max_workers=settings.workers,
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
                        timeout=settings.chunk_timeout
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
        if retries[failed] > settings.max_retries:
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
        else:
            settings.backoff(retries[failed])
    return chunk_records
