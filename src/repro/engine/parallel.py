"""The fault-tolerant process pool that verifies deferred candidate pairs.

The join's phases have very different parallelism profiles: index
construction and candidate generation are cheap and inherently
sequential (the index-nested-loop consumes its own output), while
verification — the filter cascade plus A* — dominates the runtime and
is embarrassingly parallel across candidate pairs.  A driver that runs
a pool therefore scans as usual but lets
:meth:`~repro.engine.executor.Executor.verify_block` *defer* each fresh
pair instead of verifying it, then hands its executor and the deferred
pairs to :func:`verify_deferred`, which verifies them in chunks of
eight on a ``concurrent.futures`` process pool.  The in-memory
self-join (``repro.core.join``) and the sharded driver's combos
(:mod:`repro.engine.sharded`) are its two callers.

Each worker verifies its chunks on a worker-local
:class:`~repro.engine.executor.Executor` built from the shipped
options, columnar store and frozen global ordering (the interning
vocabulary, which ships with the run's label table), one
:meth:`~repro.engine.executor.Executor.verify_block` per run of pairs
sharing a probe graph.  Profiles and label multisets are built lazily,
at most once per worker and only for pairs that need them, extracted
under the shipped table and sorted in the shipped ordering, so
mismatch-instance selection and the improved A* vertex order match the
in-place join exactly.

Workers return one :class:`~repro.runtime.journal.VerificationRecord`
per pair (their executor journals into the chunk's record list), with
the graphs the chunk compiled and the seconds that took; the parent
adds the compile figures to its statistics and folds the records in
with
:meth:`~repro.engine.executor.Executor.accept` — including the
per-stage :class:`~repro.engine.result.StageStatistics` rows, derived
from each record's prune attribution — in chunk order, so results *and*
per-pair statistics are identical to the in-place join (asserted by
the test suite) while wall-clock phase timings reflect the parent's
view (``verify_time`` includes the elapsed pool time and ``ged_time``
the summed worker search time).

Fault tolerance (``docs/ROBUSTNESS.md``): chunks are awaited with an
optional per-chunk timeout; a timeout, a dead worker
(``BrokenProcessPool`` — e.g. an OOM kill), or an exception escaping a
worker tears the pool down, re-dispatches the unfinished chunks on a
fresh pool with capped exponential backoff, and after ``max_retries``
failed attempts verifies the poisoned chunk's pairs *in-process* under
the run's budget (else :data:`DEFAULT_FALLBACK_BUDGET`), catching
per-pair errors — so the join always terminates with a complete
accounting: every candidate pair ends up in ``pairs``, rejected, or in
the ``undecided`` channel.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.executor import Emit, Executor
from repro.engine.options import GSimJoinOptions
from repro.engine.result import JoinStatistics
from repro.exceptions import ParameterError, ReproError
from repro.graph.graph import Graph
from repro.grams.columnar import ColumnarStore
from repro.grams.qgrams import QGramProfile, extract_qgrams
from repro.grams.vocab import QGramVocabulary
from repro.runtime.budget import VerificationBudget
from repro.runtime.faults import FaultPlan
from repro.runtime.journal import VerificationRecord

__all__ = ["verify_deferred", "DEFAULT_FALLBACK_BUDGET", "PoolSettings"]

#: Budget applied to poisoned pairs verified in-process after
#: ``max_retries`` — strict enough that one adversarial pair cannot
#: wedge the join's final accounting pass.
DEFAULT_FALLBACK_BUDGET = VerificationBudget(
    max_expansions=100_000, max_seconds=10.0
)

#: Cap on the exponential retry backoff (seconds).
_MAX_BACKOFF = 5.0

#: Candidate pairs per worker chunk.
_CHUNK_SIZE = 8

Pair = Tuple[int, int]


@dataclass(frozen=True)
class PoolSettings:
    """Worker count and failure policy of a pool-verified run.

    The in-memory self-join and the sharded driver share it, so both
    check their runtime arguments and back off between retries the same
    way.

    Raises
    ------
    ParameterError
        Unless ``workers >= 1``, ``max_retries >= 0``, ``retry_backoff``
        is finite and ``>= 0`` and ``chunk_timeout`` is unset or finite
        and positive (a NaN timeout would fail every chunk).
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
        timeout = self.chunk_timeout
        if timeout is not None and not 0 < timeout < math.inf:
            raise ParameterError(
                f"chunk_timeout must be finite and > 0, got {timeout}"
            )
        if not 0 <= self.retry_backoff < math.inf:
            raise ParameterError(
                f"retry_backoff must be finite and >= 0, got {self.retry_backoff}"
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
    """A worker executor's journal over one chunk: collects each fresh
    record, and the graphs the chunk compiled and the seconds that took,
    for the parent to fold in (there is nothing to replay)."""

    def __init__(self) -> None:
        self.completed: Dict[Pair, VerificationRecord] = {}
        self.records: List[VerificationRecord] = []
        self.compiled_graphs = 0
        self.compile_time = 0.0

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
    plan; profiles are built lazily, extracted under the label table the
    shipped global ordering carries and sorted in that ordering; a
    shipped ``store`` enables the batch prefilter.
    """
    executor = Executor(
        tau, options, JoinStatistics(), budget=budget,
        injector=fault.start() if fault is not None else None,
    )

    def profile(k: int) -> QGramProfile:
        built = extract_qgrams(graphs[k], options.q, sorter.table)
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


def _verify_pairs(executor: Executor, chunk: Sequence[Pair]) -> _ChunkLog:
    """Verify ``chunk`` on ``executor``, one block per run of pairs
    sharing a probe graph; one record per pair, in chunk order."""
    log = _ChunkLog()
    executor.journal = log
    cache = executor.cache
    compiled, seconds = len(cache), cache.compile_seconds
    start = 0
    while start < len(chunk):
        i = chunk[start][0]
        end = start + 1
        while end < len(chunk) and chunk[end][0] == i:
            end += 1
        executor.verify_block(i, [j for _, j in chunk[start:end]])
        start = end
    log.compiled_graphs = len(cache) - compiled
    log.compile_time = cache.compile_seconds - seconds
    return log


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


def _verify_chunk(chunk: List[Pair]) -> _ChunkLog:
    """Pool entry point: verify one chunk on this worker's executor."""
    return _verify_pairs(_worker["executor"], chunk)


def _shutdown_pool(executor: ProcessPoolExecutor) -> None:
    """Tear a (possibly wedged) pool down without waiting on it.

    ``shutdown(wait=False)`` alone would leave a hung worker alive —
    and, being non-daemonic, it would block interpreter exit — so any
    surviving worker processes are killed outright, then joined.  The
    process table is read *before* ``shutdown``, which drops it.  It is
    a private attribute; if it ever disappears the fallback is a plain
    blocking shutdown.
    """
    processes = getattr(executor, "_processes", None)
    workers = [] if processes is None else list(processes.values())
    executor.shutdown(wait=False, cancel_futures=True)
    if processes is None:
        executor.shutdown(wait=True)
        return
    for process in workers:
        if process.is_alive():
            process.kill()
    for process in workers:
        process.join()


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

    Runs under ``budget`` (never unbounded) with no fault injector
    armed; a pair that still raises a library error is recorded as
    undecided with ``pruned_by="error"`` so the join's accounting stays
    complete.
    """
    executor = _local_executor(graphs, tau, options, sorter, budget, None, None)
    records: List[VerificationRecord] = []
    for i, j in chunk:
        stats.fallback_pairs += 1
        try:
            records.extend(_verify_pairs(executor, [(i, j)]).records)
        except ReproError:
            stats.failed_pairs += 1
            records.append(
                VerificationRecord(
                    i=i, j=j, is_result=False, pruned_by="error",
                    undecided=True,
                )
            )
    stats.compiled_graphs += len(executor.cache)
    stats.compile_time += executor.cache.compile_seconds
    return records


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
    stats: JoinStatistics,
) -> Dict[int, List[VerificationRecord]]:
    """Run every chunk to completion, surviving worker death and hangs.

    Each round dispatches the still-unfinished chunks on a fresh pool
    and collects results in submission order.  The first chunk whose
    future times out, arrives broken (``BrokenProcessPool``) or raises
    is charged a retry; once a chunk exceeds ``max_retries`` its pairs
    are verified in-process via :func:`_fallback_verify`, under
    ``budget`` or else :data:`DEFAULT_FALLBACK_BUDGET`.  Each finished
    chunk's compile figures are added to ``stats``.  Progress is
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
                    log = futures[idx].result(timeout=settings.chunk_timeout)
                except Exception:
                    # TimeoutError (hung worker), BrokenProcessPool (dead
                    # worker), or an exception escaping _verify_chunk.
                    failed = idx
                    clean = False
                    break
                chunk_records[idx] = log.records
                stats.compiled_graphs += log.compiled_graphs
                stats.compile_time += log.compile_time
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
                budget if budget is not None else DEFAULT_FALLBACK_BUDGET,
                stats,
            )
        else:
            settings.backoff(retries[failed])
    return chunk_records


def verify_deferred(
    executor: Executor,
    pairs: List[Pair],
    graphs: Sequence[Graph],
    settings: PoolSettings,
    emit: Emit,
    fault: Optional[FaultPlan] = None,
    store: Optional[ColumnarStore] = None,
) -> None:
    """Verify ``executor``'s deferred ``pairs`` on the pool and fold
    every record back into it.

    ``pairs`` are profile positions ``(r, s)`` into ``graphs``, as
    :meth:`~repro.engine.executor.Executor.verify_block` deferred them.
    Workers build their plan from ``executor``'s options and sort in its
    global ordering, verify under its budget and arm ``fault``; a
    shipped ``store`` enables their batch prefilter.  The records are
    folded in chunk order with
    :meth:`~repro.engine.executor.Executor.accept` (journaled, and
    passed to ``emit`` when a result or undecided pair).  Accrues
    ``verify_time``.
    """
    started = time.perf_counter()
    chunks = [
        pairs[k : k + _CHUNK_SIZE] for k in range(0, len(pairs), _CHUNK_SIZE)
    ]
    chunk_records = _run_chunks(
        chunks, list(graphs), executor.tau, executor.options,
        executor.sorter, executor.budget, fault, store, settings,
        executor.stats,
    )
    for idx in range(len(chunks)):
        for rec in chunk_records[idx]:
            executor.accept(rec, emit)
    executor.stats.verify_time += time.perf_counter() - started
