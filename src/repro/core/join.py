"""The GSimJoin algorithm (Algorithm 1) and its variants.

``gsim_join`` performs the self-join ``{⟨r_i, r_j⟩ | ged(r_i, r_j) ≤ τ,
i < j}`` in index-nested-loop style: graphs are scanned once; each graph
probes an in-memory inverted index with its (globally sorted) q-gram
prefix to collect candidates among the *earlier* graphs, verifies them
(Algorithm 6), and then inserts its own prefix into the index.

Three variants reproduce the paper's lines:

* ``GSimJoinOptions.basic()``   — "Basic GSimJoin": basic prefixes
  (``τ·D_path + 1``), size + global label + count filtering, plain A*;
* ``GSimJoinOptions.minedit()`` — "+ MinEdit": Algorithm 4 prefixes and
  the improved A* vertex order;
* ``GSimJoinOptions.full()``    — "+ Local Label": additionally the
  local label filter (Algorithm 5).  The paper's improved A* heuristic
  (Algorithm 8) is not run by any variant: in this implementation it
  cost more verification time than it saved (``docs/PERFORMANCE.md``),
  so every variant verifies with the ``Γ(L_V) + Γ(L_E)`` label bound.

Graphs whose whole q-gram multiset can be affected by ``τ`` edits
(including graphs with fewer than ``q+1`` vertices, which have *no*
q-grams) cannot be pruned by any prefix argument; they are kept on an
*unprunable* list and paired with every graph, which keeps the join
exact on heterogeneous collections.

The three in-memory entry points — ``gsim_join``, ``gsim_join_rs`` and
``gsim_join_parallel`` — share one driver, :func:`_join`, over the
staged execution engine (:mod:`repro.engine`): ``build_plan(options)``
assembles the stage list, one :class:`repro.engine.executor.Executor`
scans and verifies, and every stage reports survivor counts and wall
time into ``result.stats.stages`` (see ``docs/ARCHITECTURE.md`` and the
CLI's ``--explain-plan``).  The parallel join differs only in where the
fresh candidate pairs are verified: on the process pool of
:mod:`repro.engine.parallel` instead of in place.
"""

from __future__ import annotations

import contextlib
import os
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.engine.executor import (
    Executor,
    Outcome,
    add_outcome,
    rs_join_meta,
    self_join_meta,
)
from repro.engine.options import (
    GSimJoinOptions,
    reject_mixed_directedness,
    validate_collection,
)
from repro.engine.parallel import PoolSettings, verify_deferred
from repro.engine.result import JoinResult, JoinStatistics
from repro.graph.graph import Graph
from repro.grams.qgrams import LabelTable
from repro.runtime.budget import VerificationBudget
from repro.runtime.faults import FaultPlan
from repro.runtime.journal import JoinJournal

__all__ = ["GSimJoinOptions", "gsim_join", "gsim_join_rs", "gsim_join_parallel"]


def _join(
    graphs: Sequence[Graph],
    split: Optional[int],
    tau: int,
    options: GSimJoinOptions,
    budget: Optional[VerificationBudget],
    checkpoint: Optional[Union[str, os.PathLike]],
    fault: Optional[FaultPlan],
    pool: PoolSettings = PoolSettings(),
) -> JoinResult:
    """Run the scan over ``graphs`` and verify every candidate block.

    One :class:`~repro.grams.qgrams.LabelTable` ranks the labels of all
    of ``graphs``; building it is the run's one label-spelling check.
    ``split=None`` self-joins (pairs reported earlier graph first);
    otherwise graphs ``[:split]`` probe the index over ``[split:]``
    (pairs reported outer graph first).  With one worker (the default
    ``pool``) each block is verified in place, stepping ``fault`` in
    this process.  With more (self-join only), each block replays its
    journaled pairs and defers the rest; the deferred pairs are
    verified on the pool, ``fault`` armed in its workers, and the
    results are reported in scan order.
    """
    table = LabelTable.of(graphs)
    stats = JoinStatistics(num_graphs=len(graphs), tau=tau, q=options.q)
    result = JoinResult(stats=stats)
    ids = [g.graph_id for g in graphs]
    if split is None:

        def emit(r: int, s: int, outcome: Outcome) -> None:
            add_outcome(result, outcome, ids[s], ids[r])

    else:

        def emit(r: int, s: int, outcome: Outcome) -> None:
            add_outcome(result, outcome, ids[r], ids[s])

    journaled: contextlib.AbstractContextManager = contextlib.nullcontext()
    if checkpoint is not None:
        journaled = JoinJournal.open(
            checkpoint,
            self_join_meta(graphs, tau, options, budget)
            if split is None
            else rs_join_meta(
                graphs[:split], graphs[split:], tau, options, budget
            ),
        )
    deferred = pool.workers > 1
    with journaled as journal:
        executor = Executor(
            tau, options, stats, budget=budget, journal=journal,
            injector=None if fault is None or deferred else fault.start(),
        )
        executor.prepare(graphs, table)
        store = executor.build_store()
        if not deferred:
            for i, candidate_ids in executor.scan(split):
                executor.verify_block(i, candidate_ids, emit)
        else:
            blocks: List[Tuple[int, Dict[int, bool]]] = []
            todo: List[Tuple[int, int]] = []
            found: Dict[Tuple[int, int], Outcome] = {}

            def keep(r: int, s: int, outcome: Outcome) -> None:
                found[r, s] = outcome

            for i, candidate_ids in executor.scan():
                executor.verify_block(i, candidate_ids, keep, defer=todo)
                blocks.append((i, candidate_ids))
            verify_deferred(executor, todo, graphs, pool, keep, fault, store)
            for i, candidate_ids in blocks:
                for j in candidate_ids:
                    outcome = found.get((i, j))
                    if outcome is not None:
                        emit(i, j, outcome)
    executor.finish(result)
    return result


def gsim_join(
    graphs: Sequence[Graph],
    tau: int,
    options: Optional[GSimJoinOptions] = None,
    budget: Optional[VerificationBudget] = None,
    checkpoint: Optional[Union[str, os.PathLike]] = None,
    fault: Optional[FaultPlan] = None,
) -> JoinResult:
    """Self-join: all pairs within edit distance ``tau`` (Algorithm 1).

    Graphs must carry distinct ids (:func:`repro.graph.assign_ids`).
    Returns a :class:`~repro.engine.result.JoinResult` whose ``pairs`` hold
    ``(r.graph_id, s.graph_id)`` tuples ordered by scan position, and
    whose ``stats`` carry every quantity the paper's figures plot —
    including one :class:`~repro.engine.result.StageStatistics` row per
    plan stage in ``stats.stages``.

    Robustness knobs (``docs/ROBUSTNESS.md``) — all default-off, and
    with the defaults results are bit-identical to the classic join:

    ``budget``
        Caps each pair's A* effort; pairs the budget cannot decide land
        in ``result.undecided`` with GED bounds instead of hanging.
    ``checkpoint``
        Path of an append-only journal written through as pairs verify;
        re-running with the same arguments resumes, replaying journaled
        outcomes so the result equals an uninterrupted run's.
    ``fault``
        Deterministic fault injection (tests/chaos only): the plan's
        fault fires at its configured verification step.

    Raises
    ------
    ParameterError
        On negative ``tau``/``q``, missing ids, duplicate ids, mixed
        directedness, or labels that are equal but print differently.
    CheckpointError
        When ``checkpoint`` names a journal from a different run.
    """
    if options is None:
        options = GSimJoinOptions()
    validate_collection(graphs, tau, options)
    return _join(graphs, None, tau, options, budget, checkpoint, fault)


def gsim_join_rs(
    outer: Sequence[Graph],
    inner: Sequence[Graph],
    tau: int,
    options: Optional[GSimJoinOptions] = None,
    budget: Optional[VerificationBudget] = None,
    checkpoint: Optional[Union[str, os.PathLike]] = None,
    fault: Optional[FaultPlan] = None,
) -> JoinResult:
    """R×S join: ``{⟨r, s⟩ | ged(r, s) ≤ τ, r ∈ outer, s ∈ inner}``.

    The inner collection is fully indexed first, then each outer graph
    probes.  The global q-gram ordering is built over both collections so
    prefixes are comparable.  Result pairs are ``(r.graph_id,
    s.graph_id)``; ids must be distinct within each collection.

    ``budget``, ``checkpoint`` and ``fault`` work exactly as in
    :func:`gsim_join`: budgeted verification routes undecided pairs to
    ``result.undecided``, and a checkpoint journal (keyed by
    ``(outer_position, inner_position)``) makes an interrupted R×S join
    resumable with results identical to an uninterrupted run's.

    Raises
    ------
    ParameterError
        Same validation as :func:`gsim_join`, applied to each
        collection; ``outer`` and ``inner`` must also agree on
        directedness.
    CheckpointError
        When ``checkpoint`` names a journal from a different run.
    """
    if options is None:
        options = GSimJoinOptions()
    validate_collection(outer, tau, options)
    validate_collection(inner, tau, options)
    graphs = list(outer) + list(inner)
    reject_mixed_directedness(graphs)
    return _join(graphs, len(outer), tau, options, budget, checkpoint, fault)


def gsim_join_parallel(
    graphs: Sequence[Graph],
    tau: int,
    options: Optional[GSimJoinOptions] = None,
    workers: int = 2,
    budget: Optional[VerificationBudget] = None,
    checkpoint: Optional[Union[str, os.PathLike]] = None,
    fault: Optional[FaultPlan] = None,
    max_retries: int = 2,
    chunk_timeout: Optional[float] = None,
    retry_backoff: float = 0.1,
) -> JoinResult:
    """Self-join with verification parallelized over ``workers`` processes.

    Produces exactly the pairs, undecided pairs and integer statistics
    of :func:`gsim_join`; result order follows the candidate scan.
    ``workers=1`` *is* :func:`gsim_join` (no pool).  Journals resume
    across the two.

    Robustness knobs (all default-off; see ``docs/ROBUSTNESS.md``):

    ``budget``/``checkpoint``/``fault``
        As in :func:`gsim_join` — budgeted verification with an
        ``undecided`` channel, a write-through resume journal, and
        deterministic fault injection (armed inside pool workers).
    ``chunk_timeout``
        Seconds to wait for one chunk before declaring its worker hung;
        must comfortably exceed the legitimate worst-case chunk time.
    ``max_retries``
        Re-dispatches of a failed chunk (fresh pool each time, capped
        exponential backoff of ``retry_backoff·2^attempt`` seconds)
        before its pairs are verified in-process under ``budget``
        (default :data:`repro.engine.parallel.DEFAULT_FALLBACK_BUDGET`).

    Raises
    ------
    ParameterError
        Same validation as :func:`gsim_join`, plus ``workers >= 1``,
        ``max_retries >= 0`` and positive ``chunk_timeout``/non-negative
        ``retry_backoff``.
    """
    pool = PoolSettings(workers, max_retries, retry_backoff, chunk_timeout)
    if options is None:
        options = GSimJoinOptions()
    validate_collection(graphs, tau, options)
    return _join(graphs, None, tau, options, budget, checkpoint, fault, pool)
