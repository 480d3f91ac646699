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
  local label filter and the improved A* heuristic.

Graphs whose whole q-gram multiset can be affected by ``τ`` edits
(including graphs with fewer than ``q+1`` vertices, which have *no*
q-grams) cannot be pruned by any prefix argument; they are kept on an
*unprunable* list and paired with every graph, which keeps the join
exact on heterogeneous collections.

Both joins are thin wrappers over the staged execution engine
(:mod:`repro.engine`): ``build_plan(options)`` assembles the stage
list, one :class:`repro.engine.executor.Executor` drives it, and every
stage reports survivor counts and wall time into
``result.stats.stages`` (see ``docs/ARCHITECTURE.md`` and the CLI's
``--explain-plan``).
"""

from __future__ import annotations

import os
from typing import Optional, Sequence, Union

from repro.engine.executor import execute_rs_join, execute_self_join
from repro.engine.options import GSimJoinOptions
from repro.engine.result import JoinResult
from repro.graph.graph import Graph
from repro.runtime.budget import VerificationBudget
from repro.runtime.faults import FaultPlan

__all__ = ["GSimJoinOptions", "gsim_join", "gsim_join_rs"]


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
        On negative ``tau``/``q``, missing ids, duplicate ids, or mixed
        directedness.
    CheckpointError
        When ``checkpoint`` names a journal from a different run.
    """
    return execute_self_join(
        graphs, tau, options=options, budget=budget,
        checkpoint=checkpoint, fault=fault,
    )


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
    return execute_rs_join(
        outer, inner, tau, options=options, budget=budget,
        checkpoint=checkpoint, fault=fault,
    )
