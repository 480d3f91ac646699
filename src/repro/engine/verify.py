"""Candidate verification (Section VI, Algorithm 6).

Candidates pass through a cascade of increasingly expensive filters —
global label filtering, count filtering (via mismatching q-gram counts),
local label filtering — and only survivors reach the A*-based GED
computation, itself accelerated by the improved vertex order
(Algorithm 7) and improved heuristic (Algorithm 8) when enabled.

The cascade is built from the first-class stage objects of
:mod:`repro.engine.stages`; :func:`verify_pair` keeps the historical
flat-argument signature as a wrapper over the engine's one per-pair
path, :meth:`repro.engine.executor.Executor.verify_candidate`.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Tuple

from repro.engine.executor import Executor
from repro.engine.options import GSimJoinOptions
from repro.engine.result import JoinStatistics
from repro.engine.stages import VerifyOutcome
from repro.ged.compiled import VerificationCache
from repro.grams.qgrams import QGramProfile
from repro.runtime.budget import VerificationBudget

__all__ = ["VerifyOutcome", "verify_pair"]

LabelPair = Tuple


def verify_pair(
    p_r: QGramProfile,
    p_s: QGramProfile,
    tau: int,
    labels_r: LabelPair,
    labels_s: LabelPair,
    use_local_label: bool,
    improved_order: bool,
    improved_h: bool,
    stats: Optional[JoinStatistics] = None,
    use_multicover: bool = False,
    verifier: str = "astar",
    budget: Optional[VerificationBudget] = None,
    cache: Optional[VerificationCache] = None,
    hinted: Optional[FrozenSet[str]] = None,
) -> VerifyOutcome:
    """Run Algorithm 6 on one candidate pair.

    Parameters mirror the join variants: ``use_local_label`` enables the
    ε₄/ε₅ tests, ``improved_order``/``improved_h`` select the GED
    optimizations of Section VI-B.  ``use_multicover`` additionally
    applies the set-multicover minimum-edit bound over partially matched
    surplus keys — an extension beyond the paper's Algorithm 5 (see
    :func:`repro.grams.labels.multicover_min_edit_bound`).
    ``stats``, when given, accrues the Cand-2 counter, filter prune
    counters, GED timings and the per-stage rows.

    ``verifier`` names a backend of
    :data:`repro.ged.portfolio.BACKENDS`: ``"compiled"`` (the
    integer-array A* of :mod:`repro.ged.compiled`, bit-identical to the
    object backend), ``"astar"``/``"object"`` (the object-graph A* of
    :mod:`repro.ged.astar`; two names for one backend), ``"dfs"``
    (budget-aware branch-and-bound), or ``"auto"`` (per-pair hardness
    dispatch).  ``cache`` supplies the per-collection
    :class:`VerificationCache` — compiled-graph reuse plus the
    pair-level verdict memo (one is created ad hoc when omitted, which
    forfeits cross-pair reuse).

    ``budget`` caps the search effort; on exhaustion the outcome is
    decided from the bounded verdict when possible (``upper <= tau``
    accepts, ``lower > tau`` rejects) and marked ``undecided``
    otherwise — never an exception or a hang.  Every backend honours
    budgets (the DFS backend returns its admissible
    root bound and bipartite incumbent as the bracket).

    ``hinted`` names cascade stages the batch kernels of
    :mod:`repro.engine.batch` already proved passed for this pair; they
    are skipped without re-evaluation (and without prune-counter
    effect — a hinted stage by definition did not prune).

    Raises
    ------
    ParameterError
        On an unknown verifier.
    """
    options = GSimJoinOptions(
        local_label=use_local_label,
        improved_order=improved_order,
        improved_h=improved_h,
        multicover=use_multicover,
        verifier=verifier,
        batch=False,
    )
    executor = Executor(
        tau,
        options,
        stats if stats is not None else JoinStatistics(),
        budget=budget,
        cache=cache,
    )
    return executor.verify_candidate(p_r, p_s, labels_r, labels_s, hinted)
