"""GSimJoin run configuration and collection validation.

:class:`GSimJoinOptions` selects the paper's filtering level, the q-gram
length, the interned-signature fast path, the batch kernels and the GED
backend; :func:`repro.engine.plan.build_plan` turns the options into
the :class:`repro.engine.plan.JoinPlan` a run executes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence, Union

from repro.engine.ordering import QGramOrdering, build_ordering
from repro.exceptions import ParameterError
from repro.ged.portfolio import resolve_backend
from repro.grams.qgrams import QGramProfile
from repro.grams.vocab import QGramVocabulary, build_vocabulary
from repro.graph.graph import Graph

__all__ = [
    "GSimJoinOptions",
    "Sorter",
    "build_sorter",
    "reject_mixed_directedness",
    "validate_collection",
]


@dataclass(frozen=True)
class GSimJoinOptions:
    """Configuration of a GSimJoin run.

    Attributes
    ----------
    q:
        Path q-gram length (the paper uses 4 on AIDS, 3 on PROTEIN).
    minedit_prefix:
        Shrink prefixes with minimum edit filtering (Algorithm 4).
    local_label:
        Apply local label filtering during verification (Algorithm 5).
    improved_order:
        Map mismatching-q-gram vertices first in A* (Algorithm 7).
    improved_h:
        Use the local-label-enhanced heuristic in A* (Algorithm 8).
    multicover:
        Additionally apply the set-multicover minimum-edit bound over
        partially matched surplus keys — a sound extension beyond the
        paper (off in the paper-faithful variants).
    interned:
        Run the pipeline on interned integer q-gram signatures — the
        global ordering becomes a pure integer sort, the inverted index
        is keyed by small ints, and ``CompareQGrams`` is a linear merge
        over sorted id arrays (see :mod:`repro.grams.vocab`).  Results
        are bit-identical to the object-key reference path
        (``interned=False``, retained for the parity property tests);
        only speed differs.
    verifier:
        Exact GED backend for the surviving candidates, one of the
        names of :data:`repro.ged.portfolio.BACKENDS`:
        ``"compiled"`` (the default — the integer-array A* of
        :mod:`repro.ged.compiled`, with per-collection graph
        compilation cached across candidate pairs; bit-identical
        results), ``"object"``/``"astar"`` (the object-graph A*
        reference implementation, two names for one backend),
        ``"dfs"`` (depth-first branch-and-bound with a bipartite
        incumbent — an extension; same answers, O(|V|) memory,
        budget-aware with sound lower/upper brackets on exhaustion) or
        ``"auto"`` (per-pair hardness dispatcher picking ``"dfs"`` for
        hard low-diversity pairs and ``"compiled"`` otherwise — same
        result pairs as every single backend; choices recorded in
        ``JoinStatistics.verify_backends``).
    batch:
        Evaluate the size, global-label and count filters over whole
        candidate blocks with the vectorized numpy kernels of
        :mod:`repro.engine.batch` against the columnar signature store
        (:mod:`repro.grams.columnar`), survivors falling through to the
        scalar cascade with hints.  ``None`` (the default) enables
        batching exactly when numpy is importable and ``interned=True``;
        ``True`` requires both (a clear :class:`~repro.exceptions.
        ParameterError` otherwise); ``False`` forces the scalar path —
        the parity oracle, bit-identical in pairs, distances and
        per-stage statistics (asserted by ``tests/test_batch_parity.py``).
    """

    q: int = 4
    minedit_prefix: bool = True
    local_label: bool = True
    improved_order: bool = True
    improved_h: bool = True
    multicover: bool = False
    interned: bool = True
    verifier: str = "compiled"
    batch: Optional[bool] = None

    @classmethod
    def basic(cls, q: int = 4, interned: bool = True) -> "GSimJoinOptions":
        """The paper's *Basic GSimJoin* configuration."""
        return cls(q=q, minedit_prefix=False, local_label=False,
                   improved_order=False, improved_h=False, interned=interned)

    @classmethod
    def minedit(cls, q: int = 4, interned: bool = True) -> "GSimJoinOptions":
        """The paper's *+ MinEdit* configuration."""
        return cls(q=q, minedit_prefix=True, local_label=False,
                   improved_order=True, improved_h=False, interned=interned)

    @classmethod
    def full(cls, q: int = 4, interned: bool = True) -> "GSimJoinOptions":
        """The paper's *+ Local Label* (complete GSimJoin) configuration."""
        return cls(q=q, minedit_prefix=True, local_label=True,
                   improved_order=True, improved_h=True, interned=interned)

    @classmethod
    def extended(cls, q: int = 4, interned: bool = True) -> "GSimJoinOptions":
        """``full()`` plus this library's multicover filter extension."""
        return cls(q=q, minedit_prefix=True, local_label=True,
                   improved_order=True, improved_h=True, multicover=True,
                   interned=interned)

    def with_q(self, q: int) -> "GSimJoinOptions":
        """This configuration with a different q-gram length."""
        return replace(self, q=q)


#: Either global-ordering implementation — both expose ``sort_profile``.
Sorter = Union[QGramVocabulary, QGramOrdering]


def build_sorter(
    profiles: Sequence[QGramProfile], options: GSimJoinOptions
) -> Sorter:
    """The configured global-ordering implementation over ``profiles``."""
    if options.interned:
        return build_vocabulary(profiles)
    return build_ordering(profiles)


def reject_mixed_directedness(graphs: Iterable[Graph]) -> None:
    """Reject graphs that are not all directed or all undirected.

    Raises
    ------
    ParameterError
        When ``graphs`` holds both directed and undirected graphs.
    """
    if len({g.is_directed for g in graphs}) > 1:
        raise ParameterError("cannot mix directed and undirected graphs")


def validate_collection(
    graphs: Sequence[Graph], tau: int, options: GSimJoinOptions
) -> None:
    """Reject invalid join inputs before any work happens.

    Raises
    ------
    ParameterError
        On negative ``tau``/``q``, missing or duplicate graph ids,
        mixed directedness, or an unknown verifier.
    """
    if tau < 0:
        raise ParameterError(f"tau must be >= 0, got {tau}")
    if options.q < 0:
        raise ParameterError(f"q must be >= 0, got {options.q}")
    ids = [g.graph_id for g in graphs]
    if any(gid is None for gid in ids):
        raise ParameterError(
            "all graphs need ids; use repro.graph.assign_ids(graphs) first"
        )
    if len(set(ids)) != len(ids):
        raise ParameterError("graph ids must be distinct")
    reject_mixed_directedness(graphs)
    resolve_backend(options.verifier)
