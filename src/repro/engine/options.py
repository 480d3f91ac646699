"""GSimJoin run configuration and collection validation.

:class:`GSimJoinOptions` selects the paper's filtering level, the q-gram
length and the GED backend;
:func:`repro.engine.plan.build_plan` turns the options into the
:class:`repro.engine.plan.JoinPlan` a run executes.  Whether a run
evaluates its leading filters with the numpy batch kernels is not an
option: it does exactly when numpy imports
(:data:`repro.engine.batch.HAVE_NUMPY`), and both paths give the same
answers and statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from repro.exceptions import ParameterError
from repro.ged.portfolio import resolve_backend
from repro.grams.qgrams import LabelTable, QGramProfile
from repro.grams.vocab import QGramVocabulary, build_vocabulary
from repro.graph.graph import Graph

__all__ = [
    "GSimJoinOptions",
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
    verifier:
        Exact GED backend for the surviving candidates, one of the
        names of :data:`repro.ged.portfolio.BACKENDS`:
        ``"compiled"`` (the default — the integer-array A* of
        :mod:`repro.ged.compiled`, with per-collection graph
        compilation cached across candidate pairs; bit-identical
        results with the object-graph A* of :mod:`repro.ged.astar`),
        ``"dfs"`` (depth-first branch-and-bound with a bipartite
        incumbent — an extension; same answers, O(|V|) memory,
        budget-aware with sound lower/upper brackets on exhaustion) or
        ``"auto"`` (per-pair hardness dispatcher picking ``"dfs"`` for
        hard low-diversity pairs and ``"compiled"`` otherwise — same
        result pairs as every single backend; choices recorded in
        ``JoinStatistics.verify_backends``).
    """

    q: int = 4
    minedit_prefix: bool = True
    local_label: bool = True
    improved_order: bool = True
    verifier: str = "compiled"

    @classmethod
    def basic(cls, q: int = 4) -> "GSimJoinOptions":
        """The paper's *Basic GSimJoin* configuration."""
        return cls(q=q, minedit_prefix=False, local_label=False,
                   improved_order=False)

    @classmethod
    def minedit(cls, q: int = 4) -> "GSimJoinOptions":
        """The paper's *+ MinEdit* configuration."""
        return cls(q=q, minedit_prefix=True, local_label=False,
                   improved_order=True)

    @classmethod
    def full(cls, q: int = 4) -> "GSimJoinOptions":
        """The paper's *+ Local Label* (complete GSimJoin) configuration."""
        return cls(q=q, minedit_prefix=True, local_label=True,
                   improved_order=True)

    def with_q(self, q: int) -> "GSimJoinOptions":
        """This configuration with a different q-gram length."""
        return replace(self, q=q)


def build_sorter(
    profiles: Sequence[QGramProfile], table: LabelTable
) -> QGramVocabulary:
    """The global ordering over ``profiles``, all coded under ``table``:
    the interning vocabulary of :mod:`repro.grams.vocab`, ids in
    ascending document frequency.

    Every driver builds its ordering through this one name, so the
    benchmark ledger times the step wherever it runs.
    """
    return build_vocabulary(profiles, table)


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

    Labels are checked where the run's :class:`LabelTable` is built
    (:func:`repro.grams.qgrams.reject_mixed_label_spellings`), once
    per run.

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
