"""Join plans: the explicit stage list a join run executes.

``build_plan(options)`` assembles a :class:`JoinPlan` — an ordered
tuple of first-class stage objects from :mod:`repro.engine.stages` —
from a :class:`~repro.engine.options.GSimJoinOptions`.  The structural
stages (prepare, prefix, candidates, size filter, verify) are fixed by
the algorithm's shape; the per-pair filter cascade in the middle is the
enabled subset of :data:`DEFAULT_FILTER_ORDER`, always in the paper's
order (Algorithm 6: cheapest bound first).

``JoinPlan.describe()`` renders the plan for the CLI's
``--explain-plan``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.engine.options import GSimJoinOptions
from repro.engine.stages import (
    BasicPrefix,
    CountFilter,
    GlobalLabelFilter,
    LabelFilter,
    MinEditFilter,
    MulticoverFilter,
    PairFilter,
    PrefixCandidates,
    PrepareProfiles,
    SizeFilter,
    Verify,
)

__all__ = [
    "JoinPlan",
    "build_plan",
    "DEFAULT_FILTER_ORDER",
]

#: The paper's cascade order (Algorithm 6), cheapest bound first.
DEFAULT_FILTER_ORDER: Tuple[str, ...] = (
    "global-label-filter",
    "count-filter",
    "local-label-filter",
    "multicover-filter",
)

_FILTER_FACTORIES = {
    "global-label-filter": GlobalLabelFilter,
    "count-filter": CountFilter,
    "local-label-filter": LabelFilter,
    "multicover-filter": MulticoverFilter,
}


@dataclass(frozen=True)
class JoinPlan:
    """The ordered stage list for one join/search run.

    ``stages`` always reads: one ``prepare`` stage, one ``prefix``
    stage, the ``candidates`` stage, the fused ``candidate-filter``
    (size) stage, two to four ``pair-filter`` stages (global label and
    count first), and the ``verify`` stage — in execution order.
    """

    stages: Tuple[object, ...]

    @property
    def prepare(self) -> PrepareProfiles:
        """The collection-preparation stage."""
        return next(s for s in self.stages if s.role == "prepare")

    @property
    def prefix(self) -> object:
        """The prefix-length stage (basic or minimum-edit filtered)."""
        return next(s for s in self.stages if s.role == "prefix")

    @property
    def candidates(self) -> PrefixCandidates:
        """The inverted-index probing stage."""
        return next(s for s in self.stages if s.role == "candidates")

    @property
    def size_filter(self) -> SizeFilter:
        """The fused size-filter stage."""
        return next(s for s in self.stages if s.role == "candidate-filter")

    @property
    def pair_filters(self) -> Tuple[PairFilter, ...]:
        """The per-pair cascade filters, in plan order."""
        return tuple(s for s in self.stages if s.role == "pair-filter")

    @property
    def verify(self) -> Verify:
        """The GED verification stage."""
        return next(s for s in self.stages if s.role == "verify")

    def stage_names(self) -> Tuple[str, ...]:
        """All stage names, in execution order."""
        return tuple(s.name for s in self.stages)

    def describe(self) -> str:
        """Human-readable rendering for the CLI's ``--explain-plan``."""
        lines = ["join plan:"]
        for pos, stage in enumerate(self.stages, start=1):
            lines.append(f"  {pos}. {stage.name} [{stage.role}] — {stage.detail}")
        return "\n".join(lines)


def build_plan(options: GSimJoinOptions) -> JoinPlan:
    """Assemble the :class:`JoinPlan` that ``options`` implies.

    The per-pair cascade is the enabled subset of
    :data:`DEFAULT_FILTER_ORDER`: the global label and count filters
    always, the local label filter with ``local_label``, the multicover
    bound with ``multicover``.
    """
    enabled = {
        "global-label-filter": True,
        "count-filter": True,
        "local-label-filter": options.local_label,
        "multicover-filter": options.multicover,
    }
    stages = (
        PrepareProfiles(),
        MinEditFilter() if options.minedit_prefix else BasicPrefix(),
        PrefixCandidates(),
        SizeFilter(),
        *(
            _FILTER_FACTORIES[name]()
            for name in DEFAULT_FILTER_ORDER
            if enabled[name]
        ),
        Verify(
            verifier=options.verifier,
            improved_order=options.improved_order,
            improved_h=options.improved_h,
        ),
    )
    return JoinPlan(stages=stages)
