"""Join plans: the explicit stage list a join run executes.

``build_plan(options)`` assembles a :class:`JoinPlan` — an ordered
tuple of first-class stage objects from :mod:`repro.engine.stages` —
from a :class:`~repro.engine.options.GSimJoinOptions`.  The structural
stages (prepare, prefix, candidates, size filter, verify) are fixed by
the algorithm's shape; the per-pair filter cascade in the middle is the
reorderable part, and ``GSimJoinOptions(plan=...)`` may supply any
strict permutation of the enabled filter names.  Every ordering is
sound (each filter is an independent GED lower bound over shared,
cached intermediates) and yields identical result pairs; only prune
attribution and stage timings shift.

``JoinPlan.describe()`` renders the plan for the CLI's
``--explain-plan``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

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
from repro.exceptions import ParameterError

__all__ = [
    "JoinPlan",
    "build_plan",
    "reorder_pair_filters",
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
    """An ordered, validated stage list for one join/search run.

    ``stages`` always reads: one ``prepare`` stage, one ``prefix``
    stage, the ``candidates`` stage, the fused ``candidate-filter``
    (size) stage, zero or more ``pair-filter`` stages, and the
    ``verify`` stage — in execution order.
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

    The per-pair cascade defaults to the enabled subset of
    :data:`DEFAULT_FILTER_ORDER`; ``options.plan`` may reorder it but
    must name exactly the enabled filters (a strict permutation).
    ``plan="auto"`` builds the same default-order plan — the executor
    re-orders it once, picked before the first pair by the static model
    of :mod:`repro.engine.planner`.

    Raises
    ------
    ParameterError
        When ``options.plan`` names an unknown stage, repeats a name,
        omits an enabled filter, or includes a disabled one.
    """
    enabled = ["global-label-filter", "count-filter"]
    if options.local_label:
        enabled.append("local-label-filter")
    if options.multicover:
        enabled.append("multicover-filter")

    order = [name for name in DEFAULT_FILTER_ORDER if name in enabled]
    if options.plan is not None and options.plan != "auto":
        requested = list(options.plan)
        unknown = [n for n in requested if n not in _FILTER_FACTORIES]
        if unknown:
            raise ParameterError(
                f"plan names unknown stages {unknown!r}; "
                f"reorderable stages are {sorted(_FILTER_FACTORIES)!r}"
            )
        duplicates = sorted(
            {n for n in requested if requested.count(n) > 1}
        )
        if duplicates:
            raise ParameterError(
                f"plan repeats stage name(s) {duplicates!r}; each enabled "
                f"pair filter must appear exactly once"
            )
        if sorted(requested) != sorted(order):
            raise ParameterError(
                f"plan must be a permutation of the enabled pair filters "
                f"{order!r}, got {tuple(requested)!r}"
            )
        order = requested

    prefix_stage = MinEditFilter() if options.minedit_prefix else BasicPrefix()
    return _assemble(options, prefix_stage, order)


def _assemble(
    options: GSimJoinOptions, prefix_stage: object, order: "list[str]"
) -> JoinPlan:
    """Instantiate the stage tuple for a validated filter ``order``."""
    stages = (
        PrepareProfiles(),
        prefix_stage,
        PrefixCandidates(),
        SizeFilter(),
        *(_FILTER_FACTORIES[name]() for name in order),
        Verify(
            verifier=options.verifier,
            improved_order=options.improved_order,
            improved_h=options.improved_h,
            anchor_bound=options.anchor_bound,
        ),
    )
    return JoinPlan(stages=stages)


def reorder_pair_filters(
    plan: JoinPlan, order: Tuple[str, ...]
) -> JoinPlan:
    """``plan`` with its pair-filter cascade re-ordered to ``order``.

    Reuses the existing stage *objects* (the structural stages keep
    their identity and any accrued state; only the cascade positions
    change).  Used to apply the ``plan="auto"`` order picked before the
    first pair — ``order`` must be a permutation of the plan's current
    filter names.

    Raises
    ------
    ParameterError
        When ``order`` is not a permutation of the plan's pair filters.
    """
    by_name = {stage.name: stage for stage in plan.pair_filters}
    if sorted(order) != sorted(by_name):
        raise ParameterError(
            f"reorder must permute the plan's pair filters "
            f"{tuple(sorted(by_name))!r}, got {tuple(order)!r}"
        )
    reordered = tuple(by_name[name] for name in order)
    stages = (
        plan.prepare,
        plan.prefix,
        plan.candidates,
        plan.size_filter,
        *reordered,
        plan.verify,
    )
    return JoinPlan(stages=stages)
