"""First-class pipeline stages of the staged execution engine.

The paper's pipeline is one conceptual machine — prefix-indexed
candidate generation, the Verify cascade (Algorithm 6), then A* — and
this module gives each of its steps a first-class stage object.  A
:class:`repro.engine.plan.JoinPlan` is an ordered tuple of these
stages; the :class:`repro.engine.executor.Executor` drives them for all
four entry points (self-join, R×S join, parallel join, index query).

Stage taxonomy (``role``):

* ``prepare``          — :class:`PrepareProfiles`: q-gram extraction,
  global ordering, per-profile sort;
* ``prefix``           — :class:`MinEditFilter` / :class:`BasicPrefix`:
  the prefix-length decision (Lemma 2 / Algorithm 4);
* ``candidates``       — :class:`PrefixCandidates`: inverted-index
  probing (Lemma 2's prefix filtering);
* ``candidate-filter`` — :class:`SizeFilter`: the size lower bound,
  fused into the probe loop exactly as in Algorithm 1;
* ``pair-filter``      — :class:`GlobalLabelFilter`,
  :class:`CountFilter`, :class:`LabelFilter`,
  :class:`MulticoverFilter`: the per-pair Verify cascade, always in
  the paper's order (``repro.engine.plan.DEFAULT_FILTER_ORDER``);
* ``verify``           — :class:`Verify`: the exact GED computation on
  the survivors, with budget-bounded verdicts.

The per-pair cascade runs over a :class:`PairContext` that caches the
mismatching-q-gram computation, so whichever filter needs it first pays
for it and the rest reuse it — at most one ``CompareQGrams`` call per
pair.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.engine.prefix import PrefixInfo, basic_prefix, minedit_prefix
from repro.engine.result import JoinStatistics
from repro.ged.compiled import VerificationCache
from repro.ged.portfolio import resolve_backend
from repro.ged.vertex_order import input_vertex_order, mismatch_vertex_order
from repro.grams.labels import (
    global_label_lower_bound,
    local_label_lower_bound,
    multicover_min_edit_bound,
)
from repro.grams.mismatch import MismatchResult, compare_qgrams
from repro.grams.qgrams import QGramProfile
from repro.runtime.budget import VerificationBudget

__all__ = [
    "VerifyOutcome",
    "PairContext",
    "PrepareProfiles",
    "BasicPrefix",
    "MinEditFilter",
    "PrefixCandidates",
    "SizeFilter",
    "PairFilter",
    "GlobalLabelFilter",
    "CountFilter",
    "LabelFilter",
    "MulticoverFilter",
    "Verify",
]

LabelPair = Tuple[Counter, Counter]


@dataclass(frozen=True)
class VerifyOutcome:
    """Why a pair was accepted or rejected.

    ``pruned_by`` is one of ``"global_label"``, ``"count"``,
    ``"local_label"``, ``"multicover"``, ``"ged"`` or ``None``
    (accepted); ``ged`` is the (threshold-capped) distance when the
    computation ran and decided exactly.

    Budgeted verification adds three fields: ``undecided`` marks a pair
    whose search exhausted its budget with ``lower ≤ tau < upper`` (the
    join routes it to the ``undecided`` channel), and
    ``lower``/``upper`` carry the bounded verdict whenever the budget
    ran out — including for pairs the bounds *did* decide (accepted
    because ``upper ≤ tau``, or rejected because ``lower > tau``).
    ``expansions``/``ged_seconds`` record the search cost of this
    single pair so the outcome can be journaled and replayed exactly.

    ``backend`` names the portfolio backend that produced a GED verdict
    (``"compiled"``/``"object"``/``"dfs"`` — under ``verifier="auto"``
    the dispatcher's per-pair choice — or ``"memo"`` when the verdict
    came from the :class:`VerificationCache`'s pair-level memo without
    running a search); ``None`` for filter prunes.
    """

    is_result: bool
    pruned_by: Optional[str]
    ged: Optional[int] = None
    undecided: bool = False
    lower: Optional[int] = None
    upper: Optional[int] = None
    expansions: int = 0
    ged_seconds: float = 0.0
    backend: Optional[str] = None


class PairContext:
    """One candidate pair flowing through the per-pair cascade.

    Carries the two sorted profiles, the threshold, the precomputed
    label multisets, and a lazily cached
    :class:`~repro.grams.mismatch.MismatchResult` — whichever stage
    needs the mismatching q-grams first computes them (with the count
    filter's early bailout) and every later stage reuses the result.
    """

    __slots__ = ("p_r", "p_s", "tau", "labels_r", "labels_s", "_mismatch")

    def __init__(
        self,
        p_r: QGramProfile,
        p_s: QGramProfile,
        tau: int,
        labels_r: LabelPair,
        labels_s: LabelPair,
    ) -> None:
        """Bind one candidate pair; the mismatch is computed on demand."""
        self.p_r = p_r
        self.p_s = p_s
        self.tau = tau
        self.labels_r = labels_r
        self.labels_s = labels_s
        self._mismatch: Optional[MismatchResult] = None

    @property
    def mismatch(self) -> MismatchResult:
        """The (cached) bidirectional mismatching-q-gram computation.

        Computed with the count filter's ``tau`` bailout: when
        ``count_pruned`` is set the structure is partial and only the
        count filter may act on it (the other filters pass the pair
        through — see :class:`CountFilter`).
        """
        m = self._mismatch
        if m is None:
            m = compare_qgrams(self.p_r, self.p_s, self.tau)
            self._mismatch = m
        return m


class PrepareProfiles:
    """Collection preparation: extract q-grams, build and apply the
    global ordering (``role="prepare"``).

    The executor drives the actual loops (they are collection-level,
    not per-pair); this stage object names and describes them in the
    plan and receives their statistics row.
    """

    name = "prepare-profiles"
    role = "prepare"
    detail = "extract path q-grams, build the global ordering, sort profiles"


class BasicPrefix:
    """Basic prefix lengths of Lemma 2: ``τ·D_path + 1`` (``role="prefix"``)."""

    name = "basic-prefix"
    role = "prefix"
    detail = "basic prefix length tau*D_path+1 (Lemma 2)"

    def prefix_info(self, profile: QGramProfile, tau: int) -> PrefixInfo:
        """Prefix decision for one (already sorted) profile."""
        return basic_prefix(profile, tau)


class MinEditFilter:
    """Minimum edit filtering prefixes (Algorithm 4, ``role="prefix"``)."""

    name = "minedit-prefix"
    role = "prefix"
    detail = "minimum-edit-filtered prefix length (Lemma 3 / Algorithm 4)"

    def prefix_info(self, profile: QGramProfile, tau: int) -> PrefixInfo:
        """Prefix decision for one (already sorted) profile."""
        return minedit_prefix(profile, tau)


class PrefixCandidates:
    """Prefix probing against the inverted index (``role="candidates"``).

    The probe loop lives in the executor (it is the join's inner
    candidate-generation loop and owns the index state); the stage's
    statistics row counts every posting/unprunable/fallback encounter
    examined (``input``) and the encounters surviving the by-id dedup
    (``survivors``), and carries the fused probe + size-filter wall
    time.
    """

    name = "prefix-candidates"
    role = "candidates"
    detail = "probe the inverted index with the sorted q-gram prefix"


class SizeFilter:
    """The size lower bound, fused into the probe loop
    (``role="candidate-filter"``).

    ``input`` counts size-filter evaluations, ``survivors`` the
    candidates admitted to verification (Cand-1).  Its wall time is
    included in :class:`PrefixCandidates`' row — the fusion is
    Algorithm 1's own structure.
    """

    name = "size-filter"
    role = "candidate-filter"
    detail = "size lower bound ||V|-|V'|| + ||E|-|E'|| <= tau"


class PairFilter:
    """Base of the per-pair Verify cascade filters (``role="pair-filter"``).

    Subclasses define ``prune(ctx)`` returning the ``pruned_by`` tag
    when the pair is rejected and ``None`` when it survives, the
    :class:`~repro.engine.result.JoinStatistics` counter their prunes
    feed (``counter``), and the tag itself (``tag``) so journal records
    can be mapped back to the stage that produced them on replay.
    """

    name = "pair-filter"
    role = "pair-filter"
    detail = ""
    counter = ""
    tag = ""

    def prune(self, ctx: PairContext) -> Optional[str]:
        """Return the ``pruned_by`` tag, or ``None`` if the pair survives."""
        raise NotImplementedError


class GlobalLabelFilter(PairFilter):
    """Global label filtering (Lemma 5): ``Γ(L_V) + Γ(L_E) > τ`` prunes."""

    name = "global-label-filter"
    detail = "global label lower bound (Lemma 5)"
    counter = "pruned_by_global_label"
    tag = "global_label"

    def prune(self, ctx: PairContext) -> Optional[str]:
        """Prune when the global label lower bound exceeds ``tau``."""
        eps1 = global_label_lower_bound(
            ctx.p_r.graph, ctx.p_s.graph, ctx.labels_r, ctx.labels_s
        )
        if eps1 > ctx.tau:
            return "global_label"
        return None


class CountFilter(PairFilter):
    """Count filtering via mismatching q-gram counts (Lemma 1).

    ``compare_qgrams`` is given ``tau`` so the interned merge bails out
    as soon as a count bound is exceeded; the (cached) result's
    ``count_pruned`` flag is this filter's verdict.
    """

    name = "count-filter"
    detail = "mismatching q-gram count bounds (Lemma 1)"
    counter = "pruned_by_count"
    tag = "count"

    def prune(self, ctx: PairContext) -> Optional[str]:
        """Prune when a mismatching-count bound exceeds ``τ·D_path``."""
        if ctx.mismatch.count_pruned:
            return "count"
        return None


class LabelFilter(PairFilter):
    """Local label filtering (Algorithm 5), both directions (ε₄/ε₅)."""

    name = "local-label-filter"
    detail = "local label lower bounds over mismatching q-grams (Algorithm 5)"
    counter = "pruned_by_local_label"
    tag = "local_label"

    def prune(self, ctx: PairContext) -> Optional[str]:
        """Prune when either direction's local label bound exceeds ``tau``."""
        mismatch = ctx.mismatch
        if mismatch.count_pruned:
            # Partial mismatch data (the merge bailed out): only the
            # count filter may act on it.  Pass the pair through.
            return None
        r, s = ctx.p_r.graph, ctx.p_s.graph
        eps4 = local_label_lower_bound(
            mismatch.mismatch_r, r, s, ctx.tau,
            other_labels=ctx.labels_s, required_mask=mismatch.required_mask_r,
        )
        if eps4 > ctx.tau:
            return "local_label"
        eps5 = local_label_lower_bound(
            mismatch.mismatch_s, s, r, ctx.tau,
            other_labels=ctx.labels_r, required_mask=mismatch.required_mask_s,
        )
        if eps5 > ctx.tau:
            return "local_label"
        return None


class MulticoverFilter(PairFilter):
    """Set-multicover minimum-edit bound over partially matched surplus
    keys — this library's sound extension beyond Algorithm 5.

    Prunes with tag ``"multicover"`` but feeds the local-label counter,
    matching the historical accounting of ``verify_pair``.
    """

    name = "multicover-filter"
    detail = "set-multicover minimum-edit bound over surplus keys (extension)"
    counter = "pruned_by_local_label"
    tag = "multicover"

    def prune(self, ctx: PairContext) -> Optional[str]:
        """Prune when a multicover bound exceeds ``tau``."""
        mismatch = ctx.mismatch
        if mismatch.count_pruned:
            return None
        p_r, p_s, tau = ctx.p_r, ctx.p_s, ctx.tau
        if (
            multicover_min_edit_bound(mismatch.surplus_groups_r(p_r, p_s), tau) > tau
            or multicover_min_edit_bound(mismatch.surplus_groups_s(p_r, p_s), tau) > tau
        ):
            return "multicover"
        return None


class Verify:
    """Exact GED on the filter survivors (``role="verify"``).

    Looks the configured backend up in
    :data:`repro.ged.portfolio.BACKENDS` — the compiled integer-array
    A*, the object-graph A*, the DFS branch-and-bound, or the
    ``"auto"`` per-pair hardness dispatcher — and wraps it with the
    improved vertex order (Algorithm 7), the improved heuristic
    (Algorithm 8), budget-bounded verdicts, and the
    :class:`VerificationCache`'s pair-level verdict memo.
    """

    name = "verify"
    role = "verify"
    __slots__ = ("verifier", "improved_order", "improved_h", "_backend")

    def __init__(
        self, verifier: str, improved_order: bool, improved_h: bool
    ) -> None:
        """Configure the GED backend and its optimizations.

        Raises
        ------
        ParameterError
            On an unknown verifier.
        """
        self.verifier = verifier
        self.improved_order = improved_order
        self.improved_h = improved_h
        self._backend = resolve_backend(verifier)

    @property
    def detail(self) -> str:
        """Plan-description line naming the configured backend."""
        return f"exact GED via the {self._backend.name!r} backend"

    def run(
        self,
        ctx: PairContext,
        stats: Optional[JoinStatistics] = None,
        budget: Optional[VerificationBudget] = None,
        cache: Optional[VerificationCache] = None,
    ) -> VerifyOutcome:
        """Decide one surviving pair exactly (or bounded, under budget).

        Accrues ``cand2``, ``ged_calls``, ``ged_expansions``,
        ``ged_time``, per-backend call counts and ``undecided`` into
        ``stats`` exactly as the historical ``verify_pair`` did;
        ``ged_time`` starts *after* the vertex-order computation so
        timing semantics are unchanged.

        When ``cache`` carries a decided verdict for this graph-identity
        pair at this threshold (an earlier search of an overlapping
        index query or top-k probe), the memo answers without running
        any search — ``backend="memo"``, zero expansions, no
        ``ged_calls`` tick.
        """
        p_r, p_s, tau = ctx.p_r, ctx.p_s, ctx.tau
        r, s = p_r.graph, p_s.graph
        if stats:
            stats.cand2 += 1
        if cache is not None:
            hit = cache.lookup_verdict(r, s, tau)
            if hit is not None:
                accept, exact, lower, upper = hit
                if stats:
                    stats.memo_hits += 1
                    stats.verify_backends["memo"] = (
                        stats.verify_backends.get("memo", 0) + 1
                    )
                if accept:
                    return VerifyOutcome(
                        True, None, exact, lower=lower, upper=upper,
                        backend="memo",
                    )
                return VerifyOutcome(
                    False, "ged", exact, lower=lower, upper=upper,
                    backend="memo",
                )
        order = (
            mismatch_vertex_order(r, ctx.mismatch.mismatch_r)
            if self.improved_order
            else input_vertex_order(r)
        )
        backend = self._backend.select(r, s, tau, ctx.labels_r, ctx.labels_s)
        started = time.perf_counter()
        search = backend.verify(
            r, s, tau, budget,
            order=order, improved_h=self.improved_h, q=p_r.q, cache=cache,
        )
        elapsed = time.perf_counter() - started
        if cache is not None:
            cache.record_verdict(r, s, tau, search)
        if stats:
            stats.ged_time += elapsed
            stats.ged_calls += 1
            stats.ged_expansions += search.expanded
            stats.verify_backends[backend.name] = (
                stats.verify_backends.get(backend.name, 0) + 1
            )
        name = backend.name
        if getattr(search, "budget_exhausted", False):
            lower, upper = search.lower, search.upper
            if upper is not None and upper <= tau:
                # ged <= upper <= tau: decided despite exhaustion.
                return VerifyOutcome(
                    True, None, None, lower=lower, upper=upper,
                    expansions=search.expanded, ged_seconds=elapsed,
                    backend=name,
                )
            if lower is not None and lower > tau:
                # tau < lower <= ged: decided rejection.
                return VerifyOutcome(
                    False, "ged", None, lower=lower, upper=upper,
                    expansions=search.expanded, ged_seconds=elapsed,
                    backend=name,
                )
            if stats:
                stats.undecided += 1
            return VerifyOutcome(
                False, None, None, undecided=True, lower=lower, upper=upper,
                expansions=search.expanded, ged_seconds=elapsed,
                backend=name,
            )
        if search.distance <= tau:
            return VerifyOutcome(
                True, None, search.distance,
                expansions=search.expanded, ged_seconds=elapsed,
                backend=name,
            )
        return VerifyOutcome(
            False, "ged", search.distance,
            expansions=search.expanded, ged_seconds=elapsed,
            backend=name,
        )
