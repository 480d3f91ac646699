"""``budget-threading``: the verification budget must never be dropped.

The bounded-verification contract (PR 3) threads a
``VerificationBudget`` from the join drivers through the staged
executor into every A*-family verifier, so a runaway verification can
always be cut off.  The failure mode this rule guards against is quiet:
a call site that *has* a budget in scope forwards work to a
budget-accepting callee on the verifier path but forgets to pass the
budget, and the callee's ``budget=None`` default silently disables the
bound.

Whole-program check, per call site:

1. the **caller** has a budget in scope — a parameter whose name
   contains ``budget``, or it reads a ``.budget`` attribute;
2. the **callee** resolves in the call graph, accepts a budget
   parameter, and transitively reaches a verifier
   (``graph_edit_distance_detailed``, ``compiled_ged_detailed``,
   ``dfs_ged``, ``dfs_ged_compiled``, ``verify_pair``,
   ``verify_block``, ``verify_candidate``);
3. the call binds **no** budget — no ``budget=`` keyword, no
   positional argument covering the budget parameter's index (method
   calls account for the bound ``self``), and no ``*args``/``**kwargs``
   that could be carrying it.

All three together mean the budget was dropped on a verification path.

The portfolio call family (PR 10) is covered by a fourth clause: an
*unresolved* ``<expr>.verify(...)`` attribute call is treated as a
``VerifierBackend.verify`` dispatch — its uniform signature is
``verify(self, r, s, tau, budget=None, ...)``, so a call from a
budget-holding caller that binds neither ``budget=`` nor a fourth
positional argument dropped the budget at the dispatch point.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.engine import Finding
from repro.analysis.registry import Rule, register

__all__ = ["BudgetThreadingRule"]

#: ``VerifierBackend.verify(self, r, s, tau, budget=None, ...)`` — the
#: budget parameter's index in the portfolio's uniform surface.
_PORTFOLIO_BUDGET_INDEX = 4


def _short(qual: str) -> str:
    parts = qual.split(".")
    return ".".join(parts[-2:]) if len(parts) > 1 and parts[-2][:1].isupper() else parts[-1]


@register
class BudgetThreadingRule(Rule):
    """Flag verification-path calls that drop an in-scope budget."""

    id = "budget-threading"
    description = (
        "paths from engine stages into A*-family verifiers must pass "
        "the in-scope VerificationBudget instead of dropping it"
    )
    scope = "program"

    def check_program(self, model) -> Iterator[Finding]:
        """Report each call site dropping an in-scope budget."""
        for caller_qual in sorted(model.functions):
            caller = model.functions[caller_qual]
            has_budget = caller["reads_budget_attr"] or any(
                "budget" in param for param in caller["params"]
            )
            if not has_budget:
                continue
            for call in caller["calls"]:
                callee_qual = call.get("resolved")
                if callee_qual is None:
                    if call["attr"] != "verify":
                        continue
                    if call["has_star"] or call["has_kwstar"]:
                        continue
                    if any("budget" in kw for kw in call["keywords"]):
                        continue
                    # Bound-method call: ``self`` is implicit, so the
                    # budget slot is positional index 3 at the site.
                    if call["nargs"] + 1 > _PORTFOLIO_BUDGET_INDEX:
                        continue
                    yield Finding(
                        path=model.path_of(caller_qual),
                        line=call["line"],
                        rule=self.id,
                        message=(
                            f"verification budget dropped: "
                            f"'{_short(caller_qual)}' has a budget in "
                            f"scope but dispatches '.verify(...)' "
                            f"(VerifierBackend surface) without binding "
                            f"its 'budget' parameter"
                        ),
                    )
                    continue
                if callee_qual == caller_qual:
                    continue
                budget_index = model.budget_param_index(callee_qual)
                if budget_index is None:
                    continue
                if not model.reaches_verifier(callee_qual):
                    continue
                if call["has_star"] or call["has_kwstar"]:
                    continue
                if any("budget" in kw for kw in call["keywords"]):
                    continue
                callee = model.functions[callee_qual]
                shift = 1 if callee["is_method"] else 0
                if call["nargs"] + shift > budget_index:
                    continue
                yield Finding(
                    path=model.path_of(caller_qual),
                    line=call["line"],
                    rule=self.id,
                    message=(
                        f"verification budget dropped: '{_short(caller_qual)}' "
                        f"has a budget in scope but calls "
                        f"'{_short(callee_qual)}' without binding its "
                        f"'{callee['params'][budget_index]}' parameter"
                    ),
                )
