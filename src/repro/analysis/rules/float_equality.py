"""Float equality rule.

Distances and bounds in this codebase are exact integers *except* in
the assignment machinery and timings, where values are floats; an
``==``/``!=`` against a float is then a latent bug (two mathematically
equal costs rarely compare equal after summation).  The rule flags
equality comparisons where either operand is a float literal or a
direct call to a known float-valued cost function — a deliberate
under-approximation (no type inference), paired with ``mypy`` for the
rest.
"""

from __future__ import annotations

from typing import Iterator

import ast

from repro.analysis.engine import Finding, ModuleInfo
from repro.analysis.registry import Rule, register

__all__ = ["FloatEqualityRule", "FLOAT_VALUED_FUNCTIONS"]

#: Functions known to return floats (assignment costs / timings).
FLOAT_VALUED_FUNCTIONS = {
    "assignment_cost",
    "star_distance",
    "mapping_distance",
    "perf_counter",
}


def _is_float_operand(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if isinstance(node, ast.UnaryOp):
        return _is_float_operand(node.operand)
    if isinstance(node, ast.Call):
        func = node.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else ""
        )
        return name in FLOAT_VALUED_FUNCTIONS
    return False


@register
class FloatEqualityRule(Rule):
    """No ==/!= on float-valued distances, bounds, or costs."""

    id = "float-equality"
    description = "no float equality comparisons on distances/bounds/costs"

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.module.startswith("repro"):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_float_operand(left) or _is_float_operand(right):
                    yield self.finding(
                        module,
                        node.lineno,
                        "==/!= on a float-valued distance/cost; compare "
                        "with an explicit tolerance (math.isclose) or "
                        "restructure to integers",
                    )
