"""Filter purity rule: filters may not mutate their input graphs.

Every filter is a GED *lower bound*; a filter that edits a parameter
graph silently changes later filters' and the verifier's answers for
the same pair, which is exactly the class of bug the test suite can
only sample.  This rule statically bans calling mutating
:class:`repro.graph.graph.Graph` methods — or assigning/deleting
attributes — on any function parameter inside the filter modules.

The check is name-based (no type inference): any parameter on which a
known mutator is invoked is flagged, whatever its annotation.  Aliasing
a parameter first (``g2 = g; g2.add_vertex(...)``) escapes the rule;
code review owns that residue.
"""

from __future__ import annotations

from typing import Iterator, Set

import ast

from repro.analysis.engine import Finding, ModuleInfo
from repro.analysis.registry import Rule, register

__all__ = ["FilterPurityRule", "MUTATING_METHODS"]

#: The mutating methods of :class:`repro.graph.graph.Graph`.
MUTATING_METHODS = {
    "add_vertex",
    "remove_vertex",
    "set_vertex_label",
    "add_edge",
    "remove_edge",
    "set_edge_label",
}

#: Modules whose functions must be pure in their parameters.
TARGET_MODULES = {
    "repro.grams",
    "repro.engine.count_filter",
    "repro.engine.prefix",
}
TARGET_PREFIXES = ("repro.grams.",)


def _parameter_names(node: ast.AST) -> Set[str]:
    names: Set[str] = set()
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        arguments = node.args
        for arg in (
            list(arguments.posonlyargs)
            + list(arguments.args)
            + list(arguments.kwonlyargs)
        ):
            names.add(arg.arg)
        if arguments.vararg is not None:
            names.add(arguments.vararg.arg)
        if arguments.kwarg is not None:
            names.add(arguments.kwarg.arg)
    names.discard("self")
    names.discard("cls")
    return names


@register
class FilterPurityRule(Rule):
    """Filter functions may not mutate their parameter graphs."""

    id = "filter-purity"
    description = (
        "filter modules may not call mutating Graph methods on parameters"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.module not in TARGET_MODULES and not module.module.startswith(
            TARGET_PREFIXES
        ):
            return
        yield from self._check_scope(module, module.tree, set())

    def _check_scope(
        self, module: ModuleInfo, scope: ast.AST, params: Set[str]
    ) -> Iterator[Finding]:
        for node in ast.iter_child_nodes(scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Nested functions see (and must not mutate) enclosing
                # parameters too.
                yield from self._check_scope(
                    module, node, params | _parameter_names(node)
                )
                continue
            yield from self._check_node(module, node, params)
            yield from self._check_scope(module, node, params)

    def _check_node(
        self, module: ModuleInfo, node: ast.AST, params: Set[str]
    ) -> Iterator[Finding]:
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in MUTATING_METHODS
                and isinstance(func.value, ast.Name)
                and func.value.id in params
            ):
                yield self.finding(
                    module,
                    node.lineno,
                    f"filter mutates parameter {func.value.id!r} via "
                    f".{func.attr}(); filters must be pure GED lower bounds",
                )
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
                if isinstance(node, ast.AugAssign)
                else node.targets
            )
            for target in targets:
                # Attribute writes only: subscript writes on dict/list
                # parameters are the idiom for explicit accumulator
                # out-parameters (e.g. the ``seen`` spellings a label
                # check fills), while attribute writes on a parameter
                # are how a Graph would be corrupted.
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in params
                ):
                    yield self.finding(
                        module,
                        node.lineno,
                        f"filter writes to parameter {target.value.id!r}; "
                        "filters must be pure GED lower bounds",
                    )
