"""Hot-path allocation rule.

The engine's driver loops (``engine.executor``, ``engine.stages``),
the vectorized batch kernels ``engine.batch``, the in-memory join
driver ``core.join`` and the search index ``core.search``,
``ged.astar``, the compiled
verifier ``ged.compiled``, the q-gram extraction walk ``grams.qgrams``
(per path step), the interned filter kernels ``grams.vocab``
/ ``grams.mismatch``, the columnar store builder ``grams.columnar``
and the out-of-core shard drivers (``engine.sharded`` per candidate,
``runtime.sharded`` per spilled record)
are the per-pair / per-state / per-block inner loops of the whole
system; an accidental
``list(...)``/``dict(...)``/``set(...)`` copy or a repeated
``extract_qgrams`` call inside one of their ``for``/``while`` loops
multiplies by the candidate (or A* state, or merged-id) count.  Copies
and extractions belong before the loop; genuinely-needed per-iteration
containers should be built with literals, slices or comprehensions
(which this rule deliberately does not flag — the one-pass merge in
``grams.mismatch`` relies on exactly those forms).

A justified in-loop copy can be waived with
``# repro: ignore[hot-path-alloc]`` on the offending line.
"""

from __future__ import annotations

from typing import Iterator

import ast

from repro.analysis.engine import Finding, ModuleInfo
from repro.analysis.registry import Rule, register

__all__ = ["HotPathAllocationRule"]

#: The modules whose loops are the system's hot paths.
TARGET_MODULES = {
    "repro.core.join",
    "repro.core.search",
    "repro.engine.batch",
    "repro.engine.executor",
    "repro.engine.sharded",
    "repro.engine.stages",
    "repro.ged.astar",
    "repro.ged.compiled",
    "repro.grams.columnar",
    "repro.grams.mismatch",
    "repro.grams.qgrams",
    "repro.grams.vocab",
    "repro.runtime.sharded",
}

_COPY_BUILTINS = {"list", "dict", "set", "frozenset", "tuple"}

_LOOPS = (ast.For, ast.AsyncFor, ast.While)


@register
class HotPathAllocationRule(Rule):
    """No container copies or q-gram re-extraction inside hot loops."""

    id = "hot-path-alloc"
    description = (
        "flag list()/dict() copies and extract_qgrams calls inside loops "
        "in core.join/core.search/engine.batch/engine.executor/"
        "engine.sharded/engine.stages/ged.astar/"
        "ged.compiled/grams.columnar/grams.mismatch/grams.qgrams/"
        "grams.vocab/"
        "runtime.sharded"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.module not in TARGET_MODULES:
            return
        yield from self._visit(module, module.tree, in_loop=False)

    def _visit(
        self, module: ModuleInfo, node: ast.AST, in_loop: bool
    ) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if in_loop:
                yield from self._check_call(module, child)
            yield from self._visit(
                module, child, in_loop=in_loop or isinstance(child, _LOOPS)
            )

    def _check_call(self, module: ModuleInfo, node: ast.AST) -> Iterator[Finding]:
        if not isinstance(node, ast.Call):
            return
        func = node.func
        name = ""
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name in _COPY_BUILTINS and (node.args or node.keywords):
            yield self.finding(
                module,
                node.lineno,
                f"{name}(...) copy inside a hot loop; hoist it above the "
                "loop or reuse the original container",
            )
        elif name == "extract_qgrams":
            yield self.finding(
                module,
                node.lineno,
                "extract_qgrams inside a hot loop; extract once per graph "
                "and reuse the profile",
            )
