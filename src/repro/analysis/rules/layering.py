"""Layering rule: enforce the package dependency DAG.

The repo's layers, lowest first::

    exceptions
    runtime   graph     setcover
    matching  datasets  grams
    ged
    engine
    core
    reporting  baselines
    cli

Each package may import only itself and packages reachable below it.
Notably ``ged`` imports ``grams`` (the shared q-gram/label primitives)
but never ``core`` — the historical ``core <-> ged`` cycle this rule
exists to keep dead.  The compiled verification backend
(``ged.compiled``) lives inside ``ged`` for exactly this reason: it is
called from the verification stage but needs only ``graph``/``grams``/
``runtime``, all reachable from the ``ged`` layer.  ``runtime`` (verification budgets, journals,
fault plans) sits directly above ``exceptions`` so both ``ged`` and
the engine may depend on it without creating a cycle.  ``engine`` (the
staged execution engine: plans, stages, executor) sits between ``ged``
and ``core``: it owns the pipeline machinery, while ``core`` is the
public API layer over it (the in-memory join driver included).  ``repro/__init__.py`` (the facade) and
``repro/__main__.py`` are unrestricted; everything else may not import
the facade.  A package missing from the table is flagged so the DAG
must be extended deliberately.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set

import ast

from repro.analysis.engine import Finding, ModuleInfo
from repro.analysis.registry import Rule, register

__all__ = ["LayeringRule", "DIRECT_DEPS", "allowed_layers"]

#: Direct dependencies of each layer (transitive closure is applied).
#: Top-level modules (``exceptions``, ``reporting``, ``cli``) are layers
#: of their own.
DIRECT_DEPS: Dict[str, Set[str]] = {
    "exceptions": set(),
    "runtime": {"exceptions"},
    "graph": {"exceptions"},
    "setcover": {"exceptions"},
    "matching": {"graph"},
    "datasets": {"graph"},
    "grams": {"graph", "setcover"},
    "ged": {"grams", "matching", "runtime"},
    "engine": {"ged", "runtime"},
    "core": {"engine"},
    "reporting": {"core"},
    "baselines": {"core"},
    "analysis": {"exceptions"},
    "cli": {"baselines", "datasets", "reporting"},
}

#: Layers allowed to import anything, including the ``repro`` facade.
_UNRESTRICTED = {"", "__main__"}


def allowed_layers(layer: str) -> Set[str]:
    """Transitive closure of ``DIRECT_DEPS`` for ``layer`` (plus itself)."""
    closure: Set[str] = {layer}
    frontier: List[str] = [layer]
    while frontier:
        current = frontier.pop()
        for dep in DIRECT_DEPS.get(current, set()):
            if dep not in closure:
                closure.add(dep)
                frontier.append(dep)
    return closure


def _imported_modules(module: ModuleInfo) -> Iterator[tuple]:
    """Yield ``(dotted_target, lineno)`` for every import in the module."""
    package_parts = module.module.split(".")
    if not module.is_package:
        package_parts = package_parts[:-1]
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                yield node.module or "", node.lineno
            else:
                base = package_parts[: len(package_parts) - (node.level - 1)]
                target = ".".join(base + ([node.module] if node.module else []))
                yield target, node.lineno


@register
class LayeringRule(Rule):
    """Imports must follow the package dependency DAG (no cycles)."""

    id = "layering"
    description = (
        "enforce the dependency DAG {graph,setcover} -> grams -> ged "
        "-> engine -> core -> {baselines,cli}"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.module.startswith("repro"):
            return
        importer = module.layer
        if importer in _UNRESTRICTED:
            return
        if importer not in DIRECT_DEPS:
            yield self.finding(
                module,
                1,
                f"package {importer!r} is not in the layering DAG; add it to "
                "repro.analysis.rules.layering.DIRECT_DEPS deliberately",
            )
            return
        allowed = allowed_layers(importer)
        for target, lineno in _imported_modules(module):
            parts = target.split(".")
            if parts[0] != "repro":
                continue
            if len(parts) == 1:
                yield self.finding(
                    module,
                    lineno,
                    "library code must not import the 'repro' facade; "
                    "import the concrete module instead",
                )
                continue
            target_layer = parts[1]
            if target_layer in allowed:
                continue
            if target_layer not in DIRECT_DEPS:
                yield self.finding(
                    module,
                    lineno,
                    f"import of unknown layer 'repro.{target_layer}'; add it "
                    "to repro.analysis.rules.layering.DIRECT_DEPS",
                )
            else:
                yield self.finding(
                    module,
                    lineno,
                    f"layer '{importer}' may not import 'repro.{target_layer}' "
                    f"(allowed: {', '.join(sorted(allowed - {importer})) or 'none'})",
                )
