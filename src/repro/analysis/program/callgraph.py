"""Whole-program model: symbol table, call graph, and taint resolution.

:class:`ProgramModel` is built from the *facts* dicts of every analyzed
module (see :mod:`repro.analysis.program.facts`) and gives the
whole-program rules three capabilities:

1. **Call-target resolution.**  Per-module extraction records callee
   *references* — an exact dotted target when imports/locals/annotations
   pin it down, ``"?name"`` for an unresolved bare-name call, ``"@attr"``
   for an unresolved attribute call.  The model links references to
   function definitions: exact quals directly, class references through
   ``__init__``, re-exported names by unique-suffix match (restricted to
   packages actually present in the model, so ``os.path.join`` can never
   link to a local ``join``), and ``"?name"`` by unique bare name.
   ``"@attr"`` references are **never** name-linked — method names like
   ``append`` or ``run`` are too common for guessing to be sound.

2. **Reachability.**  Worker roots are found structurally (the argument
   of ``executor.submit``/pool ``map`` family/``apply_async``, the
   ``initializer=`` of a pool, the ``target=`` of a ``Process``);
   :meth:`reachable` is a plain BFS over resolved call edges from any
   root set.  Declared entry points (``gsim_join`` and friends) are
   matched by qualified-name suffix.

3. **Taint evidence.**  Function facts carry taint *atoms* whose
   meaning is only decidable whole-program: ``("ret", ref)`` needs the
   callee's own return atoms, ``("param", i)`` needs what callers pass.
   :meth:`atom_evidence` resolves an atom to concrete evidence — the
   ``(kind, module, line)`` of the unordered source it descends from —
   by a memoized, depth-limited walk over the call graph (cycles cut by
   an in-progress sentinel).
"""

from __future__ import annotations

import copy
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

__all__ = ["ProgramModel", "ENTRY_POINT_SUFFIXES", "VERIFIER_NAMES"]

#: Declared entry points of the join engine, matched as qual suffixes.
ENTRY_POINT_SUFFIXES = (
    "gsim_join",
    "gsim_join_rs",
    "gsim_join_parallel",
    "GSimIndex.query",
    "execute_self_join",
    "execute_rs_join",
    "execute_parallel_join",
)

#: Verification entry names for budget-threading reachability: the
#: search functions, the engine wrappers, and the portfolio's uniform
#: ``VerifierBackend.verify`` surface (matched as a bare method name so
#: unresolved ``backend.verify(...)`` attr calls count as verifier
#: calls too).
VERIFIER_NAMES = frozenset(
    {
        "graph_edit_distance_detailed",
        "compiled_ged_detailed",
        "dfs_ged",
        "dfs_ged_compiled",
        "verify_pair",
        "verify_block",
        "verify_candidate",
        "verify",
    }
)

#: Pool-method names whose first argument is executed in a worker.
_SUBMIT_ATTRS = frozenset(
    {"submit", "map", "imap", "imap_unordered", "starmap", "apply_async"}
)

_MAX_TAINT_DEPTH = 8

_IN_PROGRESS = object()


class ProgramModel:
    """Indexed whole-program view over a list of module facts dicts."""

    def __init__(self, modules: Iterable[dict]) -> None:
        """Index ``modules`` and resolve every recorded call site.

        The input facts are deep-copied before :meth:`_link_calls`
        annotates call sites with their resolution — callers keep the
        pristine dicts, which the incremental cache hashes.
        """
        modules = copy.deepcopy(list(modules))
        self.modules: Dict[str, dict] = {}
        self.functions: Dict[str, dict] = {}
        self.function_module: Dict[str, dict] = {}
        self.classes: Dict[str, List[str]] = {}
        self._by_name: Dict[str, List[str]] = {}
        for facts in sorted(modules, key=lambda m: m["module"]):
            self.modules[facts["module"]] = facts
            for cls, methods in facts["classes"].items():
                self.classes[f"{facts['module']}.{cls}"] = methods
            for qual, fn in facts["functions"].items():
                self.functions[qual] = fn
                self.function_module[qual] = facts
                self._by_name.setdefault(fn["name"], []).append(qual)
        self._roots = {name.split(".")[0] for name in self.modules}
        self._resolve_cache: Dict[str, Optional[str]] = {}
        self._callers: Dict[str, List[Tuple[str, dict]]] = {}
        self._edges: Dict[str, List[str]] = {}
        self._link_calls()
        self.worker_roots, self.initializers = self._find_worker_roots()
        self.entry_points = self._find_entry_points()
        self._returns_memo: Dict[str, object] = {}
        self._reaches_memo: Dict[str, object] = {}

    # --- linking ---------------------------------------------------------

    def resolve(self, ref: Optional[str]) -> Optional[str]:
        """The function qual a callee reference links to, or ``None``."""
        if not ref or ref.startswith("@"):
            return None
        cached = self._resolve_cache.get(ref, _IN_PROGRESS)
        if cached is not _IN_PROGRESS:
            return cached
        resolved = self._resolve_uncached(ref)
        self._resolve_cache[ref] = resolved
        return resolved

    def _resolve_uncached(self, ref: str) -> Optional[str]:
        if ref.startswith("?"):
            quals = self._by_name.get(ref[1:], [])
            return quals[0] if len(quals) == 1 else None
        if ref in self.functions:
            return ref
        if ref in self.classes:
            init = f"{ref}.__init__"
            return init if init in self.functions else None
        # Unique-suffix fallback for re-exports (``from repro.engine
        # import verify_pair``), restricted to packages in the model.
        if ref.split(".")[0] not in self._roots:
            return None
        name = ref.rsplit(".", 1)[-1]
        quals = self._by_name.get(name, [])
        if len(quals) == 1:
            return quals[0]
        if name in self.classes and f"{name}.__init__" in self.functions:
            return f"{name}.__init__"
        # A re-exported class: unique class whose last component matches.
        classes = [c for c in self.classes if c.rsplit(".", 1)[-1] == name]
        if len(classes) == 1:
            init = f"{classes[0]}.__init__"
            return init if init in self.functions else None
        return None

    def _link_calls(self) -> None:
        for qual, fn in self.functions.items():
            edges: List[str] = []
            for call in fn["calls"]:
                resolved = self.resolve(call.get("callee"))
                call["resolved"] = resolved
                if resolved is not None:
                    edges.append(resolved)
                    self._callers.setdefault(resolved, []).append(
                        (qual, call)
                    )
            self._edges[qual] = edges

    def callers_of(self, qual: str) -> List[Tuple[str, dict]]:
        """Every recorded ``(caller qual, call fact)`` targeting ``qual``."""
        return self._callers.get(qual, [])

    # --- roots and reachability ------------------------------------------

    def _find_worker_roots(self) -> Tuple[Set[str], Set[str]]:
        roots: Set[str] = set()
        initializers: Set[str] = set()
        for fn in self.functions.values():
            for call in fn["calls"]:
                refs = call["func_refs"]
                if call["attr"] in _SUBMIT_ATTRS and call["method"]:
                    target = self.resolve(refs.get("0") or refs.get("func"))
                    if target is not None:
                        roots.add(target)
                init = self.resolve(refs.get("initializer"))
                if init is not None:
                    roots.add(init)
                    initializers.add(init)
                target = self.resolve(refs.get("target"))
                if target is not None and call["attr"] == "Process":
                    roots.add(target)
        return roots, initializers

    def _find_entry_points(self) -> Set[str]:
        out: Set[str] = set()
        for qual in self.functions:
            for suffix in ENTRY_POINT_SUFFIXES:
                if qual == suffix or qual.endswith("." + suffix):
                    out.add(qual)
        return out | self.worker_roots

    def reachable(self, roots: Iterable[str]) -> Set[str]:
        """Every function reachable from ``roots`` over resolved calls."""
        seen: Set[str] = set()
        stack = [q for q in roots if q in self.functions]
        while stack:
            qual = stack.pop()
            if qual in seen:
                continue
            seen.add(qual)
            stack.extend(
                e for e in self._edges.get(qual, []) if e not in seen
            )
        return seen

    # --- taint resolution -------------------------------------------------

    def atom_evidence(
        self, atom: Tuple, owner: str, depth: int = _MAX_TAINT_DEPTH
    ) -> Optional[Tuple[str, str, int]]:
        """Concrete source evidence ``(kind, module, line)`` for ``atom``.

        ``owner`` is the qual of the function whose facts the atom came
        from; ``("param", i)`` atoms are chased into that function's
        recorded callers, ``("ret", ref)`` atoms into the callee's own
        return atoms.  Returns ``None`` when no unordered source is
        provably behind the atom within the depth limit.
        """
        kind = atom[0]
        if kind == "src":
            module = self.function_module.get(owner, {}).get("module", "")
            return (str(atom[2]), module, int(atom[1]))
        if depth <= 0:
            return None
        if kind == "ret":
            callee = self.resolve(atom[1])
            if callee is not None and callee != owner:
                return self.returns_evidence(callee, depth - 1)
            return None
        if kind == "param":
            index = int(atom[1])
            fn = self.functions.get(owner)
            if fn is None:
                return None
            for caller, call in self.callers_of(owner):
                for passed in self._atoms_for_param(call, fn, index):
                    evidence = self.atom_evidence(
                        tuple(passed), caller, depth - 1
                    )
                    if evidence is not None:
                        return evidence
        return None

    def returns_evidence(
        self, qual: str, depth: int = _MAX_TAINT_DEPTH
    ) -> Optional[Tuple[str, str, int]]:
        """Source evidence behind ``qual``'s return value, if any."""
        memo = self._returns_memo.get(qual, _IN_PROGRESS)
        if memo is None or isinstance(memo, tuple):
            return memo
        if qual in self._returns_memo:  # in-progress: cycle — assume clean
            return None
        self._returns_memo[qual] = _IN_PROGRESS
        evidence: Optional[Tuple[str, str, int]] = None
        fn = self.functions.get(qual)
        if fn is not None:
            for atom in fn["return_atoms"]:
                # Param atoms are NOT chased here: taint passed in via an
                # argument is already unioned into the result atoms at
                # each individual call site, so chasing "param" through
                # *all* callers would smear one caller's taint onto
                # every other call site (context-insensitivity).
                if atom[0] == "param":
                    continue
                evidence = self.atom_evidence(tuple(atom), qual, depth)
                if evidence is not None:
                    break
        self._returns_memo[qual] = evidence
        return evidence

    def _atoms_for_param(
        self, call: dict, callee: dict, index: int
    ) -> List[List]:
        """Atom lists a call site passes into ``callee``'s ``index`` param."""
        shift = 1 if callee["is_method"] else 0
        out: List[List] = []
        positional = index - shift
        if 0 <= positional < len(call["arg_atoms"]):
            out.extend(call["arg_atoms"][positional])
        if 0 <= index < len(callee["params"]):
            name = callee["params"][index]
            out.extend(call["kw_atoms"].get(name, []))
        return out

    # --- verifier reachability (budget-threading) -------------------------

    def reaches_verifier(self, qual: str) -> bool:
        """Whether ``qual`` is or transitively calls an A*-family verifier."""
        memo = self._reaches_memo.get(qual, _IN_PROGRESS)
        if isinstance(memo, bool):
            return memo
        if qual in self._reaches_memo:  # cycle in progress
            return False
        self._reaches_memo[qual] = _IN_PROGRESS
        result = qual.rsplit(".", 1)[-1] in VERIFIER_NAMES
        fn = self.functions.get(qual)
        if not result and fn is not None:
            for call in fn["calls"]:
                resolved = call.get("resolved")
                if resolved is not None and self.reaches_verifier(resolved):
                    result = True
                    break
                if resolved is None and call["attr"] in VERIFIER_NAMES:
                    result = True
                    break
        self._reaches_memo[qual] = result
        return result

    # --- convenience ------------------------------------------------------

    def path_of(self, qual: str) -> str:
        """Source path of the module defining ``qual`` (empty if unknown)."""
        return self.function_module.get(qual, {}).get("path", "")

    def budget_param_index(self, qual: str) -> Optional[int]:
        """Index of ``qual``'s verification-budget parameter, if any."""
        fn = self.functions.get(qual)
        if fn is None:
            return None
        for index, name in enumerate(fn["params"]):
            if "budget" in name:
                return index
        return None
