"""Forward dataflow / taint interpretation over one function body.

This is the per-function half of the whole-program layer: a small
abstract interpreter that walks a function's statements in source order
and tracks, per local name, a set of *taint atoms* — the sources a
value may carry ordering-nondeterminism from.  The atom lattice is a
powerset over three atom kinds (serialized as small lists so the result
is cacheable JSON):

* ``("src", line, what)`` — the value was produced by an unordered
  construct here: iterating a ``set``/``frozenset`` (``"set-iter"``),
  materializing one without sorting (``list(s)``/``tuple(s)``/
  ``iter(s)``, ``"set-order"``), ``set.pop()`` (``"set-pop"``),
  ``id(x)`` (``"id"``) or an unsalted ``hash(x)`` (``"hash"``).
* ``("ret", ref)`` — the value came out of a call to ``ref`` (a
  :func:`resolved <repro.analysis.program.callgraph.ProgramModel.resolve>`
  program function); whether it is tainted depends on that function's
  own return atoms, resolved at the whole-program phase.
* ``("param", i)`` — the value flowed from the ``i``-th parameter;
  whether it is tainted depends on what callers pass, resolved at the
  whole-program phase from recorded call-site argument atoms.

Joins (``if``/``try`` branches, loop back-edges) are set union; loop
bodies are interpreted twice so one back-edge of propagation reaches a
fixed point for the straight-line flows this codebase uses.  The
*sanctioned ordering functions* — ``sorted``, ``min``, ``max`` and the
other order-insensitive aggregations in :data:`SANITIZERS` — return the
empty atom set whatever their arguments carry.

Plain ``dict`` iteration (including ``.keys()``/``.values()``/
``.items()``) is deliberately treated as *ordered*: CPython >= 3.7
guarantees insertion order, and the join engine's determinism contract
rests on exactly that guarantee (candidate dicts are built in scan
order).  Only genuinely unordered containers — sets — taint.

The same pass also records the facts the other whole-program rules
need: every call site (callee reference, argument binding shape,
argument atom sets, bare-function-reference arguments for
pool-submission detection), every write to module-level or
enclosing-scope state, mutations of mutable default arguments, and
captures of known-unpicklable module globals.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

__all__ = [
    "Atom",
    "FunctionAnalyzer",
    "MUTATOR_METHODS",
    "SANITIZERS",
    "SET_RETURNING_METHODS",
]

#: One taint atom (see the module docstring for the three kinds).
Atom = Tuple

#: Order-insensitive callables: their result carries no ordering taint.
#: ``Counter`` is here deliberately: a Counter is a value-semantics
#: multiset (consumed via ``.get``/``sum`` in this codebase), so its
#: *value* does not depend on the order its elements arrived in.  The
#: residual hole — iterating an unsorted Counter built from a set — is
#: the same documented approximation as treating dict iteration as
#: insertion-ordered.
SANITIZERS = frozenset(
    {
        "sorted", "len", "min", "max", "sum", "any", "all", "isinstance",
        "bool", "Counter",
    }
)

#: Builtins whose result preserves the argument's *contents* (and hence
#: its ordering taint) without sorting.
_PASSTHROUGH_MATERIALIZERS = frozenset({"list", "tuple", "iter", "reversed"})

#: Methods that mutate their receiver in place.
MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "add", "update", "setdefault",
        "pop", "popitem", "remove", "discard", "clear", "sort", "reverse",
        "appendleft", "extendleft", "popleft",
    }
)

#: Set methods returning another set.
SET_RETURNING_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)

#: Sink methods accumulating ordered output.
_ACCUMULATORS = frozenset({"append", "extend", "add", "put"})

_LOOPS = (ast.For, ast.AsyncFor, ast.While)


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a pure Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_mutable_literal(node: ast.AST) -> bool:
    """Whether a default-value expression builds a fresh mutable container."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _dotted(node.func) or ""
        return name.split(".")[-1] in {
            "list", "dict", "set", "defaultdict", "Counter", "OrderedDict",
            "deque",
        }
    return False


class FunctionAnalyzer:
    """Interpret one function body, producing its serializable facts.

    Parameters
    ----------
    ctx:
        The owning module's :class:`~repro.analysis.program.facts.ModuleContext`
        (imports, module-level symbol classification, class layout).
    node:
        The ``ast.FunctionDef`` / ``ast.AsyncFunctionDef`` to interpret.
    cls:
        Enclosing class name for methods, ``""`` for plain functions.
    """

    def __init__(self, ctx, node: ast.AST, cls: str = "") -> None:
        """Bind the function and precompute its scope information."""
        self.ctx = ctx
        self.node = node
        self.cls = cls
        self.name = node.name
        self.qual = (
            f"{ctx.module}.{cls}.{node.name}" if cls
            else f"{ctx.module}.{node.name}"
        )
        args = node.args
        self.params: List[str] = [
            a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
        ]
        self.has_varkw = args.kwarg is not None
        if args.vararg is not None:
            self.params.append(args.vararg.arg)
        if args.kwarg is not None:
            self.params.append(args.kwarg.arg)
        self._param_index = {p: i for i, p in enumerate(self.params)}
        self.mutable_defaults: Set[str] = self._mutable_defaults(args)
        self.globals_decl: Set[str] = set()
        self.nonlocals_decl: Set[str] = set()
        self.local_names: Set[str] = set(self.params)
        self._collect_scope(node)
        # Abstract state.
        self.env: Dict[str, FrozenSet[Atom]] = {
            p: frozenset({("param", i)}) for i, p in enumerate(self.params)
        }
        self.set_vars: Set[str] = set()
        self.var_class: Dict[str, str] = {}
        self._infer_param_classes(args)
        # Outputs (calls keyed by AST node id so loop re-interpretation
        # overwrites rather than duplicates).
        self.calls: Dict[int, dict] = {}
        self.writes: List[dict] = []
        self._write_keys: Set[Tuple] = set()
        self.sinks: Dict[Tuple, dict] = {}
        self.return_atoms: Set[Atom] = set()
        self.reads_budget_attr = False

    # --- scope precomputation -----------------------------------------

    def _mutable_defaults(self, args: ast.arguments) -> Set[str]:
        named = args.posonlyargs + args.args
        out: Set[str] = set()
        for param, default in zip(named[len(named) - len(args.defaults):],
                                  args.defaults):
            if default is not None and _is_mutable_literal(default):
                out.add(param.arg)
        for param, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None and _is_mutable_literal(default):
                out.add(param.arg)
        return out

    def _collect_scope(self, node: ast.AST) -> None:
        """Find locally bound names plus global/nonlocal declarations.

        The walk stops at nested function/class boundaries: a
        ``nonlocal`` inside a nested helper refers to *this* function's
        locals — per-call state, not shared — so hoisting it here would
        misclassify ordinary local assignments as enclosing-scope
        writes.  (Nested bodies are likewise not interpreted; only
        their call sites are swept.)
        """

        def walk_scope(parent: ast.AST) -> None:
            for child in ast.iter_child_nodes(parent):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    self.local_names.add(child.name)
                    continue  # nested scope: bindings stay theirs
                if isinstance(child, ast.Lambda):
                    continue
                if isinstance(child, ast.Global):
                    self.globals_decl.update(child.names)
                elif isinstance(child, ast.Nonlocal):
                    self.nonlocals_decl.update(child.names)
                elif isinstance(child, ast.Name) and isinstance(
                    child.ctx, ast.Store
                ):
                    self.local_names.add(child.id)
                elif isinstance(child, (ast.Import, ast.ImportFrom)):
                    for alias in child.names:
                        self.local_names.add(
                            (alias.asname or alias.name).split(".")[0]
                        )
                walk_scope(child)

        walk_scope(node)
        self.local_names -= self.globals_decl

    def _infer_param_classes(self, args: ast.arguments) -> None:
        """Best-effort ``param -> class`` from annotations.

        Handles plain names, ``Optional[C]``/``"C"`` string forms: every
        identifier in the annotation is matched against classes known to
        the module (local classes first, then capitalized imports).
        """
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.annotation is None:
                continue
            cls = self._annotation_class(arg.annotation)
            if cls is not None:
                self.var_class[arg.arg] = cls
        if self.cls:
            self.var_class.setdefault("self", f"{self.ctx.module}.{self.cls}")

    def _annotation_class(self, annotation: ast.AST) -> Optional[str]:
        text: Optional[str] = None
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            text = annotation.value
        else:
            try:
                text = ast.unparse(annotation)
            except Exception:  # pragma: no cover - malformed annotation
                return None
        for token in _identifiers(text):
            resolved = self.ctx.resolve_class(token)
            if resolved is not None:
                return resolved
        return None

    # --- driving -------------------------------------------------------

    def run(self) -> dict:
        """Interpret the body; return the function's serializable facts."""
        self._exec_block(self.node.body)
        self._sweep_unvisited()
        return {
            "qual": self.qual,
            "name": self.name,
            "cls": self.cls,
            "line": self.node.lineno,
            "params": self.params,
            "has_varkw": self.has_varkw,
            "is_method": bool(self.cls),
            "mutable_defaults": sorted(self.mutable_defaults),
            "reads_budget_attr": self.reads_budget_attr,
            "calls": sorted(
                self.calls.values(),
                key=lambda c: (c["line"], c["col"], c["attr"]),
            ),
            "writes": self.writes,
            "sinks": [self.sinks[key] for key in sorted(self.sinks)],
            "return_atoms": _atom_list(frozenset(self.return_atoms)),
        }

    def _sweep_unvisited(self) -> None:
        """Record calls hiding in constructs the interpreter skips.

        Nested ``def``s, lambdas and ``match`` arms are not interpreted
        for taint, but their call sites still matter for the call graph
        (and for pool-submission detection), so any ``ast.Call`` the
        structured walk did not reach is recorded with empty argument
        atoms.
        """
        for child in ast.walk(self.node):
            if not isinstance(child, ast.Call) or id(child) in self.calls:
                continue
            func = child.func
            attr = ""
            base = ""
            if isinstance(func, ast.Name):
                attr = func.id
            elif isinstance(func, ast.Attribute):
                attr = func.attr
                base = _dotted(func.value) or ""
            func_refs: Dict[str, str] = {}
            for position, arg in enumerate(child.args):
                ref = self._function_ref(arg)
                if ref is not None:
                    func_refs[str(position)] = ref
            for keyword in child.keywords:
                if keyword.arg is None:
                    continue
                ref = self._function_ref(keyword.value)
                if ref is not None:
                    func_refs[keyword.arg] = ref
            self._record_call(
                child,
                callee=self._resolve_callee(func, attr, base),
                attr=attr,
                base=base,
                nargs=len(child.args),
                keywords=[k.arg for k in child.keywords if k.arg],
                has_star=any(isinstance(a, ast.Starred) for a in child.args),
                has_kwstar=any(k.arg is None for k in child.keywords),
                func_refs=func_refs,
            )

    # --- statements ----------------------------------------------------

    def _exec_block(self, stmts: List[ast.stmt]) -> None:
        for stmt in stmts:
            self._exec_stmt(stmt)

    def _exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            atoms, is_set = self._eval(stmt.value)
            for target in stmt.targets:
                self._bind_target(target, atoms, is_set, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                atoms, is_set = self._eval(stmt.value)
                self._bind_target(stmt.target, atoms, is_set, stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            atoms, is_set = self._eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                name = stmt.target.id
                merged = self.env.get(name, frozenset()) | atoms
                self.env[name] = merged
                self._check_store_write(stmt.target, aug=True)
            else:
                self._eval(stmt.target)
                self._check_store_write(stmt.target, aug=True)
                self._check_attr_sink(stmt.target, atoms)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                atoms, _ = self._eval(stmt.value)
                self.return_atoms.update(atoms)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            atoms, is_set = self._eval(stmt.iter)
            if is_set:
                atoms = atoms | {("src", stmt.lineno, "set-iter")}
            for _ in range(2):
                self._bind_target(stmt.target, atoms, False, None)
                self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test)
            for _ in range(2):
                self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test)
            self._exec_branches([stmt.body, stmt.orelse])
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                atoms, is_set = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind_target(
                        item.optional_vars, atoms, is_set, item.context_expr
                    )
            self._exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            branches = [stmt.body]
            for handler in stmt.handlers:
                branches.append(handler.body)
            self._exec_branches(branches)
            self._exec_block(stmt.orelse)
            self._exec_block(stmt.finalbody)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc)
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._check_store_write(target, aug=False)
        # Global/Nonlocal handled in the scope pre-pass; nested
        # defs/classes and match statements fall to the call sweep.

    def _exec_branches(self, branches: List[List[ast.stmt]]) -> None:
        """Interpret alternative branches and union the resulting states."""
        base_env = dict(self.env)
        base_sets = set(self.set_vars)
        base_classes = dict(self.var_class)
        merged_env: Dict[str, FrozenSet[Atom]] = dict(base_env)
        merged_sets = set(base_sets)
        merged_classes = dict(base_classes)
        for branch in branches:
            self.env = dict(base_env)
            self.set_vars = set(base_sets)
            self.var_class = dict(base_classes)
            self._exec_block(branch)
            for name, atoms in self.env.items():
                merged_env[name] = merged_env.get(name, frozenset()) | atoms
            merged_sets |= self.set_vars
            merged_classes.update(self.var_class)
        self.env = merged_env
        self.set_vars = merged_sets
        self.var_class = merged_classes

    # --- binding and writes --------------------------------------------

    def _bind_target(
        self,
        target: ast.AST,
        atoms: FrozenSet[Atom],
        is_set: bool,
        value: Optional[ast.AST],
    ) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = atoms
            if is_set:
                self.set_vars.add(target.id)
            else:
                self.set_vars.discard(target.id)
            cls = self._constructed_class(value) if value is not None else None
            if cls is not None:
                self.var_class[target.id] = cls
            elif target.id in self.var_class and value is not None:
                self.var_class.pop(target.id, None)
            self._check_store_write(target, aug=False)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target(element, atoms, False, None)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, atoms, False, None)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            self._eval_children(target)
            self._check_store_write(target, aug=False)
            self._check_attr_sink(target, atoms)

    def _root_name(self, node: ast.AST) -> Optional[str]:
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        if isinstance(node, ast.Name):
            return node.id
        return None

    def _is_module_state(self, name: str) -> bool:
        """Whether ``name`` resolves to module-level (not local) state."""
        if name in self.local_names:
            return False
        return name in self.ctx.module_level_names or name in self.globals_decl

    def _record_write(self, line: int, kind: str, name: str, detail: str) -> None:
        key = (line, kind, name)
        if key in self._write_keys:
            return
        self._write_keys.add(key)
        self.writes.append(
            {"line": line, "kind": kind, "name": name, "detail": detail}
        )

    def _check_store_write(self, target: ast.AST, aug: bool) -> None:
        """Classify a Store/AugStore target as a shared-state write."""
        if isinstance(target, ast.Name):
            name = target.id
            if name in self.globals_decl:
                self._record_write(
                    target.lineno, "global-assign", name,
                    "assignment to a `global`-declared module name",
                )
            elif name in self.nonlocals_decl:
                self._record_write(
                    target.lineno, "nonlocal-write", name,
                    "assignment to enclosing-scope state via `nonlocal`",
                )
            return
        root = self._root_name(target)
        if root is None:
            return
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            kind = (
                "global-subscript"
                if isinstance(target, ast.Subscript)
                else "global-attr"
            )
            if self._is_module_state(root):
                self._record_write(
                    target.lineno, kind, root,
                    "store into module-level container/object state",
                )
            elif root in self.nonlocals_decl:
                self._record_write(
                    target.lineno, "nonlocal-write", root,
                    "store into enclosing-scope state via `nonlocal`",
                )
            elif root in self.mutable_defaults:
                self._record_write(
                    target.lineno, "default-mutation", root,
                    "store into a mutable default argument",
                )

    # --- expressions ---------------------------------------------------

    def _eval_children(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._eval(child)

    def _eval(self, node: ast.AST) -> Tuple[FrozenSet[Atom], bool]:
        """Abstract value of ``node``: (taint atoms, is-set-typed)."""
        empty: FrozenSet[Atom] = frozenset()
        if isinstance(node, ast.Name):
            if node.id in self.ctx.module_unpicklable:
                self._record_write(
                    node.lineno, "unpicklable-capture", node.id,
                    "captures module-level "
                    f"{self.ctx.module_unpicklable[node.id]}",
                )
            return (
                self.env.get(node.id, empty),
                node.id in self.set_vars or node.id in self.ctx.module_sets,
            )
        if isinstance(node, ast.Constant):
            return empty, False
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Attribute):
            if node.attr == "budget" and isinstance(node.ctx, ast.Load):
                self.reads_budget_attr = True
            atoms, _ = self._eval(node.value)
            return atoms, False
        if isinstance(node, ast.Subscript):
            base_atoms, _ = self._eval(node.value)
            index_atoms, _ = self._eval(node.slice)
            return base_atoms | index_atoms, False
        if isinstance(node, ast.BinOp):
            left_atoms, left_set = self._eval(node.left)
            right_atoms, right_set = self._eval(node.right)
            is_set = (left_set or right_set) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
            )
            return left_atoms | right_atoms, is_set
        if isinstance(node, ast.BoolOp):
            atoms: FrozenSet[Atom] = empty
            is_set = False
            for value in node.values:
                value_atoms, value_set = self._eval(value)
                atoms |= value_atoms
                is_set = is_set or value_set
            return atoms, is_set
        if isinstance(node, ast.Compare):
            self._eval(node.left)
            for comparator in node.comparators:
                self._eval(comparator)
            return empty, False  # bool result: order-insensitive
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            body_atoms, body_set = self._eval(node.body)
            else_atoms, else_set = self._eval(node.orelse)
            return body_atoms | else_atoms, body_set or else_set
        if isinstance(node, (ast.Tuple, ast.List)):
            atoms = empty
            for element in node.elts:
                element_atoms, _ = self._eval(element)
                atoms |= element_atoms
            return atoms, False
        if isinstance(node, ast.Set):
            atoms = empty
            for element in node.elts:
                element_atoms, _ = self._eval(element)
                atoms |= element_atoms
            return atoms, True
        if isinstance(node, ast.Dict):
            atoms = empty
            for key in node.keys:
                if key is not None:
                    key_atoms, _ = self._eval(key)
                    atoms |= key_atoms
            for value in node.values:
                value_atoms, _ = self._eval(value)
                atoms |= value_atoms
            return atoms, False
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
            atoms = self._eval_comprehension(node.generators)
            element_atoms, _ = self._eval(node.elt)
            return atoms | element_atoms, isinstance(node, ast.SetComp)
        if isinstance(node, ast.DictComp):
            atoms = self._eval_comprehension(node.generators)
            key_atoms, _ = self._eval(node.key)
            value_atoms, _ = self._eval(node.value)
            return atoms | key_atoms | value_atoms, False
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            if node.value is not None:
                return self._eval(node.value)
            return empty, False
        if isinstance(node, ast.Yield):
            if node.value is not None:
                atoms, _ = self._eval(node.value)
                self.return_atoms.update(atoms)
            return empty, False
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, (ast.JoinedStr, ast.FormattedValue)):
            atoms = empty
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    child_atoms, _ = self._eval(child)
                    atoms |= child_atoms
            return atoms, False
        if isinstance(node, ast.NamedExpr):
            atoms, is_set = self._eval(node.value)
            self._bind_target(node.target, atoms, is_set, node.value)
            return atoms, is_set
        if isinstance(node, ast.Slice):
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    self._eval(part)
            return empty, False
        if isinstance(node, ast.Lambda):
            return empty, False  # body reached by the call sweep
        # Unknown node: evaluate children conservatively.
        atoms = empty
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                child_atoms, _ = self._eval(child)
                atoms |= child_atoms
        return atoms, False

    def _eval_comprehension(self, generators) -> FrozenSet[Atom]:
        atoms: FrozenSet[Atom] = frozenset()
        for gen in generators:
            iter_atoms, iter_set = self._eval(gen.iter)
            if iter_set:
                iter_atoms = iter_atoms | {
                    ("src", gen.iter.lineno, "set-iter")
                }
            self._bind_target(gen.target, iter_atoms, False, None)
            atoms |= iter_atoms
            for condition in gen.ifs:
                self._eval(condition)
        return atoms

    # --- calls ----------------------------------------------------------

    def _eval_call(self, node: ast.Call) -> Tuple[FrozenSet[Atom], bool]:
        func = node.func
        attr = ""
        base_text = ""
        if isinstance(func, ast.Name):
            attr = func.id
        elif isinstance(func, ast.Attribute):
            attr = func.attr
            base_text = _dotted(func.value) or ""
            self._eval(func.value)

        arg_atoms: List[FrozenSet[Atom]] = []
        has_star = False
        func_refs: Dict[str, str] = {}
        for position, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                has_star = True
            atoms, _ = self._eval(arg)
            arg_atoms.append(atoms)
            ref = self._function_ref(arg)
            if ref is not None:
                func_refs[str(position)] = ref
        kw_atoms: Dict[str, FrozenSet[Atom]] = {}
        keywords: List[str] = []
        has_kwstar = False
        for keyword in node.keywords:
            atoms, _ = self._eval(keyword.value)
            if keyword.arg is None:
                has_kwstar = True
                continue
            keywords.append(keyword.arg)
            kw_atoms[keyword.arg] = atoms
            ref = self._function_ref(keyword.value)
            if ref is not None:
                func_refs[keyword.arg] = ref

        all_atoms: FrozenSet[Atom] = frozenset()
        for atoms in arg_atoms:
            all_atoms |= atoms
        for atoms in kw_atoms.values():
            all_atoms |= atoms

        callee = self._resolve_callee(func, attr, base_text)
        self._record_call(
            node,
            callee=callee,
            attr=attr,
            base=base_text,
            nargs=len(node.args),
            keywords=keywords,
            has_star=has_star,
            has_kwstar=has_kwstar,
            arg_atoms=arg_atoms,
            kw_atoms=kw_atoms,
            func_refs=func_refs,
        )
        self._check_call_write(node, attr, base_text)
        self._check_call_sink(node, callee, attr, base_text, arg_atoms, kw_atoms)

        # Result value.
        base_is_set = False
        if isinstance(func, ast.Attribute):
            base_root = self._root_name(func.value)
            base_is_set = (
                base_root is not None
                and (base_root in self.set_vars
                     or base_root in self.ctx.module_sets)
            ) or self._eval(func.value)[1]
        if isinstance(func, ast.Name):
            name = func.id
            if name in SANITIZERS:
                return frozenset(), False
            if name in ("set", "frozenset"):
                return all_atoms, True
            if name in _PASSTHROUGH_MATERIALIZERS:
                if node.args:
                    arg0_atoms, arg0_set = self._eval(node.args[0])
                    if arg0_set:
                        return (
                            arg0_atoms
                            | {("src", node.lineno, "set-order")},
                            False,
                        )
                    return arg0_atoms, False
                return frozenset(), False
            if name in ("id", "hash"):
                return (
                    frozenset({("src", node.lineno, name)}), False
                )
        if isinstance(func, ast.Attribute):
            if attr in SET_RETURNING_METHODS and base_is_set:
                return all_atoms | self._eval(func.value)[0], True
            if attr == "pop" and base_is_set:
                return (
                    self._eval(func.value)[0]
                    | {("src", node.lineno, "set-pop")},
                    False,
                )
            if attr == "get":
                # A container lookup returns a stored value, never its
                # key: the key argument (position 0) must not taint the
                # result.  The default (position 1 / ``default=``) is
                # returned verbatim, so its taint stays.
                result = self._eval(func.value)[0]
                for atoms in arg_atoms[1:]:
                    result |= atoms
                for atoms in kw_atoms.values():
                    result |= atoms
                return result, False
        if callee is not None and not callee.startswith("@"):
            return all_atoms | {("ret", callee)}, False
        return all_atoms, False

    def _function_ref(self, node: ast.AST) -> Optional[str]:
        """A callee-style reference when ``node`` names a function."""
        if isinstance(node, ast.Name):
            resolved = self.ctx.resolve_name(node.id)
            if resolved is not None:
                return resolved
            if node.id not in self.local_names:
                return None
            return f"?{node.id}"
        if isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted is not None:
                resolved = self.ctx.resolve_dotted(dotted)
                if resolved is not None:
                    return resolved
            return None
        return None

    def _resolve_callee(
        self, func: ast.AST, attr: str, base_text: str
    ) -> Optional[str]:
        """Module-local best-effort callee reference.

        Returns a dotted target when imports/locals/class inference pin
        it down, ``"?name"`` for an unresolved plain-name call (eligible
        for whole-program bare-name linking), ``"@attr"`` for an
        unresolved attribute call (never name-linked — method names like
        ``append`` are too common to guess), or ``None`` for something
        that is not a name at all (e.g. ``fns[i]()``).
        """
        if isinstance(func, ast.Name):
            resolved = self.ctx.resolve_name(func.id)
            if resolved is not None:
                return resolved
            return f"?{func.id}"
        if isinstance(func, ast.Attribute):
            dotted = _dotted(func)
            if dotted is not None:
                resolved = self.ctx.resolve_dotted(dotted)
                if resolved is not None:
                    return resolved
            if isinstance(func.value, ast.Name) and (
                func.value.id in self.var_class
            ):
                return f"{self.var_class[func.value.id]}.{attr}"
            return f"@{attr}"
        return None

    def _constructed_class(self, value: ast.AST) -> Optional[str]:
        """Class of ``value`` when it constructs one (incl. ``C.open(...)``)."""
        if isinstance(value, ast.IfExp):
            return (
                self._constructed_class(value.body)
                or self._constructed_class(value.orelse)
            )
        if not isinstance(value, ast.Call):
            return None
        func = value.func
        if isinstance(func, ast.Name):
            return self.ctx.resolve_class(func.id)
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            # Alternate constructors: ``C.open(...)``, ``C.from_x(...)``.
            return self.ctx.resolve_class(func.value.id)
        return None

    def _record_call(self, node: ast.Call, callee=None, attr="", base="",
                     nargs=0, keywords=None, has_star=False, has_kwstar=False,
                     arg_atoms=None, kw_atoms=None, func_refs=None) -> None:
        self.calls[id(node)] = {
            "line": node.lineno,
            "col": node.col_offset,
            "method": isinstance(node.func, ast.Attribute),
            "callee": callee,
            "attr": attr,
            "base": base,
            "nargs": nargs,
            "keywords": keywords or [],
            "has_star": has_star,
            "has_kwstar": has_kwstar,
            "arg_atoms": [_atom_list(atoms) for atoms in (arg_atoms or [])],
            "kw_atoms": {
                name: _atom_list(atoms)
                for name, atoms in (kw_atoms or {}).items()
            },
            "func_refs": func_refs or {},
        }

    # --- effect / sink checks -------------------------------------------

    def _check_call_write(
        self, node: ast.Call, attr: str, base_text: str
    ) -> None:
        if attr not in MUTATOR_METHODS or not isinstance(
            node.func, ast.Attribute
        ):
            return
        root = self._root_name(node.func.value)
        if root is None:
            return
        if self._is_module_state(root):
            self._record_write(
                node.lineno, "global-mutate", root,
                f".{attr}() on module-level state",
            )
        elif root in self.nonlocals_decl:
            self._record_write(
                node.lineno, "nonlocal-write", root,
                f".{attr}() on enclosing-scope state",
            )
        elif root in self.mutable_defaults:
            self._record_write(
                node.lineno, "default-mutation", root,
                f".{attr}() on a mutable default argument",
            )

    def _sink_label(
        self, callee: Optional[str], attr: str, base_text: str
    ) -> Optional[str]:
        base_last = base_text.split(".")[-1] if base_text else ""
        if attr in _ACCUMULATORS and base_last in ("pairs", "undecided"):
            return "result-accumulation"
        if attr in ("append", "write") and (
            base_last == "journal"
            or (callee is not None and callee.endswith("JoinJournal." + attr))
        ):
            return "journal-write"
        if callee is not None and callee.split(".")[-1] == "StageStatistics":
            return "stage-statistics"
        if attr == "StageStatistics":
            return "stage-statistics"
        return None

    def _check_call_sink(self, node, callee, attr, base_text,
                         arg_atoms, kw_atoms) -> None:
        label = self._sink_label(callee, attr, base_text)
        if label is None:
            return
        atoms: FrozenSet[Atom] = frozenset()
        for arg in arg_atoms:
            atoms |= arg
        for arg in kw_atoms.values():
            atoms |= arg
        if atoms:
            self.sinks[(node.lineno, label)] = {
                "line": node.lineno,
                "label": label,
                "atoms": _atom_list(atoms),
            }

    def _check_attr_sink(self, target: ast.AST, atoms: FrozenSet[Atom]) -> None:
        """Attribute stores on ``StageStatistics``-typed objects are sinks."""
        if not atoms or not isinstance(target, ast.Attribute):
            return
        root = self._root_name(target.value)
        if root is None:
            return
        cls = self.var_class.get(root, "")
        if cls.split(".")[-1] == "StageStatistics":
            self.sinks[(target.lineno, "stage-statistics")] = {
                "line": target.lineno,
                "label": "stage-statistics",
                "atoms": _atom_list(atoms),
            }


def _atom_list(atoms: FrozenSet[Atom]) -> List[List]:
    """Canonical (sorted) JSON-ready form of an atom set."""
    return sorted([list(atom) for atom in atoms], key=repr)


def _identifiers(text: str) -> List[str]:
    """Every identifier token in ``text`` (annotation source), in order."""
    return re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text)
