"""The verifier portfolio: the exact-GED backends behind one surface.

The Verify stage runs every filter survivor through an exact
threshold search (the paper's A*, Algorithms 7–8) and picks the search
by name — ``GSimJoinOptions.verifier``.  :data:`BACKENDS` maps every
accepted name to a backend singleton:

* ``"compiled"`` — the integer-array A* of :mod:`repro.ged.compiled`,
  the default (bit-identical to the object-graph A* of
  :mod:`repro.ged.astar`, which stays the reference implementation);
* ``"dfs"`` — the depth-first branch-and-bound of :mod:`repro.ged.dfs`;
* ``"auto"`` — :class:`AutoBackend`, a per-pair hardness dispatcher: a
  pure, deterministic function of the pair's sizes, the threshold and
  the label-multiset diversity picks ``"dfs"`` or ``"compiled"``, so
  parallel and sharded runs agree with sequential ones bit-for-bit.

Every backend implements the same :meth:`VerifierBackend.verify` and
honours a :class:`~repro.runtime.budget.VerificationBudget` with the
same ``lower <= ged <= upper`` bracket on exhaustion, so no option
needs a per-backend check; :func:`resolve_backend` is the one place an
unknown name is rejected.

Hardness model (why the dispatcher is shaped this way): the A* keeps a
best-first frontier whose size explodes exactly when the label bound is
uninformative — large graphs over few distinct labels at a loose
threshold leave ``Γ(L_V) + Γ(L_E)`` near zero, so A* ties everywhere
and the open list grows combinatorially, while the DFS branch-and-bound
(*Fast Computation of Graph Edit Distance*, PAPERS.md) holds one path
and leans on its bipartite incumbent.  Small or label-diverse pairs at
tight thresholds are the opposite: the heuristic is sharp, A* expands a
handful of states, and the DFS's eagerness wastes work.  The default
thresholds below were calibrated on the mixed-hardness row of
``benchmarks/bench_ged_trajectory.py``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.exceptions import ParameterError
from repro.ged.astar import GedSearchResult
from repro.ged.compiled import VerificationCache, compiled_ged_detailed
from repro.ged.dfs import dfs_ged_compiled
from repro.graph.graph import Graph, Vertex
from repro.runtime.budget import VerificationBudget

__all__ = [
    "VerifierBackend",
    "CompiledAStarBackend",
    "DfsBackend",
    "AutoBackend",
    "BACKENDS",
    "resolve_backend",
]


class VerifierBackend:
    """Base of every portfolio backend.

    Subclasses set ``name`` (the name verify attribution records) and
    implement :meth:`verify`.  :meth:`select` exists for dispatchers:
    concrete backends return themselves, :class:`AutoBackend` returns
    the backend its hardness model picks for the pair — callers always
    invoke ``backend.select(...).verify(...)`` so the dispatch point is
    uniform.
    """

    name: str = ""

    def verify(
        self,
        r: Graph,
        s: Graph,
        tau: int,
        budget: Optional[VerificationBudget] = None,
        *,
        order: Optional[Sequence[Vertex]] = None,
        improved_h: bool = False,
        q: int = 0,
        cache: Optional[VerificationCache] = None,
    ) -> GedSearchResult:
        """Decide ``ged(r, s) <= tau`` (exactly, or bounded under budget).

        Returns a :class:`~repro.ged.astar.GedSearchResult`:
        ``distance <= tau`` accepts, ``tau + 1`` rejects, and a
        budget-exhausted run carries a ``lower <= ged <= upper``
        bracket.  ``order`` is the mapping order over ``V(r)`` (object
        vertices; compiled backends translate internally).
        """
        raise NotImplementedError

    def select(
        self,
        r: Graph,
        s: Graph,
        tau: int,
        labels_r: Optional[Tuple] = None,
        labels_s: Optional[Tuple] = None,
    ) -> "VerifierBackend":
        """The concrete backend to run for this pair (self, by default)."""
        return self


def _compile_pair(
    r: Graph, s: Graph, cache: Optional[VerificationCache],
    order: Optional[Sequence[Vertex]],
):
    """Compile both graphs (ad hoc cache when none is shared) and
    translate the object-vertex order to dense indices."""
    if cache is None:
        cache = VerificationCache()
    cr = cache.compile(r)
    cs = cache.compile(s)
    int_order = (
        None if order is None else [cr.index_of[v] for v in order]
    )
    return cr, cs, int_order, cache


class CompiledAStarBackend(VerifierBackend):
    """The integer-array A* (:mod:`repro.ged.compiled`), bit-identical
    to the object-graph A* of :mod:`repro.ged.astar` and the join's
    default."""

    name = "compiled"

    def verify(
        self,
        r: Graph,
        s: Graph,
        tau: int,
        budget: Optional[VerificationBudget] = None,
        *,
        order: Optional[Sequence[Vertex]] = None,
        improved_h: bool = False,
        q: int = 0,
        cache: Optional[VerificationCache] = None,
    ) -> GedSearchResult:
        cr, cs, int_order, cache = _compile_pair(r, s, cache, order)
        return compiled_ged_detailed(
            cr, cs, threshold=tau, vertex_order=int_order, budget=budget,
            improved_h=improved_h, q=q, h_tau=tau,
            subgraph_cache=cache.subgraph_cache,
        )


class DfsBackend(VerifierBackend):
    """Depth-first branch-and-bound (:mod:`repro.ged.dfs`), run over
    compiled arrays: constant memory, budget-aware bounded verdicts."""

    name = "dfs"

    def verify(
        self,
        r: Graph,
        s: Graph,
        tau: int,
        budget: Optional[VerificationBudget] = None,
        *,
        order: Optional[Sequence[Vertex]] = None,
        improved_h: bool = False,
        q: int = 0,
        cache: Optional[VerificationCache] = None,
    ) -> GedSearchResult:
        cr, cs, int_order, cache = _compile_pair(r, s, cache, order)
        return dfs_ged_compiled(
            cr, cs, threshold=tau, vertex_order=int_order, budget=budget,
            improved_h=improved_h, q=q, h_tau=tau,
            subgraph_cache=cache.subgraph_cache,
        )


#: Dispatcher thresholds (see the module docstring's hardness model).
#: A pair is "hard" — DFS territory — when it is at least this large ...
AUTO_MIN_VERTICES = 8
#: ... the threshold at least this loose ...
AUTO_MIN_TAU = 2
#: ... and its label diversity (distinct vertex labels across both
#: graphs) at most this low, starving the A* label heuristic.
AUTO_MAX_DISTINCT_LABELS = 2


class AutoBackend(VerifierBackend):
    """Per-pair hardness dispatcher (``verifier="auto"``).

    :meth:`select` is a pure function of ``(sizes, tau, vertex-label
    diversity)`` — no timing, no randomness — so every execution mode
    (sequential, parallel workers, sharded drains, journal replay)
    dispatches identically and result parity is structural.
    """

    name = "auto"

    def verify(
        self,
        r: Graph,
        s: Graph,
        tau: int,
        budget: Optional[VerificationBudget] = None,
        *,
        order: Optional[Sequence[Vertex]] = None,
        improved_h: bool = False,
        q: int = 0,
        cache: Optional[VerificationCache] = None,
    ) -> GedSearchResult:
        return self.select(r, s, tau).verify(
            r, s, tau, budget, order=order, improved_h=improved_h, q=q,
            cache=cache,
        )

    def select(
        self,
        r: Graph,
        s: Graph,
        tau: int,
        labels_r: Optional[Tuple] = None,
        labels_s: Optional[Tuple] = None,
    ) -> VerifierBackend:
        """Pick ``dfs`` for hard pairs, ``compiled`` otherwise.

        ``labels_r``/``labels_s`` are the pair-cascade's precomputed
        ``(vertex_counter, edge_counter)`` multisets when the caller has
        them (the engine always does); label diversity falls back to a
        direct scan for standalone use.
        """
        if max(r.num_vertices, s.num_vertices) < AUTO_MIN_VERTICES:
            return _COMPILED
        if tau < AUTO_MIN_TAU:
            return _COMPILED
        if labels_r is not None and labels_s is not None:
            distinct = len(set(labels_r[0]) | set(labels_s[0]))
        else:
            distinct = len(
                {r.vertex_label(v) for v in r.vertices()}
                | {s.vertex_label(v) for v in s.vertices()}
            )
        if distinct <= AUTO_MAX_DISTINCT_LABELS:
            return _DFS
        return _COMPILED


_COMPILED = CompiledAStarBackend()
_DFS = DfsBackend()

#: Every accepted verifier name and its backend singleton.
BACKENDS: Dict[str, VerifierBackend] = {
    "compiled": _COMPILED,
    "dfs": _DFS,
    "auto": AutoBackend(),
}


def resolve_backend(name: str) -> VerifierBackend:
    """The backend of :data:`BACKENDS` named ``name``.

    Raises
    ------
    ParameterError
        Naming the unknown verifier and listing every backend.
    """
    backend = BACKENDS.get(name)
    if backend is None:
        raise ParameterError(
            f"unknown verifier {name!r} (registered backends: "
            f"{', '.join(sorted(BACKENDS))})"
        )
    return backend
