"""Exact graph edit distance via A* search (Section VI-B).

The search explores partial mappings of ``r``'s vertices — in a fixed
order — onto vertices of ``s`` or onto ``ε`` (deletion).  ``g(x)`` is
the exact edit cost already incurred (vertex operations plus every edge
between mapped vertices); ``h(x)`` is a pluggable admissible estimate of
the remaining cost.  Because the mapping order is fixed, every state is
reachable along exactly one path (the space is a tree), so the first
goal popped from the priority queue is optimal even for inconsistent
(but admissible) heuristics.

A ``threshold`` turns the search into the verifier used by the join:
states with ``f > threshold`` are pruned and the function reports
``threshold + 1`` when the true distance exceeds the threshold — all the
join needs to know.

A ``budget`` (:class:`repro.runtime.budget.VerificationBudget`) caps the
search in expansions and/or seconds.  On exhaustion the search does not
fail: it returns a *bounded verdict* — ``lower`` is the minimum ``f``
over the open list (every goal descends from an open state or was
threshold-pruned, so ``lower ≤ ged``) and ``upper`` is the cost of a
greedy completion of the best open state (the cost of an actual mapping,
so ``ged ≤ upper``).  When the best open state is already a complete
mapping, it is the goal the next pop would return, and the search
returns its distance decided.  With ``budget=None`` behavior is
unchanged.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.exceptions import ParameterError, SearchExhaustedError
from repro.ged.heuristics import Heuristic, label_heuristic
from repro.graph.graph import Graph, Vertex
from repro.runtime.budget import VerificationBudget

__all__ = ["graph_edit_distance", "graph_edit_distance_detailed", "ged_within", "GedSearchResult"]


@dataclass(frozen=True)
class GedSearchResult:
    """Outcome of one A* run.

    ``distance`` is exact when ``<= threshold`` (or when no threshold was
    given); ``threshold + 1`` signals "greater than the threshold".

    When ``budget_exhausted`` is set the search ran out of budget before
    deciding: ``lower ≤ ged ≤ upper`` brackets the true distance and
    ``distance`` equals ``upper`` (the best mapping actually found).
    """

    distance: int
    expanded: int  #: states popped from the queue
    generated: int  #: states pushed onto the queue
    exceeded_threshold: bool
    budget_exhausted: bool = False
    lower: Optional[int] = None  #: bounded-verdict lower bound on ged
    upper: Optional[int] = None  #: bounded-verdict upper bound on ged


def _extension_cost(
    r: Graph,
    s: Graph,
    order: Sequence[Vertex],
    mapping: Tuple[Optional[Vertex], ...],
    u: Vertex,
    v: Optional[Vertex],
) -> int:
    """Incremental cost of mapping ``u`` (next in order) to ``v`` (or ε).

    Examines only edges between ``u`` and previously mapped vertices, and
    s-edges between ``v`` and previously used images, so every edge pair
    is charged exactly once over the whole search.
    """
    delta = 0
    if v is None:
        delta += 1  # vertex deletion
    elif r.vertex_label(u) != s.vertex_label(v):
        delta += 1  # vertex relabel

    directed = r.is_directed
    for j, w in enumerate(mapping):
        u_j = order[j]
        # Undirected: one unordered pair per previously mapped vertex.
        # Directed: both orientations are independent edges.
        pairs = (((u, u_j), (v, w)), ((u_j, u), (w, v))) if directed else (
            ((u, u_j), (v, w)),
        )
        for (a, b), (x, y) in pairs:
            if r.has_edge(a, b):
                if x is None or y is None or not s.has_edge(x, y):
                    delta += 1  # edge deletion
                elif s.edge_label(x, y) != r.edge_label(a, b):
                    delta += 1  # edge relabel
            else:
                if x is not None and y is not None and s.has_edge(x, y):
                    delta += 1  # edge insertion
    return delta


def _completion_cost(s: Graph, used: frozenset) -> int:
    """Cost of inserting the part of ``s`` never matched."""
    cost = sum(1 for v in s.vertices() if v not in used)
    for a, b, _ in s.edges():
        if a not in used or b not in used:
            cost += 1
    return cost


def _greedy_upper_bound(
    r: Graph,
    s: Graph,
    order: Sequence[Vertex],
    s_vertices: Sequence[Vertex],
    mapping: Tuple[Optional[Vertex], ...],
    used: frozenset,
    g: int,
) -> int:
    """Cost of greedily completing a partial mapping (a true upper bound).

    Extends ``mapping`` one vertex at a time, always taking the locally
    cheapest image (or ε), then pays for the unmatched rest of ``s``.
    The result is the exact cost of one achievable mapping, hence
    ``ged(r, s) <= result`` regardless of how bad the greedy choices are.
    """
    total = g
    for k in range(len(mapping), len(order)):
        u = order[k]
        best_delta = _extension_cost(r, s, order, mapping, u, None)
        best_v: Optional[Vertex] = None
        for v in s_vertices:
            if v in used:
                continue
            delta = _extension_cost(r, s, order, mapping, u, v)
            if delta < best_delta:
                best_delta, best_v = delta, v
        total += best_delta
        mapping = mapping + (best_v,)
        if best_v is not None:
            used = used | {best_v}
    return total + _completion_cost(s, used)


def graph_edit_distance_detailed(
    r: Graph,
    s: Graph,
    threshold: Optional[int] = None,
    heuristic: Heuristic = label_heuristic,
    vertex_order: Optional[Sequence[Vertex]] = None,
    budget: Optional[VerificationBudget] = None,
) -> GedSearchResult:
    """Run the A* search and return the distance with search statistics.

    Parameters
    ----------
    threshold:
        If given, prune states with ``f > threshold`` and report
        ``threshold + 1`` when the distance exceeds it.
    heuristic:
        An admissible :data:`~repro.ged.heuristics.Heuristic`.
    vertex_order:
        Order in which ``r``'s vertices are mapped; defaults to insertion
        order.  Must be a permutation of ``V(r)``.
    budget:
        Optional effort cap.  On exhaustion the result carries
        ``budget_exhausted=True`` and a ``lower ≤ ged ≤ upper`` bracket
        instead of an exact distance (see the module docstring).

    Raises
    ------
    ParameterError
        On a negative threshold or an invalid vertex order.
    """
    if threshold is not None and threshold < 0:
        raise ParameterError(f"threshold must be >= 0, got {threshold}")
    if r.is_directed != s.is_directed:
        raise ParameterError("cannot compare a directed with an undirected graph")
    order: List[Vertex] = (
        list(r.vertices()) if vertex_order is None else list(vertex_order)
    )
    if set(order) != set(r.vertices()) or len(order) != r.num_vertices:
        raise ParameterError("vertex_order must be a permutation of V(r)")

    n = len(order)
    s_vertices = list(s.vertices())
    s_vertex_set = frozenset(s_vertices)
    empty_used: frozenset = frozenset()

    counter = itertools.count()
    expanded = 0
    generated = 0

    def initial_h() -> int:
        return heuristic(r, s, order, set(s_vertices))

    start_f = initial_h()
    if n == 0:
        # Nothing to map: the whole of s is inserted.
        distance = _completion_cost(s, empty_used)
        if threshold is not None and distance > threshold:
            return GedSearchResult(threshold + 1, 0, 0, True)
        return GedSearchResult(distance, 0, 0, False)

    # Each state carries the *running* completion cost — what
    # ``_completion_cost(s, used)`` would return — updated in O(deg) as
    # the mapping extends, so the last level never re-derives it from a
    # full scan of ``s``.
    directed = s.is_directed
    comp0 = s.num_vertices + s.num_edges

    heap: List[
        Tuple[int, int, int, int, int, Tuple[Optional[Vertex], ...], frozenset]
    ] = []
    if threshold is None or start_f <= threshold:
        heapq.heappush(heap, (start_f, -0, next(counter), 0, comp0, (), empty_used))
        generated += 1

    meter = budget.start() if budget is not None else None

    while heap:
        if meter is not None and not meter.tick():
            # Budget exhausted: degrade to a bounded verdict.  Every
            # goal descends from an open state (lower bound = min f over
            # the open list; threshold-pruned branches cost > threshold
            # >= that f) and greedily completing the best open state
            # yields an achievable mapping (upper bound).  A complete
            # state on top is the goal the next pop would return: its
            # ``g`` already holds the completion cost, and it is the
            # answer.
            lower = heap[0][0]
            _bf, _bk, _bt, bg, _bc, bmapping, bused = heap[0]
            if len(bmapping) == n:
                return GedSearchResult(bg, expanded, generated, False)
            upper = _greedy_upper_bound(
                r, s, order, s_vertices, bmapping, bused, bg
            )
            return GedSearchResult(
                upper,
                expanded,
                generated,
                False,
                budget_exhausted=True,
                lower=lower,
                upper=upper,
            )
        f, _neg_k, _tie, g, comp, mapping, used = heapq.heappop(heap)
        k = len(mapping)
        expanded += 1
        if k == n:
            return GedSearchResult(g, expanded, generated, False)

        u = order[k]
        targets: List[Optional[Vertex]] = [v for v in s_vertices if v not in used]
        targets.append(None)
        for v in targets:
            delta = _extension_cost(r, s, order, mapping, u, v)
            g2 = g + delta
            if threshold is not None and g2 > threshold:
                continue
            new_mapping = mapping + (v,)
            if v is None:
                new_used = used
                comp2 = comp
            else:
                new_used = used | {v}
                # v's own insertion is no longer needed, nor are the
                # s-edges between v and already-used vertices.
                comp2 = comp - 1
                for w in s.neighbors(v):
                    if w in used:
                        comp2 -= 1
                if directed:
                    for w in s.in_neighbors(v):
                        if w in used:
                            comp2 -= 1
            if k + 1 == n:
                g2 += comp2
                h2 = 0
            else:
                h2 = heuristic(r, s, order[k + 1 :], s_vertex_set - new_used)
            f2 = g2 + h2
            if threshold is not None and f2 > threshold:
                continue
            heapq.heappush(
                heap, (f2, -(k + 1), next(counter), g2, comp2, new_mapping, new_used)
            )
            generated += 1

    if threshold is None:
        raise SearchExhaustedError(
            "unbounded GED search exhausted without a goal"
        )
    return GedSearchResult(threshold + 1, expanded, generated, True)


def graph_edit_distance(
    r: Graph,
    s: Graph,
    threshold: Optional[int] = None,
    heuristic: Heuristic = label_heuristic,
    vertex_order: Optional[Sequence[Vertex]] = None,
) -> int:
    """Graph edit distance between ``r`` and ``s``.

    With ``threshold=τ`` the result is exact when ``<= τ`` and ``τ + 1``
    otherwise (the bounded verifier of Algorithm 6); without a threshold
    the exact distance is always returned.
    """
    return graph_edit_distance_detailed(
        r, s, threshold=threshold, heuristic=heuristic, vertex_order=vertex_order
    ).distance


def ged_within(
    r: Graph,
    s: Graph,
    tau: int,
    heuristic: Heuristic = label_heuristic,
    vertex_order: Optional[Sequence[Vertex]] = None,
) -> bool:
    """True iff ``ged(r, s) <= tau``."""
    return (
        graph_edit_distance(
            r, s, threshold=tau, heuristic=heuristic, vertex_order=vertex_order
        )
        <= tau
    )
