"""Depth-first branch-and-bound graph edit distance (DF-GED).

The best-first A* of :mod:`repro.ged.astar` keeps its whole frontier in
memory; the classic alternative (Abu-Aisheh et al.'s DF-GED family)
explores the same fixed-order mapping tree depth-first, keeping only
the current path.  An incumbent upper bound — seeded from the bipartite
assignment approximation, exactly how practical DF-GED implementations
do it — prunes subtrees whose ``g + h`` cannot improve on it.

Properties:

* memory is O(|V|) instead of the A* frontier;
* with an admissible heuristic the result is exact;
* a ``threshold`` caps the incumbent, yielding the same
  "``τ+1`` means greater than ``τ``" contract as the A* verifier;
* a ``budget`` (:class:`repro.runtime.budget.VerificationBudget`)
  degrades the search to a *bounded verdict* instead of failing:
  ``lower`` is the admissible root estimate (every mapping costs at
  least the root ``f``) and ``upper`` is the cheapest mapping actually
  achieved — the incumbent, improved by any complete mapping the search
  finished before running out.  Unlike A*, whose exhaustion bounds come
  from the surviving frontier, DF-GED holds only the current path, so
  the root bound is the natural constant-memory lower bound.

Two implementations share the contract: :func:`dfs_ged` walks the
object graphs (the reference), :func:`dfs_ged_compiled` runs the same
branch-and-bound over :class:`~repro.ged.compiled.CompiledGraph` arrays
with the per-depth remainder tables of the compiled A* — the form the
``"dfs"`` portfolio backend uses in joins.

The module exists both as a practical alternative verifier
(``GSimJoinOptions(verifier="dfs")``) and as an independent
implementation to cross-check the A* search in the test suite.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ParameterError, SearchExhaustedError
from repro.ged.astar import GedSearchResult, _completion_cost, _extension_cost
from repro.ged.compiled import CompiledGraph, _gated_extra
from repro.ged.heuristics import Heuristic, label_heuristic
from repro.graph.graph import Graph, Vertex
from repro.runtime.budget import VerificationBudget

__all__ = ["dfs_ged", "dfs_ged_compiled", "DfsSearchResult"]


class DfsSearchResult:
    """Outcome of a DF-GED run (mirrors ``GedSearchResult``)."""

    __slots__ = (
        "distance",
        "expanded",
        "exceeded_threshold",
        "generated",
        "budget_exhausted",
        "lower",
        "upper",
    )

    def __init__(
        self,
        distance: int,
        expanded: int,
        exceeded: bool,
        generated: int = 0,
        budget_exhausted: bool = False,
        lower: Optional[int] = None,
        upper: Optional[int] = None,
    ) -> None:
        self.distance = distance
        self.expanded = expanded
        self.exceeded_threshold = exceeded
        self.generated = generated
        self.budget_exhausted = budget_exhausted
        self.lower = lower
        self.upper = upper

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DfsSearchResult(distance={self.distance}, "
            f"expanded={self.expanded}, exceeded={self.exceeded_threshold}, "
            f"budget_exhausted={self.budget_exhausted})"
        )


def dfs_ged(
    r: Graph,
    s: Graph,
    threshold: Optional[int] = None,
    heuristic: Heuristic = label_heuristic,
    vertex_order: Optional[Sequence[Vertex]] = None,
    initial_upper_bound: Optional[int] = None,
    budget: Optional[VerificationBudget] = None,
) -> DfsSearchResult:
    """Exact GED by depth-first branch-and-bound.

    Parameters
    ----------
    threshold:
        As in the A* verifier: prune above ``threshold`` and report
        ``threshold + 1`` when the distance exceeds it.
    heuristic:
        Admissible remaining-cost estimate (default: the Γ label bound).
    vertex_order:
        Mapping order over ``V(r)``; defaults to insertion order.
    initial_upper_bound:
        Optional incumbent to start from (e.g. from
        :func:`repro.ged.approximate.bipartite_upper_bound`); when
        omitted it is computed automatically.  A tight incumbent prunes
        dramatically.  It MUST be a genuine upper bound (the cost of
        some achievable mapping) — an underestimate makes the result
        wrong, as the search reports ``min(incumbent, best found)``.
    budget:
        Optional effort cap (expansions and/or seconds, ticked once per
        descent).  On exhaustion the result carries
        ``budget_exhausted=True`` with a ``lower ≤ ged ≤ upper``
        bracket: ``lower`` is the admissible root estimate, ``upper``
        the cheapest achievable mapping in hand (see module docstring).

    Raises
    ------
    ParameterError
        On invalid threshold/order or mixed directedness.
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

    if initial_upper_bound is None:
        from repro.ged.approximate import bipartite_upper_bound

        incumbent = bipartite_upper_bound(r, s)
    else:
        incumbent = initial_upper_bound
    # The incumbent is a true achievable cost, so it may already answer
    # a threshold query; the cut level never needs to exceed tau + 1.
    cut = incumbent if threshold is None else min(incumbent, threshold + 1)

    if n == 0:
        distance = min(_completion_cost(s, frozenset()), incumbent)
        exceeded = threshold is not None and distance > threshold
        return DfsSearchResult(
            (threshold + 1) if exceeded else distance, 0, exceeded
        )

    best = cut
    # The cheapest *achievable* mapping seen — distinct from ``best``,
    # which is capped at ``τ+1`` (an unachievable sentinel) in threshold
    # mode.  This is the sound upper bound of a budget-exhausted run.
    best_achievable = incumbent
    root_f = heuristic(r, s, order, set(s_vertices))
    expanded = 0
    generated = 1  # the root state
    mapping: List[Optional[Vertex]] = []
    used: set = set()
    meter = budget.start() if budget is not None else None

    def descend(g: int) -> None:
        nonlocal best, best_achievable, expanded, generated
        if meter is not None and not meter.tick():
            raise SearchExhaustedError("budget exhausted")
        k = len(mapping)
        expanded += 1
        if k == n:
            total = g + _completion_cost(s, frozenset(used))
            if total < best_achievable:
                best_achievable = total
            if total < best:
                best = total
            return
        u = order[k]
        # Order successors by optimistic cost so good incumbents arrive
        # early (classic DF-GED move).
        successors: List[Tuple[int, Optional[Vertex]]] = []
        for v in s_vertices:
            if v in used:
                continue
            successors.append(
                (g + _extension_cost(r, s, order, tuple(mapping), u, v), v)
            )
        successors.append(
            (g + _extension_cost(r, s, order, tuple(mapping), u, None), None)
        )
        successors.sort(key=lambda pair: pair[0])
        for g2, v in successors:
            if g2 >= best:
                continue
            generated += 1
            if v is not None:
                used.add(v)
            mapping.append(v)
            h = heuristic(r, s, order[k + 1 :], set(s_vertices) - used)
            if g2 + h < best:
                descend(g2)
            mapping.pop()
            if v is not None:
                used.discard(v)

    try:
        descend(0)
    except SearchExhaustedError:
        return DfsSearchResult(
            best_achievable,
            expanded,
            False,
            generated,
            budget_exhausted=True,
            lower=root_f,
            upper=best_achievable,
        )

    if threshold is not None and best > threshold:
        return DfsSearchResult(threshold + 1, expanded, True, generated)
    return DfsSearchResult(best, expanded, False, generated)


def dfs_ged_compiled(
    cr: CompiledGraph,
    cs: CompiledGraph,
    threshold: Optional[int] = None,
    vertex_order: Optional[Sequence[int]] = None,
    budget: Optional[VerificationBudget] = None,
    improved_h: bool = False,
    q: int = 0,
    h_tau: int = 0,
    max_remaining: Optional[int] = 8,
    subgraph_cache: Optional[dict] = None,
    initial_upper_bound: Optional[int] = None,
) -> GedSearchResult:
    """DF-GED over compiled graphs — the integer twin of :func:`dfs_ged`.

    Runs the branch-and-bound with the per-depth remainder tables of
    :func:`repro.ged.compiled.compiled_ged_detailed`: the ``r``-side
    label/edge remainders are indexed by depth, the ``s``-side counters
    are maintained with O(deg) do/undo deltas along the current path —
    so, unlike the A*, the search never materializes a frontier and its
    resident state stays O(|V| + labels).

    Parameters mirror the compiled A*: ``improved_h``/``q``/``h_tau``/
    ``max_remaining``/``subgraph_cache`` configure the gated local-label
    heuristic term (Algorithm 8), ``budget`` degrades to a bounded
    verdict (``lower`` = admissible root ``f``, ``upper`` = cheapest
    achieved mapping), and the result is a
    :class:`~repro.ged.astar.GedSearchResult`.

    Raises
    ------
    ParameterError
        On a negative threshold, mismatched directedness, or an invalid
        vertex order.
    """
    if threshold is not None and threshold < 0:
        raise ParameterError(f"threshold must be >= 0, got {threshold}")
    if cr.directed != cs.directed:
        raise ParameterError("cannot compare a directed with an undirected graph")
    n, m = cr.n, cs.n
    order: List[int] = (
        list(range(n)) if vertex_order is None else list(vertex_order)
    )
    if sorted(order) != list(range(n)):
        raise ParameterError("vertex_order must be a permutation of V(r)")

    directed = cr.directed
    rvlab, svlab = cr.vlab, cs.vlab
    radj, sadj = cr.adj, cs.adj
    s_incident = cs.incident
    s_out, s_in = cs.out_nbrs, cs.in_nbrs
    num_s_edges = cs.num_edges

    if initial_upper_bound is None:
        from repro.ged.approximate import bipartite_upper_bound

        incumbent = bipartite_upper_bound(cr.graph, cs.graph)
    else:
        incumbent = initial_upper_bound

    if n == 0:
        distance = m + num_s_edges
        if threshold is not None and distance > threshold:
            return GedSearchResult(threshold + 1, 0, 0, True)
        return GedSearchResult(distance, 0, 0, False)

    # ---- per-search tables (as in the compiled A*) -----------------------
    num_vl = max(cr.max_vlab, cs.max_vlab) + 1
    num_el = max(cr.max_elab, cs.max_elab) + 1

    pos = [0] * n
    for d, u in enumerate(order):
        pos[u] = d
    rv_depth: List[List[int]] = [[0] * num_vl for _ in range(n + 1)]
    for d in range(n - 1, -1, -1):
        row = rv_depth[d]
        row[:] = rv_depth[d + 1]
        row[rvlab[order[d]]] += 1
    leave_buckets: List[List[int]] = [[] for _ in range(n + 1)]
    for x, y, el in cr.edge_list:
        depth = pos[x] if pos[x] > pos[y] else pos[y]
        leave_buckets[depth + 1].append(el)
    re_depth: List[List[int]] = [[0] * num_el for _ in range(n + 1)]
    resize = [0] * (n + 1)
    row = re_depth[0]
    for x, y, el in cr.edge_list:
        row[el] += 1
    resize[0] = len(cr.edge_list)
    for d in range(1, n + 1):
        row = re_depth[d]
        row[:] = re_depth[d - 1]
        for el in leave_buckets[d]:
            row[el] -= 1
        resize[d] = resize[d - 1] - len(leave_buckets[d])

    sv = [0] * num_vl
    for label_id in svlab:
        sv[label_id] += 1
    se = [0] * num_el
    for x, y, el in cs.edge_list:
        se[el] += 1

    gated = improved_h
    if gated:
        r_vertices = cr.vertices
        r_rest_sets: List[frozenset] = [
            frozenset(r_vertices[pos_v] for pos_v in order[d:])
            for d in range(n + 1)
        ]
    else:
        r_rest_sets = []
    gated_cache: Dict[Tuple[int, int], int] = {}
    if subgraph_cache is None:
        subgraph_cache = {}

    # ---- admissible root estimate (exhaustion lower bound) ---------------
    iv0 = 0
    rv0 = rv_depth[0]
    for label_id in range(num_vl):
        a, b = rv0[label_id], sv[label_id]
        iv0 += a if a < b else b
    ie0 = 0
    re0 = re_depth[0]
    for label_id in range(num_el):
        a, b = re0[label_id], se[label_id]
        ie0 += a if a < b else b
    root_f = (max(n, m) - iv0) + (max(resize[0], num_s_edges) - ie0)
    if gated and m and root_f <= h_tau and (
        max_remaining is None or (n <= max_remaining and m <= max_remaining)
    ):
        extra = _gated_extra(cr, cs, r_rest_sets[0], 0, q, h_tau, subgraph_cache)
        if extra > root_f:
            root_f = extra

    cut = incumbent if threshold is None else min(incumbent, threshold + 1)
    best = cut
    best_achievable = incumbent
    expanded = 0
    generated = 1  # the root state
    mapping: List[int] = []
    used = 0
    sv_size = m
    se_size = num_s_edges
    meter = budget.start() if budget is not None else None

    def descend(g: int) -> None:
        nonlocal best, best_achievable, expanded, generated
        nonlocal used, sv_size, se_size
        if meter is not None and not meter.tick():
            raise SearchExhaustedError("budget exhausted")
        k = len(mapping)
        expanded += 1
        if k == n:
            # The maintained remainder sizes *are* the completion cost.
            total = g + sv_size + se_size
            if total < best_achievable:
                best_achievable = total
            if total < best:
                best = total
            return

        k1 = k + 1
        u = order[k]
        u_row = u * n
        rv1 = rv_depth[k1]
        re1 = re_depth[k1]
        iv_base = 0
        for label_id in range(num_vl):
            a, b = rv1[label_id], sv[label_id]
            iv_base += a if a < b else b
        ie_base = 0
        for label_id in range(num_el):
            a, b = re1[label_id], se[label_id]
            ie_base += a if a < b else b
        rvsize1 = n - k1
        resize1 = resize[k1]

        u_edges = [
            (j, radj[u_row + order[j]])
            for j in range(k)
            if radj[u_row + order[j]]
        ]
        u_redges = (
            [
                (j, radj[order[j] * n + u])
                for j in range(k)
                if radj[order[j] * n + u]
            ]
            if directed
            else u_edges
        )
        imap = [-1] * m
        for j, w in enumerate(mapping):
            if w >= 0:
                imap[w] = j
        eps_delta = len(u_edges) + (len(u_redges) if directed else 0)

        targets = [v for v in range(m) if not (used >> v) & 1]
        targets.append(-1)
        successors: List[Tuple[int, int, int]] = []
        for v in targets:
            # --- extension cost (inlined integer form) -------------------
            if v < 0:
                delta = 1 + eps_delta
            else:
                delta = 0 if rvlab[u] == svlab[v] else 1
                v_row = v * m
                for j, rl in u_edges:
                    w = mapping[j]
                    if w < 0 or sadj[v_row + w] != rl:
                        delta += 1
                for w2 in s_out[v]:
                    j = imap[w2]
                    if j >= 0 and radj[u_row + order[j]] == 0:
                        delta += 1
                if directed:
                    for j, rl in u_redges:
                        w = mapping[j]
                        if w < 0 or sadj[w * m + v] != rl:
                            delta += 1
                    for w2 in s_in[v]:
                        j = imap[w2]
                        if j >= 0 and radj[order[j] * n + u] == 0:
                            delta += 1
            g2 = g + delta
            if g2 >= best:
                continue

            # --- child heuristic from the incremental remainders ---------
            if v < 0:
                used2 = used
                sv_size2 = sv_size
                se_size2 = se_size
                iv2 = iv_base
                ie2 = ie_base
            else:
                used2 = used | (1 << v)
                sv_size2 = sv_size - 1
                label_id = svlab[v]
                iv2 = iv_base - (1 if sv[label_id] <= rv1[label_id] else 0)
                ie2 = ie_base
                removed = 0
                for w, el in s_incident[v]:
                    if (used >> w) & 1:
                        if se[el] <= re1[el]:
                            ie2 -= 1
                        se[el] -= 1
                        removed += 1
                se_size2 = se_size - removed
                if removed:
                    for w, el in s_incident[v]:
                        if (used >> w) & 1:
                            se[el] += 1

            if k1 == n:
                h2 = sv_size2 + se_size2
            else:
                gv = rvsize1 if rvsize1 > sv_size2 else sv_size2
                ge = resize1 if resize1 > se_size2 else se_size2
                h2 = (gv - iv2) + (ge - ie2)
                if gated and h2 <= h_tau and sv_size2 and (
                    max_remaining is None
                    or (
                        n - k1 <= max_remaining
                        and sv_size2 <= max_remaining
                    )
                ):
                    gate_key = (k1, used2)
                    extra = gated_cache.get(gate_key)
                    if extra is None:
                        extra = _gated_extra(
                            cr,
                            cs,
                            r_rest_sets[k1],
                            used2,
                            q,
                            h_tau,
                            subgraph_cache,
                        )
                        gated_cache[gate_key] = extra
                    if extra > h2:
                        h2 = extra
            if g2 + h2 >= best:
                continue
            successors.append((g2, h2, v))

        # Cheapest extension first (stable, so ties keep target order).
        successors.sort(key=lambda triple: triple[0])
        for g2, h2, v in successors:
            # ``best`` may have improved since generation — re-check.
            if g2 >= best or g2 + h2 >= best:
                continue
            generated += 1
            mapping.append(v)
            if v >= 0:
                used |= 1 << v
                sv[svlab[v]] -= 1
                sv_size -= 1
                for w, el in s_incident[v]:
                    if (used >> w) & 1 and w != v:
                        se[el] -= 1
                        se_size -= 1
            descend(g2)
            mapping.pop()
            if v >= 0:
                for w, el in s_incident[v]:
                    if (used >> w) & 1 and w != v:
                        se[el] += 1
                        se_size += 1
                sv[svlab[v]] += 1
                sv_size += 1
                used &= ~(1 << v)

    try:
        if root_f < best:
            descend(0)
    except SearchExhaustedError:
        return GedSearchResult(
            best_achievable,
            expanded,
            generated,
            False,
            budget_exhausted=True,
            lower=root_f,
            upper=best_achievable,
        )

    if threshold is not None and best > threshold:
        return GedSearchResult(threshold + 1, expanded, generated, True)
    return GedSearchResult(best, expanded, generated, False)
