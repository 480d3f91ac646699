"""Compiled integer-array A* verification backend (Section VI-B, fast path).

The object-graph A* in :mod:`repro.ged.astar` re-walks Python
dict-of-dict adjacency on every state expansion and recomputes the
remaining-label heuristic from scratch with fresh ``Counter`` objects
per generated state.  This module removes all of that by *compiling*
each :class:`~repro.graph.graph.Graph` once per join into a
:class:`CompiledGraph` — dense ``0..n-1`` vertex ids, interned integer
vertex/edge-label ids (the same interning pattern as
:mod:`repro.grams.vocab`), a flattened adjacency matrix for O(1)
integer edge lookups, incidence lists, and precomputed label-multiset
count arrays — and running a rewritten A* core over those arrays:

* states are compact tuples over ints (mapping tuple + used bitmask),
  with no per-state ``frozenset`` or ``Counter`` construction;
* the remaining-label heuristic ``Γ(L_V) + Γ(L_E)`` is maintained
  **incrementally**: the ``r``-side remainder depends only on the
  search depth (tables built once per search), the ``s``-side is
  rebuilt per expansion from the used bitmask, and each child applies
  O(deg) do/undo counter deltas instead of re-deriving the bound;
* the completion cost of the unmatched part of ``s`` falls out of the
  same remainder sizes for free;
* the gated local-label term of the improved heuristic (Algorithm 8)
  delegates to :func:`repro.ged.heuristics.local_label_terms` — the
  exact code the object backend runs — and additionally memoizes the
  value per ``(depth, used)`` remainder pair, which is sound because
  the term is a pure function of the two remainders.

Compilation is cached per graph in a :class:`VerificationCache` shared
across all candidate pairs of a join (each graph appears in many
pairs), together with the label interners and the subgraph-profile
memo of the gated heuristic term.

**Bit-identical contract.**  The backend reproduces the object A*
exactly: identical distances, ``exceeded_threshold`` decisions,
expansion/generation counts, and — under a
:class:`~repro.runtime.budget.VerificationBudget` — identical
``lower``/``upper`` bounded verdicts, because states carry identical
``f`` values and are generated in the same order with the same
tie-breaking.
"""

from __future__ import annotations

import heapq
import itertools
import time
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.exceptions import ParameterError, SearchExhaustedError
from repro.ged.astar import GedSearchResult
from repro.ged.heuristics import local_label_terms
from repro.graph.graph import Graph, Vertex
from repro.runtime.budget import VerificationBudget

__all__ = [
    "LabelInterner",
    "CompiledGraph",
    "VerificationCache",
    "compile_graph",
    "compiled_ged_detailed",
]


class LabelInterner:
    """Dense integer ids for (vertex or edge) labels, first-seen order.

    The id order carries no meaning — unlike the q-gram vocabulary's
    rank-ordered ids — so interning is a plain first-come assignment.
    One interner is shared by every graph compiled through the same
    :class:`VerificationCache`, making label ids comparable across all
    candidate pairs of a join.
    """

    __slots__ = ("_ids",)

    def __init__(self) -> None:
        self._ids: Dict[Hashable, int] = {}

    def intern(self, label: Hashable) -> int:
        """Id of ``label``, assigning the next dense id when unseen."""
        label_id = self._ids.get(label)
        if label_id is None:
            label_id = len(self._ids)
            self._ids[label] = label_id
        return label_id

    def __len__(self) -> int:
        return len(self._ids)


class CompiledGraph:
    """One graph compiled to integer arrays for the A* inner loop.

    Vertices are renumbered to dense ``0..n-1`` ids in insertion order
    (matching :meth:`Graph.vertices`), labels are interned ints, and
    adjacency is a flattened ``n*n`` row-major matrix whose cells hold
    ``edge_label_id + 1`` (``0`` = no edge) so existence *and* label
    tests are one integer index each.  ``incident[v]`` lists every edge
    touching ``v`` as ``(other_endpoint, edge_label_id)`` — both
    orientations for directed graphs — for O(deg) resident-edge counter
    deltas.  The original :class:`Graph` is retained (keeping its
    ``id()`` stable for the cache and serving the object-level
    delegation of the gated heuristic term).
    """

    __slots__ = (
        "graph",
        "directed",
        "n",
        "vertices",
        "index_of",
        "vlab",
        "adj",
        "out_nbrs",
        "in_nbrs",
        "incident",
        "edge_list",
        "num_edges",
        "vlab_counts",
        "elab_counts",
        "max_vlab",
        "max_elab",
    )

    def __init__(
        self,
        graph: Graph,
        vertices: List[Vertex],
        vlab: List[int],
        adj: List[int],
        out_nbrs: List[List[int]],
        in_nbrs: List[List[int]],
        incident: List[List[Tuple[int, int]]],
        edge_list: List[Tuple[int, int, int]],
    ) -> None:
        """Assemble a compiled view (use :func:`compile_graph`)."""
        self.graph = graph
        self.directed = graph.is_directed
        self.n = len(vertices)
        self.vertices = vertices
        self.index_of = {v: i for i, v in enumerate(vertices)}
        self.vlab = vlab
        self.adj = adj
        self.out_nbrs = out_nbrs
        self.in_nbrs = in_nbrs
        self.incident = incident
        self.edge_list = edge_list
        self.num_edges = len(edge_list)
        counts: Dict[int, int] = {}
        for label_id in vlab:
            counts[label_id] = counts.get(label_id, 0) + 1
        self.vlab_counts = counts
        ecounts: Dict[int, int] = {}
        for _x, _y, el in edge_list:
            ecounts[el] = ecounts.get(el, 0) + 1
        self.elab_counts = ecounts
        self.max_vlab = max(vlab) if vlab else -1
        self.max_elab = max(ecounts) if ecounts else -1


def compile_graph(
    g: Graph, vertex_labels: LabelInterner, edge_labels: LabelInterner
) -> CompiledGraph:
    """Compile ``g`` against shared label interners.

    O(|V|² + |E|) — the flattened adjacency matrix dominates; join
    graphs are small (tens of vertices) so a full matrix beats sparse
    lookups by a wide margin in CPython.
    """
    vertices = list(g.vertices())
    n = len(vertices)
    index_of = {v: i for i, v in enumerate(vertices)}
    vlab = [vertex_labels.intern(g.vertex_label(v)) for v in vertices]
    adj = [0] * (n * n)
    out_nbrs: List[List[int]] = [[] for _ in range(n)]
    directed = g.is_directed
    in_nbrs: List[List[int]] = [[] for _ in range(n)] if directed else out_nbrs
    incident: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    edge_list: List[Tuple[int, int, int]] = []
    for u, v, label in g.edges():
        x, y = index_of[u], index_of[v]
        el = edge_labels.intern(label)
        adj[x * n + y] = el + 1
        out_nbrs[x].append(y)
        if directed:
            in_nbrs[y].append(x)
        else:
            adj[y * n + x] = el + 1
            out_nbrs[y].append(x)
        incident[x].append((y, el))
        incident[y].append((x, el))
        edge_list.append((x, y, el))
    return CompiledGraph(
        g, vertices, vlab, adj, out_nbrs, in_nbrs, incident, edge_list
    )


class VerificationCache:
    """Per-collection compilation cache shared across candidate pairs.

    Holds the two label interners, the ``id(graph) -> CompiledGraph``
    memo, and the subgraph-profile memo backing the gated local-label
    heuristic term.  **Lifetime rule:** entries are keyed by object
    identity and each :class:`CompiledGraph` retains a reference to its
    source graph, so a cached id can never be recycled while the cache
    lives — but the cache must not outlive the *collection*: create one
    per join run (or one per :class:`~repro.core.search.GSimIndex`,
    whose graphs live as long as the index), and let it die with the
    run.  ``compile_seconds``/``hits``/``misses`` expose the
    compilation overhead for benchmarks.
    """

    __slots__ = (
        "vertex_labels",
        "edge_labels",
        "subgraph_cache",
        "_compiled",
        "compile_seconds",
        "hits",
        "misses",
        "_verdicts",
        "memo_hits",
    )

    def __init__(self) -> None:
        self.vertex_labels = LabelInterner()
        self.edge_labels = LabelInterner()
        #: Memo for :func:`repro.ged.heuristics.subgraph_entry` — shared
        #: across pairs (values are pure functions of the subgraph).
        self.subgraph_cache: dict = {}
        self._compiled: Dict[int, CompiledGraph] = {}
        self.compile_seconds: float = 0.0
        self.hits: int = 0
        self.misses: int = 0
        #: Pair-level verdict memo (Nass-style): per ordered graph-
        #: identity pair, the best known ``[r, s, exact, lower, upper]``
        #: GED knowledge accumulated across searches.  The graph
        #: references in the entry pin both objects alive, so the
        #: ``id()``-pair key can never be recycled while the cache
        #: lives (the same identity discipline as ``_compiled``).
        self._verdicts: Dict[Tuple[int, int], list] = {}
        self.memo_hits: int = 0

    def record_verdict(
        self, r: Graph, s: Graph, tau: int, search: GedSearchResult
    ) -> None:
        """Fold one search result into the pair's verdict entry.

        ``search`` is a :class:`~repro.ged.astar.GedSearchResult` (or
        anything shaped like one) produced at threshold ``tau``:

        * a decided search contributes the exact distance (when
          ``<= tau``) or the fact ``ged > tau`` (a lower bound);
        * a budget-exhausted search contributes its ``lower``/``upper``
          bracket; brackets from different runs intersect (max of
          lowers, min of uppers) and a closed bracket becomes exact.
        """
        key = (id(r), id(s))
        entry = self._verdicts.get(key)
        if entry is None:
            entry = [r, s, None, 0, None]
            self._verdicts[key] = entry
        if getattr(search, "budget_exhausted", False):
            if search.lower is not None and search.lower > entry[3]:
                entry[3] = search.lower
            if search.upper is not None and (
                entry[4] is None or search.upper < entry[4]
            ):
                entry[4] = search.upper
            if entry[4] is not None and entry[3] == entry[4]:
                entry[2] = entry[4]
        elif search.exceeded_threshold:
            if tau + 1 > entry[3]:
                entry[3] = tau + 1
        else:
            distance = search.distance
            entry[2] = distance
            if distance > entry[3]:
                entry[3] = distance
            if entry[4] is None or distance < entry[4]:
                entry[4] = distance

    def lookup_verdict(
        self, r: Graph, s: Graph, tau: int
    ) -> Optional[Tuple[bool, Optional[int], int, Optional[int]]]:
        """Decide ``ged(r, s) <= tau`` from memoized verdicts, if possible.

        Returns ``None`` when the accumulated knowledge cannot decide
        this threshold, else ``(accept, exact, lower, upper)`` —
        ``exact`` is the distance when known, the bounds are the
        entry's current bracket.  Counts a ``memo_hits`` tick on every
        decided lookup.
        """
        entry = self._verdicts.get((id(r), id(s)))
        if entry is None:
            return None
        _r, _s, exact, lower, upper = entry
        if exact is not None:
            self.memo_hits += 1
            return (exact <= tau, exact, lower, upper)
        if lower > tau:
            self.memo_hits += 1
            return (False, None, lower, upper)
        if upper is not None and upper <= tau:
            self.memo_hits += 1
            return (True, None, lower, upper)
        return None

    def compile(self, g: Graph) -> CompiledGraph:
        """The compiled form of ``g``, compiling on first sight."""
        key = id(g)
        compiled = self._compiled.get(key)
        if compiled is not None:
            self.hits += 1
            return compiled
        started = time.perf_counter()
        compiled = compile_graph(g, self.vertex_labels, self.edge_labels)
        self.compile_seconds += time.perf_counter() - started
        self.misses += 1
        self._compiled[key] = compiled
        return compiled

    def __len__(self) -> int:
        return len(self._compiled)


def _extension_cost_int(
    cr: CompiledGraph,
    cs: CompiledGraph,
    order: Sequence[int],
    mapping: Tuple[int, ...],
    u: int,
    v: int,
) -> int:
    """Incremental cost of mapping ``u`` to ``v`` (``-1`` = ε).

    The integer twin of :func:`repro.ged.astar._extension_cost`,
    charging vertex cost plus every edge between ``u``/``v`` and the
    previously mapped part — used by the greedy upper bound (the main
    loop inlines a faster neighbor-list form).
    """
    if v < 0:
        delta = 1
    elif cr.vlab[u] != cs.vlab[v]:
        delta = 1
    else:
        delta = 0
    n, m = cr.n, cs.n
    radj, sadj = cr.adj, cs.adj
    directed = cr.directed
    for j, w in enumerate(mapping):
        uj = order[j]
        rl = radj[u * n + uj]
        sl = sadj[v * m + w] if (v >= 0 and w >= 0) else 0
        if rl:
            if sl != rl:
                delta += 1
        elif sl:
            delta += 1
        if directed:
            rl = radj[uj * n + u]
            sl = sadj[w * m + v] if (v >= 0 and w >= 0) else 0
            if rl:
                if sl != rl:
                    delta += 1
            elif sl:
                delta += 1
    return delta


def _completion_cost_int(cs: CompiledGraph, used: int) -> int:
    """Cost of inserting the part of ``s`` never matched (bitmask form)."""
    cost = 0
    for v in range(cs.n):
        if not (used >> v) & 1:
            cost += 1
    for x, y, _el in cs.edge_list:
        if not ((used >> x) & 1 and (used >> y) & 1):
            cost += 1
    return cost


def _greedy_upper_int(
    cr: CompiledGraph,
    cs: CompiledGraph,
    order: Sequence[int],
    mapping: Tuple[int, ...],
    used: int,
    g: int,
) -> int:
    """Greedy completion cost — the integer twin of the object backend's
    ``_greedy_upper_bound`` (identical choices: scan ``s`` in insertion
    order, strict improvement over the ε default)."""
    total = g
    m = cs.n
    for k in range(len(mapping), len(order)):
        u = order[k]
        best_delta = _extension_cost_int(cr, cs, order, mapping, u, -1)
        best_v = -1
        for v in range(m):
            if (used >> v) & 1:
                continue
            delta = _extension_cost_int(cr, cs, order, mapping, u, v)
            if delta < best_delta:
                best_delta, best_v = delta, v
        total += best_delta
        mapping = mapping + (best_v,)
        if best_v >= 0:
            used |= 1 << best_v
    return total + _completion_cost_int(cs, used)


def _gated_extra(
    cr: CompiledGraph,
    cs: CompiledGraph,
    r_rest: frozenset,
    used: int,
    q: int,
    tau: int,
    subgraph_cache: dict,
) -> int:
    """Algorithm 8's local-label term, delegated to the object machinery.

    Reconstructs the original-vertex remainder sets and calls
    :func:`repro.ged.heuristics.local_label_terms` — byte-for-byte the
    computation the object backend's improved heuristic performs, so
    values (and therefore search trajectories) stay identical.
    """
    s_vertices = cs.vertices
    s_rest = frozenset(
        s_vertices[v] for v in range(cs.n) if not (used >> v) & 1
    )
    return local_label_terms(
        cr.graph, cs.graph, r_rest, s_rest, q, tau, subgraph_cache
    )


def compiled_ged_detailed(
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
) -> GedSearchResult:
    """A* over compiled graphs — the integer twin of
    :func:`repro.ged.astar.graph_edit_distance_detailed`.

    Parameters
    ----------
    threshold / budget:
        Exactly as in the object backend: prune ``f > threshold``
        states (reporting ``threshold + 1`` on excess) and degrade to a
        ``lower ≤ ged ≤ upper`` bounded verdict on budget exhaustion.
    vertex_order:
        Mapping order as dense ``r`` indices; defaults to ``0..n-1``.
    improved_h / q / h_tau / max_remaining:
        ``improved_h=False`` is the plain remaining-label heuristic
        (:func:`~repro.ged.heuristics.label_heuristic`); ``True`` adds
        the gated local-label term of Algorithm 8 with q-gram length
        ``q``, cap ``h_tau`` and remainder gate ``max_remaining`` —
        the same configuration ``make_local_label_heuristic`` builds.
    subgraph_cache:
        Memo for the gated term's subgraph profiles, normally
        :attr:`VerificationCache.subgraph_cache` so extraction is paid
        once per distinct remainder across the whole join.

    Raises
    ------
    ParameterError
        On a negative threshold, mismatched directedness, or an invalid
        vertex order.
    SearchExhaustedError
        If an unbounded search empties its queue (cannot happen for
        simple graphs; mirrors the object backend's discipline).
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
    s_edges = cs.edge_list
    num_s_edges = cs.num_edges

    # ---- per-search tables ------------------------------------------------
    # Label-count arrays are sized to the union of both graphs' label ids.
    num_vl = max(cr.max_vlab, cs.max_vlab) + 1
    num_el = max(cr.max_elab, cs.max_elab) + 1

    # r-side remainder label counts per depth d (vertices order[d:], and
    # edges with >= 1 endpoint at position >= d).
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

    # Full s-side label counts (per pop these are copied and decremented).
    sv_full = [0] * num_vl
    for label_id in svlab:
        sv_full[label_id] += 1
    se_full = [0] * num_el
    for _x, _y, el in s_edges:
        se_full[el] += 1

    # Original-vertex remainder sets per depth, for the gated term.
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

    counter = itertools.count()
    expanded = 0
    generated = 0

    # ---- initial state ----------------------------------------------------
    iv0 = 0
    rv0 = rv_depth[0]
    for label_id in range(num_vl):
        a, b = rv0[label_id], sv_full[label_id]
        iv0 += a if a < b else b
    ie0 = 0
    re0 = re_depth[0]
    for label_id in range(num_el):
        a, b = re0[label_id], se_full[label_id]
        ie0 += a if a < b else b
    start_f = (max(n, m) - iv0) + (max(resize[0], num_s_edges) - ie0)
    if gated and n and m and start_f <= h_tau and (
        max_remaining is None or (n <= max_remaining and m <= max_remaining)
    ):
        extra = _gated_extra(
            cr, cs, r_rest_sets[0], 0, q, h_tau, subgraph_cache
        )
        if extra > start_f:
            start_f = extra

    if n == 0:
        distance = m + num_s_edges
        if threshold is not None and distance > threshold:
            return GedSearchResult(threshold + 1, 0, 0, True)
        return GedSearchResult(distance, 0, 0, False)

    # State: (f, -depth, tie, g, mapping, used-bitmask).
    heap: List[Tuple[int, int, int, int, Tuple[int, ...], int]] = []
    if threshold is None or start_f <= threshold:
        heapq.heappush(heap, (start_f, -0, next(counter), 0, (), 0))
        generated += 1

    meter = budget.start() if budget is not None else None
    sv = sv_full[:]
    se = se_full[:]

    while heap:
        if meter is not None and not meter.tick():
            lower = heap[0][0]
            _bf, _bk, _bt, bg, bmapping, bused = heap[0]
            upper = _greedy_upper_int(cr, cs, order, bmapping, bused, bg)
            return GedSearchResult(
                upper,
                expanded,
                generated,
                False,
                budget_exhausted=True,
                lower=lower,
                upper=upper,
            )
        f, _neg_k, _tie, g, mapping, used = heapq.heappop(heap)
        k = len(mapping)
        expanded += 1
        if k == n:
            return GedSearchResult(g, expanded, generated, False)

        k1 = k + 1
        u = order[k]
        u_row = u * n

        # --- rebuild the s-side remainder counters for this expansion ---
        sv[:] = sv_full
        se[:] = se_full
        sv_size = m
        se_size = num_s_edges
        uu = used
        v0 = 0
        while uu:
            if uu & 1:
                sv[svlab[v0]] -= 1
                sv_size -= 1
                for w, el in s_incident[v0]:
                    if w < v0 and (used >> w) & 1:
                        se[el] -= 1
                        se_size -= 1
            uu >>= 1
            v0 += 1

        # Base intersections against the child depth's r-side tables.
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

        # u's edges to the mapped part, and the image -> position map.
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
            if threshold is not None and g2 > threshold:
                continue

            # --- incremental remainder counters for the child ------------
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
                g2 += sv_size2 + se_size2
                h2 = 0
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
            f2 = g2 + h2
            if threshold is not None and f2 > threshold:
                continue
            heapq.heappush(
                heap, (f2, -k1, next(counter), g2, mapping + (v,), used2)
            )
            generated += 1

    if threshold is None:
        raise SearchExhaustedError(
            "unbounded compiled GED search exhausted without a goal"
        )
    return GedSearchResult(threshold + 1, expanded, generated, True)
