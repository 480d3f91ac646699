"""Approximate graph edit distance: the bipartite upper bound.

The paper's related-work section surveys suboptimal GED methods used
when the exact A* is too expensive, among them bipartite-assignment
approximations (Riesen & Bunke).  :func:`bipartite_upper_bound` is that
representative: match vertices by local star cost with the Hungarian
algorithm, then price the induced edit script (an upper bound by
construction).  The DFS verifier (:mod:`repro.ged.dfs`) starts from it
as its incumbent; the test suite checks upper >= exact.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.ged.cost import induced_edit_cost
from repro.graph.graph import Graph, Vertex
from repro.matching.hungarian import hungarian
from repro.matching.stars import star_distance, star_multiset

__all__ = ["bipartite_upper_bound"]


def bipartite_upper_bound(r: Graph, s: Graph) -> int:
    """Assignment-based GED upper bound (Riesen & Bunke style).

    Vertices of ``r`` and ``s`` are matched by the star edit distance of
    their local structures via the Hungarian algorithm (padding with
    deletion/insertion slots); the matching induces a full vertex
    mapping whose exact edit cost upper-bounds the distance.  Runs in
    ``O((n+m)^3)``.
    """
    r_vertices = list(r.vertices())
    s_vertices = list(s.vertices())
    n, m = len(r_vertices), len(s_vertices)
    if n == 0 and m == 0:
        return 0

    r_stars = star_multiset(r)
    s_stars = star_multiset(s)
    size = n + m  # full square: deletions and insertions both explicit
    big = [[0.0] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            if i < n and j < m:
                big[i][j] = star_distance(r_stars[i], s_stars[j])
            elif i < n:
                # Deleting r_i: vertex + its edges.
                big[i][j] = 1.0 + r.degree(r_vertices[i])
            elif j < m:
                # Inserting s_j.
                big[i][j] = 1.0 + s.degree(s_vertices[j])
            else:
                big[i][j] = 0.0
    assignment, _ = hungarian(big)

    mapping: Dict[Vertex, Optional[Vertex]] = {}
    for i, u in enumerate(r_vertices):
        j = assignment[i]
        mapping[u] = s_vertices[j] if j < m else None
    return induced_edit_cost(r, s, mapping)
