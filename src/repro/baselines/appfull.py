"""The AppFull baseline (Zeng et al., VLDB 2009) — star-structure bounds.

AppFull works pair-at-a-time with no index: for each pair it computes
the star mapping distance ``μ`` via bipartite matching, prunes when the
derived lower bound exceeds ``τ``, accepts immediately when the
matching-induced mapping's edit cost (an upper bound) is within ``τ``,
and otherwise leaves the pair as a candidate (*Cand-2*).  The paper ran
the authors' binary, which only reports candidates and filtering time;
our reimplementation can additionally verify the candidates with A*,
completing the join.

Two reproduction notes: edge labels are ignored in the star signatures
(as in the released binary — the paper strips edge labels for this
comparison), and the nested loop gives the characteristic
near-constant-in-``τ`` filtering time of Figures 7(m)–(n).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.engine.result import JoinResult, JoinStatistics
from repro.exceptions import ParameterError
from repro.ged.astar import graph_edit_distance_detailed
from repro.ged.cost import induced_edit_cost
from repro.graph.graph import Graph
from repro.matching.stars import mapping_distance, star_ged_lower_bound

__all__ = ["appfull_bounds", "appfull_join", "AppFullPairBounds"]


@dataclass(frozen=True)
class AppFullPairBounds:
    """Star-based GED bounds for one pair."""

    mapping_distance: float  #: μ(r, s)
    lower_bound: int  #: ⌈μ / max(4, γ+1)⌉  <=  ged
    upper_bound: int  #: induced cost of the optimal star assignment >= ged


def appfull_bounds(r: Graph, s: Graph) -> AppFullPairBounds:
    """Compute AppFull's lower and upper GED bounds for ``(r, s)``."""
    mu, mapping = mapping_distance(r, s)
    lower = star_ged_lower_bound(r, s, mu=mu)
    upper = induced_edit_cost(r, s, mapping)
    return AppFullPairBounds(mu, lower, upper)


def appfull_join(
    graphs: Sequence[Graph],
    tau: int,
    verify: bool = True,
) -> JoinResult:
    """AppFull self-join in nested-loop mode.

    With ``verify=True`` the Cand-2 pairs (lower bound ≤ τ < upper
    bound) are resolved with the A* verifier so the result is complete;
    with ``verify=False`` only the bound tests run (the behaviour of the
    released binary the paper compared against) and Cand-2 pairs are
    *excluded* from the results — ``stats.cand2`` then tells how much is
    left unresolved.

    Phase accounting: the bound computations are ``candidate_time`` (the
    paper's "filtering time"); A* verification is ``verify_time``.
    """
    if tau < 0:
        raise ParameterError(f"tau must be >= 0, got {tau}")
    ids = [g.graph_id for g in graphs]
    if any(gid is None for gid in ids) or len(set(ids)) != len(ids):
        raise ParameterError("graphs need distinct ids; use assign_ids() first")
    if any(g.is_directed for g in graphs):
        raise ParameterError("the AppFull baseline supports undirected graphs only")

    stats = JoinStatistics(num_graphs=len(graphs), tau=tau, q=0)
    result = JoinResult(stats=stats)
    pending: List[Tuple[int, int]] = []

    started = time.perf_counter()
    n = len(graphs)
    for i in range(n):
        for j in range(i + 1, n):
            stats.cand1 += 1
            bounds = appfull_bounds(graphs[i], graphs[j])
            if bounds.lower_bound > tau:
                stats.pruned_by_count += 1
                continue
            if bounds.upper_bound <= tau:
                result.pairs.append((graphs[i].graph_id, graphs[j].graph_id))
                continue
            stats.cand2 += 1
            pending.append((i, j))
    stats.candidate_time += time.perf_counter() - started

    if verify:
        started = time.perf_counter()
        for i, j in pending:
            ged_started = time.perf_counter()
            search = graph_edit_distance_detailed(graphs[i], graphs[j], threshold=tau)
            stats.ged_time += time.perf_counter() - ged_started
            stats.ged_calls += 1
            stats.ged_expansions += search.expanded
            if search.distance <= tau:
                result.pairs.append((graphs[i].graph_id, graphs[j].graph_id))
        stats.verify_time += time.perf_counter() - started

    stats.results = len(result.pairs)
    return result
