"""Naive all-pairs join — the ground truth.

Verifies every pair (optionally after the provably sound size filter)
with the threshold-bounded A*.  Quadratic in the collection and
exponential per pair: used for the "Real Result" series in the figures
and as the oracle the test suite compares every filtered join against.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.engine.count_filter import passes_size_filter
from repro.engine.result import JoinResult, JoinStatistics
from repro.exceptions import ParameterError
from repro.ged.astar import graph_edit_distance_detailed
from repro.graph.graph import Graph

__all__ = ["naive_join"]


def naive_join(
    graphs: Sequence[Graph],
    tau: int,
    use_size_filter: bool = True,
) -> JoinResult:
    """All-pairs threshold join.

    ``use_size_filter=False`` disables even the size filter, making the
    run a pure oracle (slower; meant for small test collections).
    """
    if tau < 0:
        raise ParameterError(f"tau must be >= 0, got {tau}")
    ids = [g.graph_id for g in graphs]
    if any(gid is None for gid in ids) or len(set(ids)) != len(ids):
        raise ParameterError("graphs need distinct ids; use assign_ids() first")

    stats = JoinStatistics(num_graphs=len(graphs), tau=tau, q=0)
    result = JoinResult(stats=stats)
    started = time.perf_counter()
    n = len(graphs)
    for i in range(n):
        for j in range(i + 1, n):
            if use_size_filter and not passes_size_filter(graphs[i], graphs[j], tau):
                stats.pruned_by_size += 1
                continue
            stats.cand1 += 1
            stats.cand2 += 1
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
