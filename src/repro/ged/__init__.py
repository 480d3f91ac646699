"""Graph edit distance computation: A* search, heuristics, mapping costs."""

from repro.ged.approximate import bipartite_upper_bound
from repro.ged.astar import (
    GedSearchResult,
    ged_within,
    graph_edit_distance,
    graph_edit_distance_detailed,
)
from repro.ged.compiled import (
    CompiledGraph,
    LabelInterner,
    VerificationCache,
    compile_graph,
    compiled_ged_detailed,
)
from repro.ged.cost import induced_edit_cost
from repro.ged.dfs import DfsSearchResult, dfs_ged
from repro.ged.heuristics import (
    Heuristic,
    label_heuristic,
    make_local_label_heuristic,
    zero_heuristic,
)
from repro.ged.reference import brute_force_ged
from repro.ged.vertex_order import (
    input_vertex_order,
    mismatch_vertex_order,
    spanning_tree_vertex_order,
)

__all__ = [
    "bipartite_upper_bound",
    "graph_edit_distance",
    "graph_edit_distance_detailed",
    "ged_within",
    "GedSearchResult",
    "CompiledGraph",
    "LabelInterner",
    "VerificationCache",
    "compile_graph",
    "compiled_ged_detailed",
    "induced_edit_cost",
    "dfs_ged",
    "DfsSearchResult",
    "brute_force_ged",
    "Heuristic",
    "zero_heuristic",
    "label_heuristic",
    "make_local_label_heuristic",
    "input_vertex_order",
    "spanning_tree_vertex_order",
    "mismatch_vertex_order",
]
