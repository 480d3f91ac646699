"""GSimJoin — graph similarity joins with edit distance constraints.

A from-scratch reproduction of *Efficient Graph Similarity Joins with
Edit Distance Constraints* (Zhao, Xiao, Lin, Wang — ICDE 2012).

Quickstart::

    from repro import Graph, GSimJoinOptions, assign_ids, gsim_join

    graphs = assign_ids([...])             # labeled simple graphs
    result = gsim_join(graphs, tau=2, options=GSimJoinOptions.full(q=4))
    for rid, sid in result.pairs:
        print(rid, sid)
    print(result.stats.summary())

Package map:

* :mod:`repro.core` — the public join/search API: ``gsim_join`` and
  friends, plus re-exports of the filter primitives;
* :mod:`repro.engine` — the staged execution engine underneath it:
  explicit join plans of first-class stages, one executor for every
  entry point, per-stage statistics (``docs/ARCHITECTURE.md``);
* :mod:`repro.graph` — the labeled-graph substrate (type, IO,
  generators, edit operations, isomorphism);
* :mod:`repro.ged` — exact graph edit distance via A* with the paper's
  improved vertex order and heuristic;
* :mod:`repro.matching`, :mod:`repro.setcover` — assignment-problem and
  hitting-set substrates;
* :mod:`repro.runtime` — robustness substrate: verification budgets
  (bounded GED verdicts), the checkpoint/resume journal, and
  deterministic fault injection (``docs/ROBUSTNESS.md``);
* :mod:`repro.baselines` — κ-AT, AppFull and the naive oracle join;
* :mod:`repro.datasets` — seeded AIDS-like / PROTEIN-like workloads and
  the paper's running-example molecules.
"""

from repro.baselines import appfull_join, kat_join, naive_join
from repro.core import (
    BoundedPair,
    GSimIndex,
    GSimJoinOptions,
    JoinResult,
    JoinStatistics,
    StageStatistics,
    extract_qgrams,
    gsim_join,
    gsim_join_parallel,
    gsim_join_rs,
    gsim_join_sharded,
    result_fingerprint,
)
from repro.exceptions import (
    CheckpointError,
    GraphError,
    GraphFormatError,
    ParameterError,
    ReproError,
    SearchExhaustedError,
)
from repro.runtime import FaultPlan, VerificationBudget
from repro.ged import brute_force_ged, ged_within, graph_edit_distance
from repro.graph import (
    Graph,
    are_isomorphic,
    assign_ids,
    collection_statistics,
    load_graphs,
    save_graphs,
)

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "assign_ids",
    "load_graphs",
    "save_graphs",
    "are_isomorphic",
    "collection_statistics",
    "gsim_join",
    "gsim_join_rs",
    "gsim_join_parallel",
    "gsim_join_sharded",
    "result_fingerprint",
    "GSimIndex",
    "GSimJoinOptions",
    "JoinResult",
    "JoinStatistics",
    "StageStatistics",
    "BoundedPair",
    "VerificationBudget",
    "FaultPlan",
    "extract_qgrams",
    "graph_edit_distance",
    "ged_within",
    "brute_force_ged",
    "kat_join",
    "appfull_join",
    "naive_join",
    "ReproError",
    "GraphError",
    "GraphFormatError",
    "ParameterError",
    "SearchExhaustedError",
    "CheckpointError",
    "__version__",
]
