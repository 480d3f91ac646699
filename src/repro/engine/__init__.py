"""The staged execution engine behind every join/search entry point.

This package turns the GSimJoin pipeline into an explicit, inspectable
machine: :func:`~repro.engine.plan.build_plan` assembles a
:class:`~repro.engine.plan.JoinPlan` — an ordered list of first-class
stage objects (:mod:`repro.engine.stages`) — from a
:class:`~repro.engine.options.GSimJoinOptions`, and one
:class:`~repro.engine.executor.Executor` drives that plan for the
self-join, the R×S join, the parallel join and the search index alike,
threading verification budgets, the compiled-verifier cache, resume
journals and fault injection uniformly.  Each stage reports survivor
counts and wall time into
:class:`~repro.engine.result.StageStatistics` rows on the run's
:class:`~repro.engine.result.JoinStatistics`.

The public API (``repro.core`` / ``repro``) is unchanged — the four
entry points are thin wrappers over this engine — but advanced callers
can build and inspect plans directly (see ``docs/ARCHITECTURE.md``).
The per-pair filter cascade always runs in the paper's order,
:data:`~repro.engine.plan.DEFAULT_FILTER_ORDER`.
"""

from repro.engine.executor import (
    Executor,
    execute_rs_join,
    execute_self_join,
)
from repro.engine.options import GSimJoinOptions
from repro.engine.parallel import execute_parallel_join
from repro.engine.plan import DEFAULT_FILTER_ORDER, JoinPlan, build_plan
from repro.engine.sharded import execute_sharded_join, result_fingerprint
from repro.engine.result import (
    BoundedPair,
    JoinResult,
    JoinStatistics,
    StageStatistics,
)
from repro.engine.verify import VerifyOutcome, verify_pair

__all__ = [
    "Executor",
    "execute_self_join",
    "execute_rs_join",
    "execute_parallel_join",
    "execute_sharded_join",
    "result_fingerprint",
    "GSimJoinOptions",
    "JoinPlan",
    "build_plan",
    "DEFAULT_FILTER_ORDER",
    "BoundedPair",
    "JoinResult",
    "JoinStatistics",
    "StageStatistics",
    "VerifyOutcome",
    "verify_pair",
]
