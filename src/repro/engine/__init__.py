"""The staged execution engine behind every join/search entry point.

This package turns the GSimJoin pipeline into an explicit, inspectable
machine: :func:`~repro.engine.plan.build_plan` assembles a
:class:`~repro.engine.plan.JoinPlan` — an ordered list of first-class
stage objects (:mod:`repro.engine.stages`) — from a
:class:`~repro.engine.options.GSimJoinOptions`, and one
:class:`~repro.engine.executor.Executor` drives that plan for the
in-memory joins (self-join, R×S, pooled), the sharded join and the
search index alike, threading verification budgets, the
compiled-verifier cache, resume journals and fault injection
uniformly.  Each stage reports survivor counts and wall time into
:class:`~repro.engine.result.StageStatistics` rows on the run's
:class:`~repro.engine.result.JoinStatistics`.

The public entry points live in ``repro.core`` (re-exported by
``repro``): ``repro.core.join`` holds the one in-memory driver, and the
out-of-core driver, :func:`~repro.engine.sharded.gsim_join_sharded`, is
defined in :mod:`repro.engine.sharded`.  Advanced callers can build
and inspect plans directly (see ``docs/ARCHITECTURE.md``).  The
per-pair filter cascade always runs in the paper's order: global
label, count, then local label when enabled.
"""

from repro.engine.executor import Executor
from repro.engine.options import GSimJoinOptions
from repro.engine.plan import JoinPlan, build_plan
from repro.engine.sharded import result_fingerprint
from repro.engine.result import (
    BoundedPair,
    JoinResult,
    JoinStatistics,
    StageStatistics,
)
from repro.engine.stages import VerifyOutcome

__all__ = [
    "Executor",
    "result_fingerprint",
    "GSimJoinOptions",
    "JoinPlan",
    "build_plan",
    "BoundedPair",
    "JoinResult",
    "JoinStatistics",
    "StageStatistics",
    "VerifyOutcome",
]
