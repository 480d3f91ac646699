"""Public entry point of the out-of-core sharded self-join.

:func:`gsim_join_sharded` is the bounded-memory sibling of
:func:`repro.core.join.gsim_join`: same join semantics — identical
result pairs, asserted by :func:`repro.engine.sharded.
result_fingerprint` — but the collection is streamed from disk, banded
by size so the size filter prunes whole shard pairs, processed shard
pair by shard pair under a memory budget with results spilled to disk,
and recoverable from a crash at any point via the atomically-updated run
manifest (see :mod:`repro.engine.sharded` and ``docs/ROBUSTNESS.md``).
"""

from __future__ import annotations

import os
from typing import Optional, Sequence, Union

from repro.engine.options import GSimJoinOptions
from repro.engine.result import JoinResult
from repro.engine.sharded import execute_sharded_join, result_fingerprint
from repro.graph.graph import Graph
from repro.runtime.budget import VerificationBudget
from repro.runtime.faults import FaultPlan

__all__ = ["gsim_join_sharded", "result_fingerprint"]


def gsim_join_sharded(
    source: Union[str, os.PathLike, Sequence[Graph]],
    tau: int,
    options: Optional[GSimJoinOptions] = None,
    *,
    spill_dir: Union[str, os.PathLike],
    shards: int = 4,
    memory_budget_mb: Optional[float] = None,
    resume: bool = False,
    budget: Optional[VerificationBudget] = None,
    workers: int = 1,
    fault: Optional[FaultPlan] = None,
    max_retries: int = 2,
    retry_backoff: float = 0.1,
    fsync_interval: Optional[int] = None,
    on_error: str = "raise",
) -> JoinResult:
    """Out-of-core self-join: Algorithm 1 over size-banded shards.

    ``source`` is preferably the *path* of a collection file in the
    library's text format — it is streamed, never fully loaded — or a
    graph sequence for convenience (scattered through the same shard
    files; labels round-trip as strings).  All working state lives
    under ``spill_dir``: the shard files, one journal and one
    JSONL results queue per shard pair, and ``manifest.json``, the
    atomically-updated recovery manifest.

    Knobs
    -----
    ``shards``
        Number of size bands.  Band pairs whose size gap exceeds
        ``tau`` are skipped without opening either file (the size
        filter, lifted to the partition level).
    ``memory_budget_mb``
        Logical cap on resident graph data.  A shard pair that cannot
        fit degrades to sub-shard combos (split level doubles each
        retry) until it fits or single-graph sub-shards still exceed
        the cap (:class:`~repro.exceptions.MemoryBudgetError`).
    ``resume``
        Continue the run recorded in ``spill_dir`` after a crash or
        kill: ``done`` shard pairs are trusted from the manifest,
        interrupted ones replay their journal and verify only the
        remainder — the merged result is bit-identical to an
        uninterrupted run.  Without ``resume``, an existing manifest
        raises :class:`~repro.exceptions.CheckpointError`.
    ``workers``
        Verify each shard pair's fresh candidates on a process pool
        (reusing the fault-tolerant parallel chunk runner).
    ``max_retries`` / ``retry_backoff``
        Transient-``OSError`` policy per shard pair (capped exponential
        backoff), and the worker pool's chunk retry policy.
    ``fsync_interval``
        Per-pair journal durability (see :class:`~repro.runtime.
        journal.JoinJournal`).
    ``on_error``
        ``"skip"`` streams past corrupt graphs exactly like
        :func:`repro.graph.io.load_graphs` lenient mode.

    ``budget`` and ``fault`` carry the usual robustness semantics of
    :func:`~repro.core.join.gsim_join`.
    """
    return execute_sharded_join(
        source,
        tau,
        options,
        spill_dir=spill_dir,
        shards=shards,
        memory_budget_mb=memory_budget_mb,
        resume=resume,
        budget=budget,
        workers=workers,
        fault=fault,
        max_retries=max_retries,
        retry_backoff=retry_backoff,
        fsync_interval=fsync_interval,
        on_error=on_error,
    )
