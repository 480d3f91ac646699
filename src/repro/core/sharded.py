"""Public home of the out-of-core sharded self-join.

:func:`gsim_join_sharded` is the bounded-memory sibling of
:func:`repro.core.join.gsim_join`: same join semantics — identical
result pairs, asserted by :func:`result_fingerprint` — but the
collection is streamed from disk, banded by size so the size filter
prunes whole shard pairs, processed shard pair by shard pair under a
memory budget with results spilled to disk, and recoverable from a
crash at any point via the atomically-updated run manifest.  Both are
defined in :mod:`repro.engine.sharded` and re-exported here; see
``docs/ROBUSTNESS.md`` for the recovery contract.
"""

from repro.engine.sharded import gsim_join_sharded, result_fingerprint

__all__ = ["gsim_join_sharded", "result_fingerprint"]
