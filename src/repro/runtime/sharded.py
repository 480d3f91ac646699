"""Out-of-core substrate: memory budgets, spill queues, shard manifests.

The sharded join (:mod:`repro.engine.sharded`) processes a collection
too large for RAM as a sequence of *shard pairs*, each small enough to
fit.  This module provides the three substrate pieces, kept free of any
graph/engine dependency so the whole runtime layer stays at the bottom
of the layering DAG:

* :class:`MemoryBudget` — logical working-set accounting with a hard
  cap; exceeding it raises
  :class:`~repro.exceptions.MemoryBudgetError`, which the driver treats
  as a *degrade* signal (retry the shard pair at a finer split level),
  not a failure;
* :class:`SpillQueue` — an append-only JSONL queue on disk with an
  end-of-queue sentinel, so shard results stream through bounded
  memory and a torn queue is detectable at the merge;
* :class:`ShardManifest` — the run's single source of recovery truth: a
  JSON document updated *atomically* on every state change (tempfile +
  ``os.replace`` + fsync, via
  :func:`repro.runtime.journal.replace_file`), recording the partition
  and each shard pair's status, attempts, split level and statistics
  snapshot.  A crash at any point — mid-shard, mid-merge, mid-manifest
  — leaves either the previous or the next manifest state, never a torn
  one;
* :func:`plan_bands` / :func:`qualifying_shard_pairs` — the size-band
  partitioning arithmetic: graphs are banded by total size
  (``|V| + |E|``), and a pair of bands whose size gap exceeds ``tau``
  is skipped wholesale because the size filter would prune every cross
  pair (``||V_r|−|V_s|| + ||E_r|−|E_s|| ≥ |size_r − size_s| > τ``).
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, IO, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import CheckpointError, MemoryBudgetError, ParameterError
from repro.runtime.journal import replace_file

__all__ = [
    "MemoryBudget",
    "SpillQueue",
    "ShardManifest",
    "plan_bands",
    "qualifying_shard_pairs",
]


class MemoryBudget:
    """Logical working-set accounting against a hard byte cap.

    The driver *charges* the budget with size estimates before
    materializing each resident structure (shard graphs, q-gram
    profiles, the inverted index) and *releases* when the structure is
    dropped.  A charge that would exceed the cap raises
    :class:`~repro.exceptions.MemoryBudgetError` **before** the
    allocation happens, so the join can degrade to smaller sub-shards
    instead of being OOM-killed mid-flight.  ``limit=None`` disables
    the cap but keeps the accounting (``peak`` is still tracked).
    """

    __slots__ = ("limit", "used", "peak")

    def __init__(self, limit: Optional[int] = None) -> None:
        """A budget capped at ``limit`` bytes (``None``: unlimited)."""
        if limit is not None and not 0 < limit < math.inf:
            raise ParameterError(
                f"memory limit must be finite and > 0, got {limit}"
            )
        self.limit = limit
        self.used = 0
        self.peak = 0

    @classmethod
    def from_mb(cls, megabytes: Optional[float]) -> "MemoryBudget":
        """A budget capped at ``megabytes`` MiB (``None``: unlimited)."""
        if megabytes is None:
            return cls(None)
        if not 0 < megabytes < math.inf:
            raise ParameterError(
                f"memory budget must be finite and > 0 MB, got {megabytes}"
            )
        limit = int(megabytes * 1024 * 1024)
        if limit < 1:
            raise ParameterError(
                f"memory budget must be at least one byte, got {megabytes} MB"
            )
        return cls(limit)

    def charge(self, nbytes: int, what: str = "working set") -> None:
        """Account ``nbytes`` of residency; raise before exceeding the cap."""
        if nbytes < 0:
            raise ParameterError(f"charge must be >= 0, got {nbytes}")
        if self.limit is not None and self.used + nbytes > self.limit:
            raise MemoryBudgetError(
                f"{what}: {self.used + nbytes} bytes would exceed the "
                f"{self.limit}-byte memory budget"
            )
        self.used += nbytes
        if self.used > self.peak:
            self.peak = self.used

    def release(self, nbytes: int) -> None:
        """Return ``nbytes`` of residency to the budget."""
        self.used = max(0, self.used - nbytes)

    def reset(self) -> None:
        """Drop all residency accounting (a new shard pair starts clean)."""
        self.used = 0


#: The sentinel key terminating a complete spill queue.
_END_KEY = "spill-end"


class SpillQueue:
    """Append-only JSONL queue of records on disk.

    The writer appends one JSON object per line (single ``write`` +
    flush, exactly the journal's torn-write discipline) and finishes
    with a sentinel line recording the record count, fsynced — so a
    reader can distinguish a *complete* queue from one a crash tore.
    Queues are recreated from scratch on every shard-pair attempt
    (their contents are deterministic replays), so no truncation-repair
    logic is needed: an incomplete queue is simply discarded.
    """

    def __init__(self, path: str, handle: IO[str]) -> None:
        """Internal; use :meth:`create`."""
        self.path = path
        self._handle: Optional[IO[str]] = handle
        self.count = 0

    @classmethod
    def create(cls, path: "str | os.PathLike") -> "SpillQueue":
        """Open a fresh queue at ``path``, truncating any previous one."""
        return cls(os.fspath(path), open(path, "w", encoding="utf-8"))

    def append(self, record: dict) -> None:
        """Append one record (a JSON-representable dict) durably."""
        if self._handle is None:
            raise CheckpointError(f"{self.path}: spill queue is closed")
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        self.count += 1

    def finish(self) -> None:
        """Write the completeness sentinel, fsync, and close."""
        if self._handle is None:
            raise CheckpointError(f"{self.path}: spill queue is closed")
        self._handle.write(json.dumps({_END_KEY: self.count}) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.close()

    def close(self) -> None:
        """Close the underlying file without finishing (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SpillQueue":
        """Context-manager support; closes (unfinished) on exit."""
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        """Close the queue even when the producer dies mid-write."""
        self.close()

    @staticmethod
    def replay(path: "str | os.PathLike") -> Iterator[dict]:
        """Stream the records of a *complete* queue.

        Raises :class:`~repro.exceptions.CheckpointError` if the queue
        lacks its sentinel (the writer crashed mid-queue) or the
        sentinel count disagrees with the records present.
        """
        count = 0
        finished = False
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                if not line.endswith("\n"):
                    break  # torn tail: fall through to the sentinel check
                payload = json.loads(line)
                if _END_KEY in payload:
                    if payload[_END_KEY] != count:
                        raise CheckpointError(
                            f"{path}: spill queue sentinel claims "
                            f"{payload[_END_KEY]} records, found {count}"
                        )
                    finished = True
                    break
                count += 1
                yield payload
        if not finished:
            raise CheckpointError(
                f"{path}: spill queue has no completeness sentinel "
                "(the writer crashed mid-queue)"
            )


def plan_bands(sizes: Sequence[int], shards: int) -> List[List[int]]:
    """Partition positions ``0..len(sizes)-1`` into ``shards`` size bands.

    Positions are ordered by ``(size, position)`` — a total,
    deterministic order — and cut into ``shards`` contiguous chunks of
    near-equal cardinality (the first ``len % shards`` bands take one
    extra).  Every position lands in exactly one band; empty bands are
    dropped (fewer graphs than shards).
    """
    if shards < 1:
        raise ParameterError(f"shards must be >= 1, got {shards}")
    order = sorted(range(len(sizes)), key=lambda pos: (sizes[pos], pos))
    n = len(order)
    base, extra = divmod(n, shards)
    bands: List[List[int]] = []
    start = 0
    for k in range(shards):
        width = base + (1 if k < extra else 0)
        if width == 0:
            continue
        bands.append(order[start : start + width])
        start += width
    return bands


def qualifying_shard_pairs(
    ranges: Sequence[Tuple[int, int]], tau: int
) -> List[Tuple[int, int]]:
    """The shard pairs ``(a, b), a <= b`` the size filter cannot skip.

    ``ranges[k]`` is band ``k``'s ``(min_size, max_size)``.  A cross
    pair of bands ``a <= b`` qualifies iff some ``r ∈ a, s ∈ b`` could
    pass the size filter, i.e. the smallest possible size gap
    ``max(0, min_b − max_a, min_a − max_b)`` is at most ``tau``; the
    diagonal always qualifies.  Every globally qualifying graph pair
    therefore falls in exactly one qualifying shard pair (each graph
    lives in exactly one band).
    """
    if tau < 0:
        raise ParameterError(f"tau must be >= 0, got {tau}")
    pairs: List[Tuple[int, int]] = []
    for a in range(len(ranges)):
        for b in range(a, len(ranges)):
            lo_a, hi_a = ranges[a]
            lo_b, hi_b = ranges[b]
            gap = max(0, lo_b - hi_a, lo_a - hi_b)
            if gap <= tau:
                pairs.append((a, b))
    return pairs


_MANIFEST_KIND = "gsimjoin-shard-manifest"
_MANIFEST_VERSION = 1

#: Shard-pair lifecycle states recorded in the manifest.
PAIR_PENDING = "pending"
PAIR_RUNNING = "running"
PAIR_DONE = "done"


class ShardManifest:
    """The sharded join's atomically-updated recovery manifest.

    One JSON document per run, living in the spill directory.  Every
    mutation rewrites the whole document through
    :func:`~repro.runtime.journal.replace_file` (tempfile +
    ``os.replace`` + fsync), so the on-disk manifest is always a
    consistent snapshot of some prefix of the run: shard-pair statuses
    move ``pending → running → done`` and a pair is marked ``done``
    only after its results queue carries its completeness sentinel —
    therefore resume can trust ``done`` pairs completely and simply
    re-run the rest (their journals make the re-run a cheap replay).
    """

    def __init__(self, path: str, data: dict) -> None:
        """Internal; use :meth:`create` or :meth:`load`."""
        self.path = path
        self.data = data

    # --- Construction ---------------------------------------------------

    @classmethod
    def create(cls, path: "str | os.PathLike", meta: dict) -> "ShardManifest":
        """Create a fresh manifest for run ``meta`` (atomic write)."""
        manifest = cls(
            os.fspath(path),
            {
                "kind": _MANIFEST_KIND,
                "version": _MANIFEST_VERSION,
                "meta": json.loads(json.dumps(meta, sort_keys=True)),
                "partition": None,
                "pairs": {},
                "complete": None,
            },
        )
        manifest._write()
        return manifest

    @classmethod
    def load(cls, path: "str | os.PathLike", meta: dict) -> "ShardManifest":
        """Load an existing manifest, validating it belongs to ``meta``.

        Raises :class:`~repro.exceptions.CheckpointError` on a missing
        or foreign manifest — resuming someone else's run would merge
        unrelated results.
        """
        path = os.fspath(path)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise CheckpointError(f"{path}: cannot read manifest: {exc}") from exc
        except ValueError as exc:
            raise CheckpointError(f"{path}: corrupt manifest: {exc}") from exc
        if not isinstance(data, dict) or data.get("kind") != _MANIFEST_KIND:
            raise CheckpointError(f"{path}: not a sharded-join manifest")
        if data.get("version") != _MANIFEST_VERSION:
            raise CheckpointError(
                f"{path}: manifest version {data.get('version')!r}, "
                f"expected {_MANIFEST_VERSION}"
            )
        expected = json.loads(json.dumps(meta, sort_keys=True))
        if data.get("meta") != expected:
            raise CheckpointError(
                f"{path}: manifest was written by a different run "
                "(collection/tau/options/shards mismatch); refusing to resume"
            )
        return cls(path, data)

    @staticmethod
    def exists(path: "str | os.PathLike") -> bool:
        """True when a manifest file is present at ``path``."""
        return os.path.exists(path)

    def _write(self) -> None:
        """Atomically publish the current state to disk."""
        replace_file(self.path, json.dumps(self.data, sort_keys=True) + "\n")

    # --- Partition ------------------------------------------------------

    @property
    def partition(self) -> Optional[List[dict]]:
        """The recorded shard descriptors, or ``None`` before banding."""
        return self.data["partition"]

    def set_partition(
        self, shards: List[dict], pair_keys: Sequence[str]
    ) -> None:
        """Record the banding outcome and seed every shard pair pending.

        Called exactly once, *after* all shard files are written and
        fsynced — a crash before this write re-partitions from scratch,
        a crash after it trusts the shard files on disk.
        """
        self.data["partition"] = shards
        self.data["pairs"] = {
            key: {"status": PAIR_PENDING, "attempts": 0, "split": 0}
            for key in pair_keys
        }
        self._write()

    # --- Shard pairs ----------------------------------------------------

    @property
    def pairs(self) -> Dict[str, dict]:
        """Per-shard-pair state, keyed ``"<a>-<b>"``."""
        return self.data["pairs"]

    def pair(self, key: str) -> dict:
        """The state dict of shard pair ``key``."""
        return self.data["pairs"][key]

    def update_pair(self, key: str, **fields: object) -> None:
        """Merge ``fields`` into pair ``key``'s state and publish."""
        self.data["pairs"][key].update(fields)
        self._write()

    # --- Completion -----------------------------------------------------

    @property
    def complete(self) -> Optional[dict]:
        """The merge summary, or ``None`` until the merge has finished."""
        return self.data["complete"]

    def set_complete(self, summary: dict) -> None:
        """Record that the merge finished (the run's final state)."""
        self.data["complete"] = summary
        self._write()
