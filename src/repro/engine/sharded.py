"""Out-of-core sharded self-join with bounded memory and crash recovery.

:func:`execute_sharded_join` runs Algorithm 1's join over a collection
that need not fit in memory.  The collection is streamed twice
(:func:`repro.graph.io.load_graphs_iter`): once to learn every graph's
size ``|V| + |E|`` and fingerprint the run, once to scatter the graphs
into *size bands* — contiguous ranges of the size-sorted order, written
as shard files under the spill directory.  Banding makes the paper's
size filter a *partition-level* prune: a pair of bands whose size gap
exceeds ``tau`` cannot contain a single qualifying pair
(``||V_r|−|V_s|| + ||E_r|−|E_s|| ≥ |size_r − size_s| > τ``), so the
whole shard pair is skipped before either file is opened.

Each qualifying shard pair is then processed independently, and the
per-pair artifacts make the run both *bounded* and *recoverable*:

* residency is charged against a :class:`~repro.runtime.sharded.
  MemoryBudget` before each sub-shard combo; exceeding it raises
  :class:`~repro.exceptions.MemoryBudgetError`, which the driver treats
  as a degradation signal — the shard pair retries at the next *split
  level*, processing sub-shard combos small enough to fit (the inverted
  index is rebuilt per combo, so its residency is bounded by the combo,
  never the collection);
* a loaded sub-shard slice (graphs, unsorted q-gram profiles, label
  multisets) is carried to the next combo if that combo — of the same
  shard pair or the next — reads it too; every other slice is dropped
  before that combo charges the budget, which charges carried slices
  again, so residency never exceeds one combo's charge.  At split 0
  with band-adjacent qualifying pairs (``0-0, 0-1, 1-1, 1-2, …``) each
  graph is loaded and extracted once per join.  Each combo still
  builds its own vocabulary, sort and prefixes, so carrying changes no
  statistic, journal record or split level;
* verified outcomes stream through a per-pair
  :class:`~repro.runtime.journal.JoinJournal` keyed by **global scan
  positions** ``(hi, lo)`` — stable across split levels, so work
  survives degradation and crashes alike;
* candidates and results spill to disk-backed JSONL queues
  (:class:`~repro.runtime.sharded.SpillQueue`), never accumulating in
  memory;
* the run manifest (:class:`~repro.runtime.sharded.ShardManifest`) is
  updated atomically at every lifecycle transition; a crash —
  ``kill -9``, OOM, ENOSPC — at any point resumes by re-running only
  the shard pairs not yet ``done`` (their journals replay the verified
  prefix), then merging, bit-identically to an uninterrupted run.

Every sub-shard combo runs on the driver core of
:mod:`repro.engine.executor`: one executor per combo, its
:meth:`~repro.engine.executor.Executor.scan` in the triangle shape for a
diagonal combo and in the index-then-probe shape for a cross combo, and
:meth:`~repro.engine.executor.Executor.verify_block` for every probe —
journal replay, one fault step per fresh pair, the cascade and GED.
This module owns what is sharded about it: the survey and scatter
passes, combo enumeration under the memory budget, the global
``positions`` that orient and key the pairs, the spill queues (each
candidate spills before it verifies, each result right after), the
manifest and the per-pair statistics snapshots, merged with
:meth:`~repro.engine.result.JoinStatistics.merge`.  With ``workers > 1``
fresh pairs are deferred to the parallel driver's pool.  The driver
runs the scalar cascade: it builds no columnar store per combo.

Transient I/O failures (``OSError``, including injected ENOSPC) retry
the shard pair with capped exponential backoff up to ``max_retries``
before propagating.  The deterministic merge orders records by global
``(lo, hi)`` position, so result order is stable across shard counts,
split levels and resume boundaries; result *pairs* are invariant under
all of them because every per-pair filter is a sound GED lower bound
(only candidate counts and prune attribution shift with the sharding —
see ``docs/ROBUSTNESS.md``).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.engine.executor import (
    Executor,
    Extracted,
    LabelPair,
    Outcome,
    _options_meta,
    bounded_pair,
)
from repro.engine.options import GSimJoinOptions
from repro.engine.parallel import PoolSettings, verify_on_pool
from repro.engine.result import BoundedPair, JoinResult, JoinStatistics
from repro.ged.portfolio import resolve_backend
from repro.exceptions import CheckpointError, MemoryBudgetError, ParameterError
from repro.graph.graph import Graph
from repro.graph.io import dumps_graphs, load_graphs_iter
from repro.grams.qgrams import QGramProfile
from repro.runtime.budget import VerificationBudget
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.journal import JoinJournal
from repro.runtime.sharded import (
    PAIR_DONE,
    PAIR_RUNNING,
    MemoryBudget,
    ShardManifest,
    SpillQueue,
    plan_bands,
    qualifying_shard_pairs,
)

__all__ = ["execute_sharded_join", "sharded_join_meta", "result_fingerprint"]

#: Logical residency estimate per graph: fixed object overhead plus a
#: per-size-unit cost covering the graph, its q-gram profile and its
#: share of the combo's inverted index.  Deliberately coarse — the
#: budget bounds *working-set shape* (how many graphs are resident at
#: once), it is not an allocator.
_GRAPH_OVERHEAD_BYTES = 4096
_BYTES_PER_SIZE_UNIT = 1536

#: Candidate pairs per worker chunk when ``workers > 1``.
_CHUNK_SIZE = 8

_MANIFEST_NAME = "manifest.json"


def _estimate_bytes(sizes: Sequence[int]) -> int:
    """Logical residency of loading the graphs with these sizes."""
    return sum(
        _GRAPH_OVERHEAD_BYTES + _BYTES_PER_SIZE_UNIT * size for size in sizes
    )


def sharded_join_meta(
    n: int,
    ids_sha: str,
    tau: int,
    options: GSimJoinOptions,
    budget: Optional[VerificationBudget],
    shards: int,
) -> dict:
    """The manifest meta identifying one sharded self-join run.

    Everything that changes the run's journal keys or result semantics
    is in here, so :meth:`~repro.runtime.sharded.ShardManifest.load`
    refuses to resume across a changed collection, threshold, option
    set or shard count.
    """
    return {
        "kind": "sharded-self-join",
        "n": n,
        "tau": tau,
        "shards": shards,
        "ids_sha": ids_sha,
        "options": _options_meta(options),
        "budget": (
            None
            if budget is None
            else [budget.max_expansions, budget.max_seconds]
        ),
    }


def result_fingerprint(result: JoinResult) -> str:
    """An order-insensitive sha256 over a result's pairs and undecided.

    The cross-driver equivalence check: the sharded join under any
    shard count, split level, memory budget or resume boundary must
    fingerprint identically to the in-memory :func:`~repro.core.join.
    gsim_join` on the same collection (statistics counters are *not*
    included — candidate counts legitimately differ across shardings;
    the result set may not).
    """
    payload = {
        "pairs": sorted(
            ([r, s] for r, s in result.pairs),
            key=lambda p: (str(p[0]), str(p[1])),
        ),
        "undecided": sorted(
            ([u.r_id, u.s_id, u.lower, u.upper, u.reason] for u in result.undecided),
            key=lambda p: (str(p[0]), str(p[1])),
        ),
    }
    blob = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# --- Partitioning -------------------------------------------------------

Source = Union[str, os.PathLike, Sequence[Graph]]


def _scan_source(source: Source, on_error: str) -> Iterator[Graph]:
    """One streaming pass over the collection (file path or sequence)."""
    if isinstance(source, (str, os.PathLike)):
        return load_graphs_iter(source, on_error=on_error)
    return iter(source)


def _survey(source: Source, on_error: str) -> Tuple[List[int], str]:
    """Pass 1: per-graph sizes plus the run fingerprint, validated.

    Streams the collection once, holding only scalars per graph.
    Raises :class:`~repro.exceptions.ParameterError` on missing or
    duplicate ids and mixed directedness — the same contract as
    :func:`repro.engine.options.validate_collection`, enforced without
    materializing the collection.
    """
    sizes: List[int] = []
    seen_ids = set()
    directedness = set()
    hasher = hashlib.sha256()
    for g in _scan_source(source, on_error):
        if g.graph_id is None:
            raise ParameterError(
                "all graphs need ids; use repro.graph.assign_ids first "
                "(or ids in the collection file)"
            )
        if g.graph_id in seen_ids:
            raise ParameterError(f"duplicate graph id {g.graph_id!r}")
        seen_ids.add(g.graph_id)
        directedness.add(g.is_directed)
        if len(directedness) > 1:
            raise ParameterError(
                "cannot mix directed and undirected graphs in a join"
            )
        sizes.append(g.num_vertices + g.num_edges)
        hasher.update(
            repr(
                (
                    g.graph_id,
                    g.num_vertices,
                    g.num_edges,
                    sorted(g.vertex_label_multiset().items()),
                )
            ).encode("utf-8")
        )
        hasher.update(b"\n")
    return sizes, hasher.hexdigest()[:16]


def _write_shards(
    source: Source,
    on_error: str,
    sizes: Sequence[int],
    shards: int,
    spill_dir: str,
) -> List[dict]:
    """Pass 2: scatter the collection into size-band shard files.

    Bands come from :func:`~repro.runtime.sharded.plan_bands`; each
    band's positions are stored *ascending*, which is also the order
    its graphs appear in the shard file (the pass streams the
    collection in position order), so a sub-shard is simply a
    contiguous slice of the file.  Files are fsynced before this
    function returns — the caller records the partition in the manifest
    only afterwards, so a recorded partition always has its files.
    """
    bands = [sorted(band) for band in plan_bands(sizes, shards)]
    band_of = {}
    for k, band in enumerate(bands):
        for position in band:
            band_of[position] = k
    records: List[dict] = []
    handles = []
    try:
        for k, band in enumerate(bands):
            name = f"shard-{k}.txt"
            handles.append(
                open(os.path.join(spill_dir, name), "w", encoding="utf-8")
            )
            records.append(
                {
                    "index": k,
                    "file": name,
                    "positions": band,
                    "sizes": [sizes[p] for p in band],
                    "min_size": min(sizes[p] for p in band),
                    "max_size": max(sizes[p] for p in band),
                }
            )
        for position, g in enumerate(_scan_source(source, on_error)):
            handles[band_of[position]].write(dumps_graphs([g]))
        for handle in handles:
            handle.flush()
            os.fsync(handle.fileno())
    finally:
        for handle in handles:
            handle.close()
    return records


def _load_slice(path: str, start: int, stop: int) -> List[Graph]:
    """Load shard-file graphs with storage indices in ``[start, stop)``."""
    out: List[Graph] = []
    for idx, g in enumerate(load_graphs_iter(path)):
        if idx >= stop:
            break
        if idx >= start:
            out.append(g)
    return out


#: A sub-shard slice: its shard's partition record and the storage
#: range ``[start, stop)`` it covers in the shard file.
SliceRange = Tuple[dict, int, int]


class _Slice:
    """One loaded sub-shard: its graphs and their global scan positions,
    plus — once the first combo reading it has run
    :meth:`~repro.engine.executor.Executor.extract` — their unsorted
    q-gram profiles and label multisets."""

    __slots__ = ("graphs", "positions", "extracted")

    def __init__(self, graphs: List[Graph], positions: List[int]) -> None:
        self.graphs = graphs
        self.positions = positions
        self.extracted: Optional[Extracted] = None


class _SliceCarry:
    """The loaded slices, kept from one combo to the next that reads them.

    A slice is a pure function of its immutable shard file, so a later
    combo — of the same shard pair or of the next one — may reuse it
    instead of loading and extracting it again.  :meth:`keep` drops
    every other slice before the combo charges the memory budget, so
    what stays resident never exceeds one combo's charge.
    """

    __slots__ = ("spill_dir", "held")

    def __init__(self, spill_dir: str) -> None:
        self.spill_dir = spill_dir
        #: Held slices by shard file and storage range.
        self.held: Dict[Tuple[str, int, int], _Slice] = {}

    def keep(self, ranges: Sequence[SliceRange]) -> None:
        """Drop every held slice that is not one of ``ranges``."""
        held = self.held
        wanted = [(rec["file"], start, stop) for rec, start, stop in ranges]
        self.held = {key: held[key] for key in wanted if key in held}

    def get(self, rec: dict, start: int, stop: int) -> _Slice:
        """The slice ``[start, stop)`` of shard ``rec``, loaded unless held."""
        key = (rec["file"], start, stop)
        piece = self.held.get(key)
        if piece is None:
            graphs = _load_slice(
                os.path.join(self.spill_dir, rec["file"]), start, stop
            )
            piece = self.held[key] = _Slice(
                graphs, rec["positions"][start:stop]
            )
        return piece


def _split_ranges(n: int, parts: int) -> List[Tuple[int, int]]:
    """``parts`` contiguous, non-empty, near-equal ranges covering ``n``."""
    base, extra = divmod(n, parts)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for k in range(parts):
        width = base + (1 if k < extra else 0)
        ranges.append((start, start + width))
        start += width
    return ranges


def _combos(
    n_a: int, n_b: int, is_self: bool, split: int
) -> List[Tuple[Tuple[int, int], Tuple[int, int]]]:
    """The sub-shard range combos of one shard pair at ``split`` level.

    Level ``L`` divides each shard into ``min(2**L, len)`` contiguous
    sub-shards.  A self pair pairs every unordered sub-shard combo
    (``u <= v``; the diagonal runs the triangular self-scan), a cross
    pair the full sub-shard product — so every global graph pair of the
    shard pair falls in exactly one combo at every split level.
    """
    parts_a = _split_ranges(n_a, min(2**split, n_a))
    if is_self:
        return [
            (parts_a[u], parts_a[v])
            for u in range(len(parts_a))
            for v in range(u, len(parts_a))
        ]
    parts_b = _split_ranges(n_b, min(2**split, n_b))
    return [(ra, rb) for ra in parts_a for rb in parts_b]


# --- Per-shard-pair processing ------------------------------------------


def _pair_key(a: int, b: int) -> str:
    return f"{a}-{b}"


def _pair_meta(run_meta: dict, key: str) -> dict:
    """The journal header of one shard pair's journal."""
    return {"kind": "sharded-pair", "pair": key, "run": run_meta}


def _step_io(injector: Optional[FaultInjector]) -> None:
    if injector is not None:
        injector.step_io()


def _run_combo(
    pieces: Sequence[_Slice],
    tau: int,
    options: GSimJoinOptions,
    budget: Optional[VerificationBudget],
    stats: JoinStatistics,
    journal: JoinJournal,
    injector: Optional[FaultInjector],
    cand_q: SpillQueue,
    res_q: SpillQueue,
    pool: PoolSettings,
    spilled: Dict[str, int],
) -> None:
    """One sub-shard combo through the driver core.

    One piece is a diagonal combo — the triangle self-scan of one
    sub-shard; two are a cross combo, the second piece indexed and the
    first probing it.  A piece not yet extracted is extracted here, and
    keeps its profiles and label multisets for the next combo that
    reads it; the global ordering and the prefixes are built for this
    combo alone, as if every piece were fresh.  The pieces' global scan
    positions orient every pair — the later one verifies as ``r``, the
    in-memory scan's probe orientation — and key its journal record
    ``(hi, lo)``, stable across split levels.  Each candidate spills
    before it is verified, each result or undecided pair right after;
    with ``pool.workers > 1`` the fresh pairs are deferred to the
    parallel driver's fault-tolerant pool (the parent keeps the fault
    schedule, stepping once per pair at deferral).  The combo runs the
    scalar cascade: no columnar store is built per combo.
    """
    graphs: List[Graph] = []
    positions: List[int] = []
    for piece in pieces:
        graphs += piece.graphs
        positions += piece.positions
    executor = Executor(
        tau, options, stats, budget=budget, journal=journal,
        injector=injector, positions=positions, io_faults=True,
    )
    profiles: List[QGramProfile] = []
    labels: List[LabelPair] = []
    for piece in pieces:
        if piece.extracted is None:
            piece.extracted = executor.extract(piece.graphs)
        profiles += piece.extracted[0]
        labels += piece.extracted[1]
    executor.prepare(graphs, (profiles, labels))
    split = len(pieces[0].graphs) if len(pieces) > 1 else None
    ids = [g.graph_id for g in graphs]

    def spill_candidate(r: int, s: int) -> None:
        _step_io(injector)
        cand_q.append({"lo": positions[s], "hi": positions[r]})

    def spill_result(r: int, s: int, outcome: Outcome) -> None:
        _step_io(injector)
        lo, hi, id_lo, id_hi = positions[s], positions[r], ids[s], ids[r]
        if outcome.is_result:
            spilled["pair"] += 1
            res_q.append(
                {"kind": "pair", "lo": lo, "hi": hi,
                 "id_lo": id_lo, "id_hi": id_hi}
            )
            return
        spilled["undecided"] += 1
        bounded = bounded_pair(outcome, id_lo, id_hi)
        res_q.append(
            {
                "kind": "undecided",
                "lo": lo,
                "hi": hi,
                "id_lo": id_lo,
                "id_hi": id_hi,
                "lower": bounded.lower,
                "upper": bounded.upper,
                "reason": bounded.reason,
            }
        )

    todo: Optional[List[Tuple[int, int]]] = [] if pool.workers > 1 else None
    for i, candidate_ids in executor.scan(split):
        executor.verify_block(
            i, candidate_ids, spill_result, before=spill_candidate, defer=todo
        )
    if todo:
        started = time.perf_counter()
        for rec in verify_on_pool(
            todo, graphs, tau, executor.options, executor.sorter,
            budget, pool, stats, chunk_size=_CHUNK_SIZE,
        ):
            executor.accept(rec, spill_result)
        stats.verify_time += time.perf_counter() - started
    executor.finish()


def _process_pair(
    key: str,
    rec_a: dict,
    rec_b: dict,
    split: int,
    spill_dir: str,
    run_meta: dict,
    tau: int,
    options: GSimJoinOptions,
    budget: Optional[VerificationBudget],
    memory: MemoryBudget,
    carry: _SliceCarry,
    injector: Optional[FaultInjector],
    pool: PoolSettings,
    fsync_interval: Optional[int],
) -> Tuple[JoinStatistics, int, int]:
    """One attempt at one shard pair at one split level.

    Opens the pair's journal (replaying any prior attempt's verified
    prefix), recreates its spill queues from scratch (their contents
    are a deterministic function of the journal plus fresh work), runs
    every sub-shard combo under the memory budget, and finishes both
    queues.  Before each combo charges the budget, ``carry`` drops
    every slice but the combo's own; the combo charges its full
    estimate, carried slices included, and takes the slices it does
    not find in ``carry`` from their shard files.  What a combo leaves
    in ``carry`` stays there for the next combo — of this pair, of a
    retry, or of the next pair.  Raises
    :class:`~repro.exceptions.MemoryBudgetError` when a combo cannot
    fit (caller degrades the split) and lets ``OSError`` escape for the
    caller's retry/backoff policy.
    """
    is_self = rec_a is rec_b
    pair_stats = JoinStatistics(
        num_graphs=(
            len(rec_a["positions"])
            if is_self
            else len(rec_a["positions"]) + len(rec_b["positions"])
        ),
        tau=tau,
        q=options.q,
    )
    spilled = {"pair": 0, "undecided": 0}
    journal = JoinJournal.open(
        os.path.join(spill_dir, f"pair-{key}.journal.jsonl"),
        _pair_meta(run_meta, key),
        fsync_interval=fsync_interval,
    )
    try:
        with SpillQueue.create(
            os.path.join(spill_dir, f"pair-{key}.candidates.jsonl")
        ) as cand_q, SpillQueue.create(
            os.path.join(spill_dir, f"pair-{key}.results.jsonl")
        ) as res_q:
            for range_a, range_b in _combos(
                len(rec_a["positions"]), len(rec_b["positions"]), is_self, split
            ):
                # A diagonal combo reads one slice, a cross combo two.
                ranges: List[SliceRange] = [(rec_a, *range_a)]
                if not (is_self and range_a == range_b):
                    ranges.append((rec_b, *range_b))
                carry.keep(ranges)
                estimate = sum(
                    _estimate_bytes(rec["sizes"][start:stop])
                    for rec, start, stop in ranges
                )
                memory.charge(estimate, f"shard pair {key} split {split}")
                try:
                    _run_combo(
                        [carry.get(*piece) for piece in ranges], tau, options,
                        budget, pair_stats, journal, injector, cand_q, res_q,
                        pool, spilled,
                    )
                finally:
                    memory.release(estimate)
            _step_io(injector)
            cand_q.finish()
            _step_io(injector)
            res_q.finish()
            return pair_stats, spilled["pair"], spilled["undecided"]
    finally:
        journal.close()


# --- The driver ---------------------------------------------------------


def execute_sharded_join(
    source: Source,
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
    chunk_timeout: Optional[float] = None,
    fsync_interval: Optional[int] = None,
    on_error: str = "raise",
) -> JoinResult:
    """Out-of-core self-join over a collection file or sequence.

    The engine-side implementation behind
    :func:`repro.core.sharded.gsim_join_sharded` — see there for the
    public contract and ``docs/ROBUSTNESS.md`` for the recovery
    contract.  ``source`` is preferably a collection *file path*
    (streamed, never fully loaded); a graph sequence is accepted for
    convenience and is scattered through the same shard files, which
    round-trips labels as strings (use string labels for exact parity
    with the in-memory join).

    Raises
    ------
    ParameterError
        On invalid ``tau``/``shards``/``workers``/retry settings, an
        unknown verifier, missing or duplicate graph ids, or mixed
        directedness.
    CheckpointError
        When ``spill_dir`` already holds a manifest and ``resume`` is
        false, when the manifest belongs to a different run, or when a
        recorded shard file has gone missing.
    MemoryBudgetError
        When a shard pair exceeds the memory budget even at the finest
        split level (single-graph sub-shards).
    """
    if options is None:
        options = GSimJoinOptions()
    if tau < 0:
        raise ParameterError(f"tau must be >= 0, got {tau}")
    if options.q < 0:
        raise ParameterError(f"q must be >= 0, got {options.q}")
    if shards < 1:
        raise ParameterError(f"shards must be >= 1, got {shards}")
    pool = PoolSettings(workers, max_retries, retry_backoff, chunk_timeout)
    resolve_backend(options.verifier)
    spill_dir = os.fspath(spill_dir)
    os.makedirs(spill_dir, exist_ok=True)

    injector = fault.start() if fault is not None else None
    memory = MemoryBudget.from_mb(memory_budget_mb)

    sizes, ids_sha = _survey(source, on_error)
    n = len(sizes)
    run_meta = sharded_join_meta(n, ids_sha, tau, options, budget, shards)

    manifest_path = os.path.join(spill_dir, _MANIFEST_NAME)
    if ShardManifest.exists(manifest_path):
        if not resume:
            raise CheckpointError(
                f"{manifest_path}: a sharded-join manifest already exists; "
                "pass resume=True (CLI: --resume) to continue that run, or "
                "use a fresh spill directory"
            )
        manifest = ShardManifest.load(manifest_path, run_meta)
    else:
        manifest = ShardManifest.create(manifest_path, run_meta)

    if manifest.partition is None:
        records = _write_shards(source, on_error, sizes, shards, spill_dir)
        ranges = [(rec["min_size"], rec["max_size"]) for rec in records]
        keys = [
            _pair_key(a, b) for a, b in qualifying_shard_pairs(ranges, tau)
        ]
        manifest.set_partition(records, keys)
    else:
        records = manifest.partition
        for rec in records:
            if not os.path.exists(os.path.join(spill_dir, rec["file"])):
                raise CheckpointError(
                    f"{spill_dir}: shard file {rec['file']} recorded in the "
                    "manifest is missing; cannot resume"
                )
        keys = sorted(
            manifest.pairs, key=lambda k: tuple(int(x) for x in k.split("-"))
        )

    stats = JoinStatistics(num_graphs=n, tau=tau, q=options.q)
    result = JoinResult(stats=stats)
    carry = _SliceCarry(spill_dir)

    for key in keys:
        entry = manifest.pair(key)
        if entry["status"] == PAIR_DONE:
            stats.merge(JoinStatistics.from_snapshot(entry["stats"]))
            continue
        a, b = (int(x) for x in key.split("-"))
        rec_a, rec_b = records[a], (records[a] if a == b else records[b])
        split = int(entry.get("split", 0))
        attempt_errors = 0
        while True:
            manifest.update_pair(
                key,
                status=PAIR_RUNNING,
                attempts=int(entry.get("attempts", 0)) + 1,
                split=split,
            )
            entry = manifest.pair(key)
            try:
                pair_stats, results_n, undecided_n = _process_pair(
                    key, rec_a, rec_b, split, spill_dir, run_meta, tau,
                    options, budget, memory, carry, injector, pool,
                    fsync_interval,
                )
            except MemoryBudgetError:
                memory.reset()
                n_a = len(rec_a["positions"])
                n_b = len(rec_b["positions"])
                if min(2**split, n_a) < n_a or min(2**split, n_b) < n_b:
                    split += 1
                    continue
                raise
            except OSError:
                # Transient I/O (ENOSPC, injected faults, flaky disk):
                # capped-backoff retry; the journal keeps what was
                # verified, the queues rebuild from scratch.
                attempt_errors += 1
                if attempt_errors > max_retries:
                    raise
                pool.backoff(attempt_errors)
                continue
            manifest.update_pair(
                key,
                status=PAIR_DONE,
                split=split,
                stats=pair_stats.snapshot(),
                results=results_n,
                undecided=undecided_n,
            )
            stats.merge(pair_stats)
            break

    # Merge: one fault step marks the merge boundary (kill-mid-merge
    # tests aim here), then every done pair's results queue streams in
    # and the union sorts by global position — fully deterministic.
    # No slice stays resident through it.
    carry.keep(())
    if injector is not None:
        injector.step()
    merged: List[dict] = []
    for key in keys:
        path = os.path.join(spill_dir, f"pair-{key}.results.jsonl")
        merged.extend(SpillQueue.replay(path))
    merged.sort(key=lambda r: (r["lo"], r["hi"]))
    for record in merged:
        if record["kind"] == "pair":
            result.pairs.append((record["id_lo"], record["id_hi"]))
        else:
            result.undecided.append(
                BoundedPair(
                    record["id_lo"],
                    record["id_hi"],
                    record["lower"],
                    record["upper"],
                    record["reason"],
                )
            )
    stats.results = len(result.pairs)
    manifest.set_complete(
        {
            "results": len(result.pairs),
            "undecided": len(result.undecided),
            "fingerprint": result_fingerprint(result),
            "peak_budget_bytes": memory.peak,
        }
    )
    return result
