"""Join results and the per-phase / per-stage statistics.

Every figure of the paper's evaluation section is a projection of these
numbers: *Cand-1* (pairs surviving index probing + size filtering),
*Cand-2* (pairs reaching the GED computation), result pairs, average
prefix length, index size, and the three phase timings (index
construction / candidate generation / GED computation).

The staged execution engine additionally reports one
:class:`StageStatistics` row per plan stage (``JoinStatistics.stages``)
— the paper's Figure 7-style filter-breakdown numbers: how many units
entered each stage, how many survived, and how much wall time the stage
took.  The rows are listed in plan order and surfaced by
``repro.reporting.result_to_dict`` and the CLI's ``--explain-plan``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Hashable, List, NamedTuple, Optional, Tuple

__all__ = ["JoinStatistics", "JoinResult", "BoundedPair", "StageStatistics"]


class BoundedPair(NamedTuple):
    """A candidate pair the join could not decide exactly.

    Produced by budgeted verification (``lower ≤ ged ≤ upper`` brackets
    ``tau`` — see ``docs/ROBUSTNESS.md``) or by the parallel executor's
    in-process fallback when a pair kept failing (``reason="error"``,
    bounds unknown).  ``upper=None`` means no upper bound was obtained.
    """

    r_id: Hashable
    s_id: Hashable
    lower: Optional[int]
    upper: Optional[int]
    reason: str = "budget"


@dataclass
class StageStatistics:
    """Survivor counts and wall time of one plan stage.

    ``input`` counts the units that entered the stage and ``survivors``
    the units it passed downstream; the unit depends on the stage's
    ``role`` (graphs for ``prepare``/``prefix`` stages, posting/probe
    encounters for candidate generation, candidate pairs for the
    pair-filter cascade and verification).  ``seconds`` is the wall time
    the stage itself consumed; for stages whose work is fused into a
    neighbouring loop (the size filter runs inside the candidate probe)
    the time is attributed to the fused stage and documented as such in
    ``docs/ARCHITECTURE.md``.  Replayed journal records and parallel
    worker records contribute counts (and GED seconds to the verify
    stage) but no filter wall time — filters re-run nowhere on replay.
    """

    name: str
    role: str
    input: int = 0
    survivors: int = 0
    seconds: float = 0.0

    @property
    def pruned(self) -> int:
        """Units the stage removed (``input - survivors``)."""
        return self.input - self.survivors


@dataclass
class JoinStatistics:
    """Counters and timings collected during one join run."""

    num_graphs: int = 0
    tau: int = 0
    q: int = 0

    cand1: int = 0  #: candidate pairs after probing + size filtering
    cand2: int = 0  #: pairs that reached the GED computation
    results: int = 0  #: pairs in the join result

    pruned_by_size: int = 0
    pruned_by_global_label: int = 0
    pruned_by_count: int = 0
    pruned_by_local_label: int = 0

    total_prefix_length: int = 0
    unprunable_graphs: int = 0
    index_distinct_keys: int = 0
    index_postings: int = 0
    index_bytes: int = 0

    index_time: float = 0.0  #: q-gram extraction + ordering + prefix + inserts
    candidate_time: float = 0.0  #: index probing + size filtering
    verify_time: float = 0.0  #: Verify incl. filters and GED
    ged_time: float = 0.0  #: GED A* searches only
    ged_calls: int = 0
    ged_expansions: int = 0
    compile_time: float = 0.0  #: compiled-verifier graph compilation (⊂ ged_time)
    compiled_graphs: int = 0  #: distinct graphs compiled by the verifier cache

    undecided: int = 0  #: pairs whose budget-bounded verdict spans tau
    memo_hits: int = 0  #: pairs answered by the verdict memo, no search run
    verify_backends: Dict[str, int] = field(default_factory=dict)
    #: verify calls per portfolio backend (``"memo"`` for memo answers)
    replayed_pairs: int = 0  #: pairs skipped on resume via the journal
    chunk_retries: int = 0  #: parallel chunks re-dispatched after a failure
    fallback_pairs: int = 0  #: pairs verified in-process after max_retries
    failed_pairs: int = 0  #: pairs unverifiable even in the fallback

    stages: List[StageStatistics] = field(default_factory=list)
    #: one row per plan stage, in plan order (filled by the engine)

    def merge(self, other: "JoinStatistics") -> None:
        """Add ``other`` — statistics of another part of the same run
        (a shard pair) — into this one: every counter and timing, the
        per-backend verify tallies, and the stage rows by name in
        first-seen order.  Run identity (``num_graphs``, ``tau``,
        ``q``) stays this object's."""
        for name in _COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for backend, count in other.verify_backends.items():
            self.verify_backends[backend] = (
                self.verify_backends.get(backend, 0) + count
            )
        rows = {row.name: row for row in self.stages}
        for theirs in other.stages:
            row = rows.get(theirs.name)
            if row is None:
                row = StageStatistics(name=theirs.name, role=theirs.role)
                self.stages.append(row)
                rows[row.name] = row
            row.input += theirs.input
            row.survivors += theirs.survivors
            row.seconds += theirs.seconds

    def snapshot(self) -> Dict[str, Any]:
        """The mergeable part as a JSON-ready dict (the sharded
        manifest's per-pair record; see :meth:`from_snapshot`)."""
        data: Dict[str, Any] = {name: getattr(self, name) for name in _COUNTERS}
        data["verify_backends"] = dict(self.verify_backends)
        data["stages"] = [
            [row.name, row.role, row.input, row.survivors, row.seconds]
            for row in self.stages
        ]
        return data

    @classmethod
    def from_snapshot(cls, data: Dict[str, Any]) -> "JoinStatistics":
        """Rebuild statistics from :meth:`snapshot` output; a key an
        older snapshot lacks stays at its zero default."""
        stats = cls(**{name: data[name] for name in _COUNTERS if name in data})
        stats.verify_backends = dict(data.get("verify_backends", {}))
        stats.stages = [
            StageStatistics(name, role, inputs, survivors, seconds)
            for name, role, inputs, survivors, seconds in data.get("stages", [])
        ]
        return stats

    @property
    def total_time(self) -> float:
        """Summed phase wall time (index + candidates + verify)."""
        return self.index_time + self.candidate_time + self.verify_time

    @property
    def avg_prefix_length(self) -> float:
        """Mean indexed prefix length over the collection."""
        return self.total_prefix_length / self.num_graphs if self.num_graphs else 0.0

    def stage_table(self) -> str:
        """The per-stage breakdown as an aligned text table."""
        if not self.stages:
            return "(no stage statistics recorded)"
        rows = [("stage", "role", "input", "survivors", "pruned", "seconds")]
        for s in self.stages:
            rows.append((s.name, s.role, str(s.input), str(s.survivors),
                         str(s.pruned), f"{s.seconds:.4f}"))
        widths = [
            max(len(row[col]) for row in rows)
            for col in range(len(rows[0]))
        ]
        lines = []
        for row in rows:
            lines.append(
                "  ".join(cell.ljust(widths[col]) for col, cell in enumerate(row))
                .rstrip()
            )
        if self.verify_backends:
            breakdown = ", ".join(
                f"{name}={count}"
                for name, count in sorted(self.verify_backends.items())
            )
            lines.append(f"verify backends: {breakdown}")
        return "\n".join(lines)

    def summary(self) -> str:
        """One-line human-readable summary (used by examples/benchmarks)."""
        text = (
            f"n={self.num_graphs} tau={self.tau} q={self.q} | "
            f"cand1={self.cand1} cand2={self.cand2} results={self.results} | "
            f"avg prefix={self.avg_prefix_length:.1f} "
            f"index={self.index_bytes / 1024.0:.1f}kB | "
            f"t_index={self.index_time:.3f}s t_cand={self.candidate_time:.3f}s "
            f"t_verify={self.verify_time:.3f}s (ged {self.ged_time:.3f}s, "
            f"{self.ged_calls} calls)"
        )
        if self.undecided or self.failed_pairs:
            text += (
                f" | undecided={self.undecided} failed={self.failed_pairs}"
            )
        return text


#: The summable counters and timings: every numeric field except the
#: run's identity (``num_graphs``, ``tau``, ``q``).
_COUNTERS = tuple(
    f.name
    for f in fields(JoinStatistics)
    if f.name not in ("num_graphs", "tau", "q")
    and isinstance(f.default, (int, float))
)


@dataclass
class JoinResult:
    """Result pairs (as graph-id tuples) plus the run's statistics.

    ``undecided`` is the budgeted-execution channel: pairs whose exact
    verdict the verification budget (or the fault-recovery fallback)
    could not produce, each with the best known ``lower``/``upper`` GED
    bounds.  Without a budget and without faults it is always empty.
    """

    pairs: List[Tuple[Hashable, Hashable]] = field(default_factory=list)
    stats: JoinStatistics = field(default_factory=JoinStatistics)
    undecided: List[BoundedPair] = field(default_factory=list)

    def pair_set(self) -> set:
        """The result pairs as a set for comparisons in tests."""
        return set(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)
