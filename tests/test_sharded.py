"""Out-of-core sharded join tests: parity, recovery, bounded memory.

The sharded driver must produce exactly the in-memory join's result
pairs for every shard count (statistics counters legitimately differ
across shardings — the per-combo candidate orderings change — so
cross-driver parity is asserted on the pair/undecided fingerprint).
Recovery is exercised the hard way: a sacrificial subprocess is killed
mid-shard and mid-merge, injected ENOSPC tears spill writes, and the
resumed run must be bit-identical to an uninterrupted one.  The
substrate pieces (memory budget, spill queues, manifest, size-band
arithmetic) get direct unit coverage, including a hypothesis property
that banding covers every qualifying pair exactly once.
"""

import dataclasses
import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GSimJoinOptions
from repro.core.join import gsim_join
from repro.core.sharded import gsim_join_sharded, result_fingerprint
from repro.engine import executor as executor_module
from repro.engine import sharded as sharded_module
from repro.engine.result import JoinStatistics
from repro.exceptions import (
    CheckpointError,
    MemoryBudgetError,
    ParameterError,
)
from repro.graph import load_graphs, save_graphs
from repro.runtime import (
    FaultPlan,
    MemoryBudget,
    ShardManifest,
    SpillQueue,
    plan_bands,
    qualifying_shard_pairs,
)

from .test_join import molecule_collection

SRC = str(Path(__file__).parent.parent / "src")
TAU = 2

#: Counters that must agree between a clean sharded run and a resumed
#: one (same sharding, no memory budget => identical split levels).
COUNTER_FIELDS = (
    "cand1", "cand2", "results", "ged_calls", "ged_expansions",
    "undecided", "pruned_by_count", "pruned_by_global_label",
    "pruned_by_local_label",
)


def assert_same_result(resumed, clean):
    assert resumed.pairs == clean.pairs
    assert resumed.undecided == clean.undecided
    for field in COUNTER_FIELDS:
        assert getattr(resumed.stats, field) == getattr(clean.stats, field)


@pytest.fixture(scope="module")
def graphs():
    return molecule_collection(36, seed=61)


@pytest.fixture(scope="module")
def expected(graphs):
    return gsim_join(graphs, TAU)


@pytest.fixture(scope="module")
def expected_fp(expected):
    return result_fingerprint(expected)


# --- Substrate: memory budget ---------------------------------------------


class TestMemoryBudget:
    def test_charge_within_limit(self):
        budget = MemoryBudget(100)
        budget.charge(60)
        budget.charge(40)
        assert budget.used == 100 and budget.peak == 100

    def test_charge_over_limit_raises_before_accounting(self):
        budget = MemoryBudget(100)
        budget.charge(60)
        with pytest.raises(MemoryBudgetError, match="index build"):
            budget.charge(41, "index build")
        # The failed charge must not have been applied.
        assert budget.used == 60

    def test_release_clamps_at_zero(self):
        budget = MemoryBudget(100)
        budget.charge(10)
        budget.release(50)
        assert budget.used == 0

    def test_peak_survives_release_and_reset(self):
        budget = MemoryBudget(100)
        budget.charge(80)
        budget.release(80)
        budget.charge(30)
        budget.reset()
        assert budget.peak == 80 and budget.used == 0

    def test_unlimited_budget_still_tracks_peak(self):
        budget = MemoryBudget.from_mb(None)
        budget.charge(10**12)
        assert budget.limit is None and budget.peak == 10**12

    def test_from_mb_converts(self):
        assert MemoryBudget.from_mb(2).limit == 2 * 1024 * 1024

    def test_invalid_limit_rejected(self):
        with pytest.raises(ParameterError):
            MemoryBudget(0)

    def test_negative_charge_rejected(self):
        with pytest.raises(ParameterError):
            MemoryBudget(100).charge(-1)


# --- Substrate: spill queues ----------------------------------------------


class TestSpillQueue:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "q.jsonl"
        queue = SpillQueue.create(path)
        queue.append({"lo": 1, "hi": 2})
        queue.append({"lo": 3, "hi": 4})
        queue.finish()
        assert list(SpillQueue.replay(path)) == [
            {"lo": 1, "hi": 2}, {"lo": 3, "hi": 4},
        ]
        assert SpillQueue.is_complete(path)

    def test_unfinished_queue_refused(self, tmp_path):
        path = tmp_path / "q.jsonl"
        with SpillQueue.create(path) as queue:
            queue.append({"lo": 1, "hi": 2})
        # No finish(): the writer "crashed" mid-queue.
        assert not SpillQueue.is_complete(path)
        with pytest.raises(CheckpointError, match="sentinel"):
            list(SpillQueue.replay(path))

    def test_torn_tail_refused(self, tmp_path):
        path = tmp_path / "q.jsonl"
        queue = SpillQueue.create(path)
        queue.append({"lo": 1, "hi": 2})
        queue.finish()
        # Tear the sentinel: cut the file mid-line.
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(CheckpointError, match="sentinel"):
            list(SpillQueue.replay(path))

    def test_count_mismatch_refused(self, tmp_path):
        path = tmp_path / "q.jsonl"
        queue = SpillQueue.create(path)
        queue.append({"lo": 1, "hi": 2})
        queue.finish()
        lines = path.read_text().splitlines()
        lines[-1] = json.dumps({"spill-end": 7})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="claims 7"):
            list(SpillQueue.replay(path))

    def test_create_truncates_previous_attempt(self, tmp_path):
        path = tmp_path / "q.jsonl"
        with SpillQueue.create(path) as queue:
            queue.append({"stale": True})
        queue = SpillQueue.create(path)
        queue.finish()
        assert list(SpillQueue.replay(path)) == []

    def test_append_after_close_refused(self, tmp_path):
        queue = SpillQueue.create(tmp_path / "q.jsonl")
        queue.finish()
        with pytest.raises(CheckpointError, match="closed"):
            queue.append({})


# --- Substrate: banding arithmetic ----------------------------------------


class TestBanding:
    def test_bands_partition_positions(self):
        sizes = [5, 1, 9, 1, 7, 3]
        bands = plan_bands(sizes, 3)
        flat = sorted(p for band in bands for p in band)
        assert flat == list(range(len(sizes)))
        # Bands are ordered by size: each band's max <= next band's min.
        maxima = [max(sizes[p] for p in band) for band in bands]
        minima = [min(sizes[p] for p in band) for band in bands]
        assert all(maxima[k] <= minima[k + 1] for k in range(len(bands) - 1))

    def test_more_shards_than_graphs_drops_empty_bands(self):
        bands = plan_bands([4, 2], 5)
        assert len(bands) == 2
        assert sorted(p for band in bands for p in band) == [0, 1]

    def test_invalid_shards_rejected(self):
        with pytest.raises(ParameterError):
            plan_bands([1], 0)

    def test_distant_bands_skipped(self):
        # Bands at sizes [1,2], [10,11]: gap 8 > tau 2 -> only diagonals.
        assert qualifying_shard_pairs([(1, 2), (10, 11)], 2) == [(0, 0), (1, 1)]

    def test_adjacent_bands_kept(self):
        assert qualifying_shard_pairs([(1, 4), (5, 9)], 2) == [
            (0, 0), (0, 1), (1, 1),
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=0, max_value=30),
                       min_size=1, max_size=40),
        shards=st.integers(min_value=1, max_value=6),
        tau=st.integers(min_value=0, max_value=4),
    )
    def test_banding_covers_every_qualifying_pair_exactly_once(
        self, sizes, shards, tau
    ):
        """Soundness of the partition-level size filter: every global
        pair within the size gap lands in exactly one qualifying shard
        pair (each graph lives in exactly one band)."""
        bands = plan_bands(sizes, shards)
        flat = sorted(p for band in bands for p in band)
        assert flat == list(range(len(sizes)))
        ranges = [
            (min(sizes[p] for p in band), max(sizes[p] for p in band))
            for band in bands
        ]
        qualifying = qualifying_shard_pairs(ranges, tau)
        assert len(set(qualifying)) == len(qualifying)
        band_of = {p: k for k, band in enumerate(bands) for p in band}
        for i in range(len(sizes)):
            for j in range(i + 1, len(sizes)):
                if abs(sizes[i] - sizes[j]) <= tau:
                    a, b = sorted((band_of[i], band_of[j]))
                    assert (a, b) in qualifying


# --- Substrate: manifest --------------------------------------------------


class TestShardManifest:
    META = {"kind": "test-run", "tau": 2}

    def test_create_load_round_trip(self, tmp_path):
        path = tmp_path / "manifest.json"
        manifest = ShardManifest.create(path, self.META)
        manifest.set_partition([{"file": "shard-0.txt"}], ["0-0"])
        loaded = ShardManifest.load(path, self.META)
        assert loaded.partition == [{"file": "shard-0.txt"}]
        assert loaded.pair("0-0") == {
            "status": "pending", "attempts": 0, "split": 0,
        }

    def test_foreign_meta_refused(self, tmp_path):
        path = tmp_path / "manifest.json"
        ShardManifest.create(path, self.META)
        with pytest.raises(CheckpointError, match="different run"):
            ShardManifest.load(path, {"kind": "test-run", "tau": 3})

    def test_corrupt_manifest_refused(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError, match="corrupt"):
            ShardManifest.load(path, self.META)

    def test_updates_are_atomic_documents(self, tmp_path):
        """Every mutation leaves a complete, parseable document (the
        replace_file discipline) and no stray tempfiles."""
        path = tmp_path / "manifest.json"
        manifest = ShardManifest.create(path, self.META)
        manifest.set_partition([], ["0-0", "0-1"])
        manifest.update_pair("0-1", status="running", attempts=1)
        manifest.set_complete({"results": 0})
        data = json.loads(path.read_text())
        assert data["pairs"]["0-1"]["status"] == "running"
        assert data["complete"] == {"results": 0}
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


# --- Parity with the in-memory join ---------------------------------------


class TestShardedParity:
    @pytest.mark.parametrize("shards", [1, 2, 4, 7])
    def test_fingerprint_matches_in_memory(
        self, graphs, expected, expected_fp, tmp_path, shards
    ):
        result = gsim_join_sharded(
            graphs, TAU, spill_dir=tmp_path / "spill", shards=shards
        )
        assert result.pairs == expected.pairs
        assert result.undecided == expected.undecided
        assert result_fingerprint(result) == expected_fp

    def test_file_source_streams_to_same_result(
        self, graphs, expected_fp, tmp_path
    ):
        path = tmp_path / "graphs.txt"
        save_graphs(graphs, path)
        result = gsim_join_sharded(
            path, TAU, spill_dir=tmp_path / "spill", shards=3
        )
        assert result_fingerprint(result) == expected_fp

    def test_workers_parity(self, graphs, expected, tmp_path):
        result = gsim_join_sharded(
            graphs, TAU, spill_dir=tmp_path / "spill", shards=3, workers=2,
            retry_backoff=0.0,
        )
        assert result.pairs == expected.pairs
        assert result.undecided == expected.undecided

    def test_fsync_interval_parity(self, graphs, expected_fp, tmp_path):
        result = gsim_join_sharded(
            graphs, TAU, spill_dir=tmp_path / "spill", shards=2,
            fsync_interval=1,
        )
        assert result_fingerprint(result) == expected_fp

    def test_candidates_enumerated_exactly_once(self, graphs, tmp_path):
        """Across every shard pair's candidate spill queue, each global
        (lo, hi) pair appears at most once, and the union matches the
        run's cand1 counter — no pair is examined twice, none is lost
        between shard pairs."""
        spill = tmp_path / "spill"
        result = gsim_join_sharded(graphs, TAU, spill_dir=spill, shards=4)
        manifest = json.loads((spill / "manifest.json").read_text())
        seen = []
        for key in manifest["pairs"]:
            path = spill / f"pair-{key}.candidates.jsonl"
            seen.extend(
                (record["lo"], record["hi"])
                for record in SpillQueue.replay(path)
            )
        assert len(seen) == len(set(seen))
        assert len(seen) == result.stats.cand1

    def test_lenient_loading_skips_corrupt_graphs(self, tmp_path):
        good = molecule_collection(8, seed=5)
        path = tmp_path / "graphs.txt"
        save_graphs(good, path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("t # 99\nv zero C\n")
        oracle = gsim_join(load_graphs(path, on_error="skip"), TAU)
        result = gsim_join_sharded(
            path, TAU, spill_dir=tmp_path / "spill", shards=2,
            on_error="skip",
        )
        assert result.pairs == oracle.pairs


# --- Slices carried from combo to combo -----------------------------------


def sharded_run(graphs, spill, tau=TAU, options=None, **kwargs):
    """A sharded join plus what it left on disk: the manifest's split
    level per shard pair, and each pair's journal records without
    their timings."""
    result = gsim_join_sharded(graphs, tau, options, spill_dir=spill, **kwargs)
    manifest = json.loads((spill / "manifest.json").read_text())
    journals = {}
    for key in manifest["pairs"]:
        lines = (spill / f"pair-{key}.journal.jsonl").read_text().splitlines()
        journals[key] = [
            {k: v for k, v in json.loads(line).items() if k != "ged_seconds"}
            for line in lines[1:]
        ]
    splits = {key: pair["split"] for key, pair in manifest["pairs"].items()}
    return result, splits, journals


class TestSliceCarry:
    def test_each_graph_extracted_once(self, graphs, tmp_path, monkeypatch):
        """With band-adjacent qualifying shard pairs at split 0, each
        combo carries the slice it shares with the combo before, so the
        join extracts every graph once, not once per qualifying shard
        pair the graph's band belongs to."""
        extracted = []
        extract = executor_module.extract_qgrams

        def counting(g, q):
            extracted.append(g.graph_id)
            return extract(g, q)

        monkeypatch.setattr(executor_module, "extract_qgrams", counting)
        _, splits, _ = sharded_run(graphs, tmp_path / "spill", shards=4)
        pairs = [tuple(int(x) for x in key.split("-")) for key in splits]
        assert len(pairs) == 7
        assert all(b - a <= 1 for a, b in pairs)  # band-adjacent
        assert set(splits.values()) == {0}
        assert sorted(extracted) == sorted(g.graph_id for g in graphs)

    def test_residency_stays_within_one_combo(
        self, graphs, tmp_path, monkeypatch
    ):
        """When a combo charges the memory budget, the carry holds only
        slices that combo reads — across split levels 0..2 — and it is
        empty by the merge."""
        carry_class = sharded_module._SliceCarry
        init, get, charge = carry_class.__init__, carry_class.get, MemoryBudget.charge
        carries, combos = [], []

        def tracking_init(carry, spill_dir):
            init(carry, spill_dir)
            carries.append(carry)

        def tracking_charge(budget, nbytes, what="working set"):
            charge(budget, nbytes, what)
            combos.append((set(carries[0].held), set()))

        def tracking_get(carry, rec, start, stop):
            combos[-1][1].add((rec["file"], start, stop))
            return get(carry, rec, start, stop)

        monkeypatch.setattr(carry_class, "__init__", tracking_init)
        monkeypatch.setattr(carry_class, "get", tracking_get)
        monkeypatch.setattr(MemoryBudget, "charge", tracking_charge)
        _, splits, _ = sharded_run(
            graphs, tmp_path / "spill", shards=3, memory_budget_mb=0.4
        )
        assert set(splits.values()) == {0, 1, 2}
        assert any(held for held, _ in combos)  # some slices were carried
        for held, read in combos:
            assert held <= read
        assert carries[0].held == {}

    @pytest.mark.parametrize("memory_budget_mb", [None, 0.4])
    def test_carried_slices_match_fresh_ones(
        self, graphs, tmp_path, monkeypatch, memory_budget_mb
    ):
        """A run whose combos reuse carried slices equals one that loads
        and extracts every combo's slices afresh: pairs, undecided,
        every integer statistic, every stage row's counts, every
        journal record and every split level.  At q=3, tau=1 most
        graphs are prunable, so a carried profile left in the previous
        combo's order would change the prefixes and Cand-1."""
        run = dict(
            tau=1, options=GSimJoinOptions(q=3), shards=3,
            memory_budget_mb=memory_budget_mb,
        )
        carried = sharded_run(graphs, tmp_path / "carried", **run)
        monkeypatch.setattr(
            sharded_module._SliceCarry, "keep",
            lambda carry, ranges: carry.held.clear(),
        )
        fresh = sharded_run(graphs, tmp_path / "fresh", **run)
        (result, splits, journals), (oracle, oracle_splits, oracle_journals) = (
            carried, fresh,
        )
        assert result.pairs == oracle.pairs
        assert result.undecided == oracle.undecided
        for field in dataclasses.fields(JoinStatistics):
            value = getattr(result.stats, field.name)
            if isinstance(value, int):
                assert value == getattr(oracle.stats, field.name), field.name
        assert [
            (row.name, row.input, row.survivors) for row in result.stats.stages
        ] == [
            (row.name, row.input, row.survivors) for row in oracle.stats.stages
        ]
        assert result.stats.verify_backends == oracle.stats.verify_backends
        assert splits == oracle_splits
        assert (max(splits.values()) > 0) == (memory_budget_mb is not None)
        assert journals == oracle_journals


# --- Bounded memory -------------------------------------------------------


class TestMemoryBounds:
    def test_budget_degrades_to_subshards_with_identical_result(
        self, graphs, expected_fp, tmp_path
    ):
        spill = tmp_path / "spill"
        result = gsim_join_sharded(
            graphs, TAU, spill_dir=spill, shards=3, memory_budget_mb=0.25
        )
        assert result_fingerprint(result) == expected_fp
        manifest = json.loads((spill / "manifest.json").read_text())
        splits = [pair["split"] for pair in manifest["pairs"].values()]
        assert max(splits) > 0  # the budget really forced a degrade
        assert all(pair["status"] == "done"
                   for pair in manifest["pairs"].values())
        summary = manifest["complete"]
        assert 0 < summary["peak_budget_bytes"] <= int(0.25 * 1024 * 1024)

    def test_budget_below_minimal_combo_raises(self, graphs, tmp_path):
        with pytest.raises(MemoryBudgetError, match="memory budget"):
            gsim_join_sharded(
                graphs, TAU, spill_dir=tmp_path / "spill", shards=2,
                memory_budget_mb=0.02,
            )


# --- Resume guards --------------------------------------------------------


class TestResumeGuards:
    def test_existing_manifest_without_resume_refused(self, graphs, tmp_path):
        spill = tmp_path / "spill"
        gsim_join_sharded(graphs, TAU, spill_dir=spill, shards=2)
        with pytest.raises(CheckpointError, match="resume"):
            gsim_join_sharded(graphs, TAU, spill_dir=spill, shards=2)

    def test_resume_with_different_tau_refused(self, graphs, tmp_path):
        spill = tmp_path / "spill"
        gsim_join_sharded(graphs, TAU, spill_dir=spill, shards=2)
        with pytest.raises(CheckpointError, match="different run"):
            gsim_join_sharded(
                graphs, TAU + 1, spill_dir=spill, shards=2, resume=True
            )

    def test_resume_with_different_shards_refused(self, graphs, tmp_path):
        spill = tmp_path / "spill"
        gsim_join_sharded(graphs, TAU, spill_dir=spill, shards=2)
        with pytest.raises(CheckpointError, match="different run"):
            gsim_join_sharded(
                graphs, TAU, spill_dir=spill, shards=3, resume=True
            )

    def test_missing_shard_file_refused(self, graphs, tmp_path):
        spill = tmp_path / "spill"
        gsim_join_sharded(graphs, TAU, spill_dir=spill, shards=2)
        (spill / "shard-0.txt").unlink()
        with pytest.raises(CheckpointError, match="missing"):
            gsim_join_sharded(
                graphs, TAU, spill_dir=spill, shards=2, resume=True
            )

    def test_completed_run_resumes_from_manifest(self, graphs, tmp_path):
        spill = tmp_path / "spill"
        clean = gsim_join_sharded(graphs, TAU, spill_dir=spill, shards=3)
        resumed = gsim_join_sharded(
            graphs, TAU, spill_dir=spill, shards=3, resume=True
        )
        assert_same_result(resumed, clean)
        # Done pairs are trusted outright: nothing is replayed.
        assert resumed.stats.replayed_pairs == 0


# --- Crash recovery (subprocess kills) ------------------------------------

DRIVER = """
import sys
from repro.core.sharded import gsim_join_sharded
from repro.runtime import FaultPlan

collection, spill_dir, shards, kill_at = (
    sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
)
gsim_join_sharded(
    collection, {tau}, spill_dir=spill_dir, shards=int(shards),
    fault=FaultPlan("kill", at=kill_at),
)
""".format(tau=TAU)


def run_killed_join(collection, spill_dir, shards, kill_at):
    proc = subprocess.run(
        [sys.executable, "-c", DRIVER, str(collection), str(spill_dir),
         str(shards), str(kill_at)],
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        capture_output=True,
        timeout=120,
    )
    return proc


class TestKilledShardedJoinResumes:
    SHARDS = 3

    @pytest.fixture
    def collection(self, graphs, tmp_path):
        path = tmp_path / "graphs.txt"
        save_graphs(graphs, path)
        return path

    @pytest.fixture
    def clean(self, collection, tmp_path):
        return gsim_join_sharded(
            collection, TAU, spill_dir=tmp_path / "clean", shards=self.SHARDS
        )

    def test_kill_mid_shard_then_resume(self, collection, clean, tmp_path):
        spill = tmp_path / "killed"
        proc = run_killed_join(collection, spill, self.SHARDS, kill_at=5)
        # The injected kill is an os._exit(1): no traceback, just death.
        assert proc.returncode == 1
        manifest = json.loads((spill / "manifest.json").read_text())
        assert manifest["complete"] is None
        statuses = {p["status"] for p in manifest["pairs"].values()}
        assert "running" in statuses  # died mid-pair, manifest says so

        resumed = gsim_join_sharded(
            collection, TAU, spill_dir=spill, shards=self.SHARDS, resume=True
        )
        assert_same_result(resumed, clean)
        # The interrupted pair's journal fed the resume: the 4 pairs
        # verified before the kill replay instead of re-running A*.
        assert resumed.stats.replayed_pairs == 4

    def test_kill_mid_merge_then_resume(self, collection, clean, tmp_path):
        """Every shard pair is done; the kill lands on the merge
        boundary step.  Resume must trust the manifest completely."""
        spill = tmp_path / "killed"
        kill_at = clean.stats.cand1 + 1
        proc = run_killed_join(collection, spill, self.SHARDS, kill_at)
        assert proc.returncode == 1
        manifest = json.loads((spill / "manifest.json").read_text())
        assert manifest["complete"] is None
        assert all(p["status"] == "done"
                   for p in manifest["pairs"].values())

        resumed = gsim_join_sharded(
            collection, TAU, spill_dir=spill, shards=self.SHARDS, resume=True
        )
        assert_same_result(resumed, clean)
        assert resumed.stats.replayed_pairs == 0


# --- Injected I/O faults (full disk, flaky disk) --------------------------


class TestSpillFaults:
    def test_latched_enospc_recovers_in_process(
        self, graphs, expected_fp, tmp_path
    ):
        """The disk 'fills' once mid-spill; the shard-pair retry finds
        space freed (the latch) and the run completes unassisted."""
        spill = tmp_path / "spill"
        result = gsim_join_sharded(
            graphs, TAU, spill_dir=spill, shards=2,
            fault=FaultPlan(
                "enospc", at=5, latch_path=str(tmp_path / "latch")
            ),
            retry_backoff=0.0,
        )
        assert result_fingerprint(result) == expected_fp
        manifest = json.loads((spill / "manifest.json").read_text())
        assert max(p["attempts"] for p in manifest["pairs"].values()) > 1

    @pytest.mark.parametrize("kind", ["enospc", "ioerror"])
    def test_persistent_fault_raises_then_resumes(
        self, graphs, expected_fp, tmp_path, kind
    ):
        """An unlatched I/O fault fires on every write: retries are
        exhausted and the OSError reaches the caller.  A fault-free
        resume completes bit-identically."""
        spill = tmp_path / "spill"
        with pytest.raises(OSError) as excinfo:
            gsim_join_sharded(
                graphs, TAU, spill_dir=spill, shards=2,
                fault=FaultPlan(kind, at=5),
                max_retries=1, retry_backoff=0.0,
            )
        if kind == "enospc":
            assert excinfo.value.errno == errno.ENOSPC

        result = gsim_join_sharded(
            graphs, TAU, spill_dir=spill, shards=2, resume=True
        )
        assert result_fingerprint(result) == expected_fp


# --- Out-of-core under a hard address-space cap ---------------------------

OOC_IN_MEMORY_DRIVER = """
import resource, sys
from repro.core.join import gsim_join
from repro.graph import load_graphs

collection, headroom_mb = sys.argv[1], int(sys.argv[2])
with open("/proc/self/statm") as f:
    vm_now = int(f.read().split()[0]) * resource.getpagesize()
cap = vm_now + headroom_mb * 2**20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
try:
    gsim_join(load_graphs(collection), {tau})
except MemoryError:
    sys.exit(7)
sys.exit(0)
""".format(tau=1)

OOC_SHARDED_DRIVER = """
import resource, sys
from repro.core.sharded import gsim_join_sharded, result_fingerprint

collection, spill_dir, headroom_mb = sys.argv[1], sys.argv[2], int(sys.argv[3])
with open("/proc/self/statm") as f:
    vm_now = int(f.read().split()[0]) * resource.getpagesize()
cap = vm_now + headroom_mb * 2**20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
result = gsim_join_sharded(
    collection, {tau}, spill_dir=spill_dir, shards=16, memory_budget_mb=8,
)
print(result_fingerprint(result))
""".format(tau=1)


@pytest.mark.skipif(
    os.environ.get("REPRO_STRESS") != "1",
    reason="set REPRO_STRESS=1 to run the address-space-cap stress test",
)
@pytest.mark.skipif(sys.platform != "linux", reason="needs /proc and RLIMIT_AS")
class TestOutOfCore:
    def test_sharded_completes_where_in_memory_ooms(self, tmp_path):
        """Under the same address-space headroom the in-memory join
        dies of MemoryError while the sharded join — bounded residency,
        spill-to-disk — completes with the unrestricted fingerprint."""
        import random

        from repro.graph import assign_ids
        from repro.graph.generators import random_molecule

        rng = random.Random(71)
        graphs = assign_ids(
            [random_molecule(rng, rng.randint(60, 120)) for _ in range(700)]
        )
        collection = tmp_path / "big.txt"
        save_graphs(graphs, collection)
        reference = result_fingerprint(gsim_join(graphs, 1))
        del graphs
        headroom = 48

        in_memory = subprocess.run(
            [sys.executable, "-c", OOC_IN_MEMORY_DRIVER,
             str(collection), str(headroom)],
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
            capture_output=True, timeout=300,
        )
        assert in_memory.returncode != 0  # MemoryError (7) or allocator abort

        sharded = subprocess.run(
            [sys.executable, "-c", OOC_SHARDED_DRIVER,
             str(collection), str(tmp_path / "spill"), str(headroom)],
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
            capture_output=True, timeout=600,
        )
        assert sharded.returncode == 0, sharded.stderr.decode()
        assert sharded.stdout.decode().strip() == reference
