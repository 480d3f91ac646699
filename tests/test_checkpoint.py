"""Checkpoint/resume tests: a join killed mid-run resumes bit-identically.

The hard case runs in a sacrificial subprocess that ``os._exit(1)``\\ s
mid-verification (via the ``kill`` fault), leaving a write-through
journal behind; the parent resumes from that journal and must produce
exactly the result of an uninterrupted run.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.join import GSimJoinOptions, gsim_join, gsim_join_rs
from repro.core.parallel import gsim_join_parallel
from repro.engine.executor import self_join_meta
from repro.exceptions import CheckpointError, InjectedFaultError, ParameterError
from repro.graph import assign_ids, load_graphs, save_graphs
from repro.runtime import FaultPlan
from repro.runtime.journal import JoinJournal, VerificationRecord, replace_file

from .test_join import molecule_collection

SRC = str(Path(__file__).parent.parent / "src")
TAU = 2
KILL_AT = 5

DRIVER = """
import sys
from repro.core.join import gsim_join
from repro.graph import assign_ids, load_graphs
from repro.runtime import FaultPlan

collection, checkpoint = sys.argv[1], sys.argv[2]
graphs = assign_ids(load_graphs(collection))
gsim_join(
    graphs,
    {tau},
    checkpoint=checkpoint,
    fault=FaultPlan("kill", at={kill_at}),
)
""".format(tau=TAU, kill_at=KILL_AT)

RS_DRIVER = """
import sys
from repro.core.join import gsim_join_rs
from repro.graph import assign_ids, load_graphs
from repro.runtime import FaultPlan

outer, inner, checkpoint = sys.argv[1], sys.argv[2], sys.argv[3]
gsim_join_rs(
    assign_ids(load_graphs(outer)),
    assign_ids(load_graphs(inner)),
    {tau},
    checkpoint=checkpoint,
    fault=FaultPlan("kill", at={kill_at}),
)
""".format(tau=TAU, kill_at=KILL_AT)


def assert_same_result(resumed, clean):
    assert resumed.pairs == clean.pairs
    assert resumed.undecided == clean.undecided
    for field in ("cand1", "cand2", "results", "ged_calls",
                  "ged_expansions", "undecided", "pruned_by_count",
                  "pruned_by_global_label", "pruned_by_local_label"):
        assert getattr(resumed.stats, field) == getattr(clean.stats, field)


@pytest.fixture
def collection(tmp_path):
    path = tmp_path / "graphs.txt"
    save_graphs(molecule_collection(20, seed=23), path)
    return path


class TestKilledJoinResumes:
    def test_subprocess_kill_then_resume(self, collection, tmp_path):
        journal = tmp_path / "join.jsonl"
        proc = subprocess.run(
            [sys.executable, "-c", DRIVER, str(collection), str(journal)],
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
            capture_output=True,
            timeout=120,
        )
        # The injected kill is an os._exit(1): no traceback, just death.
        assert proc.returncode == 1
        assert journal.exists()

        graphs = assign_ids(load_graphs(collection))
        clean = gsim_join(graphs, TAU)
        resumed = gsim_join(graphs, TAU, checkpoint=journal)
        assert_same_result(resumed, clean)
        # The kill fired at verification KILL_AT, after KILL_AT - 1
        # records had been flushed — all of them must be replayed.
        assert resumed.stats.replayed_pairs == KILL_AT - 1


class TestKilledRSJoinResumes:
    def test_subprocess_kill_then_resume(self, tmp_path):
        outer_path = tmp_path / "outer.txt"
        inner_path = tmp_path / "inner.txt"
        save_graphs(molecule_collection(12, seed=47), outer_path)
        save_graphs(molecule_collection(12, seed=53), inner_path)
        journal = tmp_path / "rs.jsonl"
        proc = subprocess.run(
            [sys.executable, "-c", RS_DRIVER, str(outer_path), str(inner_path),
             str(journal)],
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 1
        assert journal.exists()

        outer = assign_ids(load_graphs(outer_path))
        inner = assign_ids(load_graphs(inner_path))
        clean = gsim_join_rs(outer, inner, TAU)
        resumed = gsim_join_rs(outer, inner, TAU, checkpoint=journal)
        assert_same_result(resumed, clean)
        assert resumed.stats.replayed_pairs == KILL_AT - 1

    def test_rs_journal_guards_against_swapped_sides(self, tmp_path):
        outer = molecule_collection(12, seed=47)
        inner = molecule_collection(12, seed=53)
        journal = tmp_path / "rs.jsonl"
        gsim_join_rs(outer, inner, TAU, checkpoint=journal)
        with pytest.raises(CheckpointError, match="different run"):
            gsim_join_rs(inner, outer, TAU, checkpoint=journal)


class TestInProcessFaultResumes:
    def test_raise_fault_then_resume(self, tmp_path):
        graphs = molecule_collection(20, seed=23)
        journal = tmp_path / "join.jsonl"
        with pytest.raises(InjectedFaultError):
            gsim_join(graphs, TAU, checkpoint=journal,
                      fault=FaultPlan("raise", at=KILL_AT))
        clean = gsim_join(graphs, TAU)
        resumed = gsim_join(graphs, TAU, checkpoint=journal)
        assert_same_result(resumed, clean)
        assert resumed.stats.replayed_pairs == KILL_AT - 1


class TestResumeGuards:
    def test_resume_with_different_tau_refused(self, tmp_path):
        graphs = molecule_collection(12, seed=29)
        journal = tmp_path / "join.jsonl"
        gsim_join(graphs, 1, checkpoint=journal)
        with pytest.raises(CheckpointError, match="different run"):
            gsim_join(graphs, 2, checkpoint=journal)

    def test_resume_with_different_collection_refused(self, tmp_path):
        journal = tmp_path / "join.jsonl"
        gsim_join(molecule_collection(12, seed=29), 1, checkpoint=journal)
        with pytest.raises(CheckpointError, match="different run"):
            gsim_join(molecule_collection(12, seed=31), 1, checkpoint=journal)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("plan", "auto"),
            ("plan", ["count-filter", "global-label-filter", "local-label-filter"]),
            ("anchor_bound", False),
            ("anchor_bound", True),
            ("interned", True),
            ("interned", False),
        ],
        ids=["auto", "permutation", "anchor_bound-false", "anchor_bound-true",
             "interned-true", "interned-false"],
    )
    def test_plan_bearing_journal_refused(self, tmp_path, key, value):
        """A journal whose header options carry a deleted option — a
        cascade ``plan`` (as written when the order was selectable),
        ``anchor_bound`` (as written when the compiled A* had that
        knob, even at its ``False`` default) or ``interned`` (as
        written when the object-key pipeline was selectable, ``True``
        by default) — is a different run."""
        graphs = molecule_collection(12, seed=29)
        meta = self_join_meta(graphs, 1, GSimJoinOptions(), None)
        meta["options"][key] = value
        journal = tmp_path / "join.jsonl"
        JoinJournal.open(journal, meta).close()
        with pytest.raises(CheckpointError, match="different run"):
            gsim_join(graphs, 1, checkpoint=journal)

    def test_completed_run_resumes_as_pure_replay(self, tmp_path):
        graphs = molecule_collection(16, seed=37)
        journal = tmp_path / "join.jsonl"
        first = gsim_join(graphs, TAU, checkpoint=journal)
        second = gsim_join(graphs, TAU, checkpoint=journal)
        assert_same_result(second, first)
        assert second.stats.replayed_pairs == first.stats.cand1
        assert first.stats.replayed_pairs == 0


class TestJournalDurability:
    """The fsync-interval knob and the atomic header publication."""

    META = {"kind": "test", "tau": 2}

    def test_fsync_interval_validation(self, tmp_path):
        with pytest.raises(ParameterError, match="fsync_interval"):
            JoinJournal.open(tmp_path / "j.jsonl", self.META, fsync_interval=0)

    def test_fsync_interval_journal_replays_identically(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with JoinJournal.open(path, self.META, fsync_interval=1) as journal:
            journal.append(VerificationRecord(i=1, j=0, is_result=True))
            journal.append(VerificationRecord(i=2, j=0, is_result=False,
                                              pruned_by="count"))
        reopened = JoinJournal.open(path, self.META)
        assert reopened.completed[(1, 0)].is_result
        assert reopened.completed[(2, 0)].pruned_by == "count"
        reopened.close()

    def test_record_line_is_fixed(self):
        """A record with every field set serializes to one fixed line and
        parses back: a format change fails here instead of silently
        breaking the resume of journals already on disk."""
        record = VerificationRecord(
            i=12, j=5, is_result=False, pruned_by="ged", ged=4,
            expansions=321, ged_seconds=0.0625, undecided=True, lower=3,
            upper=5, backend="compiled",
        )
        line = (
            '{"backend": "compiled", "expansions": 321, "ged": 4, '
            '"ged_seconds": 0.0625, "i": 12, "is_result": false, "j": 5, '
            '"lower": 3, "pruned_by": "ged", "undecided": true, "upper": 5}'
        )
        assert record.to_json() == line
        assert VerificationRecord.from_json(line) == record

    def test_torn_final_line_is_dropped_and_truncated(self, tmp_path):
        """A record cut before its newline (power loss mid-write) is
        discarded on reopen — its pair simply re-verifies — and the
        file is repaired so later appends start on a clean line."""
        path = tmp_path / "j.jsonl"
        with JoinJournal.open(path, self.META) as journal:
            journal.append(VerificationRecord(i=1, j=0, is_result=True))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"i": 2, "j": 0, "is_res')
        reopened = JoinJournal.open(path, self.META)
        assert set(reopened.completed) == {(1, 0)}
        reopened.close()
        assert path.read_text().endswith("\n")

    def test_header_published_atomically(self, tmp_path):
        """Creating a journal leaves no tempfile droppings, and the
        one-line header is already a complete, resumable journal."""
        path = tmp_path / "j.jsonl"
        JoinJournal.open(path, self.META).close()
        assert [p.name for p in tmp_path.iterdir()] == ["j.jsonl"]
        JoinJournal.open(path, self.META).close()  # resumes cleanly

    def test_replace_file_survives_failed_write(self, tmp_path):
        """replace_file keeps the old contents when publication fails
        partway and removes its temporary."""
        path = tmp_path / "doc.json"
        replace_file(str(path), "old\n")
        with pytest.raises(TypeError):
            replace_file(str(path), 42)  # not a str: write() blows up
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


class TestParallelCheckpoint:
    def test_parallel_writes_and_replays_journal(self, tmp_path):
        graphs = molecule_collection(20, seed=41)
        journal = tmp_path / "join.jsonl"
        first = gsim_join_parallel(
            graphs, TAU, workers=2, chunk_size=4, checkpoint=journal
        )
        second = gsim_join_parallel(
            graphs, TAU, workers=2, chunk_size=4, checkpoint=journal
        )
        assert_same_result(second, first)
        assert second.stats.replayed_pairs == first.stats.cand1

    def test_sequential_journal_resumes_parallel_and_back(self, tmp_path):
        """The journal is executor-agnostic: records only depend on the
        deterministic scan, so sequential and parallel runs share it."""
        graphs = molecule_collection(20, seed=43)
        journal = tmp_path / "join.jsonl"
        clean = gsim_join(graphs, TAU)
        first = gsim_join(graphs, TAU, checkpoint=journal)
        resumed = gsim_join_parallel(
            graphs, TAU, workers=2, chunk_size=4, checkpoint=journal
        )
        assert_same_result(resumed, clean)
        assert resumed.stats.replayed_pairs == first.stats.cand1
