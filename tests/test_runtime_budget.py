"""Tests for the runtime substrate: budgets, bounded verdicts, journal.

The bounded-verdict contract (``lower <= ged(r, s) <= upper`` whenever
the budget exhausts) is checked against the brute-force GED oracle; the
journal's crash-safety contract (torn final line tolerated, corruption
and run mismatches refused) is checked by corrupting files directly.
"""

import math
import random

import pytest

from repro.core.join import GSimJoinOptions, gsim_join
from repro.exceptions import CheckpointError, ParameterError
from repro.ged.astar import graph_edit_distance_detailed
from repro.ged.reference import brute_force_ged
from repro.graph.generators import random_labeled_graph
from repro.runtime import (
    FaultPlan,
    JoinJournal,
    MemoryBudget,
    VerificationBudget,
    VerificationRecord,
    seeded_at,
)

from .conftest import path_graph
from .test_join import molecule_collection


class TestBudgetObjects:
    def test_negative_caps_rejected(self):
        with pytest.raises(ParameterError):
            VerificationBudget(max_expansions=-1)
        with pytest.raises(ParameterError):
            VerificationBudget(max_seconds=-0.5)

    @pytest.mark.parametrize("cap", [math.nan, math.inf])
    def test_non_finite_caps_rejected(self, cap):
        """A NaN or infinite cap could never fire (``monotonic() > nan``
        is always false), and a NaN or infinite memory budget used to
        crash converting to bytes."""
        for make in (
            lambda: VerificationBudget(max_seconds=cap),
            lambda: VerificationBudget(max_expansions=cap),
            lambda: MemoryBudget.from_mb(cap),
            lambda: MemoryBudget(cap),
        ):
            with pytest.raises(ParameterError, match="finite"):
                make()

    def test_sub_byte_memory_budget_names_the_value_given(self):
        """A positive budget under one byte is refused in the MB the
        caller passed, not as the 0 bytes it truncates to."""
        with pytest.raises(ParameterError, match="one byte") as refused:
            MemoryBudget.from_mb(1e-7)
        assert "got 1e-07 MB" in str(refused.value)
        assert MemoryBudget.from_mb(1 / (1024 * 1024)).limit == 1

    def test_unlimited(self):
        assert VerificationBudget().unlimited
        assert not VerificationBudget(max_expansions=10).unlimited
        assert not VerificationBudget(max_seconds=1.0).unlimited

    def test_meter_counts_expansions(self):
        meter = VerificationBudget(max_expansions=2).start()
        assert meter.tick() and meter.tick()
        assert not meter.tick()

    def test_zero_expansions_exhausts_immediately(self):
        assert not VerificationBudget(max_expansions=0).start().tick()

    def test_unlimited_meter_never_exhausts(self):
        meter = VerificationBudget().start()
        assert all(meter.tick() for _ in range(1000))

    def test_time_budget_exhausts(self):
        meter = VerificationBudget(max_seconds=0.0).start()
        import time

        time.sleep(0.01)
        assert not meter.tick()


class TestFaultPlanObjects:
    def test_bad_kind_rejected(self):
        with pytest.raises(ParameterError):
            FaultPlan("explode", at=1)

    def test_bad_at_rejected(self):
        with pytest.raises(ParameterError):
            FaultPlan("raise", at=0)

    def test_seeded_at_is_deterministic_and_in_range(self):
        points = {seeded_at(s, 7) for s in range(50)}
        assert points <= set(range(1, 8))
        assert seeded_at(3, 7) == seeded_at(3, 7)
        with pytest.raises(ParameterError):
            seeded_at(0, 0)


class TestBoundedVerdicts:
    def test_bracket_contains_true_ged(self):
        """lower <= ged <= upper on random pairs, for any tiny budget."""
        rng = random.Random(7)
        for trial in range(30):
            n1 = rng.randint(1, 4)
            n2 = rng.randint(1, 4)
            r = random_labeled_graph(rng, n1, rng.randint(0, n1 * (n1 - 1) // 2),
                                     ["A", "B"], ["x"])
            s = random_labeled_graph(rng, n2, rng.randint(0, n2 * (n2 - 1) // 2),
                                     ["A", "B"], ["x"])
            true_ged = brute_force_ged(r, s)
            budget = VerificationBudget(max_expansions=rng.randint(1, 3))
            result = graph_edit_distance_detailed(r, s, budget=budget)
            if not result.budget_exhausted:
                assert result.distance == true_ged
                continue
            assert result.lower is not None and result.upper is not None
            assert result.lower <= true_ged <= result.upper
            assert result.distance == result.upper

    def test_generous_budget_is_bit_identical_to_none(self):
        r = path_graph(["C", "C", "O", "N"], graph_id=0)
        s = path_graph(["C", "O", "O", "N"], graph_id=1)
        plain = graph_edit_distance_detailed(r, s)
        budgeted = graph_edit_distance_detailed(
            r, s, budget=VerificationBudget(max_expansions=10**6)
        )
        assert budgeted == plain

    def test_bounded_verdict_with_threshold_still_sound(self):
        """Threshold pruning must not invalidate the lower bound."""
        rng = random.Random(11)
        for trial in range(20):
            r = random_labeled_graph(rng, 4, 3, ["A", "B"], ["x"])
            s = random_labeled_graph(rng, 4, 2, ["A", "B"], ["x"])
            true_ged = brute_force_ged(r, s)
            tau = 2
            result = graph_edit_distance_detailed(
                r, s, threshold=tau,
                budget=VerificationBudget(max_expansions=2),
            )
            if result.budget_exhausted:
                assert result.lower <= true_ged


class TestBudgetedJoin:
    def setup_method(self):
        self.graphs = molecule_collection(20, seed=13)
        self.tau = 2

    def test_budgeted_join_is_sound_and_complete_up_to_undecided(self):
        exact = gsim_join(self.graphs, self.tau)
        budgeted = gsim_join(
            self.graphs, self.tau,
            budget=VerificationBudget(max_expansions=2),
        )
        # Soundness: every reported pair is a true pair.
        assert budgeted.pair_set() <= exact.pair_set()
        # Completeness: every missing true pair is accounted for as
        # undecided, with bounds bracketing tau.
        undecided_ids = {(bp.r_id, bp.s_id) for bp in budgeted.undecided}
        assert exact.pair_set() - budgeted.pair_set() <= undecided_ids
        for bp in budgeted.undecided:
            assert bp.reason == "budget"
            assert bp.lower is not None and bp.lower <= self.tau
            assert bp.upper is None or bp.upper > self.tau
        assert budgeted.stats.undecided == len(budgeted.undecided)

    def test_generous_budget_matches_plain_join_exactly(self):
        exact = gsim_join(self.graphs, self.tau)
        budgeted = gsim_join(
            self.graphs, self.tau,
            budget=VerificationBudget(max_expansions=10**7),
        )
        assert budgeted.pairs == exact.pairs
        assert budgeted.undecided == []
        assert budgeted.stats.ged_expansions == exact.stats.ged_expansions
        assert budgeted.stats.cand2 == exact.stats.cand2

    def test_budgeted_dfs_is_sound_and_complete_up_to_undecided(self):
        """The DFS backend honours budgets with sound brackets — the
        historical 'budgets require A*-family' restriction is gone."""
        options = GSimJoinOptions(verifier="dfs")
        exact = gsim_join(self.graphs, self.tau, options=options)
        budgeted = gsim_join(
            self.graphs, self.tau, options=options,
            budget=VerificationBudget(max_expansions=2),
        )
        assert budgeted.pair_set() <= exact.pair_set()
        undecided_ids = {(bp.r_id, bp.s_id) for bp in budgeted.undecided}
        assert exact.pair_set() - budgeted.pair_set() <= undecided_ids
        for bp in budgeted.undecided:
            assert bp.reason == "budget"
            assert bp.lower is not None and bp.lower <= self.tau
            assert bp.upper is None or bp.upper > self.tau

    def test_unknown_verifier_is_rejected_with_registry_listing(self):
        with pytest.raises(ParameterError, match="registered backends"):
            gsim_join(
                self.graphs, 1,
                options=GSimJoinOptions(verifier="ilp"),
            )


def _meta(tag="a"):
    return {"kind": "self-join", "tag": tag}


class TestJournal:
    def test_create_replay_round_trip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        rec = VerificationRecord(i=3, j=1, is_result=True, ged=2, expansions=7)
        with JoinJournal.open(path, _meta()) as journal:
            journal.append(rec)
            journal.append(VerificationRecord(i=4, j=0, is_result=False,
                                              pruned_by="count"))
        with JoinJournal.open(path, _meta()) as journal:
            assert journal.completed[(3, 1)] == rec
            assert journal.completed[(4, 0)].pruned_by == "count"
            assert len(journal.completed) == 2

    def test_torn_final_line_is_truncated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with JoinJournal.open(path, _meta()) as journal:
            journal.append(VerificationRecord(i=1, j=0, is_result=True))
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"i": 2, "j": 0, "torn_ma')  # torn write, no newline
        with JoinJournal.open(path, _meta()) as journal:
            assert set(journal.completed) == {(1, 0)}
        # The torn bytes are gone from the file.
        assert "torn_ma" not in path.read_text()

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with JoinJournal.open(path, _meta()) as journal:
            journal.append(VerificationRecord(i=1, j=0, is_result=True))
        text = path.read_text().splitlines()
        text.insert(1, "garbage not json")
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(CheckpointError, match="corrupt"):
            JoinJournal.open(path, _meta())

    def test_meta_mismatch_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        JoinJournal.open(path, _meta("a")).close()
        with pytest.raises(CheckpointError, match="different run"):
            JoinJournal.open(path, _meta("b"))

    def test_foreign_file_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"not": "a journal"}\n')
        with pytest.raises(CheckpointError, match="not a gsimjoin journal"):
            JoinJournal.open(path, _meta())

    def test_append_after_close_raises(self, tmp_path):
        journal = JoinJournal.open(tmp_path / "j.jsonl", _meta())
        journal.close()
        journal.close()  # idempotent
        with pytest.raises(CheckpointError, match="closed"):
            journal.append(VerificationRecord(i=0, j=0, is_result=False))

    def test_empty_existing_file_gets_fresh_header(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("")
        with JoinJournal.open(path, _meta()) as journal:
            assert journal.completed == {}
        assert "gsimjoin-journal" in path.read_text()
