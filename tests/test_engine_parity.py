"""Differential parity: the staged engine vs the frozen pre-refactor drivers.

``tests/legacy_drivers.py`` is a verbatim copy of the four hand-rolled
drivers as they stood before ``repro.engine`` existed.  Every test here
runs the same workload through both and asserts *bit-identical* output:
result pairs, query distances, every integer statistics counter
(candidates, prune counters, GED calls and expansion counts), bounded
verdicts under a budget, and journal files interchangeable in both
directions.  Wall-clock fields are the only tolerated difference.
"""

import dataclasses

import pytest

from repro.core.join import GSimJoinOptions, gsim_join, gsim_join_rs
from repro.core.parallel import gsim_join_parallel
from repro.engine.result import JoinStatistics
from repro.core.search import GSimIndex
from repro.exceptions import InjectedFaultError
from repro.runtime import FaultPlan, VerificationBudget

from .legacy_drivers import (
    LegacyGSimIndex,
    legacy_gsim_join,
    legacy_gsim_join_rs,
    legacy_gsim_join_serial_parallel,
)
from .test_join import molecule_collection

TAU = 2


def comparable_stats(stats):
    """Every non-wall-clock statistics field (stage rows and the
    per-backend verify attribution are engine-only)."""
    data = dataclasses.asdict(stats)
    return {
        key: value
        for key, value in data.items()
        if key not in ("stages", "verify_backends")
        and not isinstance(value, float)
    }


def assert_parity(new, old):
    assert new.pairs == old.pairs
    assert new.undecided == old.undecided
    assert comparable_stats(new.stats) == comparable_stats(old.stats)


# --------------------------------------------------------------- self-join


@pytest.mark.parametrize("tau", [0, 1, 2, 3])
@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_self_join_parity_grid(q, tau):
    graphs = molecule_collection(12, seed=3)
    options = GSimJoinOptions.full(q=q)
    assert_parity(
        gsim_join(graphs, tau, options=options),
        legacy_gsim_join(graphs, tau, options=options),
    )


@pytest.mark.parametrize("variant", ["basic", "minedit", "full", "extended"])
@pytest.mark.parametrize("seed", [7, 11])
def test_self_join_parity_variants(variant, seed):
    graphs = molecule_collection(14, seed=seed)
    options = getattr(GSimJoinOptions, variant)()
    assert_parity(
        gsim_join(graphs, TAU, options=options),
        legacy_gsim_join(graphs, TAU, options=options),
    )


def test_budget_verdict_parity():
    """Bounded verdicts (undecided pairs + GED bounds) match exactly."""
    graphs = molecule_collection(16, seed=5)
    options = GSimJoinOptions.full()
    budget = VerificationBudget(max_expansions=4)
    new = gsim_join(graphs, TAU, options=options, budget=budget)
    old = legacy_gsim_join(graphs, TAU, options=options, budget=budget)
    assert_parity(new, old)
    # The budget is tight enough that the test means something.
    assert new.stats.undecided > 0


# ----------------------------------------------------------------- R x S


@pytest.mark.parametrize("tau", [1, 2])
def test_rs_join_parity(tau):
    outer = molecule_collection(10, seed=13)
    inner = molecule_collection(12, seed=17)
    assert_parity(
        gsim_join_rs(outer, inner, tau),
        legacy_gsim_join_rs(outer, inner, tau),
    )


def test_rs_join_parity_with_budget():
    outer = molecule_collection(10, seed=13)
    inner = molecule_collection(12, seed=17)
    budget = VerificationBudget(max_expansions=4)
    assert_parity(
        gsim_join_rs(outer, inner, TAU, budget=budget),
        legacy_gsim_join_rs(outer, inner, TAU, budget=budget),
    )


# -------------------------------------------------------------- parallel


def test_parallel_serial_parity():
    graphs = molecule_collection(16, seed=19)
    new = gsim_join_parallel(graphs, TAU, workers=1, chunk_size=4)
    old = legacy_gsim_join_serial_parallel(graphs, TAU, chunk_size=4)
    assert_parity(new, old)


def test_parallel_serial_parity_with_budget():
    graphs = molecule_collection(16, seed=5)
    budget = VerificationBudget(max_expansions=4)
    new = gsim_join_parallel(graphs, TAU, workers=1, chunk_size=4, budget=budget)
    old = legacy_gsim_join_serial_parallel(
        graphs, TAU, chunk_size=4, budget=budget
    )
    assert_parity(new, old)


# ----------------------------------------------------------------- index


def test_index_query_parity():
    """Queries return identical matches *and* distances, with identical
    filter/verification counters."""
    options = GSimJoinOptions.full()
    graphs = molecule_collection(14, seed=23)
    new_index = GSimIndex(graphs, tau_max=2, options=options)
    old_index = LegacyGSimIndex(graphs, tau_max=2, options=options)
    probes = molecule_collection(6, seed=29)
    for g in probes:
        for tau in (0, 1, 2):
            new_stats = JoinStatistics()
            old_stats = JoinStatistics()
            assert new_index.query(g, tau, stats=new_stats) == old_index.query(
                g, tau, stats=old_stats
            )
            assert comparable_stats(new_stats) == comparable_stats(old_stats)


# --------------------------------------------------------------- journals


def journal_fields(stats):
    return {
        field: getattr(stats, field)
        for field in (
            "cand1", "cand2", "results", "ged_calls", "ged_expansions",
            "undecided", "pruned_by_count", "pruned_by_global_label",
            "pruned_by_local_label",
        )
    }


def test_legacy_journal_resumes_engine_driver(tmp_path):
    """A journal left by an interrupted pre-refactor run feeds the new
    engine driver with no conversion step."""
    graphs = molecule_collection(16, seed=31)
    journal = tmp_path / "join.jsonl"
    with pytest.raises(InjectedFaultError):
        legacy_gsim_join(
            graphs, TAU, checkpoint=journal, fault=FaultPlan("raise", at=5)
        )
    clean = legacy_gsim_join(graphs, TAU)
    resumed = gsim_join(graphs, TAU, checkpoint=journal)
    assert resumed.pairs == clean.pairs
    assert journal_fields(resumed.stats) == journal_fields(clean.stats)
    assert resumed.stats.replayed_pairs == 4


def test_engine_journal_resumes_legacy_driver(tmp_path):
    graphs = molecule_collection(16, seed=31)
    journal = tmp_path / "join.jsonl"
    with pytest.raises(InjectedFaultError):
        gsim_join(graphs, TAU, checkpoint=journal, fault=FaultPlan("raise", at=5))
    clean = gsim_join(graphs, TAU)
    resumed = legacy_gsim_join(graphs, TAU, checkpoint=journal)
    assert resumed.pairs == clean.pairs
    assert journal_fields(resumed.stats) == journal_fields(clean.stats)
    assert resumed.stats.replayed_pairs == 4


def test_completed_journals_replay_across_drivers(tmp_path):
    """Full-run journals are byte-compatible in both directions (headers
    included: same meta, same collection hash, same options encoding)."""
    graphs = molecule_collection(14, seed=37)
    old_journal = tmp_path / "old.jsonl"
    new_journal = tmp_path / "new.jsonl"
    old = legacy_gsim_join(graphs, TAU, checkpoint=old_journal)
    new = gsim_join(graphs, TAU, checkpoint=new_journal)
    assert_parity(new, old)

    replay_new = gsim_join(graphs, TAU, checkpoint=old_journal)
    replay_old = legacy_gsim_join(graphs, TAU, checkpoint=new_journal)
    assert replay_new.pairs == replay_old.pairs == old.pairs
    assert replay_new.stats.replayed_pairs == old.stats.cand1
    assert replay_old.stats.replayed_pairs == new.stats.cand1


# --------------------------------------- satellite: index completeness


@pytest.mark.parametrize("seed", [41, 43, 47])
@pytest.mark.parametrize("tau_max", [2, 3])
def test_index_query_finds_every_join_pair(seed, tau_max):
    """Property: each pair the self-join reports at tau must come back
    from ``index.query(r, tau)`` for any ``tau_max >= tau``."""
    graphs = molecule_collection(14, seed=seed)
    index = GSimIndex(graphs, tau_max=tau_max)
    by_id = {g.graph_id: g for g in graphs}
    for tau in range(tau_max + 1):
        result = gsim_join(graphs, tau)
        for r_id, s_id in result.pairs:
            matches = {m for m, _ in index.query(by_id[r_id], tau)}
            assert s_id in matches, (tau, r_id, s_id)
            matches = {m for m, _ in index.query(by_id[s_id], tau)}
            assert r_id in matches, (tau, s_id, r_id)
