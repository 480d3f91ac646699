"""Static cost-based planner tests (``GSimJoinOptions(plan="auto")``).

Covers the static model (:mod:`repro.engine.planner`: statistics, unit
costs, sampled pass rates, the predicate-ordering rule) and the engine's
end-to-end guarantees: every legal cascade permutation *and* the auto
plan produce bit-identical result pairs and undecided sets (a
hypothesis property over seeds, q and tau); an auto-planned join killed
mid-run resumes bit-identically from its journal; the parallel, sharded
and search-index drivers agree with the default plan under auto, and
the join and the index pick the same order; and the CLI's
``--auto-plan --explain-plan json`` report parses.
"""

import dataclasses
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.join import GSimJoinOptions, gsim_join, gsim_join_rs
from repro.core.parallel import gsim_join_parallel
from repro.core.search import GSimIndex
from repro.core.sharded import gsim_join_sharded, result_fingerprint
from repro.engine.options import build_sorter
from repro.engine.plan import build_plan
from repro.engine.result import JoinStatistics
from repro.engine.planner import (
    CollectionStats,
    advise_parameters,
    choose_order,
    collect_statistics,
    estimate_pass_rates,
    expected_cost,
    static_choice,
    unit_costs,
)
from repro.exceptions import InjectedFaultError
from repro.graph import save_graphs
from repro.grams.qgrams import extract_qgrams
from repro.runtime import FaultPlan

from .test_join import molecule_collection

TAU = 2

#: The full variant's pair-filter cascade (every legal plan is one of
#: its permutations).
FULL_FILTERS = ("global-label-filter", "count-filter", "local-label-filter")


def auto_options(base=None):
    """``base`` (default full) with the auto plan enabled."""
    return dataclasses.replace(
        base if base is not None else GSimJoinOptions.full(), plan="auto"
    )


def prepared_collection(n, seed, options):
    """Sorted profiles, labels and the plan's filters for a collection."""
    graphs = molecule_collection(n, seed=seed)
    profiles = [extract_qgrams(g, options.q) for g in graphs]
    sorter = build_sorter(profiles, options)
    for profile in profiles:
        sorter.sort_profile(profile)
    labels = [
        (g.vertex_label_multiset(), g.edge_label_multiset()) for g in graphs
    ]
    return profiles, labels, build_plan(options).pair_filters


# ----------------------------------------------------- the static model


class TestStaticModel:
    def test_collect_statistics_aggregates(self):
        profiles, labels, _ = prepared_collection(
            12, 5, GSimJoinOptions.full()
        )
        stats = collect_statistics(profiles, labels)
        assert stats.num_graphs == 12
        assert 5 <= stats.mean_vertices <= 15
        assert stats.mean_edges > 0
        assert stats.mean_signature > 0
        assert stats.mean_labels > 0
        assert 0 < stats.label_skew <= 1.0
        assert 0 < stats.df_skew <= 1.0

    def test_collect_statistics_empty(self):
        stats = collect_statistics([], [])
        assert stats == CollectionStats(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_unit_costs_reflect_filter_complexity(self):
        stats = CollectionStats(10, 8.0, 8.0, 20.0, 4.0, 0.3, 0.5)
        costs = unit_costs(stats)
        assert set(costs) == {
            "global-label-filter",
            "count-filter",
            "local-label-filter",
            "multicover-filter",
        }
        assert all(c > 0 for c in costs.values())
        # The signature-walking filters must stay costlier than the
        # merge, which must stay costlier than the label intersection.
        assert (
            costs["global-label-filter"]
            < costs["count-filter"]
            < costs["local-label-filter"]
            < costs["multicover-filter"]
        )

    def test_expected_cost_formula(self):
        rates = {"a": 0.5, "b": 0.2}
        costs = {"a": 1.0, "b": 2.0}
        # c_a + p_a * c_b
        assert expected_cost(("a", "b"), rates, costs) == pytest.approx(2.0)
        # c_b + p_b * c_a
        assert expected_cost(("b", "a"), rates, costs) == pytest.approx(2.2)

    def test_choose_order_ranks_by_cost_per_pruned(self):
        rates = {"a": 0.9, "b": 0.5}
        costs = {"a": 1.0, "b": 2.0}
        # rank(a) = 1/0.1 = 10, rank(b) = 2/0.5 = 4 -> b first.
        assert choose_order(("a", "b"), rates, costs) == ("b", "a")

    def test_choose_order_never_pruning_goes_last(self):
        rates = {"a": 1.0, "b": 0.99}
        costs = {"a": 0.1, "b": 5.0}
        assert choose_order(("a", "b"), rates, costs) == ("b", "a")

    def test_choose_order_ties_break_on_name(self):
        rates = {"x": 0.5, "m": 0.5}
        costs = {"x": 1.0, "m": 1.0}
        assert choose_order(("x", "m"), rates, costs) == ("m", "x")

    def test_choose_order_minimizes_expected_cost(self):
        rates = {"a": 0.3, "b": 0.7, "c": 0.05}
        costs = {"a": 1.0, "b": 0.5, "c": 4.0}
        best = choose_order(("a", "b", "c"), rates, costs)
        best_cost = expected_cost(best, rates, costs)
        for order in itertools.permutations(("a", "b", "c")):
            assert best_cost <= expected_cost(order, rates, costs) + 1e-12

    def test_estimate_pass_rates_bounds_and_determinism(self):
        options = GSimJoinOptions.full()
        profiles, labels, filters = prepared_collection(14, 7, options)
        first = estimate_pass_rates(profiles, labels, TAU, filters)
        second = estimate_pass_rates(profiles, labels, TAU, filters)
        assert first == second
        assert set(first) == set(FULL_FILTERS)
        assert all(0.0 <= rate <= 1.0 for rate in first.values())

    def test_static_choice_returns_permutation(self):
        options = GSimJoinOptions.full()
        profiles, labels, filters = prepared_collection(14, 9, options)
        order, rates, costs = static_choice(profiles, labels, TAU, filters)
        assert sorted(order) == sorted(FULL_FILTERS)
        assert set(rates) == set(FULL_FILTERS)
        assert set(costs) >= set(FULL_FILTERS)

    def test_advise_parameters_sparse_vs_dense(self):
        sparse = CollectionStats(10, 8.0, 8.0, 10.0, 3.0, 0.3, 0.4)
        dense = CollectionStats(10, 30.0, 60.0, 80.0, 5.0, 0.3, 0.4)
        assert advise_parameters(sparse, 4, 2)["recommended_q"] == 3
        assert advise_parameters(dense, 4, 2)["recommended_q"] == 4
        assert advise_parameters(dense, 4, 0)["recommended_prefix"] == (
            "basic-prefix"
        )
        assert advise_parameters(dense, 4, 2)["recommended_prefix"] == (
            "minedit-prefix"
        )
        assert advise_parameters(sparse, 4, 2)["current_q"] == 4


# ----------------------------------------- end-to-end result parity


class TestAutoParity:
    def test_self_join_auto_matches_default(self):
        graphs = molecule_collection(24, seed=3)
        default = gsim_join(graphs, TAU, options=GSimJoinOptions.full())
        planned = gsim_join(graphs, TAU, options=auto_options())
        assert planned.pairs == default.pairs
        assert planned.undecided == default.undecided

    def test_rs_join_auto_matches_default(self):
        outer = molecule_collection(12, seed=41)
        inner = molecule_collection(12, seed=43)
        default = gsim_join_rs(
            outer, inner, TAU, options=GSimJoinOptions.full()
        )
        planned = gsim_join_rs(outer, inner, TAU, options=auto_options())
        assert planned.pairs == default.pairs
        assert planned.undecided == default.undecided

    def test_auto_annotates_stage_rows_and_advice(self):
        graphs = molecule_collection(16, seed=3)
        result = gsim_join(graphs, TAU, options=auto_options())
        cascade = [
            s for s in result.stats.stages if s.name in FULL_FILTERS
        ]
        assert cascade
        for row in cascade:
            assert row.estimated_selectivity is not None
            assert 0.0 <= row.estimated_selectivity <= 1.0
            assert row.estimated_cost is not None and row.estimated_cost > 0
        advice = result.stats.plan_advice
        assert advice["recommended_q"] in (3, 4)
        assert advice["recommended_prefix"] == "minedit-prefix"
        # Non-auto runs stay unannotated.
        plain = gsim_join(graphs, TAU, options=GSimJoinOptions.full())
        assert all(
            s.estimated_selectivity is None for s in plain.stats.stages
        )
        assert plain.stats.plan_advice == {}

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        q=st.integers(min_value=1, max_value=3),
        tau=st.integers(min_value=0, max_value=3),
    )
    def test_every_permutation_and_auto_bit_identical(self, seed, q, tau):
        graphs = molecule_collection(10, seed=seed)
        base = GSimJoinOptions.full(q=q)
        baseline = gsim_join(graphs, tau, options=base)
        for order in itertools.permutations(FULL_FILTERS):
            result = gsim_join(
                graphs, tau, options=dataclasses.replace(base, plan=order)
            )
            assert result.pairs == baseline.pairs
            assert result.undecided == baseline.undecided
        result = gsim_join(graphs, tau, options=auto_options(base))
        assert result.pairs == baseline.pairs
        assert result.undecided == baseline.undecided


# ------------------------------------- kill-and-resume bit-identity


def cascade_order(stats):
    """The pair-filter rows of ``stats``, in execution order."""
    return tuple(s.name for s in stats.stages if s.role == "pair-filter")


def stage_counts(result):
    """``(name, input, survivors)`` per stage row, in execution order."""
    return [(s.name, s.input, s.survivors) for s in result.stats.stages]


def assert_same_result(resumed, clean):
    assert result_fingerprint(resumed) == result_fingerprint(clean)
    assert stage_counts(resumed) == stage_counts(clean)
    for field in ("cand1", "cand2", "results", "ged_calls",
                  "pruned_by_count", "pruned_by_global_label",
                  "pruned_by_local_label"):
        assert getattr(resumed.stats, field) == getattr(clean.stats, field)


class TestAutoResume:
    def test_raise_then_resume_bit_identical(self, tmp_path):
        graphs = molecule_collection(24, seed=11)
        options = auto_options()
        journal = tmp_path / "auto.jsonl"
        with pytest.raises(InjectedFaultError):
            gsim_join(
                graphs, TAU, options=options, checkpoint=journal,
                fault=FaultPlan("raise", at=12),
            )
        clean = gsim_join(graphs, TAU, options=options)
        resumed = gsim_join(graphs, TAU, options=options, checkpoint=journal)
        assert_same_result(resumed, clean)
        assert resumed.stats.replayed_pairs == 11

    def test_parallel_raise_then_resume_bit_identical(self, tmp_path):
        graphs = molecule_collection(24, seed=13)
        options = auto_options()
        journal = tmp_path / "par.jsonl"
        with pytest.raises(InjectedFaultError):
            # One in-process worker, one pair per chunk: the fault
            # escapes at the 5th pair with the first 4 journaled.
            gsim_join_parallel(
                graphs, TAU, options=options, workers=1, chunk_size=1,
                checkpoint=journal, fault=FaultPlan("raise", at=5),
            )
        clean = gsim_join_parallel(graphs, TAU, options=options, workers=2)
        resumed = gsim_join_parallel(
            graphs, TAU, options=options, workers=2, checkpoint=journal
        )
        assert_same_result(resumed, clean)
        assert resumed.stats.replayed_pairs == 4


# -------------------------------------------- drivers agree under auto


class TestDriverParity:
    def test_parallel_auto_matches_sequential(self):
        graphs = molecule_collection(24, seed=13)
        default = gsim_join(graphs, TAU, options=GSimJoinOptions.full())
        parallel = gsim_join_parallel(
            graphs, TAU, options=auto_options(), workers=2
        )
        assert result_fingerprint(parallel) == result_fingerprint(default)

    def test_parallel_single_worker_auto_matches_sequential(self):
        graphs = molecule_collection(20, seed=17)
        options = auto_options()
        sequential = gsim_join(graphs, TAU, options=options)
        parallel = gsim_join_parallel(
            graphs, TAU, options=options, workers=1
        )
        assert result_fingerprint(parallel) == result_fingerprint(sequential)
        # The worker verifies with the order the parent picked, so the
        # stage rows agree with the sequential run's.
        assert stage_counts(parallel) == stage_counts(sequential)

    def test_sharded_auto_matches_sequential(self, tmp_path):
        graphs = molecule_collection(24, seed=17)
        default = gsim_join(graphs, TAU, options=GSimJoinOptions.full())
        sharded = gsim_join_sharded(
            graphs, TAU, options=auto_options(),
            spill_dir=tmp_path / "spill", shards=3,
        )
        assert result_fingerprint(sharded) == result_fingerprint(default)

    def test_index_auto_queries_match_default(self):
        graphs = molecule_collection(24, seed=19)
        base, extra = graphs[:20], graphs[20:]
        default_index = GSimIndex(base, tau_max=TAU)
        auto_index = GSimIndex(base, tau_max=TAU, options=auto_options())
        for g in base[:6]:
            assert auto_index.query(g, TAU) == default_index.query(g, TAU)
        # Inserts mark the auto plan stale; the next query re-picks it and
        # must still agree with the default index.
        for g in extra:
            default_index.add(g)
            auto_index.add(g)
        for g in graphs[:6]:
            assert auto_index.query(g, TAU) == default_index.query(g, TAU)
        assert sorted(
            f.name for f in auto_index._plan.pair_filters
        ) == sorted(FULL_FILTERS)

    def test_join_and_index_pick_the_same_order(self):
        graphs = molecule_collection(24, seed=19)
        joined = gsim_join(graphs, TAU, options=auto_options())
        index = GSimIndex(graphs, tau_max=TAU, options=auto_options())
        stats = JoinStatistics()
        index.query(graphs[0], TAU, stats=stats)
        assert cascade_order(joined.stats) == cascade_order(stats)
        assert sorted(cascade_order(stats)) == sorted(FULL_FILTERS)


# ------------------------------------------------------------- the CLI


class TestExplainPlanJson:
    def test_cli_auto_plan_explain_json(self, tmp_path, capsys):
        path = tmp_path / "graphs.txt"
        save_graphs(molecule_collection(16, seed=3), path)
        rc = main([
            "join", str(path), "--tau", "1",
            "--auto-plan", "--explain-plan", "json", "--quiet",
        ])
        assert rc == 0
        report = json.loads(capsys.readouterr().err)
        assert set(report) == {
            "stages", "plan_advice", "verify_backends", "memo_hits",
        }
        names = [row["name"] for row in report["stages"]]
        assert "verify" in names and set(FULL_FILTERS) <= set(names)
        for row in report["stages"]:
            if row["name"] in FULL_FILTERS:
                assert row["estimated_selectivity"] is not None
                assert row["estimated_cost"] is not None
        assert report["plan_advice"]["recommended_q"] in (3, 4)

    def test_cli_explain_table_shows_model_columns(self, tmp_path, capsys):
        path = tmp_path / "graphs.txt"
        save_graphs(molecule_collection(16, seed=3), path)
        rc = main([
            "join", str(path), "--tau", "1",
            "--auto-plan", "--explain-plan", "--quiet",
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "est.sel" in err and "obs.sel" in err and "est.cost" in err
