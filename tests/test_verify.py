"""Tests for the verification cascade (Algorithm 6)."""

from hypothesis import given, settings

from repro.core import GSimJoinOptions, JoinStatistics, extract_qgrams
from repro.datasets import figure1_graphs
from repro.engine.executor import Executor
from repro.ged import graph_edit_distance

from .conftest import graph_pairs_within, path_graph


def labels_of(g):
    return (g.vertex_label_multiset(), g.edge_label_multiset())


def run_verify(r, s, tau, q=1, stats=None, **options):
    """Algorithm 6 on one pair, through the engine's per-pair path."""
    p_r, p_s = extract_qgrams(r, q), extract_qgrams(s, q)
    executor = Executor(
        tau,
        GSimJoinOptions(**options),
        stats if stats is not None else JoinStatistics(),
    )
    return executor.verify_candidate(p_r, p_s, labels_of(r), labels_of(s))


class TestOutcomes:
    def test_figure1_accepted_at_tau3(self):
        r, s = figure1_graphs()
        outcome = run_verify(r, s, tau=3)
        assert outcome.is_result
        assert outcome.pruned_by is None
        assert outcome.ged == 3

    def test_figure1_rejected_at_tau1(self):
        r, s = figure1_graphs()
        outcome = run_verify(r, s, tau=1)
        assert not outcome.is_result
        # Global label bound is 3 > 1, so the cheapest filter fires.
        assert outcome.pruned_by == "global_label"

    def test_figure1_rejected_at_tau2_by_some_filter(self):
        r, s = figure1_graphs()
        outcome = run_verify(r, s, tau=2)
        assert not outcome.is_result
        assert outcome.pruned_by in {"global_label", "count", "local_label", "ged"}

    def test_identical_graphs_accepted_at_tau0(self):
        g = path_graph(["A", "B", "C"])
        outcome = run_verify(g, g.copy(), tau=0)
        assert outcome.is_result and outcome.ged == 0

    def test_stats_accumulation(self):
        r, s = figure1_graphs()
        stats = JoinStatistics()
        run_verify(r, s, tau=3, stats=stats)
        assert stats.cand2 == 1
        assert stats.ged_calls == 1
        assert stats.ged_time >= 0.0
        stats2 = JoinStatistics()
        run_verify(r, s, tau=1, stats=stats2)
        assert stats2.pruned_by_global_label == 1
        assert stats2.cand2 == 0


class TestFilterConfigurations:
    @settings(max_examples=25, deadline=None)
    @given(graph_pairs_within(tau_max=2, max_vertices=5))
    def test_all_configurations_agree_on_membership(self, pair):
        """Filters must never change the decision, only its cost."""
        r, s, _ = pair
        tau = 2
        expected = graph_edit_distance(r, s) <= tau
        for local in (False, True):
            for order in (False, True):
                for imp_h in (False, True):
                    outcome = run_verify(
                        r, s, tau,
                        local_label=local,
                        improved_order=order,
                        improved_h=imp_h,
                    )
                    assert outcome.is_result == expected
