"""Cross-backend differential suite for the verifier portfolio.

Every backend of :data:`repro.ged.portfolio.BACKENDS` must agree on
exact distances (checked against the brute-force reference), budgeted
DFS must return sound lower/upper brackets, and the ``"auto"``
hardness dispatcher must produce bit-identical join results against
every single-backend run — sequentially, in parallel, sharded, and
across a checkpoint resume.  The name → backend table itself
(aliases, unknown names) is unit-tested here too.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GSimJoinOptions, assign_ids, gsim_join
from repro.core.parallel import gsim_join_parallel
from repro.core.search import GSimIndex
from repro.core.sharded import gsim_join_sharded
from repro.exceptions import ParameterError
from repro.ged.portfolio import (
    AUTO_MAX_DISTINCT_LABELS,
    AUTO_MIN_TAU,
    AUTO_MIN_VERTICES,
    BACKENDS,
    AutoBackend,
    resolve_backend,
)
from repro.ged.reference import brute_force_ged
from repro.graph.generators import random_labeled_graph
from repro.runtime.budget import VerificationBudget

from .conftest import graph_pairs_within

ALL_VERIFIERS = ("compiled", "object", "astar", "dfs", "auto")


# ------------------------------------------------------------------ registry


class TestRegistry:
    def test_names_cover_every_backend_and_alias(self):
        assert set(BACKENDS) >= set(ALL_VERIFIERS)

    def test_aliases_resolve_to_the_same_singleton(self):
        assert resolve_backend("astar") is resolve_backend("object")

    def test_unknown_verifier_lists_registered_backends(self):
        with pytest.raises(ParameterError, match="registered backends"):
            resolve_backend("ilp")


# ------------------------------------------------- distance differential


@settings(max_examples=40, deadline=None)
@given(graph_pairs_within(tau_max=3, max_vertices=5), st.integers(0, 3))
def test_all_backends_agree_on_exact_distances(pair, tau):
    """Every registered backend decides every pair identically, and the
    decisions match the brute-force reference."""
    r, s, _ = pair
    exact = brute_force_ged(r, s)
    for backend in BACKENDS.values():
        search = backend.verify(r, s, tau)
        if exact <= tau:
            assert not search.exceeded_threshold, backend.name
            assert search.distance == exact, backend.name
        else:
            assert search.exceeded_threshold, backend.name


@settings(max_examples=25, deadline=None)
@given(graph_pairs_within(tau_max=3, max_vertices=5), st.integers(1, 3))
def test_all_backends_agree_with_improved_heuristic(pair, q):
    r, s, k = pair
    tau = min(k + 1, 3)
    exact = brute_force_ged(r, s)
    for backend in BACKENDS.values():
        search = backend.verify(r, s, tau, improved_h=True, q=q)
        if exact <= tau:
            assert search.distance == exact, backend.name
        else:
            assert search.exceeded_threshold, backend.name


@pytest.mark.parametrize("max_expansions", [1, 3, 10])
def test_budgeted_dfs_brackets_are_sound(max_expansions):
    """On exhaustion the DFS backend returns ``lower <= ged <= upper``."""
    dfs = resolve_backend("dfs")
    budget_template = VerificationBudget(max_expansions=max_expansions)
    rng = random.Random(99)
    exhausted = 0
    for trial in range(60):
        n = rng.randrange(4, 7)
        cap = n * (n - 1) // 2
        r = random_labeled_graph(rng, n, min(rng.randrange(n, 2 * n), cap),
                                 ["A", "B"], ["x"], graph_id=f"r{trial}")
        s = random_labeled_graph(rng, n, min(rng.randrange(n, 2 * n), cap),
                                 ["A", "B"], ["x"], graph_id=f"s{trial}")
        exact = brute_force_ged(r, s)
        search = dfs.verify(r, s, 3, budget_template)
        if search.budget_exhausted:
            exhausted += 1
            assert search.lower is not None and search.lower <= exact
            assert search.upper is not None and search.upper >= exact
        else:
            if not search.exceeded_threshold:
                assert search.distance == exact
    assert exhausted > 0, "budget never exhausted; caps too generous"


# ------------------------------------------------------- auto dispatcher


def easy_graph(rng, graph_id):
    """Small and label-diverse: compiled territory."""
    return random_labeled_graph(
        rng, 5, 6, ["A", "B", "C", "D"], ["x", "y"], graph_id=graph_id
    )


def hard_graph(rng, graph_id):
    """Large over two labels: the A* heuristic starves, DFS territory."""
    return random_labeled_graph(
        rng, 10, 14, ["A", "B"], ["x"], graph_id=graph_id
    )


def mixed_collection(n, seed):
    """Alternating easy/hard clusters so ``auto`` exercises both targets."""
    rng = random.Random(seed)
    graphs = []
    for i in range(n):
        maker = easy_graph if i % 2 == 0 else hard_graph
        graphs.append(maker(rng, None))
    return assign_ids(graphs)


class TestAutoDispatch:
    def test_select_is_pure_and_matches_the_documented_rule(self):
        rng = random.Random(5)
        auto = AutoBackend()
        small = easy_graph(rng, "e")
        big = hard_graph(rng, "h")
        # Small pairs and tight thresholds go to compiled.
        assert auto.select(small, small, 3).name == "compiled"
        assert auto.select(big, big, AUTO_MIN_TAU - 1).name == "compiled"
        # Large, loose, label-starved pairs go to dfs.
        assert big.num_vertices >= AUTO_MIN_VERTICES
        assert auto.select(big, big, AUTO_MIN_TAU).name == "dfs"
        # Label diversity above the cutoff keeps A*.
        diverse = random_labeled_graph(
            random.Random(7), 10, 14, ["A", "B", "C", "D"], ["x"],
            graph_id="d",
        )
        distinct = {
            diverse.vertex_label(v) for v in diverse.vertices()
        }
        if len(distinct) > AUTO_MAX_DISTINCT_LABELS:
            assert auto.select(diverse, diverse, 3).name == "compiled"

    @pytest.mark.parametrize("tau", [1, 2, 3])
    def test_auto_join_matches_every_single_backend(self, tau):
        graphs = mixed_collection(14, seed=11)
        options = GSimJoinOptions.full(q=2)
        results = {
            verifier: gsim_join(
                graphs, tau, options=replace(options, verifier=verifier)
            )
            for verifier in ALL_VERIFIERS
        }
        expected = results["compiled"]
        for verifier, result in results.items():
            assert result.pairs == expected.pairs, verifier
            assert result.stats.results == expected.stats.results, verifier

    def test_auto_join_records_both_dispatch_targets(self):
        graphs = mixed_collection(14, seed=11)
        options = replace(GSimJoinOptions.full(q=2), verifier="auto")
        result = gsim_join(graphs, 3, options=options)
        backends = result.stats.verify_backends
        assert backends.get("compiled", 0) > 0
        assert backends.get("dfs", 0) > 0
        assert sum(backends.values()) == result.stats.ged_calls

    def test_auto_parallel_matches_sequential(self):
        graphs = mixed_collection(12, seed=13)
        options = replace(GSimJoinOptions.full(q=2), verifier="auto")
        sequential = gsim_join(graphs, 2, options=options)
        parallel = gsim_join_parallel(
            graphs, 2, options=options, workers=2, chunk_size=3
        )
        assert parallel.pairs == sequential.pairs
        assert (
            parallel.stats.verify_backends == sequential.stats.verify_backends
        )

    def test_auto_sharded_matches_sequential(self, tmp_path):
        graphs = mixed_collection(12, seed=17)
        options = replace(GSimJoinOptions.full(q=2), verifier="auto")
        sequential = gsim_join(graphs, 2, options=options)
        sharded = gsim_join_sharded(
            graphs, 2, options=options,
            spill_dir=tmp_path / "spill", shards=3,
        )
        assert sharded.pair_set() == sequential.pair_set()

    def test_auto_checkpoint_resume_replays_backend_attribution(self, tmp_path):
        graphs = mixed_collection(12, seed=19)
        options = replace(GSimJoinOptions.full(q=2), verifier="auto")
        checkpoint = tmp_path / "journal.jsonl"
        first = gsim_join(graphs, 2, options=options, checkpoint=checkpoint)
        resumed = gsim_join(graphs, 2, options=options, checkpoint=checkpoint)
        assert resumed.pairs == first.pairs
        assert resumed.stats.replayed_pairs > 0
        assert resumed.stats.verify_backends == first.stats.verify_backends


# ------------------------------------------------------------- verdict memo


class TestVerdictMemo:
    def test_repeated_index_queries_reuse_verdicts(self):
        graphs = mixed_collection(12, seed=23)
        index = GSimIndex(graphs, tau_max=2, options=GSimJoinOptions.full(q=2))
        g = graphs[0]
        first = index.query(g, 2)
        calls_after_first = index._cache.memo_hits
        second = index.query(g, 2)
        assert second == first
        assert index._cache.memo_hits > calls_after_first

    def test_memo_decides_without_new_search(self):
        graphs = mixed_collection(10, seed=29)
        index = GSimIndex(graphs, tau_max=2, options=GSimJoinOptions.full(q=2))
        from repro.engine.result import JoinStatistics

        g = graphs[0]
        stats_first = JoinStatistics()
        index.query(g, 2, stats=stats_first)
        stats_second = JoinStatistics()
        index.query(g, 2, stats=stats_second)
        # Every pair the first probe verified is answered by the memo.
        assert stats_second.ged_calls < max(stats_first.ged_calls, 1)
        assert stats_second.memo_hits > 0
