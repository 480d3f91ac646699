"""Differential property suite: the compiled A* vs the object-graph A*.

The compiled integer-array A* (``repro.ged.compiled``) must be
*bit-identical* to the object-graph reference (``repro.ged.astar``): the
same distances, the same ``exceeded_threshold`` decisions, the same
expansion/generation counts, and — through the join — the same
``JoinResult`` pairs, statistics and budgeted ``undecided`` brackets,
across seeds, q-gram lengths, thresholds, sequential and parallel
executors, with and without budgets and checkpointing.  The join-level
reference is the ``verifier="astar"`` path of ``tests/legacy_drivers.py``.
"""

import random
from dataclasses import replace

import pytest

from repro import GSimJoinOptions, assign_ids, gsim_join, gsim_join_rs
from repro.core.parallel import gsim_join_parallel
from repro.core.search import GSimIndex
from repro.exceptions import ParameterError
from repro.ged.astar import graph_edit_distance_detailed
from repro.ged.portfolio import BACKENDS
from repro.ged.compiled import (
    CompiledGraph,
    LabelInterner,
    VerificationCache,
    compile_graph,
    compiled_ged_detailed,
)
from repro.ged.heuristics import label_heuristic, make_local_label_heuristic
from repro.ged.vertex_order import input_vertex_order, mismatch_vertex_order
from repro.grams.mismatch import compare_qgrams
from repro.grams.qgrams import extract_qgrams
from repro.graph.graph import Graph
from repro.runtime import FaultPlan
from repro.runtime.budget import VerificationBudget

from .legacy_drivers import (
    LegacyGSimIndex,
    legacy_gsim_join,
    legacy_gsim_join_rs,
    legacy_gsim_join_serial_parallel,
)
from .test_join import molecule_collection
from .test_vocab import assert_stat_parity, labeled_collection

SEARCH_FIELDS = (
    "distance",
    "expanded",
    "generated",
    "exceeded_threshold",
    "budget_exhausted",
    "lower",
    "upper",
)


def random_pair_graph(rng, n, directed, num_vlabels=3, num_elabels=2, p=0.4):
    g = Graph(directed=directed)
    names = [f"v{i}" for i in range(n)]
    for name in names:
        g.add_vertex(name, label=rng.randrange(num_vlabels))
    for i in range(n):
        for j in range(i + 1, n):
            ends = [(i, j), (j, i)] if directed else [(i, j)]
            for a, b in ends:
                if rng.random() < p:
                    g.add_edge(names[a], names[b], label=rng.randrange(num_elabels))
    return g


def run_both(r, s, *, tau, q, improved, use_mismatch_order, budget, cache):
    """One object run and one compiled run over the same configuration."""
    cr, cs = cache.compile(r), cache.compile(s)
    if use_mismatch_order:
        mm = compare_qgrams(extract_qgrams(r, q), extract_qgrams(s, q))
        order = mismatch_vertex_order(r, mm.mismatch_r)
    else:
        order = input_vertex_order(r)
    h_tau = tau if tau is not None else 10**9
    heuristic = make_local_label_heuristic(q, h_tau) if improved else label_heuristic
    obj = graph_edit_distance_detailed(
        r, s, threshold=tau, heuristic=heuristic, vertex_order=order, budget=budget
    )
    comp = compiled_ged_detailed(
        cr,
        cs,
        threshold=tau,
        vertex_order=[cr.index_of[v] for v in order],
        budget=budget,
        improved_h=improved,
        q=q,
        h_tau=h_tau,
        subgraph_cache=cache.subgraph_cache,
    )
    return obj, comp, cr, cs, order


# --------------------------------------------------------------- compilation


class TestCompilation:
    def test_interner_assigns_dense_first_seen_ids(self):
        interner = LabelInterner()
        assert interner.intern("C") == 0
        assert interner.intern("N") == 1
        assert interner.intern("C") == 0
        assert len(interner) == 2

    def test_compiled_graph_mirrors_object_graph(self):
        rng = random.Random(3)
        g = random_pair_graph(rng, 6, directed=False)
        compiled = compile_graph(g, LabelInterner(), LabelInterner())
        assert isinstance(compiled, CompiledGraph)
        assert compiled.graph is g
        assert compiled.n == g.num_vertices
        assert compiled.num_edges == g.num_edges
        assert compiled.vertices == list(g.vertices())
        for v, i in compiled.index_of.items():
            assert compiled.vertices[i] == v
        # Flattened adjacency agrees with has_edge, both orientations.
        n = compiled.n
        for a in range(n):
            for b in range(n):
                has = g.has_edge(compiled.vertices[a], compiled.vertices[b])
                assert (compiled.adj[a * n + b] != 0) == has
        assert sum(compiled.vlab_counts.values()) == g.num_vertices
        assert sum(compiled.elab_counts.values()) == g.num_edges

    def test_directed_compilation_separates_orientations(self):
        g = Graph(directed=True)
        g.add_vertex("a", label="X")
        g.add_vertex("b", label="Y")
        g.add_edge("a", "b", label="e")
        compiled = compile_graph(g, LabelInterner(), LabelInterner())
        assert compiled.adj[0 * 2 + 1] != 0
        assert compiled.adj[1 * 2 + 0] == 0
        assert compiled.out_nbrs[0] == [1]
        assert compiled.in_nbrs[1] == [0]

    def test_cache_compiles_each_graph_once(self):
        graphs = molecule_collection(5, seed=2)
        distinct = len({id(g) for g in graphs})
        cache = VerificationCache()
        first = [cache.compile(g) for g in graphs]
        second = [cache.compile(g) for g in graphs]
        assert all(a is b for a, b in zip(first, second))
        assert cache.misses == distinct
        assert cache.hits == 2 * len(graphs) - distinct
        assert len(cache) == distinct
        assert cache.compile_seconds >= 0.0


# ------------------------------------------------------------ search parity


class TestSearchParity:
    @pytest.mark.parametrize("directed", [False, True])
    def test_randomized_bit_identical_searches(self, directed):
        rng = random.Random(99 if directed else 42)
        cache = VerificationCache()
        for _ in range(150):
            r = random_pair_graph(rng, rng.randrange(0, 7), directed)
            s = random_pair_graph(rng, rng.randrange(0, 7), directed)
            tau = rng.choice([0, 1, 2, 3, None])
            q = rng.choice([1, 2, 3])
            improved = rng.random() < 0.5
            budget = (
                VerificationBudget(max_expansions=rng.choice([1, 4, 25]))
                if tau is not None and rng.random() < 0.4
                else None
            )
            obj, comp, _, _, _ = run_both(
                r, s, tau=tau, q=q, improved=improved,
                use_mismatch_order=tau is not None and rng.random() < 0.5,
                budget=budget, cache=cache,
            )
            for field in SEARCH_FIELDS:
                assert getattr(obj, field) == getattr(comp, field), field

    def test_parameter_validation(self):
        g = random_pair_graph(random.Random(1), 3, False)
        d = random_pair_graph(random.Random(1), 3, True)
        cache = VerificationCache()
        cg, cd = cache.compile(g), cache.compile(d)
        with pytest.raises(ParameterError, match="threshold"):
            compiled_ged_detailed(cg, cg, threshold=-1)
        with pytest.raises(ParameterError, match="directed"):
            compiled_ged_detailed(cg, cd)
        with pytest.raises(ParameterError, match="permutation"):
            compiled_ged_detailed(cg, cg, vertex_order=[0, 0, 2])


# -------------------------------------------------------------- join parity


def astar(options):
    """``options`` verified by the oracle drivers' object-graph A*."""
    return replace(options, verifier="astar")


def join_pair(graphs, tau, compiled_options, **kwargs):
    """Run one compiled join and one object-A* oracle join over the same
    inputs."""
    compiled = gsim_join(graphs, tau, options=compiled_options, **kwargs)
    reference = legacy_gsim_join(
        graphs, tau, options=astar(compiled_options), **kwargs
    )
    return compiled, reference


def assert_same_join(compiled, reference):
    assert compiled.pairs == reference.pairs
    assert compiled.undecided == reference.undecided
    assert_stat_parity(compiled.stats, reference.stats)
    assert compiled.stats.undecided == reference.stats.undecided


class TestJoinParity:
    def test_default_options_select_compiled_verifier(self):
        assert GSimJoinOptions().verifier == "compiled"
        assert GSimJoinOptions.full().verifier == "compiled"

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    @pytest.mark.parametrize("tau", [0, 1, 2, 3])
    def test_grid_bit_identical_joins(self, q, tau):
        graphs = labeled_collection(12, seed=5)
        compiled, reference = join_pair(
            graphs, tau, GSimJoinOptions.full(q=q)
        )
        assert_same_join(compiled, reference)

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize(
        "variant",
        [GSimJoinOptions.basic, GSimJoinOptions.minedit,
         GSimJoinOptions.full, GSimJoinOptions.extended],
    )
    def test_variants_and_seeds(self, seed, variant):
        graphs = molecule_collection(14, seed=seed)
        compiled, reference = join_pair(graphs, 2, variant(q=3))
        assert_same_join(compiled, reference)

    def test_directed_collection(self):
        graphs = labeled_collection(10, seed=13, directed=True)
        compiled, reference = join_pair(graphs, 2, GSimJoinOptions.full(q=2))
        assert_same_join(compiled, reference)

    def test_rs_join_parity(self):
        outer = labeled_collection(8, seed=17)
        inner = labeled_collection(9, seed=19)
        options = GSimJoinOptions.full(q=2)
        compiled = gsim_join_rs(outer, inner, 2, options=options)
        reference = legacy_gsim_join_rs(outer, inner, 2, options=astar(options))
        assert_same_join(compiled, reference)

    def test_compile_statistics_populated(self):
        graphs = molecule_collection(10, seed=29)
        compiled, reference = join_pair(graphs, 2, GSimJoinOptions.full(q=3))
        assert compiled.stats.cand2 > 0  # some pairs actually reached GED
        assert 0 < compiled.stats.compiled_graphs <= len(graphs)
        assert compiled.stats.compile_time >= 0.0
        assert reference.stats.compiled_graphs == 0


# ------------------------------------------------------- budgets, executors


class TestBudgetedParity:
    @pytest.mark.parametrize("max_expansions", [2, 6, 40])
    def test_bounded_verdicts_bit_identical(self, max_expansions):
        graphs = labeled_collection(12, seed=37)
        budget = VerificationBudget(max_expansions=max_expansions)
        compiled, reference = join_pair(
            graphs, 3, GSimJoinOptions.full(q=2), budget=budget
        )
        assert_same_join(compiled, reference)

    def test_budget_allowed_for_every_registered_verifier(self):
        """Every portfolio backend — DFS included — honours budgets.

        Under a tight cap the backends may exhaust on different pairs,
        so exact parity is not required; soundness is: accepted pairs
        are true results, and every true result is either accepted or
        reported undecided with a bracket spanning tau.
        """
        graphs = labeled_collection(6, seed=2)
        budget = VerificationBudget(max_expansions=10)
        truth = gsim_join(graphs, 1, options=GSimJoinOptions.full(q=2))
        true_pairs = truth.pair_set()
        for verifier in sorted(BACKENDS):
            options = replace(GSimJoinOptions.full(q=2), verifier=verifier)
            result = gsim_join(graphs, 1, options=options, budget=budget)
            accepted = result.pair_set()
            assert accepted <= true_pairs, verifier
            undecided = {(b.r_id, b.s_id) for b in result.undecided}
            assert true_pairs - accepted <= undecided, verifier


class TestParallelParity:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_parallel_compiled_matches_sequential_object(self, workers):
        graphs = molecule_collection(16, seed=41)
        options = GSimJoinOptions.full(q=3)
        parallel = gsim_join_parallel(
            graphs, 2, options=options, workers=workers, chunk_size=4
        )
        reference = legacy_gsim_join(graphs, 2, options=astar(options))
        assert parallel.pairs == reference.pairs
        assert parallel.undecided == reference.undecided
        for field in ("cand2", "results", "ged_calls", "ged_expansions"):
            assert getattr(parallel.stats, field) == getattr(reference.stats, field)

    def test_parallel_budgeted_compiled_matches_object(self):
        graphs = labeled_collection(12, seed=43)
        budget = VerificationBudget(max_expansions=5)
        options = GSimJoinOptions.full(q=2)
        compiled = gsim_join_parallel(
            graphs, 3, options=options, workers=2, chunk_size=4, budget=budget
        )
        reference = legacy_gsim_join_serial_parallel(
            graphs, 3, options=astar(options), chunk_size=4, budget=budget,
        )
        assert compiled.pairs == reference.pairs
        assert compiled.undecided == reference.undecided
        assert compiled.stats.undecided == reference.stats.undecided


class TestCheckpointParity:
    def test_fault_then_resume_matches_object_clean_run(self, tmp_path):
        graphs = molecule_collection(18, seed=47)
        options = GSimJoinOptions.full(q=3)
        journal = tmp_path / "join.jsonl"
        from repro.exceptions import InjectedFaultError

        with pytest.raises(InjectedFaultError):
            gsim_join(graphs, 2, options=options, checkpoint=journal,
                      fault=FaultPlan("raise", at=6))
        resumed = gsim_join(graphs, 2, options=options, checkpoint=journal)
        reference = legacy_gsim_join(graphs, 2, options=astar(options))
        assert resumed.pairs == reference.pairs
        assert resumed.undecided == reference.undecided
        assert resumed.stats.replayed_pairs == 5
        for field in ("cand2", "results", "ged_calls", "ged_expansions"):
            assert getattr(resumed.stats, field) == getattr(reference.stats, field)


class TestIndexParity:
    def test_query_results_identical_and_cache_reused(self):
        graphs = molecule_collection(15, seed=53)
        compiled_index = GSimIndex(graphs, tau_max=2, options=GSimJoinOptions.full(q=3))
        object_index = LegacyGSimIndex(
            graphs, tau_max=2, options=astar(GSimJoinOptions.full(q=3))
        )
        assert compiled_index._cache is not None
        for g in graphs[:6]:
            for tau in (0, 1, 2):
                assert compiled_index.query(g, tau) == object_index.query(g, tau)
        # The cache persisted across queries: data graphs compiled once,
        # later queries hit.
        assert len(compiled_index._cache) <= len(graphs)
        assert compiled_index._cache.hits > 0
