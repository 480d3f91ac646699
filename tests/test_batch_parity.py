"""Batch/scalar parity: the vectorized kernels against the scalar oracle.

``GSimJoinOptions(batch=True)`` routes the size, global-label and count
filters through the columnar store (:mod:`repro.grams.columnar`) and the
numpy block kernels (:mod:`repro.engine.batch`); ``batch=False`` is the
retained scalar path.  The two must be observationally identical —
same result pairs in the same order, same distances, same prune-counter
statistics and the same per-stage
:class:`~repro.engine.result.StageStatistics` input/survivor counts —
across join variants, thresholds, q-gram lengths, directed graphs,
R×S joins, parallel workers, index queries with
streaming inserts (overflow ids) and external query graphs, gram-less
collections, and the empty collection.  The scalar path is the frozen
oracle; these tests are the contract that lets the kernels evolve.

Every test that touches the kernels skips without numpy; the
resolution/error tests at the bottom run on the no-numpy CI job too.
"""

import dataclasses
import random
from collections import Counter

import pytest

from repro import GSimJoinOptions, assign_ids, gsim_join, gsim_join_rs
from repro.core.parallel import gsim_join_parallel
from repro.core.search import GSimIndex
from repro.engine.result import JoinStatistics

# Captured at import time: the real dispatch threshold, before the
# autouse fixture below patches the consuming modules down to 1.
from repro.engine.batch import MIN_BATCH_BLOCK as REAL_MIN_BATCH_BLOCK
from repro.engine.executor import Executor
from repro.exceptions import ParameterError
from repro.graph.generators import random_labeled_graph
from repro.grams.columnar import HAVE_NUMPY
from repro.runtime.budget import VerificationBudget

from .test_vocab import (
    PARITY_STATS,
    VARIANTS,
    assert_stat_parity,
    labeled_collection,
)

requires_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="batch kernels require numpy"
)


@pytest.fixture(autouse=True)
def _always_batch(monkeypatch):
    """Force every block through the kernels, however small.

    The dispatch threshold (:data:`repro.engine.batch.MIN_BATCH_BLOCK`)
    would route this suite's deliberately small collections to the
    scalar fallback, leaving the kernels untested; dropping it to 1
    makes batch mode actually batch here.
    ``test_threshold_fallback_is_parity_safe`` restores the real value
    to cover the fallback dispatch itself.
    """
    monkeypatch.setattr("repro.engine.batch.MIN_BATCH_BLOCK", 1)
    monkeypatch.setattr("repro.engine.executor.MIN_BATCH_BLOCK", 1)


def with_batch(options, batch):
    return dataclasses.replace(options, batch=batch)


def stage_rows(stats):
    """Per-stage rows reduced to their representation-independent core."""
    return [(r.name, r.role, r.input, r.survivors) for r in stats.stages]


def assert_full_parity(batched, scalar):
    """Pairs (in order), undecided channel, counters and stage rows."""
    assert batched.pairs == scalar.pairs
    assert batched.undecided == scalar.undecided
    assert_stat_parity(batched.stats, scalar.stats)
    assert stage_rows(batched.stats) == stage_rows(scalar.stats)


def gramless_collection(n, seed):
    """Graphs too small for q=4 path grams — all unprunable."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(n):
        nv = rng.randint(1, 2)
        graphs.append(
            random_labeled_graph(
                rng, nv, nv - 1, ["L0", "L1"], ["-"], directed=False
            )
        )
    return assign_ids(graphs)


# ------------------------------------------------------------- kernel units


@requires_numpy
class TestKernels:
    @pytest.mark.parametrize("seed", range(12))
    def test_block_multiset_intersections_matches_counters(self, seed):
        import numpy as np

        from repro.engine.batch import block_multiset_intersections

        def compress(multiset):
            items = sorted(Counter(multiset).items())
            return (
                np.asarray([v for v, _ in items], dtype=np.int64),
                np.asarray([c for _, c in items], dtype=np.int64),
            )

        rng = random.Random(seed)
        rows = [
            sorted(rng.randrange(8) for _ in range(rng.randrange(0, 10)))
            for _ in range(rng.randrange(1, 7))
        ]
        r = sorted(rng.randrange(8) for _ in range(rng.randrange(0, 10)))
        compressed = [compress(row) for row in rows]
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(values) for values, _ in compressed], out=offsets[1:])
        flat_values = np.concatenate(
            [values for values, _ in compressed]
            or [np.zeros(0, dtype=np.int64)]
        )
        flat_counts = np.concatenate(
            [counts for _, counts in compressed]
            or [np.zeros(0, dtype=np.int64)]
        )
        picked = [
            rng.randrange(len(rows)) for _ in range(rng.randrange(1, 9))
        ]
        r_values, r_counts = compress(r)
        got = block_multiset_intersections(
            r_values,
            r_counts,
            flat_values,
            flat_counts,
            offsets,
            np.asarray(picked, dtype=np.int64),
        )
        expected = [
            sum((Counter(rows[j]) & Counter(r)).values()) for j in picked
        ]
        assert got.tolist() == expected

    def test_store_row_roundtrip(self):
        from repro.engine.options import build_sorter
        from repro.grams.columnar import build_columnar_store
        from repro.grams.qgrams import extract_qgrams

        graphs = labeled_collection(8, seed=21)
        options = GSimJoinOptions()
        profiles = [extract_qgrams(g, options.q) for g in graphs]
        sorter = build_sorter(profiles, options)
        for p in profiles:
            sorter.sort_profile(p)
        labels = [
            (g.vertex_label_multiset(), g.edge_label_multiset())
            for g in graphs
        ]
        store = build_columnar_store(profiles, labels)
        assert len(store) == len(graphs)
        for i, (g, p) in enumerate(zip(graphs, profiles)):
            row = store.row(i)
            expanded = [
                v
                for v, c in zip(
                    row.sig_values.tolist(), row.sig_counts.tolist()
                )
                for _ in range(c)
            ]
            assert expanded == sorted(p.signature)
            assert row.sig_size == p.size
            assert row.num_vertices == g.num_vertices
            assert row.num_edges == g.num_edges
            assert row.d_path == p.d_path
            assert row.mergeable
            assert row.vlab_len == sum(labels[i][0].values())
            assert row.elab_len == sum(labels[i][1].values())
            # Combined even/odd compressed label encoding: vertex ids
            # even, edge ids odd, counts adding up per type.
            pairs = list(
                zip(row.lab_values.tolist(), row.lab_counts.tolist())
            )
            assert sorted(v for v, _ in pairs) == [v for v, _ in pairs]
            assert sum(c for v, c in pairs if v % 2 == 0) == row.vlab_len
            assert sum(c for v, c in pairs if v % 2 == 1) == row.elab_len

    def test_external_row_unseen_labels_are_negative(self):
        from repro.engine.options import build_sorter
        from repro.grams.columnar import build_columnar_store
        from repro.grams.qgrams import extract_qgrams

        graphs = labeled_collection(6, seed=22, num_labels=2)
        options = GSimJoinOptions()
        profiles = [extract_qgrams(g, options.q) for g in graphs]
        sorter = build_sorter(profiles, options)
        for p in profiles:
            sorter.sort_profile(p)
        labels = [
            (g.vertex_label_multiset(), g.edge_label_multiset())
            for g in graphs
        ]
        store = build_columnar_store(profiles, labels)
        # A foreign profile: sorted in a *different* vocabulary.
        outside = labeled_collection(1, seed=97, num_labels=6)[0]
        q_profile = extract_qgrams(outside, options.q)
        foreign_sorter = build_sorter([q_profile], options)
        foreign_sorter.sort_profile(q_profile)
        row = store.external_row(
            q_profile,
            (
                outside.vertex_label_multiset(),
                outside.edge_label_multiset(),
            ),
        )
        assert not row.mergeable
        vertex_pairs = [
            (v, c)
            for v, c in zip(row.lab_values.tolist(), row.lab_counts.tolist())
            if v % 2 == 0
        ]
        unseen = sum(c for v, c in vertex_pairs if v < 0)
        seen = [(v // 2, c) for v, c in vertex_pairs if v >= 0]
        assert unseen + sum(c for _, c in seen) == outside.num_vertices
        assert all(v in store.vlabel_ids.values() for v, _ in seen)


# ----------------------------------------------------------------- self-join


@requires_numpy
class TestSelfJoinParity:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("tau", [0, 1, 2, 3])
    def test_variants_and_thresholds(self, variant, tau):
        graphs = labeled_collection(26, seed=31)
        options = VARIANTS[variant]()
        batched = gsim_join(graphs, tau, with_batch(options, True))
        scalar = gsim_join(graphs, tau, with_batch(options, False))
        assert_full_parity(batched, scalar)

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_qgram_lengths(self, q):
        graphs = labeled_collection(22, seed=33)
        options = GSimJoinOptions.full(q=q)
        batched = gsim_join(graphs, 2, with_batch(options, True))
        scalar = gsim_join(graphs, 2, with_batch(options, False))
        assert_full_parity(batched, scalar)

    @pytest.mark.parametrize("seed", [1, 7, 19])
    def test_seeds(self, seed):
        graphs = labeled_collection(24, seed=seed)
        batched = gsim_join(graphs, 3, GSimJoinOptions(batch=True))
        scalar = gsim_join(graphs, 3, GSimJoinOptions(batch=False))
        assert_full_parity(batched, scalar)

    def test_directed(self):
        graphs = labeled_collection(20, seed=35, directed=True)
        batched = gsim_join(graphs, 2, GSimJoinOptions(batch=True))
        scalar = gsim_join(graphs, 2, GSimJoinOptions(batch=False))
        assert_full_parity(batched, scalar)

    def test_gramless_collection_all_unprunable(self):
        graphs = gramless_collection(10, seed=36)
        batched = gsim_join(graphs, 2, GSimJoinOptions(batch=True))
        scalar = gsim_join(graphs, 2, GSimJoinOptions(batch=False))
        assert batched.stats.unprunable_graphs == len(graphs)
        assert_full_parity(batched, scalar)

    def test_empty_collection(self):
        batched = gsim_join([], 2, GSimJoinOptions(batch=True))
        scalar = gsim_join([], 2, GSimJoinOptions(batch=False))
        assert_full_parity(batched, scalar)

    def test_budgeted_undecided_channel(self):
        graphs = labeled_collection(24, seed=38)
        budget = VerificationBudget(max_expansions=3)
        batched = gsim_join(
            graphs, 3, GSimJoinOptions(batch=True), budget=budget
        )
        scalar = gsim_join(
            graphs, 3, GSimJoinOptions(batch=False), budget=budget
        )
        assert_full_parity(batched, scalar)

    def test_threshold_fallback_is_parity_safe(self, monkeypatch):
        """With the real dispatch threshold, small blocks fall back to
        the scalar cascade — and the mix of batched and fallen-back
        probes still matches the scalar oracle exactly."""
        assert REAL_MIN_BATCH_BLOCK > 1
        monkeypatch.setattr(
            "repro.engine.batch.MIN_BATCH_BLOCK", REAL_MIN_BATCH_BLOCK
        )
        monkeypatch.setattr(
            "repro.engine.executor.MIN_BATCH_BLOCK", REAL_MIN_BATCH_BLOCK
        )
        graphs = labeled_collection(26, seed=39)
        batched = gsim_join(graphs, 3, GSimJoinOptions(batch=True))
        scalar = gsim_join(graphs, 3, GSimJoinOptions(batch=False))
        assert_full_parity(batched, scalar)


# ------------------------------------------------------- rs-join / parallel


@requires_numpy
class TestOtherDriversParity:
    @pytest.mark.parametrize("tau", [1, 2, 3])
    def test_rs_join(self, tau):
        outer = labeled_collection(12, seed=41)
        inner = labeled_collection(15, seed=43)
        for g in inner:
            g.graph_id = f"inner-{g.graph_id}"
        batched = gsim_join_rs(
            outer, inner, tau, GSimJoinOptions(batch=True)
        )
        scalar = gsim_join_rs(
            outer, inner, tau, GSimJoinOptions(batch=False)
        )
        assert_full_parity(batched, scalar)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_parallel_matches_sequential_scalar(self, workers):
        graphs = labeled_collection(26, seed=45)
        batched = gsim_join_parallel(
            graphs,
            3,
            GSimJoinOptions(batch=True),
            workers=workers,
            chunk_size=5,
        )
        scalar = gsim_join(graphs, 3, GSimJoinOptions(batch=False))
        assert sorted(batched.pairs) == sorted(scalar.pairs)
        assert_stat_parity(batched.stats, scalar.stats)
        assert stage_rows(batched.stats) == stage_rows(scalar.stats)

    def test_journal_crosses_batch_modes(self, tmp_path):
        """A journal written batched must resume under the scalar path."""
        graphs = labeled_collection(20, seed=47)
        checkpoint = tmp_path / "join.jsonl"
        batched = gsim_join(
            graphs, 3, GSimJoinOptions(batch=True), checkpoint=checkpoint
        )
        resumed = gsim_join(
            graphs, 3, GSimJoinOptions(batch=False), checkpoint=checkpoint
        )
        assert resumed.pairs == batched.pairs
        assert resumed.stats.replayed_pairs > 0
        assert_stat_parity(resumed.stats, batched.stats)


# --------------------------------------------------------------- search index


@requires_numpy
class TestIndexParity:
    def _run(self, batch):
        graphs = labeled_collection(28, seed=51)
        options = with_batch(GSimJoinOptions(), batch)
        index = GSimIndex(graphs[:18], tau_max=3, options=options)
        stats = JoinStatistics()
        matches = []
        for g in graphs[18:24]:
            # Streaming adds: unseen q-grams get overflow ids and
            # invalidate the lazily built store.
            index.add(g)
        queries = graphs[:4] + graphs[24:]
        for g in queries:
            for tau in (1, 3):
                matches.append(index.query(g, tau, stats=stats))
        return matches, stats

    def test_queries_with_streaming_adds(self):
        batched_matches, batched_stats = self._run(True)
        scalar_matches, scalar_stats = self._run(False)
        assert batched_matches == scalar_matches
        assert_stat_parity(batched_stats, scalar_stats)
        assert stage_rows(batched_stats) == stage_rows(scalar_stats)

    def test_external_query_with_unseen_labels(self):
        graphs = labeled_collection(20, seed=53, num_labels=2)
        foreign = labeled_collection(4, seed=59, num_labels=6)
        results = {}
        for batch in (True, False):
            options = with_batch(GSimJoinOptions(), batch)
            index = GSimIndex(graphs, tau_max=3, options=options)
            stats = JoinStatistics()
            results[batch] = (
                [index.query(g, 3, stats=stats) for g in foreign],
                stage_rows(stats),
            )
        assert results[True] == results[False]

    def test_top_k_parity(self):
        graphs = labeled_collection(22, seed=61)
        out = {}
        for batch in (True, False):
            options = with_batch(GSimJoinOptions(), batch)
            index = GSimIndex(graphs[1:], tau_max=3, options=options)
            out[batch] = index.query_top_k(graphs[0], k=3)
        assert out[True] == out[False]


# ------------------------------------------------- resolution and fallbacks


class TestBatchResolution:
    def test_batch_true_without_numpy_is_a_clear_error(self, monkeypatch):
        monkeypatch.setattr("repro.engine.batch.HAVE_NUMPY", False)
        graphs = labeled_collection(4, seed=71)
        with pytest.raises(ParameterError, match="requires numpy.*fast"):
            gsim_join(graphs, 1, GSimJoinOptions(batch=True))

    def test_batch_default_without_numpy_falls_back_to_scalar(
        self, monkeypatch
    ):
        monkeypatch.setattr("repro.engine.batch.HAVE_NUMPY", False)
        executor = Executor(1, GSimJoinOptions(), JoinStatistics())
        assert executor.batch is False
        graphs = labeled_collection(8, seed=73)
        result = gsim_join(graphs, 2)  # must not raise
        scalar = gsim_join(graphs, 2, GSimJoinOptions(batch=False))
        assert result.pairs == scalar.pairs

    @requires_numpy
    def test_batch_true_requires_interned(self):
        graphs = labeled_collection(4, seed=75)
        with pytest.raises(ParameterError, match="interned"):
            gsim_join(
                graphs, 1, GSimJoinOptions(interned=False, batch=True)
            )

    def test_reference_path_never_batches(self):
        executor = Executor(
            1, GSimJoinOptions(interned=False), JoinStatistics()
        )
        assert executor.batch is False

    @requires_numpy
    def test_default_resolution_batches_interned_runs(self):
        executor = Executor(1, GSimJoinOptions(), JoinStatistics())
        assert executor.batch is True

    @requires_numpy
    def test_object_key_reference_path_parity(self):
        """interned=False (scalar by construction) still agrees."""
        graphs = labeled_collection(18, seed=77)
        batched = gsim_join(graphs, 2, GSimJoinOptions(batch=True))
        reference = gsim_join(graphs, 2, GSimJoinOptions(interned=False))
        assert batched.pairs == reference.pairs
        assert_stat_parity(batched.stats, reference.stats)
