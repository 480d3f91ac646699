"""Batch/scalar parity: the vectorized kernels against the scalar oracle.

With numpy installed every run routes the size, global-label and count
filters through the columnar store (:mod:`repro.grams.columnar`) and the
numpy block kernels (:mod:`repro.engine.batch`); patching
``repro.engine.batch.HAVE_NUMPY`` to ``False`` (:func:`scalar_path`)
runs the retained scalar cascade instead, exactly as a run without numpy
does.  The two must be observationally identical —
same result pairs in the same order, same distances, same prune-counter
statistics and the same per-stage
:class:`~repro.engine.result.StageStatistics` input/survivor counts —
across join variants, thresholds, q-gram lengths, directed graphs,
R×S joins, parallel workers, index queries interleaved with streaming
inserts (overflow ids, unseen labels, an extended store) and external
query graphs, gram-less collections, and the empty collection.  The
scalar path is the frozen oracle; these tests are the contract that
lets the kernels evolve.

Every test that touches the kernels skips without numpy; the
resolution tests at the bottom run on the no-numpy CI job too.
"""

import contextlib
import random
from collections import Counter

import pytest

from repro import GSimJoinOptions, assign_ids, gsim_join, gsim_join_rs
from repro.core.parallel import gsim_join_parallel
from repro.core.search import GSimIndex
from repro.engine.result import JoinStatistics
from repro.exceptions import ParameterError

# Captured at import time: the real dispatch threshold, before the
# autouse fixture below patches the consuming modules down to 1.
from repro.engine.batch import MIN_BATCH_BLOCK as REAL_MIN_BATCH_BLOCK
from repro.engine.executor import Executor
from repro.graph.generators import random_labeled_graph
from repro.graph.operations import perturb
from repro.grams.columnar import HAVE_NUMPY
from repro.runtime.budget import VerificationBudget

from .legacy_drivers import legacy_gsim_join
from .test_vocab import (
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


@contextlib.contextmanager
def scalar_path():
    """Executors built inside take the scalar cascade: an executor
    batches exactly when ``repro.engine.batch.HAVE_NUMPY`` is true."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.engine.batch.HAVE_NUMPY", False)
        yield


def both_paths(run):
    """``run()`` batched (the default with numpy), then on the scalar path."""
    batched = run()
    with scalar_path():
        scalar = run()
    return batched, scalar


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
        from repro.grams.qgrams import LabelTable, extract_qgrams

        graphs = labeled_collection(8, seed=21)
        options = GSimJoinOptions()
        table = LabelTable.of(graphs)
        profiles = [extract_qgrams(g, options.q, table) for g in graphs]
        sorter = build_sorter(profiles, table)
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
        from repro.grams.qgrams import LabelTable, extract_qgrams

        graphs = labeled_collection(6, seed=22, num_labels=2)
        options = GSimJoinOptions()
        table = LabelTable.of(graphs)
        profiles = [extract_qgrams(g, options.q, table) for g in graphs]
        sorter = build_sorter(profiles, table)
        for p in profiles:
            sorter.sort_profile(p)
        labels = [
            (g.vertex_label_multiset(), g.edge_label_multiset())
            for g in graphs
        ]
        store = build_columnar_store(profiles, labels)
        # An outside graph, sorted as an index query is.
        outside = labeled_collection(1, seed=97, num_labels=6)[0]
        q_profile = extract_qgrams(outside, options.q, table.covering(outside))
        sorter.sort_profile(q_profile, intern=False)
        row = store.external_row(
            q_profile,
            (
                outside.vertex_label_multiset(),
                outside.edge_label_multiset(),
            ),
        )
        vertex_pairs = [
            (v, c)
            for v, c in zip(row.lab_values.tolist(), row.lab_counts.tolist())
            if v % 2 == 0
        ]
        unseen = sum(c for v, c in vertex_pairs if v < 0)
        seen = [(v // 2, c) for v, c in vertex_pairs if v >= 0]
        assert unseen + sum(c for _, c in seen) == outside.num_vertices
        assert all(v in store.vlabel_ids.values() for v, _ in seen)

    def test_foreign_vocabulary_rows_are_refused(self):
        """The count kernel intersects ids, so the store takes rows and
        probes sorted by its own vocabulary only; a refused extension
        leaves the store as it was."""
        from repro.engine.options import build_sorter
        from repro.grams.columnar import build_columnar_store
        from repro.grams.qgrams import LabelTable, extract_qgrams

        graphs = labeled_collection(6, seed=23, num_labels=2)
        table = LabelTable.of(graphs)
        profiles = [extract_qgrams(g, 3, table) for g in graphs]
        sorter = build_sorter(profiles[:4], table)
        for p in profiles[:4]:
            sorter.sort_profile(p)
        labels = [
            (g.vertex_label_multiset(), g.edge_label_multiset())
            for g in graphs
        ]
        store = build_columnar_store(profiles[:4], labels[:4])
        foreign, unsorted = profiles[4], profiles[5]
        build_sorter([foreign], table).sort_profile(foreign)
        for outside in (foreign, unsorted):
            with pytest.raises(ParameterError, match="own vocabulary"):
                store.external_row(outside, labels[4])
            with pytest.raises(ParameterError, match="own vocabulary"):
                store.extend([outside], [labels[4]])
        assert len(store) == 4
        with pytest.raises(ParameterError, match="own vocabulary"):
            build_columnar_store([unsorted], [labels[5]])


# ----------------------------------------------------------------- self-join


@requires_numpy
class TestSelfJoinParity:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("tau", [0, 1, 2, 3])
    def test_variants_and_thresholds(self, variant, tau):
        graphs = labeled_collection(26, seed=31)
        options = VARIANTS[variant]()
        assert_full_parity(*both_paths(lambda: gsim_join(graphs, tau, options)))

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_qgram_lengths(self, q):
        graphs = labeled_collection(22, seed=33)
        options = GSimJoinOptions.full(q=q)
        assert_full_parity(*both_paths(lambda: gsim_join(graphs, 2, options)))

    @pytest.mark.parametrize("seed", [1, 7, 19])
    def test_seeds(self, seed):
        graphs = labeled_collection(24, seed=seed)
        assert_full_parity(*both_paths(lambda: gsim_join(graphs, 3)))

    def test_directed(self):
        graphs = labeled_collection(20, seed=35, directed=True)
        assert_full_parity(*both_paths(lambda: gsim_join(graphs, 2)))

    def test_gramless_collection_all_unprunable(self):
        graphs = gramless_collection(10, seed=36)
        batched, scalar = both_paths(lambda: gsim_join(graphs, 2))
        assert batched.stats.unprunable_graphs == len(graphs)
        assert_full_parity(batched, scalar)

    def test_empty_collection(self):
        assert_full_parity(*both_paths(lambda: gsim_join([], 2)))

    def test_budgeted_undecided_channel(self):
        graphs = labeled_collection(24, seed=38)
        budget = VerificationBudget(max_expansions=3)
        assert_full_parity(
            *both_paths(lambda: gsim_join(graphs, 3, budget=budget))
        )

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
        assert_full_parity(*both_paths(lambda: gsim_join(graphs, 3)))


# ------------------------------------------------------- rs-join / parallel


@requires_numpy
class TestOtherDriversParity:
    @pytest.mark.parametrize("tau", [1, 2, 3])
    def test_rs_join(self, tau):
        outer = labeled_collection(12, seed=41)
        inner = labeled_collection(15, seed=43)
        for g in inner:
            g.graph_id = f"inner-{g.graph_id}"
        assert_full_parity(
            *both_paths(lambda: gsim_join_rs(outer, inner, tau))
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_parallel_matches_sequential_scalar(self, workers):
        graphs = labeled_collection(26, seed=45)
        batched = gsim_join_parallel(graphs, 3, workers=workers)
        with scalar_path():
            scalar = gsim_join(graphs, 3)
        assert sorted(batched.pairs) == sorted(scalar.pairs)
        assert_stat_parity(batched.stats, scalar.stats)
        assert stage_rows(batched.stats) == stage_rows(scalar.stats)

    def test_journal_crosses_batch_modes(self, tmp_path):
        """A journal written batched must resume under the scalar path."""
        graphs = labeled_collection(20, seed=47)
        checkpoint = tmp_path / "join.jsonl"
        batched = gsim_join(graphs, 3, checkpoint=checkpoint)
        with scalar_path():
            resumed = gsim_join(graphs, 3, checkpoint=checkpoint)
        assert resumed.pairs == batched.pairs
        assert resumed.stats.replayed_pairs > 0
        assert_stat_parity(resumed.stats, batched.stats)


# --------------------------------------------------------------- search index


def interleaved_index(initial=18):
    """Alternate inserts with queries on an index built over ``initial``
    graphs; return the index, every query's matches and the statistics.

    0, 1 or 2 inserts precede each query, in rotation, so every query
    after the first insert runs against an extended store.  Half of the
    inserted graphs are near-duplicates of the six query graphs, edited
    with labels the construction never saw: their q-gram keys take
    overflow ids and their labels new interner ids, and the second round
    of queries finds them.
    """
    graphs = labeled_collection(28, seed=51)
    bases = graphs[:3] + graphs[24:27]
    rng = random.Random(57)
    near = [
        perturb(g, 2, rng, ["L3", "L4", "L5"], ["-", "="], f"near-{g.graph_id}")
        for g in bases
    ]
    index = GSimIndex(graphs[:initial], tau_max=3)
    arrivals = [g for pair in zip(graphs[18:24], near) for g in pair]
    stats = JoinStatistics()
    matches = []
    for k, g in enumerate(bases + bases):
        for _ in range(k % 3):
            index.add(arrivals.pop(0))
        for tau in (1, 3):
            matches.append(index.query(g, tau, stats=stats))
    assert not arrivals
    return index, matches, stats


@requires_numpy
class TestIndexParity:
    def test_queries_with_streaming_adds(self):
        for initial in (18, 0):
            batched, scalar = both_paths(lambda: interleaved_index(initial))
            _, batched_matches, batched_stats = batched
            _, scalar_matches, scalar_stats = scalar
            assert batched_matches == scalar_matches
            assert_stat_parity(batched_stats, scalar_stats)
            assert stage_rows(batched_stats) == stage_rows(scalar_stats)

    @pytest.mark.parametrize("initial", [18, 0])
    def test_store_is_extended_not_rebuilt(self, initial, monkeypatch):
        """The index keeps one store for its life: the first batched
        query builds it, later queries extend it, and the result equals
        a fresh build over the index's profiles and labels."""
        import numpy as np

        from repro.grams.columnar import ColumnarStore, build_columnar_store

        built = []

        def counting_build(profiles, *args, **kwargs):
            built.append(len(profiles))
            return build_columnar_store(profiles, *args, **kwargs)

        monkeypatch.setattr(
            "repro.core.search.build_columnar_store", counting_build
        )
        index, _, _ = interleaved_index(initial)
        # An empty index has no store until its first insert.
        assert built == [initial or 1]
        store = index._store
        fresh = build_columnar_store(index._profiles, index._labels)
        assert len(store) == len(fresh) == len(index)
        assert store.source is fresh.source is not None
        assert store.vlabel_ids == fresh.vlabel_ids
        assert store.elabel_ids == fresh.elabel_ids
        columns = [
            name
            for name in ColumnarStore.__slots__
            if name not in ("source", "vlabel_ids", "elabel_ids")
        ]
        for name in columns:
            got, want = getattr(store, name), getattr(fresh, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name

    def test_external_query_with_unseen_labels(self):
        graphs = labeled_collection(20, seed=53, num_labels=2)
        foreign = labeled_collection(4, seed=59, num_labels=6)

        def run():
            index = GSimIndex(graphs, tau_max=3)
            stats = JoinStatistics()
            matches = [index.query(g, 3, stats=stats) for g in foreign]
            return matches, stage_rows(stats)

        batched, scalar = both_paths(run)
        assert batched == scalar

    def test_top_k_parity(self):
        graphs = labeled_collection(22, seed=61)
        batched, scalar = both_paths(
            lambda: GSimIndex(graphs[1:], tau_max=3).query_top_k(graphs[0], k=3)
        )
        assert batched == scalar


# ------------------------------------------------- resolution and fallbacks


class TestBatchResolution:
    def test_batch_default_without_numpy_falls_back_to_scalar(
        self, monkeypatch
    ):
        def no_store(*args, **kwargs):
            raise AssertionError("the scalar path builds no columnar store")

        monkeypatch.setattr("repro.engine.batch.HAVE_NUMPY", False)
        monkeypatch.setattr("repro.engine.executor.build_columnar_store", no_store)
        executor = Executor(1, GSimJoinOptions(), JoinStatistics())
        assert executor.batch is False
        graphs = labeled_collection(8, seed=73)
        result = gsim_join(graphs, 2)  # must not raise
        reference = legacy_gsim_join(graphs, 2, GSimJoinOptions())
        assert result.pairs == reference.pairs
        assert_stat_parity(result.stats, reference.stats)

    @requires_numpy
    def test_default_resolution_batches_interned_runs(self):
        executor = Executor(1, GSimJoinOptions(), JoinStatistics())
        assert executor.batch is True

    @requires_numpy
    def test_object_key_reference_path_parity(self):
        """The object-key oracle (scalar by construction) still agrees."""
        graphs = labeled_collection(18, seed=77)
        batched = gsim_join(graphs, 2)
        reference = legacy_gsim_join(
            graphs, 2, GSimJoinOptions(), object_keys=True
        )
        assert batched.pairs == reference.pairs
        assert_stat_parity(batched.stats, reference.stats)
