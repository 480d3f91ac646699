"""Interned-signature pipeline: vocabulary unit tests + parity properties.

The join runs on interned q-gram signatures.  It must be observationally
identical to the object-key oracle — the drivers of
``tests/legacy_drivers.py`` with ``object_keys=True``, which sort
profiles by ``(document frequency, repr(key))`` tokens, index q-gram
tuples and compare profiles on the Counter path — with the same result
pairs in the same order and the same prune-counter statistics, across
join variants, thresholds, q-gram lengths, directed graphs, streaming
index inserts and the gram-less (unprunable) edge case.  These tests
are the contract that lets the interned path evolve while the oracle
stays frozen.
"""

import random

import pytest

from repro import GSimJoinOptions, assign_ids, gsim_join, gsim_join_rs
from repro.core.search import GSimIndex
from repro.engine.result import JoinStatistics
from repro.engine.stages import BasicPrefix, MinEditFilter
from repro.ged.compiled import VerificationCache
from repro.grams.minedit import min_prefix_length, min_prefix_length_direct
from repro.grams.qgrams import extract_qgrams
from repro.grams.vocab import QGramVocabulary, build_vocabulary
from repro.graph.generators import random_labeled_graph

from .legacy_drivers import LegacyGSimIndex, legacy_gsim_join, legacy_gsim_join_rs
from .test_join import molecule_collection

#: Every statistic that must not depend on the key representation
#: (timings excluded, ged_time excluded — only *what* work happened).
PARITY_STATS = (
    "cand1",
    "cand2",
    "results",
    "pruned_by_global_label",
    "pruned_by_count",
    "pruned_by_local_label",
    "total_prefix_length",
    "unprunable_graphs",
    "index_distinct_keys",
    "index_postings",
    "index_bytes",
    "ged_calls",
    "ged_expansions",
)

VARIANTS = {
    "basic": GSimJoinOptions.basic,
    "minedit": GSimJoinOptions.minedit,
    "full": GSimJoinOptions.full,
    "extended": GSimJoinOptions.extended,
}


def assert_stat_parity(a: JoinStatistics, b: JoinStatistics) -> None:
    for name in PARITY_STATS:
        assert getattr(a, name) == getattr(b, name), name


def labeled_collection(n, seed, directed=False, num_labels=3):
    rng = random.Random(seed)
    vertex_labels = [f"L{i}" for i in range(num_labels)]
    edge_labels = ["-", "="]
    graphs = []
    for _ in range(n):
        nv = rng.randint(4, 9)
        max_edges = nv * (nv - 1) // (1 if directed else 2)
        ne = rng.randint(nv - 1, min(max_edges, nv + 4))
        graphs.append(
            random_labeled_graph(
                rng, nv, ne, vertex_labels, edge_labels, directed=directed
            )
        )
    return assign_ids(graphs)


class TestQGramVocabulary:
    def test_ids_follow_rank_order(self):
        vocab = QGramVocabulary([("A",), ("B",), ("C",)])
        assert vocab.get(("A",)) == 0
        assert vocab.get(("B",)) == 1
        assert vocab.get(("C",)) == 2
        assert vocab.frozen_size == 3
        assert len(vocab) == 3
        assert ("A",) in vocab and ("Z",) not in vocab
        assert vocab.key_of(1) == ("B",)

    def test_build_ranks_by_df_then_repr(self):
        graphs = molecule_collection(8, seed=11)
        profiles = [extract_qgrams(g, 2) for g in graphs]
        vocab = build_vocabulary(profiles)
        df = {}
        for profile in profiles:
            for key in profile.key_counts:
                df[key] = df.get(key, 0) + 1
        keys = [vocab.key_of(i) for i in range(len(vocab))]
        tokens = [(df[key], repr(key)) for key in keys]
        assert tokens == sorted(tokens)

    def test_intern_assigns_overflow_past_frozen_range(self):
        vocab = QGramVocabulary([("A",)])
        assert vocab.get(("NEW",)) is None
        new_id = vocab.intern(("NEW",))
        assert new_id == 1 == vocab.frozen_size
        assert vocab.intern(("NEW",)) == new_id  # idempotent
        assert vocab.get(("NEW",)) == new_id
        assert len(vocab) == 2

    def test_overflow_sorts_last_by_repr(self):
        vocab = QGramVocabulary([("A",), ("B",)])
        z = vocab.intern(("Z",))
        c = vocab.intern(("C",))
        tokens = [vocab.sort_token(i) for i in (0, 1, c, z)]
        assert tokens == sorted(tokens)  # frozen first, then C before Z
        assert all(vocab.sort_token(f) < vocab.sort_token(z) for f in (0, 1))

    def test_sort_profile_attaches_total_signature(self):
        graphs = molecule_collection(6, seed=12)
        profiles = [extract_qgrams(g, 2) for g in graphs]
        vocab = build_vocabulary(profiles)
        for profile in profiles:
            vocab.sort_profile(profile)
            assert profile.signature == sorted(profile.signature)
            assert profile.signature_total
            assert profile.signature_source is vocab
            assert [vocab.key_of(i) for i in profile.signature] == [
                gram.key for gram in profile.grams
            ]

    def test_resort_under_new_vocabulary_equals_fresh_sort(self):
        """A profile sorted under one collection's vocabulary and then
        re-sorted under another's (a slice the sharded driver carries
        into the next combo) equals a fresh profile sorted under the
        second: same order, signature and prefixes, and ``grams`` built
        under the first order are rebuilt in the second."""
        graphs = molecule_collection(12, seed=14)
        first = [extract_qgrams(g, 3) for g in graphs[:8]]
        first_vocab = build_vocabulary(first)
        for profile in first:
            first_vocab.sort_profile(profile)
            assert profile.grams  # built in the first order
        first_orders = [profile.order for profile in first[4:]]
        resorted = first[4:] + [extract_qgrams(g, 3) for g in graphs[8:]]
        second_vocab = build_vocabulary(resorted)
        for profile in resorted:
            second_vocab.sort_profile(profile)
        assert [p.order for p in resorted[:4]] != first_orders
        fresh = [extract_qgrams(g, 3) for g in graphs[4:]]
        fresh_vocab = build_vocabulary(fresh)
        for profile in fresh:
            fresh_vocab.sort_profile(profile)
        for again, new in zip(resorted, fresh):
            assert again.order == new.order
            assert again.signature == new.signature
            assert again.signature_total == new.signature_total
            assert again.signature_source is second_vocab
            assert [(g.key, g.path) for g in again.grams] == [
                (g.key, g.path) for g in new.grams
            ]
            for tau in range(4):
                for stage in (BasicPrefix(), MinEditFilter()):
                    info = stage.prefix_info(again, tau)
                    assert info == stage.prefix_info(new, tau)
                    assert again.prefix_keys(info.length) == new.prefix_keys(
                        info.length
                    )

    def test_sort_profile_with_overflow_marks_non_mergeable(self):
        graphs = molecule_collection(6, seed=13)
        profiles = [extract_qgrams(g, 2) for g in graphs]
        vocab = build_vocabulary(profiles[:3])  # the rest contain unseen keys
        unseen = [
            p for p in profiles[3:] if any(k not in vocab for k in p.key_counts)
        ]
        assert unseen, "seed must produce unseen keys"
        for profile in unseen:
            vocab.sort_profile(profile)
            assert not profile.signature_total
            tokens = [vocab.sort_token(i) for i in profile.signature]
            assert tokens == sorted(tokens)


class TestDirectPrefixParity:
    @pytest.mark.parametrize("tau", [0, 1, 2, 3])
    def test_direct_matches_double_binary_search(self, tau):
        graphs = molecule_collection(14, seed=21)
        profiles = [extract_qgrams(g, 3) for g in graphs]
        vocab = build_vocabulary(profiles)
        for profile in profiles:
            vocab.sort_profile(profile)
            paths = [gram.path for gram in profile.grams]
            assert min_prefix_length_direct(
                paths, tau, profile.d_path
            ) == min_prefix_length(profile.grams, tau, profile.d_path)


class TestJoinParity:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_gsim_join_parity(self, variant):
        make = VARIANTS[variant]
        for seed in (31, 32):
            for tau, q in ((0, 1), (1, 2), (2, 3), (3, 4)):
                graphs = molecule_collection(10, seed=seed + 10 * tau)
                on = gsim_join(graphs, tau, make(q=q))
                off = legacy_gsim_join(graphs, tau, make(q=q), object_keys=True)
                assert on.pairs == off.pairs, (variant, seed, tau, q)
                assert_stat_parity(on.stats, off.stats)

    def test_gsim_join_rs_parity(self):
        outer = molecule_collection(8, seed=41)
        inner = molecule_collection(10, seed=42)
        for tau, q in ((1, 3), (2, 4)):
            on = gsim_join_rs(outer, inner, tau, GSimJoinOptions.full(q=q))
            off = legacy_gsim_join_rs(
                outer, inner, tau, GSimJoinOptions.full(q=q), object_keys=True
            )
            assert on.pairs == off.pairs
            assert_stat_parity(on.stats, off.stats)

    @pytest.mark.parametrize("tau", [1, 2])
    def test_directed_graphs_parity(self, tau):
        graphs = labeled_collection(12, seed=43, directed=True)
        on = gsim_join(graphs, tau, GSimJoinOptions.full(q=2))
        off = legacy_gsim_join(
            graphs, tau, GSimJoinOptions.full(q=2), object_keys=True
        )
        assert on.pairs == off.pairs
        assert_stat_parity(on.stats, off.stats)

    def test_gramless_unprunable_parity(self):
        # Graphs smaller than q+1 vertices have no q-grams at all: they
        # are unprunable and must still join correctly on both paths.
        rng = random.Random(44)
        graphs = []
        for _ in range(8):
            nv = rng.randint(1, 3)  # below q+1 for q=3
            ne = rng.randint(0, max(0, nv * (nv - 1) // 2))
            graphs.append(
                random_labeled_graph(rng, nv, ne, ["A", "B"], ["-"])
            )
        graphs = assign_ids(graphs)
        for tau in (0, 1, 2):
            on = gsim_join(graphs, tau, GSimJoinOptions.full(q=3))
            off = legacy_gsim_join(
                graphs, tau, GSimJoinOptions.full(q=3), object_keys=True
            )
            assert on.pairs == off.pairs
            assert_stat_parity(on.stats, off.stats)
            assert on.stats.unprunable_graphs == len(graphs)


class TestSearchParity:
    def _indexes(self, graphs, tau_max, q):
        on = GSimIndex(graphs, tau_max=tau_max, options=GSimJoinOptions.full(q=q))
        off = LegacyGSimIndex(
            graphs,
            tau_max=tau_max,
            options=GSimJoinOptions.full(q=q),
            object_keys=True,
        )
        return on, off

    def _assert_query_parity(self, on, off, g, tau):
        # The oracle has no verdict memo: start each engine query with
        # an empty cache so both search every candidate.
        on._cache = VerificationCache()
        stats_on, stats_off = JoinStatistics(), JoinStatistics()
        assert on.query(g, tau, stats_on) == off.query(g, tau, stats_off)
        assert_stat_parity(stats_on, stats_off)

    def test_query_parity(self):
        graphs = molecule_collection(14, seed=51)
        on, off = self._indexes(graphs, tau_max=3, q=3)
        for tau in (0, 1, 2, 3):
            for g in graphs[:6]:
                self._assert_query_parity(on, off, g, tau)

    def test_streaming_add_and_unknown_key_query_parity(self):
        graphs = molecule_collection(12, seed=52)
        on, off = self._indexes(graphs[:6], tau_max=2, q=3)
        # Streaming inserts introduce keys unseen at construction —
        # the vocabulary hands out overflow ids (sorting last), the
        # object-key ordering uses its unknown-key token; results must
        # keep matching.
        novel = labeled_collection(4, seed=53, num_labels=5)
        for i, g in enumerate(novel):
            g.graph_id = f"novel-{i}"
        for g in graphs[6:] + novel:
            on.add(g)
            off.add(g)
        strangers = labeled_collection(2, seed=54)
        for i, g in enumerate(strangers):
            g.graph_id = f"stranger-{i}"
        queries = graphs[:3] + novel[:2] + strangers
        for tau in (1, 2):
            for g in queries:
                self._assert_query_parity(on, off, g, tau)
