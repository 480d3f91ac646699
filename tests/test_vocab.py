"""Interned-signature pipeline: vocabulary unit tests + parity properties.

The join runs on interned q-gram signatures.  It must be observationally
identical to the object-key oracle — the drivers of
``tests/legacy_drivers.py`` with ``object_keys=True``, which sort
profiles by ``(document frequency, repr(key))`` tokens (keys unseen at
build time last, by first arrival), index q-gram tuples and compare
profiles by the Counter computation of ``tests/counter_compare.py`` —
with the same result pairs in the same order and the same prune-counter
statistics, across join variants, thresholds, q-gram lengths, directed
graphs, streaming index inserts and the gram-less (unprunable) edge
case.  These tests are the contract that lets the interned path evolve
while the oracle stays frozen.
"""

import random

import pytest

from repro import GSimJoinOptions, assign_ids, gsim_join, gsim_join_rs
from repro.core.search import GSimIndex
from repro.engine.result import JoinStatistics
from repro.engine.stages import BasicPrefix, MinEditFilter
from repro.exceptions import ParameterError
from repro.ged import graph_edit_distance
from repro.ged.compiled import VerificationCache
from repro.grams.minedit import min_prefix_length, min_prefix_length_direct
from repro.grams.mismatch import compare_qgrams
from repro.grams.qgrams import LabelTable, extract_qgrams
from repro.grams.vocab import QGramVocabulary, build_vocabulary
from repro.graph.generators import random_labeled_graph

from .conftest import cycle_graph, path_graph, profile_counts, shared_profiles
from .counter_compare import counter_compare
from .legacy_drivers import LegacyGSimIndex, legacy_gsim_join, legacy_gsim_join_rs
from .recursive_walk import oracle_extract
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
        # 0-grams: a code is one vertex rank (A=0, B=1, C=2 by repr).
        table = LabelTable.of([path_graph(["C", "A", "B"])])
        vocab = QGramVocabulary(table, [2, 0, 1], q=0)
        assert len(vocab) == 3
        assert 0 in vocab and 3 not in vocab
        assert [vocab.key_of(i) for i in range(3)] == [("C",), ("A",), ("B",)]

    def test_build_ranks_by_df_then_repr(self):
        graphs = molecule_collection(8, seed=11)
        profiles = shared_profiles(graphs, 2)
        vocab = build_vocabulary(profiles)
        df = {}
        for profile in profiles:
            for key in profile_counts(profile)[0]:
                df[key] = df.get(key, 0) + 1
        keys = [vocab.key_of(i) for i in range(len(vocab))]
        tokens = [(df[key], repr(key)) for key in keys]
        assert tokens == sorted(tokens)

    def test_profiles_of_two_tables_are_refused(self):
        """Codes mean the same only under one label table: the
        vocabulary refuses profiles coded under another, and takes a
        query's temporary extension of its own table only unstored."""
        a, b = path_graph(["A", "B"]), path_graph(["A", "B"])
        pa, pb = extract_qgrams(a, 1), extract_qgrams(b, 1)  # a table each
        with pytest.raises(ParameterError, match="another label table"):
            build_vocabulary([pa, pb])
        vocab = build_vocabulary([pa])
        for intern in (True, False):
            with pytest.raises(ParameterError, match="another label table"):
                vocab.sort_profile(pb, intern=intern)
        stranger = path_graph(["A", "Z"])
        extended = pa.table.covering(stranger)
        assert extended is not pa.table and extended.base is pa.table
        pz = extract_qgrams(stranger, 1, extended)
        with pytest.raises(ParameterError, match="another label table"):
            vocab.sort_profile(pz)
        vocab.sort_profile(pz, intern=False)
        assert pz.signature == [len(vocab)]  # a temporary id
        assert pa.table.covering(a) is pa.table

    def test_intern_assigns_overflow_past_frozen_range(self):
        built, new = path_graph(["A"]), path_graph(["NEW"])
        table = LabelTable.of([built, new])
        vocab = build_vocabulary([extract_qgrams(built, 0, table)])
        profile = extract_qgrams(new, 0, table)
        assert profile.codes[0] not in vocab
        vocab.sort_profile(profile)
        assert profile.signature == [1]  # the first id past the built range
        vocab.sort_profile(profile)
        assert profile.signature == [1]  # idempotent
        assert vocab.key_of(1) == ("NEW",)
        assert len(vocab) == 2

    def test_overflow_sorts_last_in_arrival_order(self):
        """Unseen keys rank after the built ones in the order they
        arrive, whatever their repr: a profile holding ``Z-Z`` (interned
        first) and ``Y-Y`` sorts ``Z-Z`` first."""
        graphs = [
            path_graph(["A", "B"]),
            path_graph(["Z", "Z"]),
            path_graph(["Y", "Y", "Z", "Z", "A", "B"]),
        ]
        built, first, profile = shared_profiles(graphs, 1)
        vocab = build_vocabulary([built])
        vocab.sort_profile(first)
        vocab.sort_profile(profile)
        assert [gram.key for gram in profile.grams] == [
            ("A", "x", "B"),
            ("Z", "x", "Z"),
            ("Y", "x", "Y"),
            ("Y", "x", "Z"),
            ("A", "x", "Z"),
        ]
        assert profile.signature == [0, 1, 2, 3, 4]

    def test_sort_profile_attaches_total_signature(self):
        graphs = molecule_collection(6, seed=12)
        profiles = shared_profiles(graphs, 2)
        vocab = build_vocabulary(profiles)
        for profile in profiles:
            vocab.sort_profile(profile)
            assert profile.signature == sorted(profile.signature)
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
        table = LabelTable.of(graphs)
        first = [extract_qgrams(g, 3, table) for g in graphs[:8]]
        first_vocab = build_vocabulary(first)
        for profile in first:
            first_vocab.sort_profile(profile)
            assert profile.grams  # built in the first order
        first_orders = [profile.order for profile in first[4:]]
        resorted = first[4:] + [extract_qgrams(g, 3, table) for g in graphs[8:]]
        second_vocab = build_vocabulary(resorted)
        for profile in resorted:
            second_vocab.sort_profile(profile)
        assert [p.order for p in resorted[:4]] != first_orders
        fresh = shared_profiles(graphs[4:], 3)
        fresh_vocab = build_vocabulary(fresh)
        for profile in fresh:
            fresh_vocab.sort_profile(profile)
        for again, new in zip(resorted, fresh):
            assert again.order == new.order
            assert again.signature == new.signature
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

    def test_sort_profile_with_overflow_merges(self):
        """Profiles with overflow ids (inserted) and temporary ids
        (queried) are sorted by id and compare by the merge exactly as
        the Counter oracle does."""
        graphs = molecule_collection(8, seed=13)
        profiles = shared_profiles(graphs, 2)
        vocab = build_vocabulary(profiles[:3])  # the rest contain unseen keys
        unseen = [
            p for p in profiles[3:] if any(code not in vocab for code in p.codes)
        ]
        assert len(unseen) >= 2, "seed must produce unseen keys"
        inserted, queried = unseen[:-1], unseen[-1]
        for profile in profiles[:3] + inserted:
            vocab.sort_profile(profile)
        size = len(vocab)
        vocab.sort_profile(queried, intern=False)
        assert len(vocab) == size
        for profile in inserted + [queried]:
            assert profile.signature == sorted(profile.signature)
            assert profile.signature_source is vocab
            for other in profiles[:3] + inserted:
                merged = compare_qgrams(profile, other)
                counted = counter_compare(profile, other)
                assert (merged.epsilon_r, merged.epsilon_s) == (
                    counted.epsilon_r,
                    counted.epsilon_s,
                )
                assert merged.mismatch_r == counted.mismatch_r
                assert merged.mismatch_s == counted.mismatch_s
                assert merged.required_mask_r == counted.required_mask_r


class TestDirectPrefixParity:
    @pytest.mark.parametrize("tau", [0, 1, 2, 3])
    def test_direct_matches_double_binary_search(self, tau):
        graphs = molecule_collection(14, seed=21)
        profiles = shared_profiles(graphs, 3)
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

    def test_unseen_keys_reach_prefixes_in_arrival_order(self):
        """``Z-Z`` arrives (with ``x``) before ``Y-Y`` and ``Z-Y`` (with
        ``y``) though its repr sorts after theirs, so it leads ``y``'s
        prefix; ranked by repr, ``y`` would index all three keys and the
        ``Y-Y-Z-Z`` query at tau=1 would meet one more candidate.  The
        labels follow the same rule: ``Z`` arrives before ``Y``, so the
        ``Y-Z`` path reads ``Z-x-Y``, in the engine and the oracle."""
        base = [
            path_graph(["A", "B", "A"], graph_id="b0"),
            path_graph(["B", "B", "A"], graph_id="b1"),
            path_graph(["A", "A", "B", "B"], graph_id="b2"),
            cycle_graph(["A", "B", "B", "A"], graph_id="b3"),
        ]
        on, off = self._indexes(base, tau_max=1, q=1)
        for g in (
            path_graph(["Z", "Z", "Z"], graph_id="x"),
            path_graph(["Y", "Y", "Z", "Z"], graph_id="y"),
            path_graph(["Y", "Z", "Y", "Z"], graph_id="w"),
        ):
            on.add(g)
            off.add(g)
        expected = [("Z", "x", "Z"), ("Y", "x", "Y"), ("Z", "x", "Y")]
        assert [gram.key for gram in on._profiles[5].grams] == expected
        assert [gram.key for gram in off._profiles[5].grams] == expected
        queries = [
            path_graph(["Y", "Y", "Z", "Z"], graph_id="q0"),
            path_graph(["Y", "Z", "Z"], graph_id="q1"),
            path_graph(["Z", "Y", "Y", "Z"], graph_id="q2"),
            path_graph(["Z", "Z", "Y", "Y", "A"], graph_id="q3"),
        ]
        for tau in (0, 1):
            for g in queries:
                self._assert_query_parity(on, off, g, tau)


class TestLateLabels:
    """Labels first seen after an index is built rank after the built
    ones by arrival, and widen the codes' digits once they outgrow
    them; stored signatures, answers and candidate counts must not
    notice."""

    @staticmethod
    def _exhaustive(graphs, g, tau):
        found = []
        for h in graphs:
            d = graph_edit_distance(g, h, threshold=tau)
            if d <= tau and h.graph_id != g.graph_id:
                found.append((h.graph_id, d))
        return sorted(found, key=lambda pair: (pair[1], repr(pair[0])))

    def test_growth_past_the_digit_width(self):
        rng = random.Random(81)
        base = labeled_collection(10, seed=81, num_labels=3)  # L0..L2
        on = GSimIndex(base, tau_max=2, options=GSimJoinOptions.full(q=2))
        off = LegacyGSimIndex(
            base, tau_max=2, options=GSimJoinOptions.full(q=2), object_keys=True
        )
        assert on._table.width == 2  # three vertex labels, two edge labels
        stored = [list(p.signature) for p in on._profiles]
        # Late labels L9..L4 (reverse repr order) push the vertex ranks
        # to 8, past width 2 and then 3; perturbed copies keep them near.
        late = []
        for k, label in enumerate(["L9", "L8", "L7", "L6", "L5", "L4"]):
            g = base[k].copy(graph_id=f"late-{k}")
            for v in list(g.vertices())[: 1 + k % 2]:
                g.set_vertex_label(v, label)
            late.append(g)
            twin = g.copy(graph_id=f"twin-{k}")
            v = rng.choice(list(twin.vertices()))
            twin.set_vertex_label(v, "L0")
            late.append(twin)
        for g in late:
            on.add(g)
            off.add(g)
        assert on._table.width == 4
        assert [list(p.signature) for p in on._profiles[: len(base)]] == stored
        graphs = base + late
        # A label only the queries carry, ranked past width 4 (17
        # vertex labels), and one a query shares with the index.
        strangers = []
        for k in range(3):
            g = late[2 * k].copy(graph_id=f"q-{k}")
            g.set_vertex_label(next(iter(g.vertices())), f"Q{k}")
            strangers.append(g)
        wide = late[1].copy(graph_id="q-wide")
        for i, v in enumerate(wide.vertices()):
            if i:
                wide.set_vertex_label(v, f"W{i:02d}")
        for g in graphs[::3] + strangers + [wide]:
            for tau in (1, 2):
                on._cache = VerificationCache()
                stats_on, stats_off = JoinStatistics(), JoinStatistics()
                answer = on.query(g, tau, stats_on)
                assert answer == off.query(g, tau, stats_off)
                assert answer == self._exhaustive(graphs, g, tau)
                assert_stat_parity(stats_on, stats_off)
        assert on._table.width == 4  # queries leave the table as it was
        assert [list(p.signature) for p in on._profiles[: len(base)]] == stored

    def test_late_label_orientation_matches_the_oracles(self):
        """The object-key oracle and the recursive walk orient a path
        carrying late labels by arrival, as the engine does."""
        base = [path_graph(["A", "B", "C"], graph_id="b")]
        on = GSimIndex(base, tau_max=1, options=GSimJoinOptions.full(q=2))
        off = LegacyGSimIndex(
            base, tau_max=1, options=GSimJoinOptions.full(q=2), object_keys=True
        )
        g = path_graph(["Z", "A", "Y", "X", "A"], graph_id="g")
        on.add(g)
        off.add(g)
        tokens = off._sorter.labels
        grams, _, _ = oracle_extract(g, 2, lambda label, kind: tokens[kind][label])
        keys = sorted(gram.key for gram in on._profiles[1].grams)
        assert keys == sorted(gram.key for gram in off._profiles[1].grams)
        assert keys == sorted(gram.key for gram in grams)
        # Z arrived before Y: Z-A-Y reads from Z, though "Y" < "Z".
        assert ("Z", "x", "A", "x", "Y") in keys
        assert ("Y", "x", "A", "x", "Z") not in keys
