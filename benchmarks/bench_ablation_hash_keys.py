"""Ablation — q-gram keys as label tuples vs 32-bit hashes.

The paper hashes each q-gram into a 4-byte integer to shrink the index
and speed up equality checks, accepting hash-collision false positives
in the candidates.  Our implementation keeps exact label-tuple keys;
this ablation quantifies both sides: probe/index timing and the number
of extra candidates collisions would admit at a deliberately tiny hash
space (to make collisions observable at benchmark scale).
"""

import time

from workloads import AIDS_Q, dataset, format_table, write_series

from repro.core import build_vocabulary, extract_qgrams


def _index_and_probe(profiles, key_of):
    """Build a postings dict and self-probe every profile; time it."""
    started = time.perf_counter()
    postings = {}
    for i, profile in enumerate(profiles):
        for gram in profile.grams:
            postings.setdefault(key_of(gram.key), []).append(i)
    hits = 0
    for profile in profiles:
        for gram in profile.grams:
            hits += len(postings[key_of(gram.key)])
    return time.perf_counter() - started, len(postings), hits


def test_ablation_hash_vs_tuple_keys(benchmark):
    graphs = list(dataset("aids"))

    def compute():
        profiles = [extract_qgrams(g, AIDS_Q) for g in graphs]
        vocab = build_vocabulary(profiles)
        for p in profiles:
            vocab.sort_profile(p)

        rows = []
        t_tuple, keys_tuple, hits_tuple = _index_and_probe(profiles, lambda k: k)
        rows.append(["tuple", f"{t_tuple:.3f}", keys_tuple, hits_tuple, 0])
        for bits in (32, 16, 12):
            mask = (1 << bits) - 1
            t_hash, keys_hash, hits_hash = _index_and_probe(
                profiles, lambda k, m=mask: hash(k) & m
            )
            rows.append(
                [
                    f"hash{bits}",
                    f"{t_hash:.3f}",
                    keys_hash,
                    hits_hash,
                    hits_hash - hits_tuple,  # collision-induced extra hits
                ]
            )
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    table = format_table(
        "Ablation: q-gram key representation (AIDS)",
        ["keys", "time", "distinct", "probe hits", "false hits"],
        rows,
    )
    write_series("ablation_hash_keys", table, [])
    print("\n" + table)
    # Exact tuple keys admit zero false hits by construction.
    assert rows[0][-1] == 0
    # Collisions can only add hits, never remove them.
    for row in rows[1:]:
        assert row[-1] >= 0
