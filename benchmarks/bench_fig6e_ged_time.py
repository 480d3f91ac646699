"""Figure 6(e) — GED computation time for the three verifier variants.

Following Section VII-C, a fixed candidate set (the pairs surviving the
complete filter cascade, i.e. the Cand-2 of the full GSimJoin) is
verified with three algorithms per τ:

* ``A*``              — plain search (input order, Γ label heuristic);
* ``+Improved Order`` — mismatching-q-gram vertices first (Algorithm 7),
  the mismatching q-grams listed in the join's global ordering;
* ``+Improved h(x)``  — additionally the local-label heuristic
  (Algorithm 8).

Expected shape: each optimization reduces time/expansions, with larger
margins at larger τ.
"""

import time

from workloads import PROT_Q, TAUS, dataset, format_table, write_series

from repro.core import (
    build_vocabulary,
    compare_qgrams,
    extract_qgrams,
    global_label_lower_bound,
    local_label_lower_bound,
    passes_size_filter,
)
from repro.ged import (
    graph_edit_distance_detailed,
    input_vertex_order,
    label_heuristic,
    make_local_label_heuristic,
    mismatch_vertex_order,
)
from repro.grams import LabelTable


def candidate_pairs(graphs, tau, q):
    """Pairs surviving size, global label, count and local label
    filtering — the Verify cascade applied pairwise (a superset of the
    join's Cand-2, independent of prefix-filtering order)."""
    table = LabelTable.of(graphs)
    profiles = [extract_qgrams(g, q, table) for g in graphs]
    vocab = build_vocabulary(profiles)
    for profile in profiles:
        vocab.sort_profile(profile)
    labels = [(g.vertex_label_multiset(), g.edge_label_multiset()) for g in graphs]
    pairs = []
    n = len(graphs)
    for i in range(n):
        for j in range(i + 1, n):
            r, s = graphs[i], graphs[j]
            if not passes_size_filter(r, s, tau):
                continue
            if global_label_lower_bound(r, s, labels[i], labels[j]) > tau:
                continue
            mm = compare_qgrams(profiles[i], profiles[j])
            if mm.epsilon_r > tau * profiles[i].d_path:
                continue
            if mm.epsilon_s > tau * profiles[j].d_path:
                continue
            if local_label_lower_bound(
                mm.mismatch_r, r, s, tau,
                other_labels=labels[j], required_mask=mm.required_mask_r,
            ) > tau:
                continue
            if local_label_lower_bound(
                mm.mismatch_s, s, r, tau,
                other_labels=labels[i], required_mask=mm.required_mask_s,
            ) > tau:
                continue
            pairs.append((r, s, mm))
    return pairs


def verify_with(pairs, tau, q, improved_order, improved_h):
    started = time.perf_counter()
    expansions = 0
    results = 0
    for r, s, mm in pairs:
        order = (
            mismatch_vertex_order(r, mm.mismatch_r)
            if improved_order
            else input_vertex_order(r)
        )
        heuristic = make_local_label_heuristic(q, tau) if improved_h else label_heuristic
        search = graph_edit_distance_detailed(
            r, s, threshold=tau, heuristic=heuristic, vertex_order=order
        )
        expansions += search.expanded
        if search.distance <= tau:
            results += 1
    return time.perf_counter() - started, expansions, results


def test_fig6e_ged_computation_time(benchmark):
    graphs = list(dataset("protein"))

    def compute():
        rows = []
        for tau in TAUS:
            pairs = candidate_pairs(graphs, tau, PROT_Q)
            t_plain, e_plain, res = verify_with(pairs, tau, PROT_Q, False, False)
            t_order, e_order, res2 = verify_with(pairs, tau, PROT_Q, True, False)
            t_h, e_h, res3 = verify_with(pairs, tau, PROT_Q, True, True)
            assert res == res2 == res3  # all verifiers agree
            rows.append(
                [
                    tau,
                    len(pairs),
                    f"{t_plain:.2f}s/{e_plain}",
                    f"{t_order:.2f}s/{e_order}",
                    f"{t_h:.2f}s/{e_h}",
                ]
            )
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    table = format_table(
        "Fig 6(e) PROTEIN GED computation time (time/expansions)",
        ["tau", "cands", "A*", "+ImprovedOrder", "+Improved h(x)"],
        rows,
    )
    write_series("fig6e", table, [])
    print("\n" + table)
    assert len(rows) == len(TAUS)
