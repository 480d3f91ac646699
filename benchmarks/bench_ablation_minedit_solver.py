"""Ablation — minimum-edit prefix computation: two-round vs exact-only.

Algorithm 4 runs a cheap greedy/Slavík binary search first and the exact
bounded hitting-set search second.  This ablation compares that
two-round scheme against using the exact solver for the whole range,
measuring prefix computation time (the resulting prefixes are identical
— the greedy round is only an accelerator).
"""

import time

from workloads import PROT_Q, dataset, format_table, write_series

from repro.core import build_vocabulary, extract_qgrams, min_prefix_length
from repro.grams import LabelTable
from repro.grams.minedit import min_edit_exact


def exact_only_prefix(sorted_grams, tau, d_path):
    """Single binary search with the exact solver (no greedy round)."""
    total = len(sorted_grams)
    hard_right = min(tau * d_path + 1, total)
    if hard_right == 0:
        return None
    if min_edit_exact(sorted_grams[:hard_right], tau) <= tau:
        return None
    left, right = min(tau + 1, hard_right), hard_right
    while left < right:
        mid = (left + right) // 2
        if min_edit_exact(sorted_grams[:mid], tau) > tau:
            right = mid
        else:
            left = mid + 1
    return left


def test_ablation_minedit_solver(benchmark):
    graphs = list(dataset("protein"))

    def compute():
        table = LabelTable.of(graphs)
        profiles = [extract_qgrams(g, PROT_Q, table) for g in graphs]
        vocab = build_vocabulary(profiles)
        for p in profiles:
            vocab.sort_profile(p)

        rows = []
        for tau in (1, 2, 3, 4):
            started = time.perf_counter()
            two_round = [
                min_prefix_length(p.grams, tau, p.d_path) for p in profiles
            ]
            t_two = time.perf_counter() - started

            started = time.perf_counter()
            exact_only = [
                exact_only_prefix(p.grams, tau, p.d_path) for p in profiles
            ]
            t_exact = time.perf_counter() - started

            assert two_round == exact_only  # same prefixes either way
            rows.append([tau, f"{t_two:.3f}", f"{t_exact:.3f}"])
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    table = format_table(
        "Ablation: MinPrefixLen solver strategy (PROTEIN, seconds)",
        ["tau", "greedy+exact (Alg.4)", "exact-only"],
        rows,
    )
    write_series("ablation_minedit_solver", table, [])
    print("\n" + table)
