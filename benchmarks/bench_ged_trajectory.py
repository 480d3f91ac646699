"""GED-verification dispatcher cell — ``compiled`` vs ``dfs`` vs ``auto``.

Runs a mixed-hardness workload — many small label-diverse graphs
(whose verify trees are tiny, so the DFS backend's per-pair bipartite
seeding is pure overhead) joined with a few large single-label graphs
(whose reject trees are huge, so the DFS backend's cheaper per-node
cost and constant memory win) — under ``verifier="compiled"``,
``"dfs"`` and ``"auto"``, and records the ``dispatcher`` block of
``BENCH_ged.json`` at the repository root.  (The compiled-vs-object
matrix this file used to record is summarised in
``docs/PERFORMANCE.md``.)  Each backend is timed over
``DISPATCHER_REPS`` rotated repetitions (rotation cancels the monotonic
load drift of shared machines; the min is recorded).  The run asserts
result-fingerprint parity across the three backends and that the
``auto`` dispatcher's summed GED time stays within
``DISPATCHER_TOLERANCE`` of the best single backend — the hardness
dispatch must pay for itself.

Regenerate standalone (no pytest-benchmark needed)::

    PYTHONPATH=src python benchmarks/bench_ged_trajectory.py

or as part of the benchmark suite (``pytest benchmarks/
--benchmark-only``).  Both entry points write the JSON and
``benchmarks/results/ged_trajectory.txt``, rendered from that JSON.
"""

import json
import random
import sys
from dataclasses import replace
from pathlib import Path

if __name__ == "__main__":  # `import workloads` without the conftest
    sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import format_table, write_series

from repro import GSimJoinOptions, assign_ids, gsim_join
from repro.graph.generators import random_labeled_graph

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_ged.json"

# ---- mixed-hardness dispatcher row ----------------------------------------
# Easy class: many small label-diverse graphs — surviving candidates
# decide in a handful of expansions, so the "dfs" backend's per-pair
# bipartite incumbent seeding is pure overhead and "compiled" is the
# right target.  Hard class: near-duplicate clusters of large
# single-label graphs — the accepting searches hit the wide f-tie
# plateau a label-starved A* must enumerate, while the DFS
# branch-and-bound's greedy descent plus incumbent cuts it, so "dfs"
# wins by a wide margin.  Cluster base sizes sit more than τ apart so
# cross-cluster candidates die in the size filter and each class
# reaches Verify undiluted.  "auto" must route each class to its
# winner and come out no slower than the best single backend.
DISPATCHER_TAU = 3
DISPATCHER_Q = 2
DISPATCHER_VERIFIERS = ("compiled", "dfs", "auto")
DISPATCHER_REPS = 4
# The dispatcher's structural margin over the best single backend is
# ~5-15%; shared-machine jitter on a ~3 s cell can approach that even
# after min-of-rotated-reps.  The assertion therefore allows the noise
# band — a regression that makes dispatch genuinely wrong (e.g.
# routing hard pairs to the frontier A*) overshoots it — while the
# recorded ``auto_vs_best`` in BENCH_ged.json tracks the real ratio.
DISPATCHER_TOLERANCE = 1.25
EASY_N, EASY_SEED = 48, 42
HARD_BASE_SIZES, HARD_COPIES, HARD_SEED = (10, 14), 4, 7


def mixed_hardness_dataset() -> list:
    """Easy/hard two-class collection exercising both dispatch targets."""
    from repro.graph.operations import perturb

    easy_rng = random.Random(EASY_SEED)
    graphs = [
        random_labeled_graph(easy_rng, 6, 8, ["A", "B", "C", "D"], ["x", "y"])
        for _ in range(EASY_N)
    ]
    hard_rng = random.Random(HARD_SEED)
    for base_n in HARD_BASE_SIZES:
        base = random_labeled_graph(
            hard_rng, base_n, int(1.5 * base_n), ["A"], ["x"]
        )
        for _ in range(HARD_COPIES):
            graphs.append(
                perturb(base, hard_rng.randrange(1, 3), hard_rng, ["A"], ["x"])
            )
    return assign_ids(graphs)


def _pairs_fingerprint(result) -> str:
    import hashlib

    blob = repr(result.pairs).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def collect_dispatcher() -> dict:
    """Time the mixed-hardness cell under every dispatcher verifier.

    Backends are interleaved and the visit order rotated every
    repetition, so slow monotonic machine drift hits each backend
    equally; the per-backend minimum over repetitions is recorded.
    """
    graphs = mixed_hardness_dataset()
    options = GSimJoinOptions.full(q=DISPATCHER_Q)
    timings = {verifier: [] for verifier in DISPATCHER_VERIFIERS}
    cells = {}
    for rep in range(DISPATCHER_REPS):
        shift = rep % len(DISPATCHER_VERIFIERS)
        rotation = DISPATCHER_VERIFIERS[shift:] + DISPATCHER_VERIFIERS[:shift]
        for verifier in rotation:
            result = gsim_join(
                graphs, DISPATCHER_TAU, replace(options, verifier=verifier)
            )
            st = result.stats
            timings[verifier].append(st.ged_time)
            cells[verifier] = {
                "dataset": "mixed-hardness",
                "q": DISPATCHER_Q,
                "tau": DISPATCHER_TAU,
                "backend": verifier,
                "ged_calls": st.ged_calls,
                "ged_expansions": st.ged_expansions,
                "cand1": st.cand1,
                "cand2": st.cand2,
                "results": st.results,
                "pairs_sha": _pairs_fingerprint(result),
                "verify_backends": dict(sorted(st.verify_backends.items())),
            }
    for verifier in DISPATCHER_VERIFIERS:
        cells[verifier]["ged_time_s"] = round(min(timings[verifier]), 4)
        cells[verifier]["reps"] = DISPATCHER_REPS
    auto_s = cells["auto"]["ged_time_s"]
    singles = {
        verifier: cells[verifier]["ged_time_s"]
        for verifier in DISPATCHER_VERIFIERS
        if verifier != "auto"
    }
    best_single = min(singles, key=singles.get)
    best_single_s = singles[best_single]
    return {
        "workload": {
            "easy": {"n": EASY_N, "seed": EASY_SEED,
                     "shape": "6v/8e, 4 vertex labels"},
            "hard": {
                "base_sizes": list(HARD_BASE_SIZES),
                "copies": HARD_COPIES,
                "seed": HARD_SEED,
                "shape": "single-label near-duplicate clusters",
            },
        },
        "tau": DISPATCHER_TAU,
        "q": DISPATCHER_Q,
        "reps": DISPATCHER_REPS,
        "cells": [cells[verifier] for verifier in DISPATCHER_VERIFIERS],
        "summary": {
            "auto_s": auto_s,
            "best_single": best_single,
            "best_single_s": best_single_s,
            "auto_vs_best": round(auto_s / best_single_s, 4)
            if best_single_s
            else 0.0,
            "auto_backends": cells["auto"]["verify_backends"],
        },
    }


def assert_dispatcher_parity(section: dict) -> None:
    """All three dispatcher runs must be bit-identical joins, and the
    ``auto`` run must actually have exercised both dispatch targets.

    ``ged_expansions`` is deliberately not compared: on accepting
    pairs the A* and the DFS branch-and-bound legitimately expand
    different node counts (only the decisions must agree).
    """
    reference = section["cells"][0]
    for cell in section["cells"][1:]:
        for field in (
            "cand1", "cand2", "results", "ged_calls", "pairs_sha",
        ):
            assert cell[field] == reference[field], (cell["backend"], field)
    auto = next(c for c in section["cells"] if c["backend"] == "auto")
    mix = auto["verify_backends"]
    assert mix.get("compiled", 0) > 0 and mix.get("dfs", 0) > 0, mix
    assert sum(mix.values()) == auto["ged_calls"], mix


def assert_dispatcher_speed(section: dict) -> None:
    """``auto`` must not lose to the best single backend (within the
    noise tolerance) — hardness dispatch has to pay for itself."""
    summary = section["summary"]
    assert summary["auto_vs_best"] <= DISPATCHER_TOLERANCE, summary


def collect() -> dict:
    return {
        "generated_by": "benchmarks/bench_ged_trajectory.py",
        "dispatcher": collect_dispatcher(),
    }


def _table(payload: dict) -> str:
    section = payload["dispatcher"]
    dispatch_rows = [
        [
            cell["backend"],
            f"{cell['ged_time_s']:.3f}",
            cell["ged_calls"],
            cell["ged_expansions"],
            cell["results"],
            ",".join(
                f"{name}={count}"
                for name, count in cell["verify_backends"].items()
            ),
        ]
        for cell in section["cells"]
    ]
    summary = section["summary"]
    dispatch_title = (
        f"Mixed-hardness dispatcher (tau={section['tau']}): auto "
        f"{summary['auto_s']:.3f}s vs best single "
        f"{summary['best_single']} {summary['best_single_s']:.3f}s "
        f"(ratio {summary['auto_vs_best']:.3f})"
    )
    return format_table(
        dispatch_title,
        ["backend", "ged", "calls", "expansions", "results", "dispatch"],
        dispatch_rows,
    )


def write_trajectory() -> dict:
    """Run the dispatcher cell; write ``BENCH_ged.json`` and the table
    rendered from it (``results/ged_trajectory.txt``), so the two never
    disagree."""
    payload = collect()
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    write_series("ged_trajectory", _table(payload), [])
    return payload


def test_ged_trajectory(benchmark):
    payload = benchmark.pedantic(write_trajectory, rounds=1, iterations=1)
    print("\n" + _table(payload))
    assert OUTPUT.exists()
    assert_dispatcher_parity(payload["dispatcher"])
    assert_dispatcher_speed(payload["dispatcher"])


if __name__ == "__main__":
    payload = write_trajectory()
    assert_dispatcher_parity(payload["dispatcher"])
    assert_dispatcher_speed(payload["dispatcher"])
    print(_table(payload))
    print(f"\nwrote {OUTPUT}")
