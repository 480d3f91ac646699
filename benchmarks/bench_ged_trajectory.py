"""GED-verification perf trajectory — compiled backend vs object A*.

Runs the same workload matrix as ``bench_pipeline_trajectory.py``
(AIDS-like q=4 and PROTEIN-like q=3; τ ∈ {1..3}; the *full* variant)
through both GED verification backends — ``verifier="compiled"`` (the
integer-array A* with per-collection graph compilation,
:mod:`repro.ged.compiled`) and ``verifier="object"`` (the object-graph
reference A*) — and records per-cell ``ged_time_s``, expansion counts
and the compile+cache overhead to ``BENCH_ged.json`` at the repository
root.  The ``summary`` block reports summed ``ged_time_s`` per backend
and their ratio; the compiled backend is expected to stay ≥ 2× ahead.
Per-cell result parity (pairs, cand2, expansions) is asserted in the
benchmark itself — the speedup is only meaningful if the two backends
did bit-identical work.

A separate *dispatcher* section runs a mixed-hardness workload — many
small label-diverse graphs (whose verify trees are tiny, so the DFS
backend's per-pair bipartite seeding is pure overhead) joined with a
few large single-label graphs (whose reject trees are huge, so the
DFS backend's cheaper per-node cost and constant memory win) — under
``verifier="compiled"``, ``"dfs"`` and ``"auto"``.  Each backend is
timed over ``DISPATCHER_REPS`` rotated repetitions (rotation cancels
the monotonic load drift of shared machines; the min is recorded).
The section asserts result-fingerprint parity across the three runs
and that the ``auto`` dispatcher's summed GED time stays within
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
import time
from dataclasses import replace
from pathlib import Path

if __name__ == "__main__":  # `import workloads` without the conftest
    sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import (
    AIDS_N,
    AIDS_Q,
    PROT_N,
    PROT_Q,
    dataset,
    format_table,
    write_series,
)

from repro import GSimJoinOptions, assign_ids, gsim_join
from repro.graph.generators import random_labeled_graph

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_ged.json"

TRAJECTORY_TAUS = (1, 2, 3)

MATRIX = (
    ("aids", AIDS_Q),
    ("protein", PROT_Q),
)

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


def _run_cell(ds: str, q: int, tau: int, verifier: str) -> dict:
    graphs = list(dataset(ds))
    options = replace(GSimJoinOptions.full(q=q), verifier=verifier)
    started = time.perf_counter()
    result = gsim_join(graphs, tau, options)
    wall = time.perf_counter() - started
    st = result.stats
    return {
        "dataset": ds,
        "q": q,
        "tau": tau,
        "backend": verifier,
        "ged_time_s": round(st.ged_time, 4),
        "compile_time_s": round(st.compile_time, 4),
        "compiled_graphs": st.compiled_graphs,
        "verify_time_s": round(st.verify_time, 4),
        "wall_time_s": round(wall, 4),
        "ged_calls": st.ged_calls,
        "ged_expansions": st.ged_expansions,
        "cand1": st.cand1,
        "cand2": st.cand2,
        "results": st.results,
        "pairs_sha": _pairs_fingerprint(result),
    }


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
    cells = []
    for ds, q in MATRIX:
        for tau in TRAJECTORY_TAUS:
            for verifier in ("object", "compiled"):
                cells.append(_run_cell(ds, q, tau, verifier))
    ged_time = {"object": 0.0, "compiled": 0.0}
    for cell in cells:
        ged_time[cell["backend"]] += cell["ged_time_s"]
    speedup = (
        ged_time["object"] / ged_time["compiled"]
        if ged_time["compiled"]
        else float("inf")
    )
    return {
        "generated_by": "benchmarks/bench_ged_trajectory.py",
        "workloads": {
            "aids": {"n": AIDS_N, "q": AIDS_Q, "seed": 42},
            "protein": {"n": PROT_N, "q": PROT_Q, "seed": 7},
        },
        "taus": list(TRAJECTORY_TAUS),
        "variant": "full",
        "cells": cells,
        "summary": {
            "ged_object_s": round(ged_time["object"], 4),
            "ged_compiled_s": round(ged_time["compiled"], 4),
            "ged_speedup": round(speedup, 2),
        },
        "dispatcher": collect_dispatcher(),
    }


def assert_cell_parity(payload: dict) -> None:
    """Both backends must have produced bit-identical joins per cell."""
    by_key = {}
    for cell in payload["cells"]:
        by_key.setdefault((cell["dataset"], cell["tau"]), []).append(cell)
    for (ds, tau), pair in by_key.items():
        obj, fast = pair
        assert obj["backend"] == "object" and fast["backend"] == "compiled"
        for field in (
            "cand1", "cand2", "results", "ged_calls", "ged_expansions",
            "pairs_sha",
        ):
            assert obj[field] == fast[field], (ds, tau, field)


def _table(payload: dict) -> str:
    rows = []
    for cell in payload["cells"]:
        rows.append(
            [
                cell["dataset"],
                cell["tau"],
                cell["backend"],
                f"{cell['ged_time_s']:.3f}",
                f"{cell['compile_time_s']:.3f}",
                cell["ged_calls"],
                cell["ged_expansions"],
                cell["results"],
            ]
        )
    summary = payload["summary"]
    title = (
        "GED trajectory (full variant): ged_time "
        f"{summary['ged_object_s']:.2f}s -> "
        f"{summary['ged_compiled_s']:.2f}s "
        f"({summary['ged_speedup']:.2f}x)"
    )
    trajectory = format_table(
        title,
        ["ds", "tau", "backend", "ged", "compile", "calls", "expansions", "results"],
        rows,
    )
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
    dispatcher = format_table(
        dispatch_title,
        ["backend", "ged", "calls", "expansions", "results", "dispatch"],
        dispatch_rows,
    )
    return trajectory + "\n\n" + dispatcher


def write_trajectory() -> dict:
    """Run the matrix; write ``BENCH_ged.json`` and the table rendered
    from it (``results/ged_trajectory.txt``), so the two never disagree."""
    payload = collect()
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    write_series("ged_trajectory", _table(payload), [])
    return payload


def test_ged_trajectory(benchmark):
    payload = benchmark.pedantic(write_trajectory, rounds=1, iterations=1)
    print("\n" + _table(payload))
    assert OUTPUT.exists()
    assert len(payload["cells"]) == 2 * len(TRAJECTORY_TAUS) * len(MATRIX)
    assert_cell_parity(payload)
    assert_dispatcher_parity(payload["dispatcher"])
    assert_dispatcher_speed(payload["dispatcher"])
    # The acceptance bar: the compiled backend at least halves the
    # summed A* verification time on these workloads.
    assert payload["summary"]["ged_speedup"] >= 2.0, payload["summary"]


if __name__ == "__main__":
    payload = write_trajectory()
    assert_cell_parity(payload)
    assert_dispatcher_parity(payload["dispatcher"])
    assert_dispatcher_speed(payload["dispatcher"])
    print(_table(payload))
    print(f"\nwrote {OUTPUT}")
