"""Static planner end-to-end — auto-plan vs every static cascade order.

Builds a *skewed* synthetic collection with two phases whose optimal
filter order differs, so no single static cascade is best on both:

* **B phase** (processed first — smaller graphs, and the executor walks
  the collection in size order): 40-vertex paths made of a rich
  per-cluster anchor (40 unique labels) plus a shuffled 25-letter
  ``{c,n,o}`` body.  Intra-cluster pairs have identical label multisets
  (the global label filter passes every one, Γ = 0) while the shuffled
  body destroys q-gram alignment, so the count filter prunes robustly
  (common ≈ junction overlap ≪ LB).  Optimal order here:
  **count-first**.
* **A phase** (second — longer 150-vertex paths): per-cluster random
  ``{C,N,O,S}`` base with 3 *adjacent* substitutions at a fixed site,
  using per-mate-unique labels.  Γ = 3 > τ, so the global label filter
  prunes — cheaply, since the alphabet is tiny — while the adjacent
  damage keeps the q-gram intersection above the count bound
  (common = |Q|−7 ≥ |Q|−τ·D), making count merges both expensive
  (signature ≈ 146) and useless.  Optimal order here: **global-first**.

``plan="auto"`` picks one order before the first pair, from the static
cost/selectivity model over a pair sample of the whole collection; the
bench records which order it picked and how its wall time compares with
the six static permutations.  Winning is reported, not asserted: the
in-bench gates are per-cell result-fingerprint parity against the
default static plan.  Skewed cells run the scalar cascade
(``batch=False`` — the per-pair filter costs the model reasons about);
a ``{default, auto}`` batch-mode pair rides along to show the plan
composes with the vectorized kernels.  A paper-dataset matrix
(AIDS-like, q = 4, τ = 2) records the uniform-workload side.

Writes ``BENCH_plan.json`` at the repository root and
``benchmarks/results/planner.txt`` rendered from it.  When a previous
artifact with the same cell matrix exists, the new end-to-end wall must
stay within ``NOISE_FACTOR``× of it.

Smoke mode (CI)::

    REPRO_BENCH_PLANNER_SMOKE=1 PYTHONPATH=src python benchmarks/bench_planner.py

runs a scaled-down skewed workload under the default, auto and all six
static plans, asserts result-fingerprint parity across them, and does
*not* rewrite the committed artifacts.

Regenerate standalone (no pytest-benchmark needed)::

    PYTHONPATH=src python benchmarks/bench_planner.py
"""

import gc
import itertools
import json
import os
import random
import sys
import time
from dataclasses import replace
from pathlib import Path

if __name__ == "__main__":  # `import workloads` without the conftest
    sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import dataset, format_table, write_series

from repro import GSimJoinOptions, gsim_join
from repro.core.sharded import result_fingerprint
from repro.graph import Graph, assign_ids
from repro.grams.columnar import HAVE_NUMPY

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_plan.json"

#: The full pair-filter cascade, in the model's default order.
FULL_STAGES = ("global-label-filter", "count-filter", "local-label-filter")

TAU = 2
Q = 4

#: Accepted end-to-end slowdown vs the committed baseline.
NOISE_FACTOR = 1.6

#: Runs per cell; wall times record the minimum (the prepare phase's
#: scheduler jitter exceeds the cascade deltas being measured), count
#: fields and fingerprints must agree across rounds — asserted.
ROUNDS = 5

SMOKE = os.environ.get("REPRO_BENCH_PLANNER_SMOKE", "") not in ("", "0")

#: (b_clusters, b_mates, a_clusters, a_mates, a_len)
SKEWED_SCALE = (15, 80, 4, 100, 150)
SMOKE_SCALE = (6, 48, 2, 48, 100)

#: Large enough to amortize auto's fixed prepare-time sampling cost
#: (``estimate_pass_rates`` evaluates every filter on a capped pair
#: sample, ~25 ms).
AIDS_PLAN_N = int(os.environ.get("REPRO_BENCH_PLANNER_AIDS_N", "400"))


def _path(labels):
    g = Graph()
    for i, lbl in enumerate(labels):
        g.add_vertex(i, lbl)
    for i in range(len(labels) - 1):
        g.add_edge(i, i + 1, "-")
    return g


def skewed_collection(scale=SKEWED_SCALE, seed=7):
    """Two-phase collection whose optimal cascade order flips mid-join."""
    b_clusters, b_mates, a_clusters, a_mates, a_len = scale
    rng = random.Random(seed)
    graphs = []
    # B phase: count-prunable.  The rich anchor keeps prefixes
    # intra-cluster (anchor-gram df = cluster size < body-class df) and
    # the shuffled small-alphabet body wrecks gram alignment.
    for c in range(b_clusters):
        anchor = [f"B{c}.{j}" for j in range(40)]
        body = [rng.choice("cno") for _ in range(25)]
        for _ in range(b_mates):
            b = body[:]
            rng.shuffle(b)
            graphs.append(_path(anchor + b))
    # A phase: global-prunable.  Mates 0 and 1 are identical — one
    # GED-0 result pair per cluster; every other mate carries 3
    # adjacent per-mate-unique substitutions (Γ = 3 > τ, but only 7
    # damaged grams, inside the count budget τ·D = 10).
    for c in range(a_clusters):
        base = [rng.choice("CNOS") for _ in range(a_len)]
        site = rng.randrange(20, a_len - 20)
        for m in range(a_mates):
            labels = base[:]
            if m >= 2:
                for dj in range(3):
                    labels[site + dj] = f"a{c}.{m}.{dj}"
            graphs.append(_path(labels))
    return assign_ids(graphs)


def plan_matrix():
    """label -> plan option value, default (None) first."""
    plans = {"default": None, "auto": "auto"}
    for perm in itertools.permutations(FULL_STAGES):
        plans["static:" + ",".join(p.split("-")[0] for p in perm)] = perm
    return plans


def _run_once(graphs, plan, batch):
    options = replace(GSimJoinOptions.full(q=Q), plan=plan, batch=batch)
    gc.collect()
    started = time.perf_counter()
    result = gsim_join(graphs, TAU, options=options)
    wall = time.perf_counter() - started
    st = result.stats
    return {
        "wall_time_s": round(wall, 4),
        "cand1": st.cand1,
        "cand2": st.cand2,
        "results": st.results,
        "ged_calls": st.ged_calls,
        "fingerprint": result_fingerprint(result),
        "order": [row.name for row in st.stages if row.role == "pair-filter"],
        "stages": [
            {
                "name": row.name,
                "input": row.input,
                "survivors": row.survivors,
                "seconds": round(row.seconds, 4),
            }
            for row in st.stages
            if row.role == "pair-filter"
        ],
    }


def _run_cells(workload, graphs, plans, batch, rounds=ROUNDS):
    """Best-of-``rounds`` cells, one per plan: min wall, asserted
    counts/fingerprint.  Each round runs every plan once, so machine
    drift and heap growth hit all plans alike."""
    cells = {}
    for _ in range(rounds):
        for label, plan in plans.items():
            sample = _run_once(graphs, plan, batch)
            cell = cells.setdefault(label, sample)
            if cell is sample:
                continue
            cell["wall_time_s"] = min(
                cell["wall_time_s"], sample["wall_time_s"])
            for key in ("cand1", "cand2", "results", "ged_calls",
                        "fingerprint", "order"):
                assert cell[key] == sample[key], (workload, label, key)
            for ours, theirs in zip(cell["stages"], sample["stages"]):
                assert ours["name"] == theirs["name"]
                assert ours["survivors"] == theirs["survivors"]
                ours["seconds"] = min(ours["seconds"], theirs["seconds"])
    for label, cell in cells.items():
        cell.update(workload=workload, plan=label, batch=batch)
    return list(cells.values())


def _check_parity(cells):
    """Every cell of a workload matches the default cell's fingerprint."""
    default = next(c for c in cells if c["plan"] == "default")
    for cell in cells:
        assert cell["fingerprint"] == default["fingerprint"], (
            cell["workload"], cell["plan"], "fingerprint mismatch")
        assert cell["results"] == default["results"], (
            cell["workload"], cell["plan"], "result count mismatch")


def _vs_statics(cells):
    """Auto's wall time against the static orders of one workload."""
    auto = next(c for c in cells if c["plan"] == "auto")
    statics = [c["wall_time_s"] for c in cells if c["plan"] != "auto"]
    best = min(statics)
    return {
        "auto_wall_s": auto["wall_time_s"],
        "auto_order": auto["order"],
        "best_static_wall_s": best,
        "worst_static_wall_s": max(statics),
        "auto_beats_best_static": auto["wall_time_s"] < best,
        "margin_vs_best_static": round(best / auto["wall_time_s"], 3),
    }


def collect_smoke():
    graphs = skewed_collection(SMOKE_SCALE)
    cells = _run_cells("skewed-smoke", graphs, plan_matrix(), False, rounds=1)
    _check_parity(cells)
    return {
        "generated_by": "benchmarks/bench_planner.py",
        "mode": "smoke",
        "cells": cells,
        "summary": _vs_statics(cells),
    }


def collect():
    plans = plan_matrix()
    cells = []

    # Paper dataset (AIDS-like): uniform workload.  Measured first — the
    # skewed collection below grows the heap enough to inflate later
    # sub-second cells.
    aids = list(dataset("aids", AIDS_PLAN_N))
    cells += _run_cells("aids", aids, plans, False)

    # Skewed workload, scalar cascade: the headline matrix.
    graphs = skewed_collection()
    cells += _run_cells("skewed", graphs, plans, False)

    # Skewed workload, batch kernels: the plan composes with the
    # vectorized path (numpy-only).
    if HAVE_NUMPY:
        pair = {label: plans[label] for label in ("default", "auto")}
        cells += _run_cells("skewed-batch", graphs, pair, True)

    by_workload = {}
    for cell in cells:
        by_workload.setdefault(cell["workload"], []).append(cell)
    for group in by_workload.values():
        _check_parity(group)

    summary = {
        "skewed": _vs_statics(by_workload["skewed"]),
        "aids": _vs_statics(by_workload["aids"]),
        "end_to_end_wall_s": round(
            sum(c["wall_time_s"] for c in cells), 4),
    }
    if HAVE_NUMPY:
        batch_cells = {c["plan"]: c for c in by_workload["skewed-batch"]}
        summary["skewed_batch_auto_wall_s"] = (
            batch_cells["auto"]["wall_time_s"])
        summary["skewed_batch_default_wall_s"] = (
            batch_cells["default"]["wall_time_s"])
    return {
        "generated_by": "benchmarks/bench_planner.py",
        "mode": "full",
        "tau": TAU,
        "q": Q,
        "rounds": ROUNDS,
        "workloads": {
            "skewed": {
                "scale": list(SKEWED_SCALE),
                "seed": 7,
                "graphs": len(graphs),
            },
            "aids": {"n": AIDS_PLAN_N, "seed": 42},
        },
        "cells": cells,
        "summary": summary,
    }


def load_baseline() -> dict:
    """The committed ``BENCH_plan.json``, or ``{}`` if absent/unreadable."""
    try:
        return json.loads(OUTPUT.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def _short(order) -> str:
    return ",".join(name.split("-")[0] for name in order)


def _title(label, summary) -> str:
    verdict = "beats" if summary["auto_beats_best_static"] else "trails"
    return (
        f"{label}: auto ({_short(summary['auto_order'])}) "
        f"{summary['auto_wall_s']:.3f}s {verdict} best static "
        f"{summary['best_static_wall_s']:.3f}s "
        f"({summary['margin_vs_best_static']:.2f}x), worst "
        f"{summary['worst_static_wall_s']:.3f}s")


def _table(payload) -> str:
    rows = [
        [
            cell["workload"],
            cell["plan"],
            "batch" if cell["batch"] else "scalar",
            f"{cell['wall_time_s']:.3f}",
            cell["cand1"],
            cell["results"],
            _short(cell["order"]),
        ]
        for cell in payload["cells"]
    ]
    summary = payload["summary"]
    if payload["mode"] == "full":
        title = "\n".join([
            _title("Planner, skewed", summary["skewed"]),
            _title("Planner, aids", summary["aids"]),
        ])
    else:
        title = _title("Planner (smoke), skewed", summary)
    return format_table(
        title,
        ["workload", "plan", "mode", "wall_s", "cand1", "results", "order"],
        rows,
    )


def write_plan_bench() -> dict:
    """Run the matrix; write ``BENCH_plan.json`` and the table rendered
    from it (``results/planner.txt``), so the two never disagree."""
    payload = collect()
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    write_series("planner", _table(payload), [])
    return payload


def test_planner_bench(benchmark):
    if SMOKE:
        payload = benchmark.pedantic(collect_smoke, rounds=1, iterations=1)
        print("\n" + _table(payload))
        return
    baseline = load_baseline()
    payload = benchmark.pedantic(write_plan_bench, rounds=1, iterations=1)
    print("\n" + _table(payload))
    assert OUTPUT.exists()
    if baseline.get("mode") == "full" and len(baseline.get("cells", ())) == len(
        payload["cells"]
    ):
        prior = float(baseline["summary"]["end_to_end_wall_s"])
        new = payload["summary"]["end_to_end_wall_s"]
        assert new <= prior * NOISE_FACTOR, (
            f"planner bench slowed down: {new:.2f}s vs baseline "
            f"{prior:.2f}s (allowed {NOISE_FACTOR}x)")


if __name__ == "__main__":
    if SMOKE:
        print(_table(collect_smoke()))
        print("\nsmoke parity passed (artifacts not rewritten)")
    else:
        print(_table(write_plan_bench()))
        print(f"\nwrote {OUTPUT}")
