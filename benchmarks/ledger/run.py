"""The GSimJoin ledger: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 benchmarks/ledger/run.py [--workload NAME]... [--seed S]
        [--seconds T] [--repeats N] [--trace [0|1]]

For each workload the harness generates its collections with
``repro.datasets`` from the seed, writes them to files, and runs the
workload in a fresh subprocess that sees only those files (one process,
one client, no worker pool).  It then checks the answers: units on the
same collection must return the same result fingerprint and, at a
workload's default seed, the one recorded in ``baseline.json``; a sampled
oracle re-decides reported and unreported pairs with the object A* of
``repro.ged``; the sharded join must fingerprint like the in-memory join
of the same file; and sampled index queries are compared against an
exhaustive scan.

Every metric is printed by name with its unit.  The last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics of ``BENCHMARK.json``, or with ``--trace 1`` its
per-layer metrics.  The exit code is 0 only when every check passed.
See ``README.md`` in this directory for the definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
SRC = ROOT / "src"
WORK = LEDGER / ".work"

#: Seconds a run measures when ``--seconds`` is not given.
DEFAULT_SECONDS = 20.0
#: The calibration's median time on the machine the ledger was recorded
#: on.  A unit's times are reported as measured × this ÷ the unit's own
#: calibration, so they read as seconds on that machine at its usual
#: speed (see README.md, "Calibration").
REFERENCE_CALIBRATION_S = 0.155
#: Sampled-oracle size per run: reported pairs, and unreported pairs.
ORACLE_PAIRS = 20
#: Index queries checked against an exhaustive scan.
CHECKED_QUERIES = 5
#: Expansion budget of one oracle decision, which bounds the checks' time.
ORACLE_EXPANSIONS = 5000

#: name -> workload.  Each run generates ``collections`` collections of
#: ``n`` graphs with ``gen`` (collection k from seed + 7919 k) and cycles
#: its units through them.
WORKLOADS: Dict[str, dict] = {
    "aids-t2-join": dict(
        kind="join", gen="aids", n=1000, collections=12, seed=42, q=4, tau=2,
    ),
    "protein-t1-join": dict(
        kind="join", gen="protein", n=800, collections=6, seed=7, q=3, tau=1,
    ),
    "aids-search-mixed": dict(
        kind="search", gen="aids", n=1050, n_index=1000, ops=250, collections=8,
        seed=42, q=4, tau=2,
    ),
    "aids-t2-sharded": dict(
        kind="sharded", gen="aids", n=1000, collections=6, seed=42, q=4, tau=2,
        shards=4,
    ),
}


def _percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def _size_gap(g, h) -> int:
    return abs(g.num_vertices - h.num_vertices) + abs(g.num_edges - h.num_edges)


def _label_gap(g, h) -> int:
    """The label-multiset lower bound on ged(g, h), recomputed here."""
    gap = 0
    for a, b, size in (
        (g.vertex_label_multiset(), h.vertex_label_multiset(),
         max(g.num_vertices, h.num_vertices)),
        (g.edge_label_multiset(), h.edge_label_multiset(),
         max(g.num_edges, h.num_edges)),
    ):
        gap += size - sum((a & b).values())
    return gap


def _decide(g, h, tau: int) -> Optional[int]:
    """ged(g, h) by the object A* when within ``tau``, ``tau + 1`` when
    beyond it, or ``None`` when its expansion budget ran out first."""
    from repro.ged import graph_edit_distance_detailed
    from repro.runtime import VerificationBudget

    search = graph_edit_distance_detailed(
        g, h, threshold=tau, budget=VerificationBudget(max_expansions=ORACLE_EXPANSIONS)
    )
    if not search.budget_exhausted:
        return min(search.distance, tau + 1)
    if search.lower is not None and search.lower > tau:
        return tau + 1
    return None


def oracle_failures(
    graphs: list, pairs: list, tau: int, rng: random.Random, count: int
) -> int:
    """Sampled pairs the object A* decides differently from the join.

    Checks ``count`` reported pairs (each must be within ``tau``) and as
    many unreported pairs that pass the size filter (each must be beyond
    ``tau``); the unreported ones are the nearest of a seeded sample by
    label gap, so near misses are checked first.  A pair the oracle
    cannot decide within its budget is skipped.
    """
    by_id = {g.graph_id: g for g in graphs}
    failures = 0
    reported = sorted((a, b) for a, b in pairs)
    for a, b in rng.sample(reported, min(count, len(reported))):
        d = _decide(by_id[a], by_id[b], tau)
        failures += d is not None and d > tau
    known = {frozenset(p) for p in reported}
    sample: list = []
    for _ in range(200 * len(graphs)):
        if len(sample) >= 100 * count:
            break
        g, h = rng.sample(graphs, 2)
        if _size_gap(g, h) <= tau and frozenset((g.graph_id, h.graph_id)) not in known:
            sample.append((_label_gap(g, h), len(sample), g, h))
    for _gap, _k, g, h in sorted(sample, key=lambda s: s[:2])[:count]:
        d = _decide(g, h, tau)
        failures += d is not None and d <= tau
    return failures


def search_failures(graphs: list, checks: list, tau: int) -> int:
    """Checked queries whose answer differs from an exhaustive scan.

    Graphs the oracle cannot decide within its budget are left out of
    the comparison.
    """
    by_id = {g.graph_id: g for g in graphs}
    failures = 0
    for check in checks:
        g = by_id[check["query"]]
        expected, undecided = set(), set()
        for h in graphs[: check["indexed"]]:
            if h.graph_id != g.graph_id and _size_gap(g, h) <= tau:
                d = _decide(g, h, tau)
                if d is None:
                    undecided.add(h.graph_id)
                elif d <= tau:
                    expected.add((h.graph_id, d))
        answer = {tuple(m) for m in check["matches"] if m[0] not in undecided}
        failures += answer != expected
    return failures


def scaled(workload: dict, key: str, scale: float) -> int:
    return max(10, round(workload[key] * scale))


def write_collections(workload: dict, seed: int, scale: float, work_dir: Path) -> List[Path]:
    """Generate the run's seeded collections into ``work_dir``."""
    from repro.datasets import aids_like, protein_like
    from repro.graph.io import save_graphs

    gen = aids_like if workload["gen"] == "aids" else protein_like
    paths = []
    for k in range(workload["collections"]):
        path = work_dir / f"collection-{k}.txt"
        save_graphs(gen(scaled(workload, "n", scale), seed=seed + 7919 * k), path)
        paths.append(path)
    return paths


def check_answers(
    workload: dict, units: List[dict], paths: List[Path], expected: List[str],
    rng: random.Random,
) -> Dict[int, Tuple[Optional[str], int]]:
    """Per collection: the accepted fingerprint, and failed ops per unit.

    A collection's answers are checked when its first unit returned the
    expected fingerprint (or, with none recorded, any).  A join whose
    sampled pairs fail the oracle, or a sharded join that disagrees with
    the in-memory one, gets no accepted fingerprint, so every unit on it
    fails; on the search workload each checked query that disagrees
    with the exhaustive scan is one failed op per unit.
    """
    from repro import GSimJoinOptions, gsim_join, result_fingerprint
    from repro.graph.io import load_graphs

    kind, tau = workload["kind"], workload["tau"]
    accepted: Dict[int, Tuple[Optional[str], int]] = {}
    per_collection = math.ceil(ORACLE_PAIRS / len(paths))
    for k, path in enumerate(paths):
        first = next((u for u in units if u["collection"] == k), None)
        if first is None or first["fingerprint"] is None:
            continue
        reference = expected[k] if k < len(expected) else first["fingerprint"]
        if first["fingerprint"] != reference:
            continue
        graphs = load_graphs(path)
        wrong = 0
        if kind == "search":
            wrong = search_failures(graphs, first["checks"], tau)
        elif oracle_failures(graphs, first["pairs"], tau, rng, per_collection):
            reference = None
        elif kind == "sharded" and k == 0:
            in_memory = gsim_join(graphs, tau, GSimJoinOptions.full(q=workload["q"]))
            if result_fingerprint(in_memory) != reference:
                reference = None
        accepted[k] = (reference, wrong)
    return accepted


def workload_spec(
    name: str, args: argparse.Namespace, seed: int, paths: List[Path],
    work_dir: Path, rng: random.Random,
) -> dict:
    """What the workload process is told: its files, operation and time."""
    workload = WORKLOADS[name]
    spec = {
        "kind": workload["kind"],
        "files": [str(p) for p in paths],
        "tau": workload["tau"],
        "q": workload["q"],
        "seconds": args.seconds,
        "min_units": args.repeats,
        "trace": bool(args.trace),
        "work_dir": str(work_dir),
        "spans": str(WORK / f"spans-{name}.jsonl"),
        "seed": seed,
    }
    if workload["kind"] == "search":
        n_index = scaled(workload, "n_index", args.scale)
        spec["n_index"] = n_index
        spec["ops"] = min(
            scaled(workload, "ops", args.scale),
            5 * (scaled(workload, "n", args.scale) - n_index),
        )
        queries = [k for k in range(spec["ops"]) if k % 5 != 4]
        spec["check_ops"] = rng.sample(queries, min(CHECKED_QUERIES, len(queries)))
    if workload["kind"] == "sharded":
        spec["shards"] = workload["shards"]
    return spec


def spawn(spec: dict) -> dict:
    """Run ``workload.py`` in a fresh single-threaded process."""
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC), PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
    )
    proc = subprocess.run(
        [sys.executable, str(LEDGER / "workload.py"), json.dumps(spec)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=120 + 2 * spec["seconds"],
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timings(kind: str, plain: List[dict], raw: dict) -> dict:
    """The end-to-end metrics of the measured plain units, and what else
    the report prints about them."""
    # Each unit's times are scaled by its own calibration (README.md).
    speed = {id(u): REFERENCE_CALIBRATION_S / u["calibration"] for u in plain}
    ops = [t for u in plain for t in u["ops"]]
    throughput = [len(u["ops"]) / u.get("loop", sum(u["ops"])) for u in plain]
    report = {
        "metrics": {
            "op_p50_ms": median(t * speed[id(u)] for u in plain for t in u["ops"]) * 1000.0,
            "ops_per_s": median(x / speed[id(u)] for x, u in zip(throughput, plain)),
            "setup_s": median(u["setup"] * speed[id(u)] for u in plain),
            "peak_rss_mb": raw["rss_mb"],
        },
        "measured": {
            "op_p50_ms": median(ops) * 1000.0,
            "ops_per_s": median(throughput),
            "setup_s": median(u["setup"] for u in plain),
            "calibration_s": median(u["calibration"] for u in plain),
        },
        "samples": {"ops": len(ops), "setups": len(plain)},
    }
    if kind == "search":
        latency = {
            key: [t * speed[id(u)] * 1000.0 for u in plain for t in u["latency"][key]]
            for key in ("query", "after_insert", "insert")
        }
        queries = latency["query"] + latency["after_insert"]
        report["extra"] = {
            "query_p50_ms": median(queries),
            "query_p99_ms": _percentile(queries, 99),
            "after_insert_p50_ms": median(latency["after_insert"]),
            "insert_p50_ms": median(latency["insert"]),
            "insert_p95_ms": _percentile(latency["insert"], 95),
        }
        report["samples"].update(queries=len(queries), inserts=len(latency["insert"]))
    if kind == "sharded":
        report["extra"] = {"spill_bytes_per_input_byte": plain[0]["spill_ratio"]}
    return report


def run_workload(
    name: str, args: argparse.Namespace, expected: List[str]
) -> dict:
    """Generate, run and check one workload; return its report."""
    workload = WORKLOADS[name]
    seed = workload["seed"] if args.seed is None else args.seed
    rng = random.Random(seed)
    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        paths = write_collections(workload, seed, args.scale, work_dir)
        raw = spawn(workload_spec(name, args, seed, paths, work_dir, rng))
        units = raw["units"]
        accepted = check_answers(workload, units, paths, expected, rng)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = failed = 0
    for unit in units:
        ops = len(unit["ops"])
        attempted += ops + unit["errors"]
        failed += unit["errors"]
        reference, wrong = accepted.get(unit["collection"], (None, 0))
        if unit["fingerprint"] is None or unit["fingerprint"] != reference:
            failed += ops
        else:
            failed += wrong
    report = {
        "name": name,
        "seed": seed,
        "units": len(units),
        "traced_units": sum(u["traced"] for u in units),
        "attempted": attempted,
        "failed": failed,
        "fingerprints": {u["collection"]: u["fingerprint"] for u in reversed(units)},
        "expected": expected,
    }
    if args.trace:
        report["metrics"] = raw.get("layers", {})
    else:
        plain = [
            u for u in units
            if not (u["traced"] or u["warmup"]) and u["fingerprint"] is not None
        ]
        report.update(timings(workload["kind"], plain, raw))
    return report


EXTRA_UNITS = {
    "query_p50_ms": "ms", "query_p99_ms": "ms", "after_insert_p50_ms": "ms",
    "insert_p50_ms": "ms", "insert_p95_ms": "ms",
    "spill_bytes_per_input_byte": "B/B", "failed_op_share": "share",
}


def print_report(report: dict, units: Dict[str, str]) -> None:
    print(
        f"== {report['name']}  seed={report['seed']}  units={report['units']}"
        f" (traced {report['traced_units']})  attempted={report['attempted']}"
        f"  failed={report['failed']}"
    )
    rows = dict(report["metrics"])
    rows.update(report.get("extra", {}))
    rows["failed_op_share"] = (
        report["failed"] / report["attempted"] if report["attempted"] else 1.0
    )
    for name, value in rows.items():
        unit = units.get(name) or EXTRA_UNITS[name]
        print(f"  {name:<44} {value:>16.6g} {unit}")
    if "samples" in report:
        print("  samples: " + ", ".join(f"{k}={v}" for k, v in report["samples"].items()))
        print("  measured, before calibration: " + ", ".join(
            f"{k}={v:.6g}" for k, v in report["measured"].items()))
    for k, fingerprint in sorted(report["fingerprints"].items()):
        want = report["expected"][k] if k < len(report["expected"]) else None
        verdict = (
            "none recorded at this seed" if want is None
            else "as recorded" if want == fingerprint
            else f"EXPECTED {want}"
        )
        print(f"  fingerprint[{k}] {fingerprint} ({verdict})")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=None,
                        help="collection seed (default: each workload's own)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="seconds each workload measures")
    parser.add_argument("--repeats", type=int, default=3,
                        help="fewest units of work a workload runs")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report the per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="collection-size factor (smoke tests)")
    parser.add_argument("--expect-fingerprint", default=None,
                        help="expected fingerprint of the first collection, "
                             "overriding baseline.json")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"ledger: no program to measure at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    baseline = json.loads((LEDGER / "baseline.json").read_text(encoding="utf-8"))
    defined = benchmark["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in defined}

    reports = []
    for name in args.workload or list(WORKLOADS):
        seed = WORKLOADS[name]["seed"] if args.seed is None else args.seed
        expected = (
            baseline["fingerprints"].get(name, {}).get(str(seed), [])
            if args.scale == 1.0 else []
        )
        if args.expect_fingerprint is not None:
            expected = [args.expect_fingerprint] + expected[1:]
        report = run_workload(name, args, expected)
        if set(report["metrics"]) != set(units):
            raise RuntimeError(
                f"{name}: metrics {sorted(set(report['metrics']) ^ set(units))} "
                "disagree with BENCHMARK.json"
            )
        print_report(report, units)
        reports.append(report)

    single = len(reports) == 1
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    metrics = {
        (name if single else f"{r['name']}:{name}"): {"value": value, "unit": units[name]}
        for r in reports
        for name, value in r["metrics"].items()
    }
    correct = failed == 0 and attempted > 0
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
