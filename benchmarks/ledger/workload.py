"""One ledger workload, run in a fresh process that sees only its collections.

``python3 workload.py SPEC`` is started by ``run.py`` with ``SPEC`` a JSON
object naming the collection files, the operation and the time to measure.
The process repeats *units* of work until ``seconds`` have passed (and at
least ``min_units`` were measured); a unit is one set-up (loading a
collection, plus building the index on the search workload) followed by
the operation.  A first, unmeasured unit warms the process up; then units
cycle through the collections, so a run measures several inputs drawn
from the same seed.  With ``trace`` on, each collection runs plain and
then traced; the traced units yield the per-layer metrics and each
pair's ratio the tracing overhead.  The last line of stdout is one JSON
object with the raw measurements; ``run.py`` turns them into metrics and
checks the answers.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import os
import random
import resource
import shutil
import sys
import traceback
from statistics import median
from time import perf_counter
from typing import Callable, Dict, List, Optional

import repro.graph.io as graph_io
from repro import GSimIndex, GSimJoinOptions, gsim_join, gsim_join_sharded, result_fingerprint
from tracer import Tracer, layer_metrics, traced


def calibrate() -> float:
    """Seconds a fixed pure-Python reference computation takes.

    The machine's speed drifts by tens of percent over minutes when
    other tenants load it; the harness divides every time by the run's
    median calibration so that drift cancels (see README.md).  The work
    mixes what the program does: a label-weighted shortest-path search
    over a small graph (dicts, tuples, a heap) and random access over a
    large set of small objects.  It uses no code of the program, and the
    cyclic garbage collector is off meanwhile so that the size of the
    program's own heap cannot change the calibration.
    """
    gc.disable()
    try:
        return _reference_work()
    finally:
        gc.enable()


def _reference_work() -> float:
    started = perf_counter()
    rng = random.Random(12345)
    n = 3000
    adj = {v: [rng.randrange(n) for _ in range(4)] for v in range(n)}
    labels = [rng.choice("CNOS") for _ in range(n)]
    total = 0
    for src in range(0, n, 200):
        dist = {src: 0}
        heap = [(0, src)]
        while heap:
            d, v = heapq.heappop(heap)
            if d > dist[v]:
                continue
            for w in adj[v]:
                nd = d + (1 if labels[v] == labels[w] else 2)
                if nd < dist.get(w, n):
                    dist[w] = nd
                    heapq.heappush(heap, (nd, w))
        total += sum(sorted(dist.values())[:50])
    objects = [(i, str(i % 97), [i, i + 1]) for i in range(100000)]
    counts: Dict[str, int] = {}
    for _ in range(100000):
        item = objects[rng.randrange(100000)]
        counts[item[1]] = counts.get(item[1], 0) + item[2][0]
    return perf_counter() - started


def _dir_bytes(path: str, suffix: str = "") -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _dirs, names in os.walk(path)
        for name in names
        if name.endswith(suffix)
    )


def join_unit(spec: dict, path: str, tracer: Optional[Tracer]) -> dict:
    """Load the collection, then self-join it in memory."""
    with traced(tracer):
        started = perf_counter()
        graphs = graph_io.load_graphs(path)
        loaded = perf_counter()
        if tracer is not None:
            tracer.op = 1
        result = gsim_join(graphs, spec["tau"], GSimJoinOptions.full(q=spec["q"]))
        done = perf_counter()
    return {
        "setup": loaded - started,
        "ops": [done - loaded],
        "busy": done - started,
        "fingerprint": result_fingerprint(result),
        "pairs": result.pairs,
    }


def sharded_unit(spec: dict, path: str, tracer: Optional[Tracer]) -> dict:
    """Load the collection (set-up), then run the out-of-core self-join."""
    spill = os.path.join(spec["work_dir"], "spill")
    shutil.rmtree(spill, ignore_errors=True)  # left behind by a failed unit
    with traced(tracer):
        started = perf_counter()
        graph_io.load_graphs(path)
        loaded = perf_counter()
        if tracer is not None:
            tracer.op = 1
        result = gsim_join_sharded(
            path, spec["tau"], GSimJoinOptions.full(q=spec["q"]),
            spill_dir=spill, shards=spec["shards"], workers=1,
        )
        done = perf_counter()
    unit = {
        "setup": loaded - started,
        "ops": [done - loaded],
        "busy": done - started,
        "fingerprint": result_fingerprint(result),
        "pairs": result.pairs,
        "spill_ratio": _dir_bytes(spill) / os.path.getsize(path),
        "journal_bytes": _dir_bytes(spill, ".journal.jsonl"),
    }
    shutil.rmtree(spill)
    return unit


def search_unit(spec: dict, path: str, tracer: Optional[Tracer]) -> dict:
    """Build the index, then run the fixed closed-loop op sequence.

    Op ``k`` inserts the next held-out graph when ``k % 5 == 4`` and
    otherwise queries a graph drawn (seeded) from the current index, so
    every unit on one collection runs the same sequence and must return
    the same answers.
    """
    n_index, tau = spec["n_index"], spec["tau"]
    rng = random.Random(spec["seed"])
    checks = set(spec["check_ops"])
    latency: Dict[str, List[float]] = {"query": [], "after_insert": [], "insert": []}
    answers: list = []
    checked: list = []
    errors = 0
    with traced(tracer):
        started = perf_counter()
        graphs = graph_io.load_graphs(path)
        index = GSimIndex(graphs[:n_index], tau_max=tau)
        loaded = perf_counter()
        for k in range(spec["ops"]):
            if tracer is not None:
                tracer.op = k + 1
            try:
                if k % 5 == 4:
                    g = graphs[n_index + k // 5]
                    t0 = perf_counter()
                    index.add(g)
                    latency["insert"].append(perf_counter() - t0)
                    continue
                g = index.graphs[rng.randrange(len(index.graphs))]
                t0 = perf_counter()
                matches = index.query(g, tau)
                elapsed = perf_counter() - t0
            except Exception:  # counted as a failed op; the loop goes on
                traceback.print_exc()
                errors += 1
                continue
            latency["after_insert" if k % 5 == 0 and k else "query"].append(elapsed)
            answers.append([g.graph_id, matches])
            if k in checks:
                checked.append(
                    {"op": k, "query": g.graph_id, "indexed": len(index.graphs),
                     "matches": matches}
                )
        done = perf_counter()
    blob = json.dumps(answers, sort_keys=True, default=str).encode("utf-8")
    return {
        "setup": loaded - started,
        "ops": latency["query"] + latency["after_insert"] + latency["insert"],
        "errors": errors,
        "loop": done - loaded,
        "busy": done - started,
        "latency": latency,
        "fingerprint": hashlib.sha256(blob).hexdigest(),
        "checks": checked,
    }


UNITS: Dict[str, Callable[[dict, str, Optional[Tracer]], dict]] = {
    "join": join_unit,
    "sharded": sharded_unit,
    "search": search_unit,
}


def main(spec: dict) -> dict:
    unit_fn = UNITS[spec["kind"]]
    files = spec["files"]
    trace = spec["trace"]
    # A traced run needs at least one plain and one traced unit.
    min_units = max(2, spec["min_units"]) if trace else spec["min_units"]
    units: List[dict] = []
    tracers: List[Tracer] = []
    traced_busy: List[float] = []
    overheads: List[float] = []
    extra: Dict[str, float] = {}
    started = perf_counter()
    calibrate()  # the first call in a process runs cold
    while True:
        # Unit 0 warms the process up (lazy imports, memory growth) on
        # collection 0; it is checked but not measured.
        k = len(units) - 1
        tracer = Tracer() if trace and k >= 0 and k % 2 == 1 else None
        collection = max(0, k // 2 if trace else k) % len(files)
        gc.collect()  # every unit starts from the same heap
        calibration = calibrate()
        gc.collect()
        try:
            unit = unit_fn(spec, files[collection], tracer)
            unit.setdefault("errors", 0)
        except Exception:  # the unit's ops count as failed; the run goes on
            traceback.print_exc()
            unit = {"ops": [], "errors": spec.get("ops", 1), "fingerprint": None}
        unit["calibration"] = calibration
        unit["collection"] = collection
        unit["traced"] = tracer is not None
        unit["warmup"] = k < 0
        if any(u["collection"] == collection for u in units):
            # One copy of a collection's answers suffices: the
            # fingerprints tell whether later units returned the same.
            unit.pop("pairs", None)
            unit.pop("checks", None)
        units.append(unit)
        if tracer is not None and unit["fingerprint"] is not None:
            plain = units[-2]
            if plain["fingerprint"] is not None:
                tracers.append(tracer)
                traced_busy.append(unit["busy"])
                overheads.append(unit["busy"] / plain["busy"] - 1.0)
                extra = {
                    "runtime.journal.bytes": unit.get("journal_bytes", 0),
                    "runtime.sharded.spill.bytes_per_input_byte": unit.get(
                        "spill_ratio", 0.0
                    ),
                }
        elapsed = perf_counter() - started
        if k + 1 >= min_units and elapsed + elapsed / len(units) > spec["seconds"]:
            break
    out = {
        "units": units,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracers:
        graphs = sum(1 for _ in graph_io.load_graphs_iter(files[0]))
        out["layers"] = layer_metrics(
            tracers, traced_busy, median(overheads), graphs, extra
        )
        tracers[-1].write_spans(spec["spans"])
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1])), default=str))
