"""Record a set of ledger runs: one run per workload and seed.

Run from the repository root::

    python3 benchmarks/ledger/record.py [--workload NAME]... [--seeds 10]
        [--save LABEL] [--fingerprints]

Each workload runs once per seed (1..N) for BENCHMARK.json's
``run_seconds``.  For every end-to-end metric the script prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the quartile distance as a share of the median, against the
metric's bound; when an earlier set is recorded it also prints how far
this set's median moved from the first set's.  ``--save`` appends the
set to ``baseline.json``.  Exits 1 when a run fails or a spread (other
than ``setup_s``'s) exceeds its bound.  ``--fingerprints`` instead runs
every collection of each workload once at its default seed and stores
the result fingerprints as the expected ones.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
sys.path.insert(0, str(LEDGER))

from run import WORKLOADS  # noqa: E402


def record_fingerprints(names: list, baseline: dict, path: Path) -> None:
    """Store each workload's result fingerprints at its default seed."""
    for name in names:
        baseline["fingerprints"].pop(name, None)
    path.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    for name in names:
        workload = WORKLOADS[name]
        proc = subprocess.run(
            [sys.executable, str(LEDGER / "run.py"), "--workload", name,
             "--seconds", "0", "--repeats", str(workload["collections"])],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
        )
        found = [
            line.split()[1]
            for line in proc.stdout.splitlines()
            if line.startswith("  fingerprint[")
        ]
        if len(found) != workload["collections"]:
            raise SystemExit(f"{name}: expected {workload['collections']} fingerprints")
        baseline["fingerprints"][name] = {str(workload["seed"]): found}
        print(f"{name}: {len(found)} fingerprints", flush=True)
    path.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    baseline_path = LEDGER / "baseline.json"
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    workloads = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=workloads)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--save", metavar="LABEL", default=None)
    parser.add_argument("--fingerprints", action="store_true")
    args = parser.parse_args()

    if args.fingerprints:
        record_fingerprints(args.workload or workloads, baseline, baseline_path)
        return 0

    seeds = list(range(1, args.seeds + 1))
    runs: dict = {}
    ok = True
    for name in args.workload or workloads:
        values: dict = {m["name"]: [] for m in benchmark["end_to_end"]}
        walls = []
        for seed in seeds:
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, *benchmark["command"][1:], "--workload", name,
                 "--seed", str(seed), "--seconds", str(benchmark["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
            )
            walls.append(time.perf_counter() - started)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{name} seed {seed}: FAILED", flush=True)
                ok = False
            for metric, entry in result["metrics"].items():
                values[metric].append(entry["value"])
        runs[name] = {}
        print(f"== {name}: {len(seeds)} runs, slowest {max(walls):.1f} s, "
              f"total {sum(walls):.0f} s", flush=True)
        for metric in benchmark["end_to_end"]:
            series = values[metric["name"]]
            q1, _mid, q3 = quantiles(series, n=4)
            spread = (q3 - q1) / median(series)
            runs[name][metric["name"]] = {
                "median": median(series), "q1": q1, "q3": q3,
                "spread": spread, "values": series,
            }
            line = (f"  {metric['name']:<14} median {median(series):12.5g} "
                    f"{metric['unit']:<4} spread {spread:7.2%} "
                    f"(bound {metric['bound']:.0%})")
            if baseline["recorded"]:
                first = baseline["recorded"][0]["runs"].get(name, {}).get(metric["name"])
                if first is not None:
                    line += f"  vs first set {median(series) / first['median'] - 1:+7.2%}"
            if spread > metric["bound"] and metric["name"] != "setup_s":
                ok = False
                line += "  OVER BOUND"
            print(line + "\n    " + " ".join(f"{v:.4g}" for v in series), flush=True)
    if args.save:
        baseline["recorded"].append({"label": args.save, "seeds": seeds, "runs": runs})
        baseline_path.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
