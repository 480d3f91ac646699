"""Consolidate benchmark series into a single RESULTS.md.

Usage::

    python benchmarks/make_report.py [output.md]

Reads every ``benchmarks/results/*.txt`` written by the bench modules
and assembles them — in the paper's figure order, then the ablations —
into one markdown report with fenced code blocks.  Regenerate after
``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Figure order: Table I, Figure 6, Figure 7, then extensions.
ORDER = (
    ["table1"]
    + [f"fig6{c}" for c in "abcdefghi"]
    + [f"fig7{c}" for c in "abcdefghijklmno"]
    + [
        "ged_trajectory",
        "ablation_hash_keys",
        "ablation_minedit_solver",
        "ablation_heuristic_gate",
        "ablation_verifier",
        "parallel_join",
    ]
)


def build_report() -> str:
    sections = [
        "# Benchmark results",
        "",
        f"Generated {time.strftime('%Y-%m-%d %H:%M:%S')} from "
        "`benchmarks/results/`.  Regenerate the underlying series with "
        "`pytest benchmarks/ --benchmark-only`, then re-run "
        "`python benchmarks/make_report.py`.",
        "",
        "Performance claims come from the benchmark ledger "
        "(`benchmarks/ledger/`, declared by `BENCHMARK.json`); see "
        "`docs/PERFORMANCE.md` for the methodology.",
        "",
    ]
    seen = set()
    names = [n for n in ORDER if (RESULTS_DIR / f"{n}.txt").exists()]
    names += sorted(
        p.stem for p in RESULTS_DIR.glob("*.txt") if p.stem not in ORDER
    )
    for name in names:
        if name in seen:
            continue
        seen.add(name)
        text = (RESULTS_DIR / f"{name}.txt").read_text(encoding="utf-8").rstrip()
        sections.append(f"## {name}")
        sections.append("")
        sections.append("```")
        sections.append(text)
        sections.append("```")
        sections.append("")
    return "\n".join(sections) + "\n"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    output = Path(argv[0]) if argv else RESULTS_DIR.parent / "RESULTS.md"
    if not RESULTS_DIR.exists():
        print("no benchmarks/results/ directory; run the benchmarks first",
              file=sys.stderr)
        return 1
    output.write_text(build_report(), encoding="utf-8")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
