"""Shared workloads and memoized join runs for the benchmark harness.

Every figure of the paper is a projection of a small set of join runs
(e.g. Figures 6(a)–6(f) all read the Basic/+MinEdit/+LocalLabel runs on
the PROTEIN-like dataset).  Runs are memoized here so each configuration
executes exactly once per benchmark session, and each ``bench_fig*``
module formats its own figure from the captured
:class:`~repro.engine.result.JoinStatistics`.

Scales are environment-tunable (defaults keep the full harness at
laptop-scale; the paper's full sizes are |AIDS| = 4000, |PROTEIN| = 600):

* ``REPRO_BENCH_AIDS_N``          (default 200)
* ``REPRO_BENCH_PROT_N``          (default 80)
* ``REPRO_BENCH_MAX_TAU``         (default 4)
* ``REPRO_BENCH_APPFULL_AIDS_N``  (default 100)
* ``REPRO_BENCH_APPFULL_PROT_N``  (default 50)

Each figure's series is also written to ``benchmarks/results/<fig>.txt``
so EXPERIMENTS.md can reference concrete numbers.
"""

from __future__ import annotations

import os
from functools import lru_cache
from pathlib import Path
from typing import List, Sequence, Tuple

from repro import GSimJoinOptions, gsim_join
from repro.baselines import appfull_join, kat_join
from repro.engine.result import JoinResult
from repro.datasets import aids_like, protein_like

RESULTS_DIR = Path(__file__).resolve().parent / "results"

AIDS_N = int(os.environ.get("REPRO_BENCH_AIDS_N", "200"))
PROT_N = int(os.environ.get("REPRO_BENCH_PROT_N", "80"))
MAX_TAU = int(os.environ.get("REPRO_BENCH_MAX_TAU", "4"))
APPFULL_AIDS_N = int(os.environ.get("REPRO_BENCH_APPFULL_AIDS_N", "100"))
APPFULL_PROT_N = int(os.environ.get("REPRO_BENCH_APPFULL_PROT_N", "50"))

TAUS: Tuple[int, ...] = tuple(range(1, MAX_TAU + 1))

#: The paper's best q-gram lengths per dataset (Section VII-D).
AIDS_Q = 4
PROT_Q = 3

VARIANTS = {
    "basic": GSimJoinOptions.basic,
    "minedit": GSimJoinOptions.minedit,
    "full": GSimJoinOptions.full,
}


@lru_cache(maxsize=None)
def aids_dataset(n: int = AIDS_N) -> tuple:
    return tuple(aids_like(num_graphs=n, seed=42))


@lru_cache(maxsize=None)
def protein_dataset(n: int = PROT_N) -> tuple:
    return tuple(protein_like(num_graphs=n, seed=7))


def dataset(name: str, n: int = None) -> tuple:
    if name == "aids":
        return aids_dataset(n) if n else aids_dataset()
    if name == "protein":
        return protein_dataset(n) if n else protein_dataset()
    raise ValueError(f"unknown dataset {name!r}")


@lru_cache(maxsize=None)
def gsim_run(ds: str, tau: int, q: int, variant: str, n: int = None) -> JoinResult:
    """Memoized GSimJoin run (one per configuration per session)."""
    graphs = list(dataset(ds, n))
    options = VARIANTS[variant](q=q)
    return gsim_join(graphs, tau, options=options)


@lru_cache(maxsize=None)
def kat_run(ds: str, tau: int, q: int = 1, n: int = None) -> JoinResult:
    graphs = list(dataset(ds, n))
    return kat_join(graphs, tau, q=q)


@lru_cache(maxsize=None)
def appfull_run(ds: str, tau: int, n: int) -> JoinResult:
    graphs = list(dataset(ds, n))
    return appfull_join(graphs, tau, verify=True)


def write_series(figure: str, header: str, rows: Sequence[str]) -> str:
    """Persist a figure's series to benchmarks/results/ and return it."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    text = "\n".join([header, *rows, ""])
    (RESULTS_DIR / f"{figure}.txt").write_text(text, encoding="utf-8")
    return text


def format_table(title: str, columns: List[str], rows: List[List[object]]) -> str:
    """Small fixed-width table formatter for the printed series."""
    widths = [
        max(len(str(col)), *(len(str(r[i])) for r in rows)) if rows else len(str(col))
        for i, col in enumerate(columns)
    ]
    lines = [title]
    lines.append("  ".join(str(c).ljust(w) for c, w in zip(columns, widths)))
    for row in rows:
        lines.append("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)
