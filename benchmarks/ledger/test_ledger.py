"""Smoke test of the ledger: all four workloads at a tiny scale.

Run from the repository root with ``python3 -m pytest benchmarks/ledger``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
TINY = ["--scale", "0.05", "--seconds", "0", "--repeats", "1"]


def ledger(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", *args],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=120,
    )


def printed_metrics(stdout: str) -> dict:
    """workload -> {metric: unit}, parsed from the human-readable report."""
    sections: dict = {}
    current = None
    for line in stdout.splitlines():
        if line.startswith("== "):
            current = sections.setdefault(line.split()[1], {})
        elif re.fullmatch(r"  \S+ +[-+.0-9e]+ \S+", line):
            name, _value, unit = line.split()
            current[name] = unit
    return sections


@pytest.fixture(scope="module")
def tiny_runs() -> dict:
    """kind of metrics -> (stdout, final JSON) of one tiny run of all workloads."""
    runs = {}
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = ledger(*TINY, "--trace", str(trace))
        assert proc.returncode == 0, proc.stdout
        runs[kind] = proc.stdout, json.loads(proc.stdout.splitlines()[-1])
    return runs


@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
def test_every_metric_is_printed_with_its_unit(tiny_runs, kind):
    stdout, result = tiny_runs[kind]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    sections = printed_metrics(stdout)
    assert sorted(sections) == sorted(WORKLOADS)
    for workload in WORKLOADS:
        for metric in BENCHMARK[kind]:
            assert sections[workload][metric["name"]] == metric["unit"]
            entry = result["metrics"][f"{workload}:{metric['name']}"]
            assert entry["unit"] == metric["unit"]


def test_layer_self_times_sum_to_traced_wall(tiny_runs):
    _stdout, result = tiny_runs["per_layer"]
    for workload in WORKLOADS:
        total = sum(
            entry["value"]
            for key, entry in result["metrics"].items()
            if key.startswith(workload + ":") and entry["unit"] == "s/s"
        )
        assert abs(total - 1.0) <= 0.02, (workload, total)
        assert result["metrics"][f"{workload}:engine.driver.self_share"]["value"] > 0


def test_wrong_expected_fingerprint_fails():
    proc = ledger(*TINY, "--workload", WORKLOADS[0], "--expect-fingerprint", "0" * 64)
    assert proc.returncode != 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not result["correct"] and result["failed"] > 0


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(LEDGER, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = ledger(cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
