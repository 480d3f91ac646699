"""Deprecation hygiene: importing the library never emits a warning.

Every public package and module must import cleanly under
``-W error::DeprecationWarning`` (i.e. the library itself never leans on
a deprecated path).  Runs in a subprocess so module caching in this test
process cannot mask a warning.
"""

import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).parent.parent / "src")

#: Every package/module a user could reasonably import; none of them
#: may emit a deprecation warning.
INTERNAL_IMPORTS = [
    "repro",
    "repro.core",
    "repro.core.join",
    "repro.core.parallel",
    "repro.core.search",
    "repro.engine",
    "repro.engine.executor",
    "repro.engine.parallel",
    "repro.engine.plan",
    "repro.grams",
    "repro.ged",
    "repro.baselines",
    "repro.reporting",
    "repro.analysis",
    "repro.cli",
]


def _run(code):
    return subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", "-c", code],
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_internal_modules_never_import_shims():
    code = "; ".join(f"import {module}" for module in INTERNAL_IMPORTS)
    proc = _run(code)
    assert proc.returncode == 0, proc.stderr
