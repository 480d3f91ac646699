"""Repository hygiene: no tracked bytecode, no stale ``repro`` imports.

The bytecode checks mirror the CI "No tracked bytecode" step so the
guard also runs in the tier-1 suite (skipped outside a git checkout,
e.g. from an sdist).  The import check covers the example scripts and
the benchmarks, which the tier-1 suite does not run: deleting or
renaming a public name must not leave one of them importing it.
"""

import ast
import importlib
import shutil
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_no_tracked_bytecode():
    if not (REPO_ROOT / ".git").exists() or shutil.which("git") is None:
        pytest.skip("not a git checkout")
    listing = subprocess.run(
        ["git", "ls-files", "--", "*.pyc", "*.pyo", "*__pycache__*"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    tracked = [line for line in listing.stdout.splitlines() if line]
    assert tracked == [], f"tracked bytecode files: {tracked}"


def test_gitignore_excludes_bytecode():
    patterns = (REPO_ROOT / ".gitignore").read_text().splitlines()
    assert "__pycache__/" in patterns
    assert "*.pyc" in patterns


def repro_imports(path):
    """``(lineno, module, name)`` for every absolute ``repro`` import in
    ``path``, at any depth; ``name`` is ``None`` for ``import repro.x``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield node.lineno, alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] == "repro":
                for alias in node.names:
                    yield node.lineno, node.module, alias.name


def resolves(module, name):
    """Whether ``from module import name`` (or ``import module``) works."""
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return False
    if name is None or hasattr(mod, name):
        return True
    if not hasattr(mod, "__path__"):
        return False
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_examples_and_benchmarks_import_only_existing_names():
    """Each ``repro`` import of an example or a benchmark resolves.  The
    scripts are parsed, never run; only the imported library modules
    are loaded."""
    paths = sorted(REPO_ROOT.glob("examples/*.py")) + sorted(
        REPO_ROOT.glob("benchmarks/**/*.py")
    )
    checked, stale = 0, []
    for path in paths:
        for lineno, module, name in repro_imports(path):
            checked += 1
            if not resolves(module, name):
                what = module if name is None else f"{name} from {module}"
                stale.append(f"{path.relative_to(REPO_ROOT)}:{lineno}: {what}")
    assert checked > 0
    assert stale == []
