"""Tests for the repro.analysis static-analysis framework.

Each rule is exercised against a fixture tree
(``tests/fixtures/analysis/``) holding known violations, asserting the
rule fires exactly at the expected lines and that per-line
``# repro: ignore[RULE]`` comments suppress it.  The suite finally
asserts the real ``src/repro`` tree is clean — the CI gate's contract —
and in particular that the historical ``core <-> ged`` import cycle
stays dead.
"""

from pathlib import Path

import pytest

from repro.analysis.cli import main
from repro.analysis.engine import Finding, module_name, run_analysis
from repro.analysis.registry import all_rules
from repro.analysis.reporters import render_json, render_text
from repro.analysis.rules.layering import allowed_layers

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"
SRC_REPRO = Path(__file__).parent.parent / "src" / "repro"

EXPECTED_RULE_IDS = {
    "annotations",
    "budget-threading",
    "determinism",
    "determinism-taint",
    "docstrings",
    "exceptions",
    "filter-purity",
    "float-equality",
    "fork-safety",
    "hot-path-alloc",
    "layering",
    "unused-suppression",
}


def findings_for(rule_id, path):
    """Run one rule over one fixture file; return (line, ...) tuples."""
    rules = {rule_id: all_rules()[rule_id]}
    return [(f.line, f.rule) for f in run_analysis([path], rules)]


def lines_for(rule_id, path):
    return [line for line, _ in findings_for(rule_id, path)]


def test_all_rules_registered():
    assert set(all_rules()) == EXPECTED_RULE_IDS


def test_module_name_resolution():
    assert module_name(FIXTURES / "repro" / "core" / "join.py") == "repro.core.join"
    assert module_name(FIXTURES / "repro" / "__init__.py") == "repro"
    assert module_name(FIXTURES / "broken.py") == "broken"


# ---------------------------------------------------------------- layering


def test_layering_flags_ged_importing_core_and_facade_and_unknown():
    path = FIXTURES / "repro" / "ged" / "layering_bad.py"
    assert lines_for("layering", path) == [3, 4, 5, 6]


def test_layering_suppression():
    path = FIXTURES / "repro" / "ged" / "layering_bad.py"
    # line 8 imports repro.core.verify but carries `# repro: ignore[layering]`
    assert 8 not in lines_for("layering", path)


def test_layering_closure_matches_issue_dag():
    assert "core" not in allowed_layers("ged")
    assert "ged" in allowed_layers("core")
    assert "grams" in allowed_layers("ged")
    assert {"exceptions", "graph", "setcover"} <= allowed_layers("grams")


def test_compiled_module_clean_under_all_rules():
    """The real compiled backend passes every rule, layering included
    (it lives in the ``ged`` layer, whose closure covers its imports)."""
    path = SRC_REPRO / "ged" / "compiled.py"
    assert module_name(path) == "repro.ged.compiled"
    assert [f for f in run_analysis([path], all_rules())] == []
    assert "core" in allowed_layers("cli")
    # The runtime layer sits just above exceptions; ged and core may use
    # it, but it may never reach back up into either.
    assert allowed_layers("runtime") == {"runtime", "exceptions"}
    assert "runtime" in allowed_layers("ged")
    assert "runtime" in allowed_layers("core")


def test_real_tree_has_no_cycle():
    """The core <-> ged cycle is gone and stays gone."""
    rules = {"layering": all_rules()["layering"]}
    assert run_analysis([SRC_REPRO], rules) == []


# ------------------------------------------------------------ filter purity


def test_filter_purity_flags_mutations():
    path = FIXTURES / "repro" / "grams" / "purity_bad.py"
    assert lines_for("filter-purity", path) == [6, 7, 11]


# ------------------------------------------------------------- determinism


def test_determinism_flags_global_rng():
    path = FIXTURES / "repro" / "core" / "rand_fixture.py"
    assert lines_for("determinism", path) == [4, 9, 10]


# --------------------------------------------------------------- exceptions


def test_exception_discipline():
    path = FIXTURES / "repro" / "core" / "exc_fixture.py"
    # 10: bare except; 11: foreign raise; 36: raise AssertionError.
    assert lines_for("exceptions", path) == [10, 11, 36]


# ----------------------------------------------------------- hot-path alloc


def test_hot_path_allocations():
    path = FIXTURES / "repro" / "core" / "join.py"
    assert lines_for("hot-path-alloc", path) == [8, 9, 10, 15]


def test_hot_path_covers_interned_kernels():
    """The rule extends to the interned filter kernels (grams.vocab)."""
    path = FIXTURES / "repro" / "grams" / "vocab.py"
    # 7-9: copies in the for loop; 11: extract_qgrams in the while loop;
    # 12 carries `# repro: ignore[hot-path-alloc]` and is suppressed.
    assert lines_for("hot-path-alloc", path) == [7, 8, 9, 11]


def test_hot_path_covers_compiled_verifier():
    """The rule extends to the compiled GED backend (ged.compiled)."""
    path = FIXTURES / "repro" / "ged" / "compiled.py"
    # 6-7: copies in the while loop; 9-10: copies in the nested for
    # loop; 11 carries `# repro: ignore[hot-path-alloc]`, suppressed.
    assert lines_for("hot-path-alloc", path) == [6, 7, 9, 10]


def test_hot_path_covers_engine_executor():
    """The rule extends to the staged execution engine's driver loops."""
    path = FIXTURES / "repro" / "engine" / "executor.py"
    # 7-8: copies in the for loop; 9: extract_qgrams in the for loop;
    # 12 carries `# repro: ignore[hot-path-alloc]` and is suppressed.
    assert lines_for("hot-path-alloc", path) == [7, 8, 9]


def test_hot_path_covers_batch_kernels():
    """The rule extends to the vectorized batch kernels (engine.batch)."""
    path = FIXTURES / "repro" / "engine" / "batch.py"
    # 7-8: copies in the for loop; 11 carries
    # `# repro: ignore[hot-path-alloc]` and is suppressed.
    assert lines_for("hot-path-alloc", path) == [7, 8]


def test_hot_path_covers_columnar_store():
    """The rule extends to the columnar store builder (grams.columnar)."""
    path = FIXTURES / "repro" / "grams" / "columnar.py"
    # 7-8: copies in the for loop; 9: extract_qgrams in the for loop;
    # 12 carries `# repro: ignore[hot-path-alloc]` and is suppressed.
    assert lines_for("hot-path-alloc", path) == [7, 8, 9]


def test_hot_path_covers_sharded_driver():
    """The rule extends to the out-of-core shard driver (engine.sharded)."""
    path = FIXTURES / "repro" / "engine" / "sharded.py"
    # 7-8: copies in the for loop; 9: extract_qgrams in the for loop;
    # 12 carries `# repro: ignore[hot-path-alloc]` and is suppressed.
    assert lines_for("hot-path-alloc", path) == [7, 8, 9]


def test_hot_path_covers_spill_substrate():
    """The rule extends to the spill/manifest substrate (runtime.sharded)."""
    path = FIXTURES / "repro" / "runtime" / "sharded.py"
    # 7-8: copies in the for loop; 11 carries
    # `# repro: ignore[hot-path-alloc]` and is suppressed.
    assert lines_for("hot-path-alloc", path) == [7, 8]


def test_layering_covers_engine_plan():
    # The plan module lives in the engine layer: importing repro.core
    # from it is an upward dependency and must be flagged (line 3).
    path = FIXTURES / "repro" / "engine" / "plan.py"
    assert lines_for("layering", path) == [3]


def test_hot_path_rule_targets_compiled_module():
    from repro.analysis.rules.hot_path import TARGET_MODULES

    assert "repro.ged.compiled" in TARGET_MODULES
    assert "repro.engine.executor" in TARGET_MODULES
    assert "repro.engine.stages" in TARGET_MODULES
    assert "repro.engine.batch" in TARGET_MODULES
    assert "repro.grams.columnar" in TARGET_MODULES
    assert "repro.grams.qgrams" in TARGET_MODULES
    assert "repro.engine.sharded" in TARGET_MODULES
    assert "repro.runtime.sharded" in TARGET_MODULES


# ----------------------------------------------------------- float equality


def test_float_equality():
    path = FIXTURES / "repro" / "core" / "float_fixture.py"
    assert lines_for("float-equality", path) == [6, 7, 8]


# -------------------------------------------------------------- annotations


def test_annotation_coverage():
    path = FIXTURES / "repro" / "ged" / "ann_fixture.py"
    assert lines_for("annotations", path) == [4, 16, 19]


# --------------------------------------------------------------- docstrings


def test_docstrings():
    path = FIXTURES / "repro" / "core" / "doc_fixture.py"
    # line 1: missing module docstring; 4 and 12: undocumented exports.
    assert lines_for("docstrings", path) == [1, 4, 12]


# ------------------------------------------------------------ engine + CLI


def test_syntax_error_finding_is_not_suppressible():
    findings = run_analysis([FIXTURES / "broken.py"])
    assert [f.rule for f in findings] == ["syntax-error"]


def test_cli_exits_nonzero_on_fixtures(capsys):
    assert main([str(FIXTURES)]) == 1
    out = capsys.readouterr().out
    assert "[layering]" in out and "finding(s)" in out


def test_cli_exits_zero_on_clean_tree(capsys):
    assert main([str(SRC_REPRO)]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_cli_rejects_nonexistent_path(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["/no/such/path"])
    assert excinfo.value.code == 2
    assert "no such file or directory" in capsys.readouterr().err


def test_cli_select_and_unknown_rule(capsys):
    path = FIXTURES / "repro" / "core" / "float_fixture.py"
    assert main([str(path), "--select", "float-equality"]) == 1
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main([str(path), "--select", "no-such-rule"])


def test_json_reporter_round_trips():
    import json

    findings = run_analysis([FIXTURES / "repro" / "core" / "float_fixture.py"])
    payload = json.loads(render_json(findings))
    assert payload and {"path", "line", "rule", "message"} <= set(payload[0])


def test_text_reporter_counts():
    findings = [
        Finding(path="x.py", line=1, rule="layering", message="m"),
        Finding(path="x.py", line=2, rule="layering", message="m"),
    ]
    text = render_text(findings)
    assert "2 finding(s)" in text and "layering: 2" in text


def test_whole_repo_is_clean():
    """The acceptance gate: zero findings over src/repro."""
    assert run_analysis([SRC_REPRO]) == []


# ---------------------------------------------------- suppression edge cases


SUPPRESS_FIXTURE = FIXTURES / "repro" / "core" / "suppress_fixture.py"


def test_multi_rule_bracket_suppresses_both_rules():
    """Line 8 violates determinism AND float-equality; one bracket
    (``# repro: ignore[determinism, float-equality]``) waives both."""
    findings = run_analysis([SUPPRESS_FIXTURE])
    assert not any(f.line == 8 for f in findings)


def test_partial_bracket_leaves_the_other_rule_firing():
    """Line 13 carries the same double violation but waives only
    determinism — float-equality must still fire there."""
    findings = run_analysis([SUPPRESS_FIXTURE])
    at_13 = sorted(f.rule for f in findings if f.line == 13)
    assert at_13 == ["float-equality"]


def test_suppression_on_decorated_def_line():
    """Rules report at the ``def`` line, not the decorator line, so the
    waiver on line 17 covers the decorated, docstring-less function."""
    findings = run_analysis([SUPPRESS_FIXTURE])
    assert not any(f.rule == "docstrings" for f in findings)


def test_unused_suppression_flags_stale_waivers():
    stale = [
        (f.line, f.message)
        for f in run_analysis([SUPPRESS_FIXTURE])
        if f.rule == "unused-suppression"
    ]
    assert [line for line, _ in stale] == [23, 24]
    assert "# repro: ignore[float-equality]" in stale[0][1]
    assert "blanket # repro: ignore" in stale[1][1]


def test_unused_suppression_explicit_self_waiver():
    """Line 25's bracket names unused-suppression explicitly, so the
    rotted waiver is excused; blanket ignores must not self-excuse
    (line 24 is still flagged above)."""
    findings = run_analysis([SUPPRESS_FIXTURE])
    assert not any(f.line == 25 for f in findings)


def test_unused_suppression_verdict_is_selection_independent():
    """Selecting a single rule must not rot waivers for the others:
    the used-waiver set is computed from every registered rule, so
    lines 8/13/17 stay excused even when only float-equality reports."""
    rules = {
        rule_id: all_rules()[rule_id]
        for rule_id in ("float-equality", "unused-suppression")
    }
    findings = run_analysis([SUPPRESS_FIXTURE], rules)
    stale = [f.line for f in findings if f.rule == "unused-suppression"]
    assert stale == [23, 24]


def test_backtick_quoted_waiver_mentions_are_prose(tmp_path):
    """A comment *documenting* the syntax in backticks is not a waiver."""
    path = tmp_path / "prose.py"
    path.write_text(
        '"""Module."""\n'
        "\n"
        "\n"
        "def f():\n"
        '    """Doc."""\n'
        "    # the `# repro: ignore[layering]` form waives a finding\n"
        "    return 1\n"
    )
    assert run_analysis([path]) == []


# ----------------------------------------------------------- CLI rule ids


def test_cli_select_unknown_rule_exits_2_listing_valid_ids(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([str(SRC_REPRO), "--select", "fork-safety,no-such-rule"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "unknown rule id(s) for --select: no-such-rule" in err
    for rule_id in sorted(EXPECTED_RULE_IDS):
        assert rule_id in err


def test_cli_ignore_unknown_rule_exits_2_listing_valid_ids(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([str(SRC_REPRO), "--ignore", "totally-bogus"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "unknown rule id(s) for --ignore: totally-bogus" in err
    assert "valid ids:" in err


def test_cli_ignore_filters_rules(capsys):
    path = FIXTURES / "repro" / "core" / "float_fixture.py"
    assert main([str(path), "--ignore", "float-equality,annotations"]) == 0
    capsys.readouterr()
    assert main([str(path)]) == 1


# ------------------------------------------------------------ runtime budget


def test_analysis_runtime_budget():
    """A cold whole-program run over src/repro stays interactive; CI
    enforces the same ceiling on the analyze step."""
    import time

    start = time.monotonic()
    run_analysis([SRC_REPRO])
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"cold analysis took {elapsed:.1f}s (budget 30s)"
