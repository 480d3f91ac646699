"""The staged execution engine's plan layer and stage statistics.

Covers :func:`repro.engine.plan.build_plan` (assembly in the paper's
cascade order), ``JoinPlan.describe()``, the per-stage survivor/timing
rows on :class:`JoinStatistics`, their export through
``repro.reporting``, and the CLI's ``--explain-plan`` flag.
"""

import dataclasses

from repro.cli import main
from repro.core.join import GSimJoinOptions, gsim_join
from repro.engine.plan import build_plan
from repro.graph import save_graphs
from repro.reporting import result_to_dict

from .test_join import molecule_collection

TAU = 2


# ------------------------------------------------------- plan assembly


def test_default_full_plan_stage_names():
    plan = build_plan(GSimJoinOptions.full())
    assert plan.stage_names() == (
        "prepare-profiles",
        "minedit-prefix",
        "prefix-candidates",
        "size-filter",
        "global-label-filter",
        "count-filter",
        "local-label-filter",
        "verify",
    )
    assert tuple(f.name for f in plan.pair_filters) == (
        "global-label-filter",
        "count-filter",
        "local-label-filter",
    )


def test_basic_plan_uses_basic_prefix_and_short_cascade():
    plan = build_plan(GSimJoinOptions.basic())
    assert plan.prefix.name == "basic-prefix"
    assert tuple(f.name for f in plan.pair_filters) == (
        "global-label-filter",
        "count-filter",
    )


def test_verify_stage_reflects_options():
    options = dataclasses.replace(GSimJoinOptions.full(), verifier="dfs")
    verify = build_plan(options).verify
    assert verify.verifier == "dfs"
    assert verify.improved_order == options.improved_order


def test_describe_lists_numbered_stages():
    text = build_plan(GSimJoinOptions.full()).describe()
    lines = text.splitlines()
    assert lines[0] == "join plan:"
    assert len(lines) == 9
    for pos, line in enumerate(lines[1:], start=1):
        assert line.lstrip().startswith(f"{pos}. ")
    assert "[pair-filter]" in text
    assert "[verify]" in text


# ------------------------------------------------- stage statistics


def test_stage_rows_follow_plan_and_survivor_arithmetic():
    graphs = molecule_collection(16, seed=19)
    result = gsim_join(graphs, TAU, options=GSimJoinOptions.full())
    stats = result.stats
    names = [row.name for row in stats.stages]
    assert names == list(build_plan(GSimJoinOptions.full()).stage_names())

    by_name = {row.name: row for row in stats.stages}
    assert by_name["size-filter"].survivors == stats.cand1
    assert by_name["verify"].input == stats.cand2
    assert by_name["verify"].survivors == stats.results
    assert by_name["global-label-filter"].input == stats.cand1
    assert by_name["global-label-filter"].pruned == stats.pruned_by_global_label
    assert by_name["count-filter"].pruned == stats.pruned_by_count
    # The cascade is a chain: each filter's survivors feed the next.
    cascade = [by_name[n] for n in names[4:]]
    for earlier, later in zip(cascade, cascade[1:]):
        assert earlier.survivors == later.input
    for row in stats.stages:
        assert row.input >= row.survivors >= 0
        assert row.seconds >= 0.0


def test_stage_rows_exported_by_reporting():
    graphs = molecule_collection(14, seed=23)
    result = gsim_join(graphs, TAU)
    data = result_to_dict(result)
    rows = data["stats"]["stages"]
    assert [row["name"] for row in rows] == list(
        build_plan(GSimJoinOptions()).stage_names()
    )
    for row in rows:
        assert row["pruned"] == row["input"] - row["survivors"]
        assert set(row) >= {"name", "role", "input", "survivors", "seconds"}


def test_stage_table_renders_all_rows():
    graphs = molecule_collection(14, seed=23)
    result = gsim_join(graphs, TAU)
    table = result.stats.stage_table()
    lines = table.splitlines()
    assert lines[0].split()[:3] == ["stage", "role", "input"]
    stage_lines = [
        line for line in lines if not line.startswith("verify backends:")
    ]
    assert len(stage_lines) == 1 + len(result.stats.stages)
    assert "verify" in table
    # The per-backend verify attribution rides along below the rows.
    assert "verify backends: compiled=" in table


# ------------------------------------------------------------- CLI


def test_cli_explain_plan_prints_plan_and_table(tmp_path, capsys):
    path = tmp_path / "graphs.txt"
    save_graphs(molecule_collection(12, seed=29), path)
    assert main(["join", str(path), "--tau", "1", "--explain-plan"]) == 0
    err = capsys.readouterr().err
    assert "join plan:" in err
    assert "prefix-candidates" in err
    assert "survivors" in err  # the stage table header


def test_cli_explain_plan_requires_gsimjoin(tmp_path, capsys):
    path = tmp_path / "graphs.txt"
    save_graphs(molecule_collection(12, seed=29), path)
    assert (
        main(["join", str(path), "--tau", "1", "--algorithm", "naive",
              "--explain-plan"])
        == 1
    )
    assert "--explain-plan" in capsys.readouterr().err
