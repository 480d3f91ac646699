"""Tests for JSON/CSV reporting."""

import csv
import io
import json

from repro import gsim_join
from repro.reporting import (
    dumps_pairs_csv,
    dumps_result_json,
    result_to_dict,
    save_pairs_csv,
    save_result_json,
    stats_to_dict,
)

from .test_join import molecule_collection


class TestReporting:
    def test_stats_dict_has_derived_fields(self):
        graphs = molecule_collection(10, seed=40)
        stats = gsim_join(graphs, tau=1).stats
        data = stats_to_dict(stats)
        assert data["cand1"] == stats.cand1
        assert data["total_time"] == stats.total_time
        assert data["avg_prefix_length"] == stats.avg_prefix_length

    def test_result_json_round_trip(self):
        graphs = molecule_collection(12, seed=41)
        result = gsim_join(graphs, tau=2)
        parsed = json.loads(dumps_result_json(result))
        assert {tuple(p) for p in parsed["pairs"]} == result.pair_set()
        assert parsed["stats"]["results"] == result.stats.results

    def test_result_dict_structure(self):
        graphs = molecule_collection(8, seed=42)
        data = result_to_dict(gsim_join(graphs, tau=1))
        assert set(data) == {"pairs", "undecided", "stats"}
        assert data["undecided"] == []  # no budget, no faults

    def test_csv_export(self):
        graphs = molecule_collection(12, seed=43)
        result = gsim_join(graphs, tau=2)
        rows = list(csv.reader(io.StringIO(dumps_pairs_csv(result))))
        assert rows[0] == ["r_id", "s_id"]
        assert len(rows) - 1 == len(result.pairs)

    def test_file_outputs(self, tmp_path):
        graphs = molecule_collection(8, seed=44)
        result = gsim_join(graphs, tau=1)
        json_path = tmp_path / "out.json"
        csv_path = tmp_path / "out.csv"
        save_result_json(result, json_path)
        save_pairs_csv(result, csv_path)
        assert json.loads(json_path.read_text())["stats"]["tau"] == 1
        assert csv_path.read_text().startswith("r_id,s_id")

