"""Result and statistics export.

Join runs produce structured numbers (Cand-1/Cand-2, prune counters,
phase timings) that downstream pipelines want machine-readable.  This
module serializes :class:`~repro.engine.result.JoinResult` /
:class:`~repro.engine.result.JoinStatistics` to JSON and the result pairs
to CSV, using only the standard library.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
from typing import Union

from repro.engine.result import JoinResult, JoinStatistics

__all__ = [
    "stats_to_dict",
    "result_to_dict",
    "dumps_result_json",
    "save_result_json",
    "dumps_pairs_csv",
    "save_pairs_csv",
]


def stats_to_dict(stats: JoinStatistics) -> dict:
    """A plain dict of every statistics field plus the derived values.

    The engine's per-stage rows come through under ``"stages"`` — one
    dict per plan stage, in plan order, each with the stage's ``name``,
    ``role``, ``input``/``survivors`` counts, wall-clock ``seconds``
    and the derived ``pruned`` count.
    """
    data = dataclasses.asdict(stats)
    data["total_time"] = stats.total_time
    data["avg_prefix_length"] = stats.avg_prefix_length
    for row, stage in zip(data["stages"], stats.stages):
        row["pruned"] = stage.pruned
    return data


def result_to_dict(result: JoinResult) -> dict:
    """``{"pairs": [...], "undecided": [...], "stats": {...}}``.

    Each ``undecided`` entry carries the pair ids, the best known
    ``lower``/``upper`` GED bounds, and the ``reason`` (``"budget"`` or
    ``"error"``) — see :class:`~repro.engine.result.BoundedPair`.
    """
    return {
        "pairs": [list(pair) for pair in result.pairs],
        "undecided": [bp._asdict() for bp in result.undecided],
        "stats": stats_to_dict(result.stats),
    }


def dumps_result_json(result: JoinResult, indent: int = 2) -> str:
    """Serialize a join result to JSON.

    Graph ids must be JSON-representable (int/str — the ids
    :func:`repro.graph.assign_ids` produces always are).
    """
    return json.dumps(result_to_dict(result), indent=indent, sort_keys=True)


def save_result_json(result: JoinResult, path: Union[str, os.PathLike]) -> None:
    """Write a join result to a JSON file."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps_result_json(result))


def dumps_pairs_csv(result: JoinResult) -> str:
    """The result pairs as CSV with an ``r_id,s_id`` header."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["r_id", "s_id"])
    for r_id, s_id in result.pairs:
        writer.writerow([r_id, s_id])
    return buffer.getvalue()


def save_pairs_csv(result: JoinResult, path: Union[str, os.PathLike]) -> None:
    """Write the result pairs to a CSV file."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(dumps_pairs_csv(result))
