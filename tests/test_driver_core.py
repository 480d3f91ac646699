"""Every driver runs the one driver core: shared accounting and results.

The self-join, the R×S join, the parallel join (serial and pooled), the
sharded join (serial and pooled) and the search index all scan and
verify through ``repro.engine.executor.Executor``; these tests pin what
that sharing guarantees across drivers — complete per-backend verify
accounting, one record→result mapping for journals, and resumable
statistics snapshots in the sharded manifest.
"""

import json

import pytest

from repro.core.join import gsim_join, gsim_join_rs
from repro.core.parallel import gsim_join_parallel
from repro.engine.result import JoinStatistics
from repro.core.search import GSimIndex
from repro.core.sharded import gsim_join_sharded, result_fingerprint
from repro.datasets import aids_like
from repro.runtime.journal import VerificationRecord

TAU = 2


@pytest.fixture(scope="module")
def graphs():
    return aids_like(60, seed=3)


def _index_stats(graphs, tmp_path):
    index = GSimIndex(graphs[:40], tau_max=TAU)
    stats = JoinStatistics()
    for g in graphs[40:]:
        index.query(g, TAU, stats=stats)
    return stats


DRIVERS = {
    "gsim_join": lambda graphs, tmp_path: gsim_join(graphs, TAU).stats,
    "gsim_join_rs": lambda graphs, tmp_path: gsim_join_rs(
        graphs[:30], graphs[30:], TAU
    ).stats,
    "gsim_join_parallel-1": lambda graphs, tmp_path: gsim_join_parallel(
        graphs, TAU, workers=1
    ).stats,
    "gsim_join_parallel-2": lambda graphs, tmp_path: gsim_join_parallel(
        graphs, TAU, workers=2
    ).stats,
    "gsim_join_sharded-1": lambda graphs, tmp_path: gsim_join_sharded(
        graphs, TAU, spill_dir=tmp_path / "spill", shards=4
    ).stats,
    "gsim_join_sharded-2": lambda graphs, tmp_path: gsim_join_sharded(
        graphs, TAU, spill_dir=tmp_path / "spill", shards=4, workers=2,
        retry_backoff=0.0,
    ).stats,
    "GSimIndex.query": _index_stats,
}


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_verify_accounting_is_complete(driver, graphs, tmp_path):
    """Every verification is attributed to a backend (or the memo) and
    reaches the verify stage row, under every driver."""
    stats = DRIVERS[driver](graphs, tmp_path)
    assert stats.ged_calls > 0
    assert sum(stats.verify_backends.values()) == (
        stats.ged_calls + stats.memo_hits
    )
    verify_row = next(row for row in stats.stages if row.name == "verify")
    assert verify_row.input == stats.cand2


def test_fallback_record_resumes_identically_under_both_self_joins(
    graphs, tmp_path
):
    """A journal holding an in-process fallback record (as the parallel
    driver writes it) resumes to the same result under either
    self-join driver: the undecided pair keeps ``reason="error"``."""
    clean = tmp_path / "clean.jsonl"
    gsim_join(graphs, TAU, checkpoint=clean)
    header, first = clean.read_text().splitlines()[:2]
    record = VerificationRecord.from_json(first)
    fallback = VerificationRecord(
        i=record.i, j=record.j, is_result=False, pruned_by="error",
        undecided=True,
    )
    runs = {
        "sequential": lambda path: gsim_join(graphs, TAU, checkpoint=path),
        "parallel": lambda path: gsim_join_parallel(
            graphs, TAU, workers=1, checkpoint=path
        ),
    }
    fingerprints = set()
    for name, run in runs.items():
        path = tmp_path / f"{name}.jsonl"
        path.write_text(f"{header}\n{fallback.to_json()}\n")
        result = run(path)
        assert [u.reason for u in result.undecided] == ["error"]
        fingerprints.add(result_fingerprint(result))
    assert len(fingerprints) == 1


def test_manifest_snapshots_without_newer_keys_still_accrue(graphs, tmp_path):
    """A completed run's manifest whose per-pair statistics lack the
    keys added since (as older runs wrote them) resumes and accrues."""
    spill = tmp_path / "spill"
    clean = gsim_join_sharded(graphs, TAU, spill_dir=spill, shards=3)
    path = spill / "manifest.json"
    manifest = json.loads(path.read_text())
    for pair in manifest["pairs"].values():
        for key in ("memo_hits", "verify_backends", "results"):
            pair["stats"].pop(key)
    path.write_text(json.dumps(manifest))
    resumed = gsim_join_sharded(
        graphs, TAU, spill_dir=spill, shards=3, resume=True
    )
    assert result_fingerprint(resumed) == result_fingerprint(clean)
    assert resumed.stats.cand1 == clean.stats.cand1
    assert resumed.stats.ged_calls == clean.stats.ged_calls
    assert resumed.stats.verify_backends == {}
