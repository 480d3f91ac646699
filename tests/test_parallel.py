"""Tests for the multi-core join."""

import dataclasses
import math

import pytest

from repro import GSimJoinOptions, gsim_join, gsim_join_parallel
from repro.exceptions import ParameterError

from .test_join import molecule_collection


class TestParallelJoin:
    def test_invalid_workers(self):
        with pytest.raises(ParameterError):
            gsim_join_parallel([], tau=1, workers=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["chunk_timeout", "retry_backoff"])
    def test_non_finite_pool_settings_rejected(self, name, value):
        """A NaN chunk timeout failed every chunk (each retried, then
        verified in-process under the fallback budget); all four are
        refused before a pool starts."""
        graphs = molecule_collection(6, seed=73)
        with pytest.raises(ParameterError, match="finite"):
            gsim_join_parallel(graphs, tau=1, workers=2, **{name: value})

    def test_empty_collection(self):
        result = gsim_join_parallel([], tau=1, workers=2)
        assert result.pairs == []

    def test_single_worker_matches_sequential(self):
        """``workers=1`` is the sequential join: same pairs, undecided,
        every integer statistic and the stage rows' counts."""
        graphs = molecule_collection(20, seed=70)
        sequential = gsim_join(graphs, tau=2)
        parallel = gsim_join_parallel(graphs, tau=2, workers=1)
        assert parallel.pairs == sequential.pairs
        assert parallel.undecided == sequential.undecided
        for field in dataclasses.fields(sequential.stats):
            value = getattr(sequential.stats, field.name)
            if isinstance(value, int):
                assert getattr(parallel.stats, field.name) == value, field.name
        assert [
            (row.name, row.input, row.survivors) for row in parallel.stats.stages
        ] == [
            (row.name, row.input, row.survivors)
            for row in sequential.stats.stages
        ]

    @pytest.mark.parametrize("tau", [1, 2])
    def test_pool_matches_sequential(self, tau):
        graphs = molecule_collection(24, seed=71)
        sequential = gsim_join(graphs, tau=tau)
        parallel = gsim_join_parallel(graphs, tau=tau, workers=2)
        assert parallel.pair_set() == sequential.pair_set()
        assert parallel.stats.results == sequential.stats.results

    def test_all_variants(self):
        graphs = molecule_collection(16, seed=72)
        for options in (
            GSimJoinOptions.basic(q=3),
            GSimJoinOptions.full(q=3),
        ):
            sequential = gsim_join(graphs, tau=2, options=options)
            parallel = gsim_join_parallel(
                graphs, tau=2, options=options, workers=2
            )
            assert parallel.pair_set() == sequential.pair_set()

    def test_stats_aggregated(self):
        graphs = molecule_collection(20, seed=73)
        result = gsim_join_parallel(graphs, tau=2, workers=2)
        st = result.stats
        assert st.cand1 >= st.cand2 >= st.results
        assert st.ged_calls == st.cand2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_ordering_parity(self, workers):
        """Workers must apply the frozen global ordering.

        Historically ``_profile_of`` re-extracted profiles without
        sorting them, so mismatch-instance selection and the improved A*
        vertex order silently diverged from the sequential join —
        ``ged_expansions`` is the sensitive detector (pairs can agree
        while the search does different work).
        """
        graphs = molecule_collection(24, seed=74)
        options = GSimJoinOptions.full(q=3)
        sequential = gsim_join(graphs, tau=2, options=options)
        parallel = gsim_join_parallel(
            graphs, tau=2, options=options, workers=workers
        )
        assert parallel.pairs == sequential.pairs
        for field in (
            "cand1",
            "cand2",
            "results",
            "pruned_by_global_label",
            "pruned_by_count",
            "pruned_by_local_label",
            "ged_calls",
            "ged_expansions",
        ):
            assert getattr(parallel.stats, field) == getattr(
                sequential.stats, field
            ), field
