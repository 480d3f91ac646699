"""Tests for the exception hierarchy and error-path consistency."""

import pytest

from repro.exceptions import (
    CheckpointError,
    GraphError,
    GraphFormatError,
    InjectedFaultError,
    ParameterError,
    ReproError,
    SearchExhaustedError,
)


class TestHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc_type in (
            GraphError,
            GraphFormatError,
            ParameterError,
            SearchExhaustedError,
            CheckpointError,
            InjectedFaultError,
        ):
            assert issubclass(exc_type, ReproError)

    def test_repro_error_is_exception(self):
        assert issubclass(ReproError, Exception)

    def test_single_except_catches_library_errors(self):
        from repro.graph.graph import Graph

        caught = []
        for action in (
            lambda: Graph().vertex_label(0),
            lambda: __import__("repro.graph.io", fromlist=["loads_graphs"]).loads_graphs("x y"),
        ):
            try:
                action()
            except ReproError as exc:
                caught.append(type(exc))
        assert caught == [GraphError, GraphFormatError]


class TestParameterValidationSurface:
    """Every public algorithm must reject out-of-domain parameters with
    ParameterError (not assertion failures or silent misbehaviour)."""

    def test_core_entry_points(self):
        from repro import (
            GSimIndex,
            gsim_join,
            gsim_join_parallel,
            naive_join,
        )
        from repro.core import extract_qgrams
        from repro.graph.graph import Graph

        cases = [
            lambda: gsim_join([], tau=-1),
            lambda: gsim_join_parallel([], tau=1, workers=0),
            lambda: naive_join([], tau=-2),
            lambda: extract_qgrams(Graph(), -1),
            lambda: GSimIndex(tau_max=-1),
        ]
        for case in cases:
            with pytest.raises(ParameterError):
                case()

    def test_ged_entry_points(self):
        from repro.ged import graph_edit_distance
        from repro.graph.graph import Graph

        g = Graph()
        with pytest.raises(ParameterError):
            graph_edit_distance(g, g, threshold=-1)
