"""Fault-injection tests for the parallel join executor.

Each test arms a deterministic :class:`~repro.runtime.faults.FaultPlan`
on ``gsim_join_parallel`` and asserts the join survives — producing
exactly the sequential join's result — after a worker raises, dies like
an OOM kill, or hangs.  Latched plans fire once globally, so the retry
of the poisoned chunk succeeds; unlatched plans keep firing, driving
the chunk into the in-process fallback path.
"""

import errno
import multiprocessing
import os

import pytest

from repro.core.join import gsim_join
from repro.core.parallel import gsim_join_parallel
from repro.exceptions import InjectedFaultError, ParameterError
from repro.runtime import FaultPlan, VerificationBudget

from .test_join import molecule_collection

TAU = 2


@pytest.fixture(scope="module")
def graphs():
    return molecule_collection(24, seed=17)


@pytest.fixture(scope="module")
def expected(graphs):
    return gsim_join(graphs, TAU)


def assert_matches_sequential(result, expected):
    """Pairs, undecided channel and deterministic counters all agree."""
    assert result.pairs == expected.pairs
    assert result.undecided == expected.undecided
    for field in ("cand1", "cand2", "results", "ged_calls",
                  "ged_expansions", "undecided", "pruned_by_count",
                  "pruned_by_global_label", "pruned_by_local_label"):
        assert getattr(result.stats, field) == getattr(expected.stats, field)


class TestCrashedWorker:
    def test_raise_fault_retries_to_parity(self, graphs, expected, tmp_path):
        fault = FaultPlan("raise", at=3, latch_path=str(tmp_path / "latch"))
        result = gsim_join_parallel(
            graphs, TAU, workers=2,
            fault=fault, retry_backoff=0.0,
        )
        assert_matches_sequential(result, expected)
        assert result.stats.chunk_retries >= 1
        assert result.stats.fallback_pairs == 0

    def test_killed_worker_retries_to_parity(self, graphs, expected, tmp_path):
        """os._exit(1) in a worker (OOM-like) breaks the pool; the join
        rebuilds it and still matches the sequential result."""
        fault = FaultPlan("kill", at=2, latch_path=str(tmp_path / "latch"))
        result = gsim_join_parallel(
            graphs, TAU, workers=2,
            fault=fault, retry_backoff=0.0,
        )
        assert_matches_sequential(result, expected)
        assert result.stats.chunk_retries >= 1

    def test_unlatched_raise_falls_back_in_process(self, graphs, expected):
        """A fault that fires on every attempt exhausts max_retries and
        the poisoned pairs are verified in-process — never lost."""
        result = gsim_join_parallel(
            graphs, TAU, workers=2,
            fault=FaultPlan("raise", at=1),
            max_retries=1, retry_backoff=0.0,
        )
        assert_matches_sequential(result, expected)
        assert result.stats.fallback_pairs > 0
        assert result.stats.failed_pairs == 0
        assert result.stats.chunk_retries >= 2


class TestHungWorker:
    def test_hung_worker_times_out_to_parity(self, graphs, expected, tmp_path):
        fault = FaultPlan(
            "hang", at=2, hang_seconds=60.0,
            latch_path=str(tmp_path / "latch"),
        )
        result = gsim_join_parallel(
            graphs, TAU, workers=2,
            fault=fault, chunk_timeout=1.5, retry_backoff=0.0,
        )
        assert_matches_sequential(result, expected)
        assert result.stats.chunk_retries >= 1


    def test_hung_worker_is_gone_when_the_join_returns(self, graphs, tmp_path):
        """Tearing the wedged pool down kills its hung worker and reaps
        it: no pool process outlives the join (the worker used to sleep
        out its hang, and interpreter exit waited for it)."""
        before = {process.pid for process in multiprocessing.active_children()}
        fault = FaultPlan(
            "hang", at=2, hang_seconds=60.0,
            latch_path=str(tmp_path / "latch"),
        )
        gsim_join_parallel(
            graphs, TAU, workers=2,
            fault=fault, chunk_timeout=1.5, retry_backoff=0.0,
        )
        assert os.path.exists(tmp_path / "latch")  # a worker did hang
        left = [
            process.pid
            for process in multiprocessing.active_children()
            if process.pid not in before
        ]
        assert left == []


class TestInProcessSemantics:
    def test_workers_1_propagates_fault(self, graphs):
        """The in-process path keeps sequential semantics: no executor,
        no retry — the injected fault reaches the caller."""
        with pytest.raises(InjectedFaultError):
            gsim_join_parallel(
                graphs, TAU, workers=1, fault=FaultPlan("raise", at=1)
            )

    def test_workers_1_latched_fault_is_fatal_once(self, graphs, expected, tmp_path):
        latch = str(tmp_path / "latch")
        with pytest.raises(InjectedFaultError):
            gsim_join_parallel(
                graphs, TAU, workers=1, fault=FaultPlan("raise", at=1, latch_path=latch)
            )
        # The latch has fired; the same plan is now inert.
        result = gsim_join_parallel(
            graphs, TAU, workers=1,
            fault=FaultPlan("raise", at=1, latch_path=latch),
        )
        assert_matches_sequential(result, expected)


class TestIOFaultChannel:
    """The I/O kinds (``ioerror``/``enospc``) count durable writes via
    ``step_io`` and are invisible to the verification channel."""

    def test_io_kinds_ignore_verification_steps(self):
        injector = FaultPlan("enospc", at=1).start()
        for _ in range(10):
            injector.step()  # must never fire: wrong channel

    def test_verify_kinds_ignore_io_steps(self):
        injector = FaultPlan("raise", at=1).start()
        for _ in range(10):
            injector.step_io()  # must never fire: wrong channel

    def test_enospc_fires_at_the_armed_write_with_errno(self):
        injector = FaultPlan("enospc", at=3).start()
        injector.step_io()
        injector.step_io()
        with pytest.raises(OSError) as excinfo:
            injector.step_io()
        assert excinfo.value.errno == errno.ENOSPC

    def test_io_fault_is_persistent(self):
        """A full disk stays full: the plan fires on every write from
        the ``at``-th onward, not just once."""
        injector = FaultPlan("ioerror", at=1).start()
        for _ in range(3):
            with pytest.raises(OSError):
                injector.step_io()

    def test_latch_limits_io_fault_to_one_firing(self, tmp_path):
        plan = FaultPlan("enospc", at=1, latch_path=str(tmp_path / "latch"))
        injector = plan.start()
        with pytest.raises(OSError):
            injector.step_io()
        injector.step_io()  # space was "freed": the latch absorbed it
        # A fresh injector (a retry, possibly another process) sees the
        # same latch file and stays quiet too.
        plan.start().step_io()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError, match="kind"):
            FaultPlan("corrupt", at=1)

    def test_nonpositive_at_rejected(self):
        with pytest.raises(ParameterError, match="at"):
            FaultPlan("raise", at=0)


class TestFaultFreeParity:
    def test_budget_threads_through_workers(self, graphs):
        """Workers apply the budget; parallel undecided == sequential."""
        budget = VerificationBudget(max_expansions=2)
        sequential = gsim_join(graphs, TAU, budget=budget)
        parallel = gsim_join_parallel(
            graphs, TAU, workers=2, budget=budget
        )
        assert parallel.pairs == sequential.pairs
        assert parallel.undecided == sequential.undecided
        assert parallel.stats.undecided == sequential.stats.undecided
