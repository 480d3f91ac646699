"""Multi-core GSimJoin: the self-join with verification on a process pool.

:func:`gsim_join_parallel` is defined beside :func:`~repro.core.join.
gsim_join` in :mod:`repro.core.join` — both run the one in-memory
driver — and re-exported here, with the in-process fallback's default
budget, for callers that import it from this module.  The pool itself
(worker state, retry/timeout handling, the in-process fallback) is
:mod:`repro.engine.parallel`; ``docs/ROBUSTNESS.md`` has the fault
model.
"""

from repro.core.join import gsim_join_parallel
from repro.engine.parallel import DEFAULT_FALLBACK_BUDGET

__all__ = ["gsim_join_parallel", "DEFAULT_FALLBACK_BUDGET"]
