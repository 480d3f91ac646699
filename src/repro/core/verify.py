"""Backwards-compatible re-export; the code moved to
:mod:`repro.engine.verify` (and :mod:`repro.engine.stages`).

Candidate verification (Section VI, Algorithm 6) is the per-pair filter
cascade plus the GED stage of the staged execution engine
(``repro.engine``); ``repro.core`` re-exports :func:`verify_pair` — the
historical flat-argument entry point — so the public import surface is
unchanged.
"""

from __future__ import annotations

from repro.engine.verify import VerifyOutcome, verify_pair

__all__ = ["VerifyOutcome", "verify_pair"]
