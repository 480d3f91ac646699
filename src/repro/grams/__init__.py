"""Shared q-gram and label-filter primitives.

This package is the *cycle-free* home of everything both the filter
layer (:mod:`repro.core`) and the GED layer (:mod:`repro.ged`) need:
path-based q-gram extraction, mismatching-q-gram comparison, the
bounded minimum-edit (hitting set) solvers, and the label lower
bounds.  It sits below ``ged`` in the dependency DAG

    ``graph -> {strings, setcover} -> grams -> ged -> core -> ...``

so that ``repro.ged.heuristics`` / ``repro.ged.vertex_order`` no longer
import ``repro.core`` (the historical ``core <-> ged`` import cycle;
see ``docs/STATIC_ANALYSIS.md``).  Import these primitives from
:mod:`repro.grams.qgrams`, :mod:`repro.grams.mismatch`,
:mod:`repro.grams.minedit` and :mod:`repro.grams.labels`; the
:mod:`repro.core` package re-exports the common ones.
"""

from __future__ import annotations

from repro.grams.labels import (
    connected_gram_components,
    gamma,
    global_label_lower_bound,
    local_label_lower_bound,
    multicover_min_edit_bound,
)
from repro.grams.minedit import (
    min_edit_exact,
    min_edit_lower_bound,
    min_prefix_length,
)
from repro.grams.mismatch import MismatchResult, compare_qgrams, mismatching_grams
from repro.grams.qgrams import Key, QGram, QGramProfile, extract_qgrams, qgram_key
from repro.grams.vocab import QGramVocabulary, build_vocabulary

__all__ = [
    "Key",
    "MismatchResult",
    "QGram",
    "QGramProfile",
    "QGramVocabulary",
    "build_vocabulary",
    "compare_qgrams",
    "connected_gram_components",
    "extract_qgrams",
    "gamma",
    "global_label_lower_bound",
    "local_label_lower_bound",
    "min_edit_exact",
    "min_edit_lower_bound",
    "min_prefix_length",
    "mismatching_grams",
    "multicover_min_edit_bound",
    "qgram_key",
]
