"""The Counter comparison of two q-gram profiles — a test oracle.

:func:`repro.grams.mismatch.compare_qgrams` merges two profiles sorted
by one vocabulary.  This module keeps the historical computation over
object keys: per-key surplus counts, then the first surplus instances
of each key in the profile's current gram order.  It is the merge's
property-test oracle, and the comparison of the object-key oracle in
``tests/legacy_drivers.py``, whose profiles carry no signature.  On two
profiles sorted in one ordering both pick the same instances in the
same order.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional

from repro.grams.mismatch import MismatchResult
from repro.grams.qgrams import Key, QGram, QGramProfile

from .conftest import profile_counts

__all__ = ["counter_compare", "mismatching_grams"]


def _surplus_counts(p: QGramProfile, other: QGramProfile) -> Dict[Key, int]:
    """Per-key surplus ``max(0, c_p − c_other)`` (positive entries only)."""
    surplus: Dict[Key, int] = {}
    other_counts = profile_counts(other)[0]
    for key, count in profile_counts(p)[0].items():
        extra = count - other_counts.get(key, 0)
        if extra > 0:
            surplus[key] = extra
    return surplus


def _pick_instances(p: QGramProfile, surplus: Dict[Key, int]) -> List[QGram]:
    """First ``surplus[key]`` instances of each surplus key, in gram order."""
    if not surplus:
        return []
    picked: List[QGram] = []
    taken: Dict[Key, int] = defaultdict(int)
    for gram in p.grams:
        want = surplus.get(gram.key, 0)
        if taken[gram.key] < want:
            taken[gram.key] += 1
            picked.append(gram)
    return picked


def mismatching_grams(p: QGramProfile, other: QGramProfile) -> List[QGram]:
    """Instances of ``Q_p \\ Q_other`` (one direction of the difference)."""
    return _pick_instances(p, _surplus_counts(p, other))


def counter_compare(
    p_r: QGramProfile, p_s: QGramProfile, tau: Optional[int] = None
) -> MismatchResult:
    """``compare_qgrams`` over object keys, for any two profiles.

    The masks flag the instances whose key is absent from the other
    profile.  With ``tau`` the result is ``count_pruned`` exactly when
    the merge's would be; the instance lists are then complete (the
    merge's may be partial).
    """
    mr = mismatching_grams(p_r, p_s)
    ms = mismatching_grams(p_s, p_r)
    keys_r, keys_s = profile_counts(p_r)[0], profile_counts(p_s)[0]
    mask_r = [gram.key not in keys_s for gram in mr]
    mask_s = [gram.key not in keys_r for gram in ms]
    pruned = tau is not None and (
        len(mr) > tau * p_r.d_path or len(ms) > tau * p_s.d_path
    )
    return MismatchResult(
        mr, ms, len(mr), len(ms), mask_r, mask_s, count_pruned=pruned
    )
