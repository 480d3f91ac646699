"""Mismatching q-gram extraction — the paper's ``CompareQGrams``.

For a candidate pair the *mismatching* q-grams from ``r`` to ``s`` are
the multiset difference ``Q_r \\ Q_s``: for every key, the instances of
``r`` exceeding ``s``'s count of that key.  Their sizes ``ε₂ = |Q_r\\Q_s|``
and ``ε₃ = |Q_s\\Q_r|`` re-express count filtering (``ε₂ ≤ τ·D_path(r)``),
and the concrete instances feed minimum edit filtering (Section IV) and
local label filtering (Section V).

Which concrete instances are chosen for a key with partial overlap is
immaterial to correctness: any ``c_r − c_s`` of them are unmatched under
every key-level alignment, and the filters only use the instances'
vertices and labels.  We keep the instances earliest in the global
ordering for determinism.

Both profiles must be sorted by one
:class:`repro.grams.vocab.QGramVocabulary`, whose ids are the global
ordering: one linear merge over the two sorted id arrays then yields
ε₂/ε₃, the mismatch instances and the absent-key masks in a single
pass, bailing out early once a count bound is exceeded; it builds
:class:`~repro.grams.qgrams.QGram` objects for the mismatching
instances only (:meth:`~repro.grams.qgrams.QGramProfile.instances`).
The historical Counter computation over object keys lives on in the
tests as the merge's oracle.
"""

from __future__ import annotations

from typing import List, Optional

from repro.exceptions import ParameterError
from repro.grams.qgrams import QGram, QGramProfile

__all__ = ["MismatchResult", "compare_qgrams"]


class MismatchResult:
    """Output of ``CompareQGrams`` for an ordered pair of profiles.

    ``required_mask_r[k]`` is ``True`` iff ``mismatch_r[k]``'s key does
    not occur in ``s`` at all: *every* instance of such a key is
    guaranteed to be affected by any edit script between the graphs,
    which is the precondition for running minimum-edit reasoning on
    concrete instances (see :func:`repro.grams.labels.
    local_label_lower_bound`).  For keys present in both graphs with a
    surplus, only *some* unknown instances are affected, so they
    contribute to counts and labels but not to the per-instance hitting
    set.

    ``count_pruned`` is ``True`` when :func:`compare_qgrams` was given a
    ``tau`` and a count bound was exceeded — the merge then stopped
    early, so the epsilons are lower bounds and the instance lists are
    partial; callers must treat the pair as count-pruned and read
    nothing else.
    """

    __slots__ = (
        "mismatch_r",
        "mismatch_s",
        "epsilon_r",
        "epsilon_s",
        "required_mask_r",
        "required_mask_s",
        "count_pruned",
    )

    def __init__(
        self,
        mismatch_r: List[QGram],
        mismatch_s: List[QGram],
        epsilon_r: int,
        epsilon_s: int,
        required_mask_r: List[bool],
        required_mask_s: List[bool],
        count_pruned: bool = False,
    ) -> None:
        self.mismatch_r = mismatch_r  #: instances of ``Q_r \ Q_s``
        self.mismatch_s = mismatch_s  #: instances of ``Q_s \ Q_r``
        self.epsilon_r = epsilon_r  #: ``|Q_r \ Q_s|``
        self.epsilon_s = epsilon_s  #: ``|Q_s \ Q_r|``
        self.required_mask_r = required_mask_r
        self.required_mask_s = required_mask_s
        self.count_pruned = count_pruned


def compare_qgrams(
    p_r: QGramProfile, p_s: QGramProfile, tau: Optional[int] = None
) -> MismatchResult:
    """Bidirectional mismatching q-grams with their counts (Algorithm 6).

    One linear merge over the two profiles' sorted id arrays produces
    ε₂/ε₃, the mismatch instances (earliest in the global ordering — a
    key's instances are contiguous in the sorted gram lists) and the
    absent-key masks together.  ``tau``, when given, enables the count
    filter's early bailout: once ``ε > τ·D_path`` on either side the
    result comes back with ``count_pruned=True`` (and possibly partial
    instance lists) — exactly the pairs the count filter rejects, since
    the epsilons only grow.

    Raises
    ------
    ParameterError
        Unless both profiles were sorted by one vocabulary.
    """
    source = p_r.signature_source
    if source is None or p_s.signature_source is not source:
        raise ParameterError(
            "compare_qgrams needs two profiles sorted by one vocabulary: "
            "call QGramVocabulary.sort_profile on both first"
        )
    sig_r, sig_s = p_r.signature, p_s.signature
    instances_r, instances_s = p_r.instances, p_s.instances
    n, m = len(sig_r), len(sig_s)
    bound_r = bound_s = -1
    bounded = tau is not None
    if bounded:
        bound_r = tau * p_r.d_path
        bound_s = tau * p_s.d_path
    mismatch_r: List[QGram] = []
    mismatch_s: List[QGram] = []
    mask_r: List[bool] = []
    mask_s: List[bool] = []
    eps_r = eps_s = 0
    i = j = 0
    pruned = False
    while i < n and j < m:
        a = sig_r[i]
        b = sig_s[j]
        if a == b:
            i0, j0 = i, j
            i += 1
            while i < n and sig_r[i] == a:
                i += 1
            j += 1
            while j < m and sig_s[j] == a:
                j += 1
            c_r = i - i0
            c_s = j - j0
            if c_r > c_s:
                d = c_r - c_s
                eps_r += d
                mismatch_r.extend(instances_r(i0, i0 + d))
                mask_r += [False] * d
            elif c_s > c_r:
                d = c_s - c_r
                eps_s += d
                mismatch_s.extend(instances_s(j0, j0 + d))
                mask_s += [False] * d
        elif a < b:
            i0 = i
            i += 1
            while i < n and sig_r[i] == a:
                i += 1
            c_r = i - i0
            eps_r += c_r
            mismatch_r.extend(instances_r(i0, i))
            mask_r += [True] * c_r
        else:
            j0 = j
            j += 1
            while j < m and sig_s[j] == b:
                j += 1
            c_s = j - j0
            eps_s += c_s
            mismatch_s.extend(instances_s(j0, j))
            mask_s += [True] * c_s
        if bounded and (eps_r > bound_r or eps_s > bound_s):
            pruned = True
            break
    while not pruned and i < n:
        a = sig_r[i]
        i0 = i
        i += 1
        while i < n and sig_r[i] == a:
            i += 1
        c_r = i - i0
        eps_r += c_r
        mismatch_r.extend(instances_r(i0, i))
        mask_r += [True] * c_r
        if bounded and eps_r > bound_r:
            pruned = True
    while not pruned and j < m:
        b = sig_s[j]
        j0 = j
        j += 1
        while j < m and sig_s[j] == b:
            j += 1
        c_s = j - j0
        eps_s += c_s
        mismatch_s.extend(instances_s(j0, j))
        mask_s += [True] * c_s
        if bounded and eps_s > bound_s:
            pruned = True
    return MismatchResult(
        mismatch_r,
        mismatch_s,
        eps_r,
        eps_s,
        mask_r,
        mask_s,
        count_pruned=pruned,
    )
