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

Two implementations produce bit-identical results:

* the **merge path** — when both profiles carry a total interned
  signature from the same :class:`repro.grams.vocab.QGramVocabulary`,
  one linear merge over the two sorted id arrays yields ε₂/ε₃, the
  mismatch instances, the absent-key flags and the surplus runs in a
  single pass, bailing out early once a count bound is exceeded;
* the **Counter path** — the historical Counter-based computation over
  object keys, taken by every profile without a total signature: the
  unsorted subgraph profiles of the improved A* heuristic
  (:func:`repro.ged.heuristics.local_label_terms`) and ``GSimIndex``
  profiles carrying overflow ids.  The property tests also use it as
  the oracle of the merge.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.grams.qgrams import Key, QGram, QGramProfile

__all__ = ["MismatchResult", "compare_qgrams", "mismatching_grams"]

#: A surplus run in a sorted gram list: (start, stop, surplus count).
SurplusRun = Tuple[int, int, int]


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
    set.  :attr:`absent_keys_r` / :attr:`absent_keys_s` expose the same
    information as key sets (derived lazily on the merge path).

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
        "_absent_r",
        "_absent_s",
        "_runs_r",
        "_runs_s",
        "_surplus_r",
        "_surplus_s",
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
        absent_keys_r: Optional[frozenset] = None,
        absent_keys_s: Optional[frozenset] = None,
        runs_r: Optional[List[SurplusRun]] = None,
        runs_s: Optional[List[SurplusRun]] = None,
        surplus_r: Optional[Dict[Key, int]] = None,
        surplus_s: Optional[Dict[Key, int]] = None,
    ) -> None:
        self.mismatch_r = mismatch_r  #: instances of ``Q_r \ Q_s``
        self.mismatch_s = mismatch_s  #: instances of ``Q_s \ Q_r``
        self.epsilon_r = epsilon_r  #: ``|Q_r \ Q_s|``
        self.epsilon_s = epsilon_s  #: ``|Q_s \ Q_r|``
        self.required_mask_r = required_mask_r
        self.required_mask_s = required_mask_s
        self.count_pruned = count_pruned
        self._absent_r = absent_keys_r
        self._absent_s = absent_keys_s
        self._runs_r = runs_r
        self._runs_s = runs_s
        self._surplus_r = surplus_r
        self._surplus_s = surplus_s

    @property
    def absent_keys_r(self) -> frozenset:
        """Keys of ``r`` with zero occurrences in ``s``."""
        if self._absent_r is None:
            self._absent_r = frozenset(
                gram.key
                for gram, required in zip(self.mismatch_r, self.required_mask_r)
                if required
            )
        return self._absent_r

    @property
    def absent_keys_s(self) -> frozenset:
        """Keys of ``s`` with zero occurrences in ``r``."""
        if self._absent_s is None:
            self._absent_s = frozenset(
                gram.key
                for gram, required in zip(self.mismatch_s, self.required_mask_s)
                if required
            )
        return self._absent_s

    def surplus_groups_r(
        self, p_r: "QGramProfile", p_s: "QGramProfile"
    ) -> List[Tuple[Sequence[QGram], int]]:
        """Demand groups for the multicover bound, direction r -> s.

        For every surplus key: (*all* of r's instances of the key, the
        surplus count).  Any edit script must affect at least the
        surplus count of instances of each group — the sound
        generalization of instance-level min-edit to partially matched
        keys (see :mod:`repro.setcover.multicover`).  On the merge path
        the groups are slices of the contiguous surplus runs recorded
        during the one-pass merge; on the Counter path they are built
        from the surplus counts cached by :func:`compare_qgrams`
        (computed once, not re-derived per call).
        """
        if self._runs_r is not None:
            return [(p_r.grams[a:b], need) for a, b, need in self._runs_r]
        surplus = self._surplus_r
        if surplus is None:
            surplus = _surplus_counts(p_r, p_s)
        return _groups_from_surplus(p_r, surplus)

    def surplus_groups_s(
        self, p_r: "QGramProfile", p_s: "QGramProfile"
    ) -> List[Tuple[Sequence[QGram], int]]:
        """Demand groups for the multicover bound, direction s -> r."""
        if self._runs_s is not None:
            return [(p_s.grams[a:b], need) for a, b, need in self._runs_s]
        surplus = self._surplus_s
        if surplus is None:
            surplus = _surplus_counts(p_s, p_r)
        return _groups_from_surplus(p_s, surplus)


def _surplus_counts(p: QGramProfile, other: QGramProfile) -> Dict[Key, int]:
    """Per-key surplus ``max(0, c_p − c_other)`` (positive entries only)."""
    surplus: Dict[Key, int] = {}
    other_counts = other.key_counts
    for key, count in p.key_counts.items():
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


def _groups_from_surplus(
    p: QGramProfile, surplus: Dict[Key, int]
) -> List[Tuple[Sequence[QGram], int]]:
    if not surplus:
        return []
    by_key: Dict[Key, List[QGram]] = defaultdict(list)
    for gram in p.grams:
        if gram.key in surplus:
            by_key[gram.key].append(gram)
    return [(by_key[key], need) for key, need in surplus.items()]


def mismatching_grams(p: QGramProfile, other: QGramProfile) -> List[QGram]:
    """Instances of ``Q_p \\ Q_other`` (one direction of the difference)."""
    return _pick_instances(p, _surplus_counts(p, other))


def _counter_compare(
    p_r: QGramProfile, p_s: QGramProfile, tau: Optional[int]
) -> MismatchResult:
    """The Counter path (historical computation over object keys)."""
    surplus_r = _surplus_counts(p_r, p_s)
    surplus_s = _surplus_counts(p_s, p_r)
    mr = _pick_instances(p_r, surplus_r)
    ms = _pick_instances(p_s, surplus_s)
    absent_r = frozenset(
        key for key in p_r.key_counts if key not in p_s.key_counts
    )
    absent_s = frozenset(
        key for key in p_s.key_counts if key not in p_r.key_counts
    )
    mask_r = [gram.key in absent_r for gram in mr]
    mask_s = [gram.key in absent_s for gram in ms]
    pruned = tau is not None and (
        len(mr) > tau * p_r.d_path or len(ms) > tau * p_s.d_path
    )
    return MismatchResult(
        mr,
        ms,
        len(mr),
        len(ms),
        mask_r,
        mask_s,
        count_pruned=pruned,
        absent_keys_r=absent_r,
        absent_keys_s=absent_s,
        surplus_r=surplus_r,
        surplus_s=surplus_s,
    )


def _merge_compare(
    p_r: QGramProfile, p_s: QGramProfile, tau: Optional[int]
) -> MismatchResult:
    """One-pass linear merge over two sorted interned id arrays.

    Produces ε₂/ε₃, the mismatch instances (earliest in the global
    ordering, exactly the Counter path's selection — surplus runs are
    contiguous in the sorted gram lists), the absent-key masks and the
    surplus runs together, bailing out as soon as a count bound is
    exceeded when ``tau`` is given (the pair is then pruned whatever the
    final epsilons would be, since they only grow).
    """
    sig_r, sig_s = p_r.signature, p_s.signature
    grams_r, grams_s = p_r.grams, p_s.grams
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
    runs_r: List[SurplusRun] = []
    runs_s: List[SurplusRun] = []
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
                runs_r.append((i0, i, d))
                mismatch_r.extend(grams_r[i0 : i0 + d])
                mask_r += [False] * d
            elif c_s > c_r:
                d = c_s - c_r
                eps_s += d
                runs_s.append((j0, j, d))
                mismatch_s.extend(grams_s[j0 : j0 + d])
                mask_s += [False] * d
        elif a < b:
            i0 = i
            i += 1
            while i < n and sig_r[i] == a:
                i += 1
            c_r = i - i0
            eps_r += c_r
            runs_r.append((i0, i, c_r))
            mismatch_r.extend(grams_r[i0:i])
            mask_r += [True] * c_r
        else:
            j0 = j
            j += 1
            while j < m and sig_s[j] == b:
                j += 1
            c_s = j - j0
            eps_s += c_s
            runs_s.append((j0, j, c_s))
            mismatch_s.extend(grams_s[j0:j])
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
        runs_r.append((i0, i, c_r))
        mismatch_r.extend(grams_r[i0:i])
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
        runs_s.append((j0, j, c_s))
        mismatch_s.extend(grams_s[j0:j])
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
        runs_r=None if pruned else runs_r,
        runs_s=None if pruned else runs_s,
    )


def compare_qgrams(
    p_r: QGramProfile, p_s: QGramProfile, tau: Optional[int] = None
) -> MismatchResult:
    """Bidirectional mismatching q-grams with their counts (Algorithm 6).

    When both profiles carry a total interned signature from the same
    vocabulary, the comparison is a single linear merge over the sorted
    id arrays; otherwise the Counter path runs.  Both
    produce identical results.  ``tau``, when given, enables the count
    filter's early bailout: once ``ε > τ·D_path`` on either side the
    result comes back with ``count_pruned=True`` (and possibly partial
    instance lists) — exactly the pairs the count filter rejects.
    """
    if (
        p_r.signature_total
        and p_s.signature_total
        and p_r.signature_source is p_s.signature_source
        and p_r.signature_source is not None
    ):
        return _merge_compare(p_r, p_s, tau)
    return _counter_compare(p_r, p_s, tau)
