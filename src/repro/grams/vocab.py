"""Interned integer q-gram signatures — the global ordering as ids.

Every hot loop of the pipeline used to manipulate q-gram keys as tuples
of arbitrary label objects: the global ordering called ``repr`` inside
every sort comparison, the inverted index hashed full label tuples, and
``compare_qgrams`` rebuilt Counter dictionaries for every candidate
pair.  :class:`QGramVocabulary` removes all of that by interning each
distinct key to a dense integer id *assigned in global-ordering rank*
(ascending document frequency, deterministic lexicographic tie-break on
``repr``), so the ids **are** the ordering:

* :meth:`QGramVocabulary.sort_profile` is a pure integer sort with zero
  ``repr`` calls;
* the inverted index is keyed by small ints instead of label tuples;
* ``compare_qgrams`` becomes a single linear merge over two sorted id
  arrays (see :mod:`repro.grams.mismatch`).

Keys unseen at build time (streaming :meth:`repro.core.search.GSimIndex.
add` / ``query``) get fresh *overflow* ids past the frozen range.  They
preserve the "unknown sorts last" contract exactly: overflow ids rank
after every frozen id and among themselves by the key's ``repr`` (the
historical tie-break), and a profile containing any overflow id is
marked non-mergeable so pairwise comparison falls back to the Counter
path of :func:`repro.grams.mismatch.compare_qgrams` for that profile
only.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.grams.qgrams import Key, QGram, QGramProfile

__all__ = ["QGramVocabulary", "build_vocabulary"]


class QGramVocabulary:
    """Dense integer ids for q-gram keys, in global-ordering rank.

    The constructor takes the key universe *already ranked* (ascending
    document frequency, ``repr`` tie-break) — use
    :func:`build_vocabulary` to derive the ranking from a profile
    collection.  Ids ``0 .. frozen_size-1`` are the frozen range;
    :meth:`intern` assigns overflow ids past it to unseen keys.
    """

    __slots__ = ("_ids", "_keys", "_overflow_reprs", "frozen_size")

    def __init__(self, keys_in_rank_order: Iterable[Key] = ()) -> None:
        self._keys: List[Key] = list(keys_in_rank_order)
        self._ids: Dict[Key, int] = {key: i for i, key in enumerate(self._keys)}
        #: Number of ids frozen at construction; smaller ids sort by value.
        self.frozen_size: int = len(self._keys)
        # repr of each overflow key, parallel to _keys[frozen_size:];
        # overflow ids sort by it (the historical unknown-key tie-break).
        self._overflow_reprs: List[str] = []

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: Key) -> bool:
        return key in self._ids

    def intern(self, key: Key) -> int:
        """Id of ``key``, assigning a fresh overflow id when unseen."""
        key_id = self._ids.get(key)
        if key_id is None:
            key_id = len(self._keys)
            self._ids[key] = key_id
            self._keys.append(key)
            self._overflow_reprs.append(repr(key))
        return key_id

    def get(self, key: Key) -> Optional[int]:
        """Id of ``key`` if already interned, else ``None`` (no mutation)."""
        return self._ids.get(key)

    def key_of(self, key_id: int) -> Key:
        """Inverse lookup: the key interned as ``key_id``."""
        return self._keys[key_id]

    def sort_token(self, key_id: int) -> Tuple[int, int, str]:
        """Sortable token ranking overflow ids after frozen ones by repr."""
        if key_id < self.frozen_size:
            return (0, key_id, "")
        return (1, 0, self._overflow_reprs[key_id - self.frozen_size])

    def sort_profile(self, profile: QGramProfile) -> List[QGram]:
        """Intern and sort a profile's q-grams in the global ordering.

        The profile's ``grams`` list is reordered (equal keys keep their
        enumeration order — the sort is stable) and its ``signature``
        array is attached, aligned with the sorted grams.  On the common
        all-frozen path this is a pure integer sort; overflow ids take
        the ``repr``-ranked token path and mark the signature
        non-mergeable (``signature_total=False``).
        """
        frozen = self.frozen_size
        ids = [self.intern(gram.key) for gram in profile.grams]
        if not ids or max(ids) < frozen:
            profile.attach_signature(ids, source=self)
        else:
            profile.attach_signature(ids, source=self, sort_token=self.sort_token)
        return profile.grams


def build_vocabulary(profiles: Iterable[QGramProfile]) -> QGramVocabulary:
    """Build the vocabulary over ``profiles`` in global-ordering rank.

    The rank is ascending document frequency (number of profiles
    containing the key) with a deterministic lexicographic tie-break on
    ``repr`` — computed once here instead of inside every later sort
    comparison.
    """
    df: Dict[Key, int] = {}
    for profile in profiles:
        for key in profile.key_counts:
            df[key] = df.get(key, 0) + 1
    ranked = sorted(df, key=lambda key: (df[key], repr(key)))
    return QGramVocabulary(ranked)
