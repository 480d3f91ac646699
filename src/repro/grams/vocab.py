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

Keys unseen at build time get fresh *overflow* ids past the frozen
range when a graph is inserted (:meth:`repro.core.search.GSimIndex.add`),
and temporary ids past every interned one when a graph is only queried
with, so queries never grow the vocabulary.  Both preserve the "unknown
sorts last" contract exactly: they rank after every frozen id and among
themselves by the key's ``repr`` (the historical tie-break), and a
profile containing any of them is marked non-mergeable so pairwise
comparison falls back to the Counter path of
:func:`repro.grams.mismatch.compare_qgrams` for that profile only.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.grams.qgrams import Key, QGramProfile

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

    def sort_profile(self, profile: QGramProfile, intern: bool = True) -> None:
        """Intern and sort a profile's q-grams in the global ordering.

        Interns the profile's distinct keys only (in order of first
        enumeration, so overflow ids are assigned exactly as a per-gram
        pass would) and attaches the sorted ``signature`` and the sort
        permutation ``order`` (equal keys keep their enumeration order —
        the sort is stable).  On the common all-frozen path this is a
        pure integer sort; overflow ids take the ``repr``-ranked token
        path and mark the signature non-mergeable
        (``signature_total=False``).

        ``intern=False`` sorts a profile that is only probed with, never
        stored (an index query): its unseen keys get temporary ids past
        the vocabulary, ranked by the same ``repr`` token as overflow
        ids, so the order, the prefix and every comparison equal those
        of the interning path while the vocabulary does not grow.
        """
        reprs: List[str] = []
        if intern:
            key_ids = [self.intern(key) for key in profile.keys]
        else:
            key_ids = []
            for key in profile.keys:
                key_id = self._ids.get(key)
                if key_id is None:
                    key_id = len(self._keys) + len(reprs)
                    reprs.append(repr(key))
                key_ids.append(key_id)
        ids = [key_ids[k] for k in profile.gram_keys]
        if not key_ids or max(key_ids) < self.frozen_size:
            profile.attach_signature(ids, source=self)
        elif not reprs:
            profile.attach_signature(ids, source=self, sort_token=self.sort_token)
        else:
            size = len(self._keys)
            profile.attach_signature(
                ids,
                source=self,
                sort_token=lambda key_id: (
                    self.sort_token(key_id)
                    if key_id < size
                    else (1, 0, reprs[key_id - size])
                ),
            )


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
