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
* ``compare_qgrams`` is a single linear merge over two sorted id
  arrays (see :mod:`repro.grams.mismatch`).

Keys unseen at build time get fresh *overflow* ids past the built range
when a graph is inserted (:meth:`repro.core.search.GSimIndex.add`), and
temporary ids past every interned one when a graph is only queried
with, so queries never grow the vocabulary.  Both keep the "unknown
sorts last" contract: they rank after every built id and among
themselves in the order they are first seen, which is ascending id.
Ascending id is therefore the global ordering of every signature, and
any two profiles sorted by one vocabulary merge.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.grams.qgrams import Key, QGramProfile

__all__ = ["QGramVocabulary", "build_vocabulary"]


class QGramVocabulary:
    """Dense integer ids for q-gram keys, in global-ordering rank.

    The constructor takes the key universe *already ranked* (ascending
    document frequency, ``repr`` tie-break) — use
    :func:`build_vocabulary` to derive the ranking from a profile
    collection.  :meth:`intern` assigns the next id to an unseen key,
    so keys interned later rank after every earlier one.
    """

    __slots__ = ("_ids", "_keys")

    def __init__(self, keys_in_rank_order: Iterable[Key] = ()) -> None:
        self._keys: List[Key] = list(keys_in_rank_order)
        self._ids: Dict[Key, int] = {key: i for i, key in enumerate(self._keys)}

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: Key) -> bool:
        return key in self._ids

    def intern(self, key: Key) -> int:
        """Id of ``key``, assigning the next (overflow) id when unseen."""
        key_id = self._ids.get(key)
        if key_id is None:
            key_id = len(self._keys)
            self._ids[key] = key_id
            self._keys.append(key)
        return key_id

    def get(self, key: Key) -> Optional[int]:
        """Id of ``key`` if already interned, else ``None`` (no mutation)."""
        return self._ids.get(key)

    def key_of(self, key_id: int) -> Key:
        """Inverse lookup: the key interned as ``key_id``."""
        return self._keys[key_id]

    def sort_profile(self, profile: QGramProfile, intern: bool = True) -> None:
        """Intern and sort a profile's q-grams in the global ordering.

        Interns the profile's distinct keys only, in order of first
        enumeration (so unseen keys get overflow ids exactly as a
        per-gram pass would assign them), and attaches the sorted
        ``signature`` and the sort permutation ``order`` — one integer
        sort; equal keys keep their enumeration order (the sort is
        stable).

        ``intern=False`` sorts a profile that is only probed with, never
        stored (an index query): its unseen keys get temporary ids past
        the vocabulary in the same first-enumeration order, so the
        order, the prefix and every comparison equal those of the
        interning path while the vocabulary does not grow.
        """
        if intern:
            key_ids = [self.intern(key) for key in profile.keys]
        else:
            key_ids = []
            next_id = len(self._keys)
            for key in profile.keys:
                key_id = self._ids.get(key)
                if key_id is None:
                    key_id = next_id
                    next_id += 1
                key_ids.append(key_id)
        profile.attach_signature([key_ids[k] for k in profile.gram_keys], self)


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
