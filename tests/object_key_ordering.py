"""The object-key global q-gram ordering — a test oracle.

Prefix filtering (Lemma 2) needs every graph's q-gram multiset sorted in
one *global* ordering ``O``.  Rare q-grams make the best prefix members
— their inverted lists are short and they generate few candidates — so
the ordering is ascending document frequency (number of graphs containing
the q-gram), with a deterministic lexicographic tie-break on the key.

The join sorts by :class:`repro.grams.vocab.QGramVocabulary` ids, which
rank keys in this same order.  This module keeps the direct form — a
``(document frequency, repr(key))`` token per key, no signature attached
— as the object-key oracle of ``tests/legacy_drivers.py``.  Keys the
ordering was not built on rank after every built key, among themselves
in the order they first arrive, as the vocabulary's overflow ids do.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.grams.qgrams import Key, QGram, QGramProfile

__all__ = ["QGramOrdering", "build_ordering"]


class QGramOrdering:
    """A global ordering of the q-gram universe.

    Instances are callables mapping a q-gram key to a sortable token.
    Keys unseen when the ordering was built (possible when it was built
    on a subset, e.g. in streaming index inserts) sort after all seen
    keys, among themselves in the order a sorted profile first brought
    them (:attr:`arrivals`).
    """

    __slots__ = ("document_frequency", "arrivals")

    def __init__(self, document_frequency: Dict[Key, int]) -> None:
        self.document_frequency = document_frequency
        #: Rank of each unseen key among the unseen, by first arrival.
        self.arrivals: Dict[Key, int] = {}

    def sort_token(self, key: Key) -> Tuple[int, int, str]:
        """Sortable token: (0, document frequency, repr of key) for a
        seen key, (1, arrival rank, "") for an unseen one (a key that
        has not arrived yet ranks after every arrived one)."""
        return self._token(key, self.arrivals)

    __call__ = sort_token

    def _token(self, key: Key, arrivals: Dict[Key, int]) -> Tuple[int, int, str]:
        df = self.document_frequency.get(key)
        if df is None:
            return (1, arrivals.get(key, len(arrivals)), "")
        return (0, df, repr(key))

    def sort_profile(self, profile: QGramProfile, intern: bool = True) -> List[QGram]:
        """Return the profile's q-gram instances sorted in this ordering.

        The profile must be unsorted: its unseen keys arrive in
        enumeration order.  ``intern=False`` ranks them the same way
        without recording them (an index query).  The profile's
        ``grams`` list is also replaced in place so later phases (prefix
        probing, mismatch extraction) see the sorted view.
        """
        arrivals = self.arrivals if intern else dict(self.arrivals)
        for gram in profile.grams:
            if gram.key not in self.document_frequency:
                arrivals.setdefault(gram.key, len(arrivals))
        profile.grams.sort(key=lambda gram: self._token(gram.key, arrivals))
        return profile.grams


def build_ordering(profiles: Iterable[QGramProfile]) -> QGramOrdering:
    """Build the ascending-document-frequency ordering over ``profiles``."""
    df: Dict[Key, int] = {}
    for profile in profiles:
        for key in profile.key_counts:
            df[key] = df.get(key, 0) + 1
    return QGramOrdering(df)
