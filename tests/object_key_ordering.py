"""The object-key global q-gram ordering — a test oracle.

Prefix filtering (Lemma 2) needs every graph's q-gram multiset sorted in
one *global* ordering ``O``.  Rare q-grams make the best prefix members
— their inverted lists are short and they generate few candidates — so
the ordering is ascending document frequency (number of graphs containing
the q-gram), with a deterministic lexicographic tie-break on the key.

The join sorts by :class:`repro.grams.vocab.QGramVocabulary` ids, which
rank keys in this same order.  This module keeps the direct form — a
``(document frequency, repr(key))`` token per key, no signature attached
— as the object-key oracle of ``tests/legacy_drivers.py``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.grams.qgrams import Key, QGram, QGramProfile

__all__ = ["QGramOrdering", "build_ordering"]


class QGramOrdering:
    """A global ordering of the q-gram universe.

    Instances are callables mapping a q-gram key to a sortable token;
    unseen keys (possible when ordering was built on a subset, e.g. in
    streaming joins) sort after all seen keys, among themselves by key.
    """

    __slots__ = ("document_frequency",)

    def __init__(self, document_frequency: Dict[Key, int]) -> None:
        self.document_frequency = document_frequency

    def sort_token(self, key: Key) -> Tuple[int, str]:
        """Sortable token: (document frequency, repr of key)."""
        df = self.document_frequency.get(key)
        if df is None:
            # Unknown keys are conservatively treated as frequent.
            return (1 << 60, repr(key))
        return (df, repr(key))

    __call__ = sort_token

    def sort_profile(self, profile: QGramProfile) -> List[QGram]:
        """Return the profile's q-gram instances sorted in this ordering.

        The profile's ``grams`` list is also replaced in place so later
        phases (prefix probing, mismatch extraction) see the sorted view.
        """
        profile.grams.sort(key=lambda gram: self.sort_token(gram.key))
        return profile.grams


def build_ordering(profiles: Iterable[QGramProfile]) -> QGramOrdering:
    """Build the ascending-document-frequency ordering over ``profiles``."""
    df: Dict[Key, int] = {}
    for profile in profiles:
        for key in profile.key_counts:
            df[key] = df.get(key, 0) + 1
    return QGramOrdering(df)
