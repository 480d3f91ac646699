"""Interned integer q-gram signatures — the global ordering as ids.

Every profile of one collection is coded under one
:class:`~repro.grams.qgrams.LabelTable`, so a q-gram's code is the same
integer in every graph.  :class:`QGramVocabulary` interns each distinct
code to a dense integer id *assigned in global-ordering rank* (ascending
document frequency, deterministic lexicographic tie-break on the
``repr`` of the code's label-tuple key), so the ids **are** the
ordering:

* :func:`build_vocabulary` counts document frequency over codes and
  decodes each distinct code once, for its ``repr`` tie-break;
* :meth:`QGramVocabulary.sort_profile` interns integers and sorts them,
  with no key built and no ``repr`` called;
* the inverted index is keyed by small ints instead of label tuples;
* ``compare_qgrams`` is a single linear merge over two sorted id
  arrays (see :mod:`repro.grams.mismatch`).

Codes unseen at build time get fresh *overflow* ids past the built range
when a graph is inserted (:meth:`repro.core.search.GSimIndex.add`), and
temporary ids past every interned one when a graph is only queried
with, so queries never grow the vocabulary.  Both keep the "unknown
sorts last" contract: they rank after every built id and among
themselves in the order they are first seen, which is ascending id.
Ascending id is therefore the global ordering of every signature, and
any two profiles sorted by one vocabulary merge.

A vocabulary keys its codes at one digit width.  When its table widens
(a long-lived index admits a label past the digits' range), the next
profile sorted at the wider width re-keys the vocabulary's distinct
codes in one pass; stored signatures are ids and do not move.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence

from repro.exceptions import ParameterError
from repro.grams.qgrams import Key, LabelTable, QGramProfile, recode

__all__ = ["QGramVocabulary", "build_vocabulary"]


class QGramVocabulary:
    """Dense integer ids for the q-gram codes of one label table, in
    global-ordering rank.

    The constructor takes the code universe *already ranked* (ascending
    document frequency, ``repr`` tie-break) and cut at the table's
    current width — use :func:`build_vocabulary` to derive the ranking
    from a profile collection.  Sorting a profile interns its unseen
    codes as the next ids, so codes interned later rank after every
    earlier one.  ``q`` is learnt from the first profile when not given.
    """

    __slots__ = ("table", "q", "width", "_codes", "_ids")

    def __init__(
        self,
        table: LabelTable,
        codes_in_rank_order: Iterable[int] = (),
        q: Optional[int] = None,
    ) -> None:
        self.table = table
        self.q = q
        self.width = table.width
        self._codes: List[int] = list(codes_in_rank_order)
        self._ids: Dict[int, int] = {code: i for i, code in enumerate(self._codes)}

    def __len__(self) -> int:
        return len(self._codes)

    def __contains__(self, code: int) -> bool:
        return code in self._ids

    def key_of(self, key_id: int) -> Key:
        """Inverse lookup: the label-tuple key interned as ``key_id``."""
        if self.q is None:
            raise ParameterError("the vocabulary has no codes to decode yet")
        return self.table.keys(self.q, self.width).decode(self._codes[key_id])

    def _rekey(self, q: int, width: int) -> None:
        """Re-cut every interned code at the table's wider ``width``."""
        self._codes = recode(self._codes, q, self.width, width)
        self._ids = {code: i for i, code in enumerate(self._codes)}
        self.width = width

    def _codes_of(self, profile: QGramProfile, intern: bool) -> Sequence[int]:
        """``profile``'s distinct codes at this vocabulary's width.

        Refuses a profile coded under another table; a query profile
        (``intern=False``) may be coded under a temporary extension of
        it.  A profile coded after the table widened re-keys the
        vocabulary first; a query whose temporary labels needed wider
        digits narrows its codes back, a code that does not narrow
        (``-1``) holding an unseen label anyway.
        """
        table = profile.table
        if table is not self.table and (intern or table.base is not self.table):
            raise ParameterError(
                "the profile is coded under another label table than the "
                "vocabulary's; extract every profile under one table"
            )
        if self.q is None:
            self.q = profile.q
        elif profile.q != self.q:
            raise ParameterError(
                f"the profile holds {profile.q}-grams, the vocabulary {self.q}-grams"
            )
        if profile.width > self.width and table is self.table:
            self._rekey(profile.q, profile.width)
        if profile.width == self.width:
            return profile.codes
        return recode(profile.codes, profile.q, profile.width, self.width)

    def sort_profile(self, profile: QGramProfile, intern: bool = True) -> None:
        """Intern and sort a profile's q-grams in the global ordering.

        Interns the profile's distinct codes only, in order of first
        enumeration (so unseen codes get overflow ids exactly as a
        per-gram pass would assign them), and attaches the sorted
        ``signature`` and the sort permutation ``order`` — one integer
        sort; equal codes keep their enumeration order (the sort is
        stable).

        ``intern=False`` sorts a profile that is only probed with, never
        stored (an index query): its unseen codes get temporary ids past
        the vocabulary in the same first-enumeration order, so the
        order, the prefix and every comparison equal those of the
        interning path while the vocabulary does not grow.

        Raises
        ------
        ParameterError
            When the profile is coded under another label table, or
            holds q-grams of another length.
        """
        codes = self._codes_of(profile, intern)
        ids = self._ids
        try:
            key_ids = [ids[code] for code in codes]
        except KeyError:
            key_ids = []
            next_id = len(self._codes)
            for code in codes:
                key_id = ids.get(code)
                if key_id is None:
                    key_id = next_id
                    next_id += 1
                    if intern:
                        ids[code] = key_id
                        self._codes.append(code)
                key_ids.append(key_id)
        profile.attach_signature([key_ids[k] for k in profile.gram_keys], self)


def build_vocabulary(
    profiles: Sequence[QGramProfile], table: Optional[LabelTable] = None
) -> QGramVocabulary:
    """Build the vocabulary over ``profiles`` in global-ordering rank.

    The rank is ascending document frequency (number of profiles
    containing the code) with a deterministic lexicographic tie-break
    on the ``repr`` of its key — each distinct code is decoded once,
    here, instead of inside every later sort comparison.  Every profile
    must be coded under ``table`` (by default the first profile's).

    Raises
    ------
    ParameterError
        When the profiles are coded under two different tables.
    """
    if table is None:
        if not profiles:
            return QGramVocabulary(LabelTable())
        table = profiles[0].table
    vocabulary = QGramVocabulary(table)
    df = Counter(
        chain.from_iterable(
            vocabulary._codes_of(profile, True) for profile in profiles
        )
    )
    if vocabulary.q is None:
        return vocabulary
    decode = table.keys(vocabulary.q, vocabulary.width).decode
    ranked = sorted((count, repr(decode(code)), code) for code, count in df.items())
    return QGramVocabulary(table, [code for _, _, code in ranked], vocabulary.q)
