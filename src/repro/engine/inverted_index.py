"""In-memory inverted index over q-gram keys.

Maps each q-gram key to the posting list of graph ids whose *prefix*
contains the key (Algorithm 1 builds it on the fly while scanning the
collection, so at the time graph ``r`` probes, the index holds exactly
the earlier graphs).

Keys are any hashable value.  The join indexes dense integer ids from
:class:`repro.grams.vocab.QGramVocabulary` (cheaper to hash and compare
than path-label tuples).

The index also reports its memory footprint the way the paper measures
it: each q-gram is hashed to a 4-byte integer and each posting is a
4-byte graph id, so ``size = 4·(#distinct keys) + 4·(#postings)`` bytes.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

__all__ = ["InvertedIndex"]

Key = Hashable

_EMPTY: Tuple = ()


class InvertedIndex:
    """q-gram key -> posting list of graph ids."""

    __slots__ = ("_lists", "_num_postings")

    def __init__(self) -> None:
        self._lists: Dict[Key, List[Hashable]] = {}
        self._num_postings = 0

    def add(self, key: Key, graph_id: Hashable) -> None:
        """Append ``graph_id`` to the posting list of ``key``.

        A graph indexing the same key several times (duplicate q-grams in
        its prefix) produces duplicate postings, exactly as Algorithm 1's
        ``I_w ← I_w ∪ {r}`` per prefix *position*; probes dedupe by id.
        """
        self._lists.setdefault(key, []).append(graph_id)
        self._num_postings += 1

    def probe(self, key: Key) -> Sequence[Hashable]:
        """The posting list of ``key`` (possibly empty).

        Returns the list itself, not a copy — callers iterate, they must
        not mutate.
        """
        return self._lists.get(key, _EMPTY)

    def add_all(self, keys: Iterable[Key], graph_id: Hashable) -> None:
        for key in keys:
            self.add(key, graph_id)

    @property
    def num_distinct_keys(self) -> int:
        return len(self._lists)

    @property
    def num_postings(self) -> int:
        return self._num_postings

    @property
    def size_bytes(self) -> int:
        """Footprint under the paper's cost model (4-byte hash + 4-byte id)."""
        return 4 * self.num_distinct_keys + 4 * self.num_postings

    def __len__(self) -> int:
        return self.num_distinct_keys
