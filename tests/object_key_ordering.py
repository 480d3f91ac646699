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

Labels follow the same rule as keys, as the join's
:class:`repro.grams.qgrams.LabelTable` ranks them: a label of the graphs
the ordering was built on ranks by ``repr``, a later one after every
built label, in arrival order (vertex labels in vertex order, edge
labels in edge order).  A path orients by those ranks, so the oracle
re-orients every key it sorts instead of trusting the profile's.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Tuple

from repro.grams.qgrams import Key, QGram, QGramProfile
from repro.graph.graph import Graph, Label

__all__ = ["QGramOrdering", "build_ordering"]

#: Per label kind (vertex, edge): each label seen -> its sort token.
LabelTokens = Tuple[Dict[Label, tuple], Dict[Label, tuple]]


def _graph_labels(g: Graph) -> Tuple[List[Label], List[Label]]:
    """``g``'s vertex labels in vertex order and edge labels in edge order."""
    return (
        [g.vertex_label(v) for v in g.vertices()],
        [label for _, _, label in g.edges()],
    )


def _arrive(tokens: LabelTokens, g: Graph) -> None:
    """Give ``g``'s labels not in ``tokens`` the next arrival tokens."""
    for seen, labels in zip(tokens, _graph_labels(g)):
        late = sum(1 for token in seen.values() if token[0] == 1)
        for label in labels:
            if label not in seen:
                seen[label] = (1, late)
                late += 1


def orient(key: Key, tokens: LabelTokens, directed: bool) -> Key:
    """The reading of ``key``'s path that is smaller in ``tokens``."""
    if directed:
        return key
    backward = key[::-1]
    forward_tokens = [tokens[i % 2][label] for i, label in enumerate(key)]
    backward_tokens = [tokens[i % 2][label] for i, label in enumerate(backward)]
    return backward if backward_tokens < forward_tokens else key


class QGramOrdering:
    """A global ordering of the q-gram universe.

    Instances are callables mapping a q-gram key to a sortable token.
    Keys unseen when the ordering was built (possible when it was built
    on a subset, e.g. in streaming index inserts) sort after all seen
    keys, among themselves in the order a sorted profile first brought
    them (:attr:`arrivals`).  :attr:`labels` holds the label tokens
    keys orient by.
    """

    __slots__ = ("document_frequency", "arrivals", "labels")

    def __init__(
        self, document_frequency: Dict[Key, int], labels: LabelTokens
    ) -> None:
        self.document_frequency = document_frequency
        #: Rank of each unseen key among the unseen, by first arrival.
        self.arrivals: Dict[Key, int] = {}
        self.labels = labels

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

        The profile must be unsorted: its unseen labels and keys arrive
        in enumeration order.  Every key is re-oriented by the label
        tokens first.  ``intern=False`` ranks unseen labels and keys the
        same way without recording them (an index query).  The
        profile's ``grams`` list is also replaced in place so later
        phases (prefix probing, mismatch extraction) see the sorted
        view.
        """
        if intern:
            arrivals, labels = self.arrivals, self.labels
        else:
            arrivals = dict(self.arrivals)
            labels = (dict(self.labels[0]), dict(self.labels[1]))
        g = profile.graph
        _arrive(labels, g)
        grams = profile.grams
        grams[:] = [
            QGram(orient(gram.key, labels, g.is_directed), gram.path)
            for gram in grams
        ]
        for gram in grams:
            if gram.key not in self.document_frequency:
                arrivals.setdefault(gram.key, len(arrivals))
        grams.sort(key=lambda gram: self._token(gram.key, arrivals))
        return grams


def build_ordering(profiles: Iterable[QGramProfile]) -> QGramOrdering:
    """Build the ascending-document-frequency ordering over ``profiles``.

    Every label of their graphs is a built label, ranked by ``repr``.
    """
    profiles = list(profiles)
    labels: LabelTokens = ({}, {})
    for profile in profiles:
        for seen, graph_labels in zip(labels, _graph_labels(profile.graph)):
            for label in graph_labels:
                seen.setdefault(label, (0, repr(label)))
    df: Dict[Key, int] = {}
    for profile in profiles:
        keys = Counter(
            orient(gram.key, labels, profile.graph.is_directed)
            for gram in profile.grams
        )
        for key in keys:
            df[key] = df.get(key, 0) + 1
    return QGramOrdering(df, labels)
