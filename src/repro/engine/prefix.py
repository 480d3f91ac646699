"""Prefix filtering (Section III-C, Lemmas 2–3).

If two q-gram multisets, sorted in one global ordering, must share at
least ``α >= 1`` q-grams, then their ``(|Q|−α+1)``-prefixes must share at
least one (Lemma 2) — so only prefixes need indexing and probing.  The
basic prefix length is ``τ·D_path + 1``; minimum edit filtering
(Lemma 3) shrinks it to the shortest prefix needing ``τ+1`` edits.

A graph whose *entire* multiset can be affected by ``τ`` operations
(``|Q| <= τ·D_path`` for the basic scheme, no valid minimum-edit prefix
for Lemma 3) is *unprunable*: no prefix argument applies to it and the
join must pair it with every graph (the paper's "underflowing"
phenomenon, which it only discusses for κ-AT but which equally affects
small or q-gram-poor graphs here).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.grams.minedit import min_prefix_length_direct
from repro.grams.qgrams import QGramProfile
from repro.exceptions import ParameterError

__all__ = ["PrefixInfo", "basic_prefix", "minedit_prefix"]


@dataclass(frozen=True)
class PrefixInfo:
    """Prefix scheme decision for one graph.

    Attributes
    ----------
    length:
        Number of leading (globally sorted) q-grams to index and probe.
    prunable:
        ``False`` means prefix filtering is unsound for this graph and it
        must be paired with every other graph (size filtering aside).
    """

    length: int
    prunable: bool


def basic_prefix(profile: QGramProfile, tau: int) -> PrefixInfo:
    """Basic prefix of Lemma 2: ``τ·D_path(r) + 1``, clamped to ``|Q_r|``."""
    if tau < 0:
        raise ParameterError(f"tau must be >= 0, got {tau}")
    ideal = tau * profile.d_path + 1
    if profile.size >= ideal:
        return PrefixInfo(length=ideal, prunable=True)
    return PrefixInfo(length=profile.size, prunable=False)


def minedit_prefix(profile: QGramProfile, tau: int) -> PrefixInfo:
    """Minimum edit filtering prefix of Lemma 3 (Algorithm 4).

    ``profile`` must already carry the global ordering (see
    :meth:`repro.grams.vocab.QGramVocabulary.sort_profile`); the search
    reads the dense-id paths of its first ``τ·D_path + 1`` q-grams by
    index.  Runs the direct single-sweep implementation of Algorithm 4;
    the paper's double binary search
    (:func:`repro.grams.minedit.min_prefix_length`) returns identical
    lengths and is kept as its test oracle.
    """
    paths = profile.prefix_walks(tau * profile.d_path + 1)
    length = min_prefix_length_direct(paths, tau, profile.d_path)
    if length is None:
        return PrefixInfo(length=profile.size, prunable=False)
    return PrefixInfo(length=length, prunable=True)
