"""Count filtering on path-based q-grams (Theorem 1 / Lemma 1).

An edit operation on ``r`` affects at most ``D_path(r) = max_u |Q_u^r|``
q-grams, so two graphs within edit distance ``τ`` must share at least

    ``LB_path = max(|Q_r| − τ·D_path(r), |Q_s| − τ·D_path(s))``

q-grams (as a multiset intersection).  When ``LB_path <= 0`` the filter
is vacuous — the paper's *underflowing* — and the pair must be treated as
a candidate regardless of overlap.  The join applies the bound through
the mismatch counts of :func:`repro.grams.mismatch.compare_qgrams`
(``|Q_r| − |Q_r ∩ Q_s| = ε_r``), which bails out once it is exceeded.
"""

from __future__ import annotations

from repro.grams.qgrams import QGramProfile
from repro.exceptions import ParameterError
from repro.graph.graph import Graph

__all__ = [
    "count_lower_bound",
    "size_lower_bound",
    "passes_size_filter",
]


def count_lower_bound(p: QGramProfile, p2: QGramProfile, tau: int) -> int:
    """``LB_path`` of Lemma 1 (may be zero or negative: underflow)."""
    if tau < 0:
        raise ParameterError(f"tau must be >= 0, got {tau}")
    return max(p.count_lower_bound(tau), p2.count_lower_bound(tau))


def size_lower_bound(r: Graph, s: Graph) -> int:
    """``||V(r)|−|V(s)|| + ||E(r)|−|E(s)||`` — a trivial GED lower bound.

    Every vertex insertion/deletion changes ``|V|`` by one and every edge
    insertion/deletion changes ``|E|`` by one, while relabelings change
    neither, so GED is at least this sum (Algorithm 1, line 9).
    """
    return abs(r.num_vertices - s.num_vertices) + abs(r.num_edges - s.num_edges)


def passes_size_filter(r: Graph, s: Graph, tau: int) -> bool:
    """True iff the pair survives size filtering."""
    return size_lower_bound(r, s) <= tau
