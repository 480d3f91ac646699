"""Minimum edit filtering (Section IV, Algorithms 2–4).

The *minimum graph edit operation* problem asks, for a multiset ``Q`` of
q-gram instances, the minimum number of edit operations affecting every
q-gram in ``Q``.  Since the q-grams affected by any edit operation are a
subset of those affected by relabeling one of its vertices (Theorem 2's
key observation), the problem is exactly a minimum *hitting set* over the
q-grams' vertex sets — NP-hard in general, but only its comparison with
``τ`` matters, so a bounded exact search is cheap.  A greedy run divided
by the Slavík ratio gives a fast certified lower bound (Algorithm 2).

``min_prefix_length`` (Algorithm 4) shrinks the basic prefix
``τ·D_path + 1`` to the shortest prefix whose q-grams already require
``τ + 1`` edit operations — Lemma 3 then allows probing only that prefix.

Two implementations of Algorithm 4 coexist.  ``min_prefix_length`` is
the paper's double binary search (greedy bracket, then exact), kept
verbatim as the oracle.  ``min_prefix_length_direct`` computes the same
prefix with a single bounded branch-and-bound over hitting vertices —
the join uses it (see ``docs/PERFORMANCE.md``); both return
bit-identical results, asserted property-style in
``tests/test_vocab.py``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from repro.grams.qgrams import QGram
from repro.exceptions import ParameterError
from repro.graph.graph import Vertex
from repro.setcover import exact_min_hitting_set, greedy_lower_bound

__all__ = [
    "min_edit_exact",
    "min_edit_lower_bound",
    "min_prefix_length",
    "min_prefix_length_direct",
]


def min_edit_exact(grams: Sequence[QGram], cap: int) -> int:
    """Exact ``min-edit(Q)``, cut off at ``cap`` (Algorithm 3).

    Returns the exact minimum number of edit operations affecting every
    q-gram in ``grams`` if it is ``<= cap``, else ``cap + 1``.
    """
    if not grams:
        return 0
    return exact_min_hitting_set([g.vertex_set for g in grams], cap)


def min_edit_lower_bound(grams: Sequence[QGram]) -> int:
    """Greedy/Slavík lower bound on ``min-edit(Q)`` (Algorithm 2)."""
    if not grams:
        return 0
    return greedy_lower_bound([g.vertex_set for g in grams])


def min_prefix_length(
    sorted_grams: Sequence[QGram],
    tau: int,
    d_path: int,
) -> Optional[int]:
    """Minimum edit filtering prefix length (Algorithm 4).

    Parameters
    ----------
    sorted_grams:
        The graph's q-gram instances sorted in the global ordering.
    tau:
        The edit distance threshold.
    d_path:
        The graph's ``D_path`` (bounds the basic prefix).

    Returns
    -------
    The smallest prefix length ``p`` such that affecting all q-grams in
    the ``p``-prefix requires at least ``τ + 1`` edit operations, or
    ``None`` when no prefix achieves that (*underflow*: fewer than
    ``τ·D_path + 1`` q-grams exist and even the full multiset can be
    wiped out by ``τ`` operations, so the graph cannot be pruned by
    prefix filtering at all).

    Notes
    -----
    Exactly as in the paper, a first binary search with the cheap greedy
    lower bound narrows the range, and a second with the exact solver
    pins the answer.  The exact predicate is monotone (Proposition 1),
    making the second search correct; the first merely supplies an upper
    bracket, which we re-validate with the exact solver since the greedy
    bound itself need not be monotone.
    """
    if tau < 0:
        raise ParameterError(f"tau must be >= 0, got {tau}")
    total = len(sorted_grams)
    hard_right = min(tau * d_path + 1, total)
    if hard_right == 0:
        return None

    def exact_exceeds(p: int) -> bool:
        return min_edit_exact(sorted_grams[:p], tau) > tau

    # Underflow: even the longest admissible prefix can be affected by
    # <= tau operations -> prefix filtering cannot prune this graph.
    if not exact_exceeds(hard_right):
        return None

    lo = min(tau + 1, hard_right)

    # Round 1: greedy lower bound narrows the right bracket.
    left, right = lo, hard_right
    while left < right:
        mid = (left + right) // 2
        if min_edit_lower_bound(sorted_grams[:mid]) <= tau:
            left = mid + 1
        else:
            right = mid
    bracket = left
    if not exact_exceeds(bracket):
        # The greedy bound under-shot here (it is not monotone); fall
        # back to the guaranteed bracket.
        bracket = hard_right

    # Round 2: exact binary search within [lo, bracket].
    left, right = lo, bracket
    while left < right:
        mid = (left + right) // 2
        if exact_exceeds(mid):
            right = mid
        else:
            left = mid + 1
    return left


def _longest_hit_prefix(
    paths: Sequence[Tuple[Vertex, ...]], tau: int, cap: int
) -> int:
    """Longest prefix of ``paths`` hittable by ``<= tau`` vertices.

    Branch and bound: scan forward past grams already hit by the chosen
    vertices; at the first unhit gram, any hitting set must contain one
    of its vertices, so branch on them (depth ``tau``, branching at most
    ``q + 1``).  Saturates at ``cap`` — once a prefix of length ``cap``
    is hittable the exact maximum no longer matters to the caller.
    """
    best = 0
    chosen: Set[Vertex] = set()
    disjoint = chosen.isdisjoint

    def walk(start: int, budget: int) -> bool:
        nonlocal best
        i = start
        while i < cap and not disjoint(paths[i]):
            i += 1
        if i > best:
            best = i
        if i >= cap:
            return True  # saturated: the whole admissible prefix is hittable
        if budget == 0:
            return False
        for v in paths[i]:
            chosen.add(v)
            saturated = walk(i + 1, budget - 1)
            chosen.discard(v)
            if saturated:
                return True
        return False

    walk(0, tau)
    return best


def min_prefix_length_direct(
    sorted_grams: Sequence[QGram],
    tau: int,
    d_path: int,
) -> Optional[int]:
    """Algorithm 4 as a single bounded search (the join's implementation).

    Same contract and bit-identical results as
    :func:`min_prefix_length`, computed without binary searching: the
    answer ``p`` is one more than the longest prefix hittable by ``τ``
    vertices (min-edit is exactly a minimum hitting set over the grams'
    vertex sets, and a simple path never repeats a vertex, so the path
    tuples serve as the sets directly).  One branch-and-bound sweep
    replaces ``O(log p)`` greedy *and* exact hitting-set solves, each of
    which rebuilt its instance from scratch.
    """
    if tau < 0:
        raise ParameterError(f"tau must be >= 0, got {tau}")
    total = len(sorted_grams)
    hard_right = min(tau * d_path + 1, total)
    if hard_right == 0:
        return None
    paths = [gram.path for gram in sorted_grams[:hard_right]]
    hittable = _longest_hit_prefix(paths, tau, hard_right)
    if hittable >= hard_right:
        return None  # underflow: prefix filtering cannot prune this graph
    return hittable + 1
