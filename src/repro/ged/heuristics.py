"""Admissible heuristics ``h(x)`` for the A* GED search.

All heuristics lower-bound the cost of completing a partial vertex
mapping, keeping A* exact:

* :func:`zero_heuristic` — Dijkstra-style baseline;
* :func:`label_heuristic` — ``Γ`` label bound on the remaining parts
  (the unweighted form of Riesen et al.'s bipartite heuristic, which the
  paper notes "becomes exactly the result of global label filtering");
* :func:`make_local_label_heuristic` — the paper's *improved h(x)*
  (Algorithm 8): the maximum of the global label bound and both-direction
  local label filtering bounds computed on the remaining subgraphs.  Only
  the object A* runs it (the Fig 6(e) bench and the tests); the join's
  compiled verifiers run the ``Γ`` bound alone, which measured faster.

Admissibility notes.  The remaining part ``r_q`` contributes its
unmapped vertices and the edges *resident* on them (at least one
unmapped endpoint) — every edit operation still to be paid touches those
only, and each remaining-label surplus needs a distinct operation, so
the ``Γ`` sum is a lower bound.  The local-label term is evaluated on
the *induced* remaining subgraphs (both endpoints unmapped): completing
the mapping restricted to those subgraphs is itself a valid full mapping
between them, so ``ged(r_induced, s_induced)`` — and any lower bound on
it — under-estimates the remaining cost.
"""

from __future__ import annotations

from collections import Counter
from typing import AbstractSet, Callable, Optional, Sequence

from repro.grams.labels import gamma, local_label_lower_bound
from repro.grams.mismatch import compare_qgrams
from repro.grams.qgrams import LabelTable, extract_qgrams
from repro.grams.vocab import QGramVocabulary
from repro.graph.graph import Graph, Vertex

__all__ = [
    "Heuristic",
    "zero_heuristic",
    "label_heuristic",
    "make_local_label_heuristic",
]

#: Heuristic signature: (r, s, unmapped r vertices, unused s vertices) -> int.
Heuristic = Callable[[Graph, Graph, Sequence[Vertex], AbstractSet[Vertex]], int]


def zero_heuristic(
    r: Graph, s: Graph, r_rest: Sequence[Vertex], s_rest: AbstractSet[Vertex]
) -> int:
    """The trivial heuristic (turns A* into uniform-cost search)."""
    return 0


def _remaining_label_bound(
    r: Graph, s: Graph, r_rest: Sequence[Vertex], s_rest: AbstractSet[Vertex]
) -> int:
    r_set = set(r_rest)
    rv = Counter(r.vertex_label(v) for v in r_rest)
    sv = Counter(s.vertex_label(v) for v in s_rest)
    re = Counter(
        label
        for u, v, label in r.edges()
        if u in r_set or v in r_set
    )
    se = Counter(
        label
        for u, v, label in s.edges()
        if u in s_rest or v in s_rest
    )
    return gamma(rv, sv) + gamma(re, se)


def label_heuristic(
    r: Graph, s: Graph, r_rest: Sequence[Vertex], s_rest: AbstractSet[Vertex]
) -> int:
    """``Γ(L_V) + Γ(L_E)`` over the remaining parts (resident edges)."""
    return _remaining_label_bound(r, s, r_rest, s_rest)


def make_local_label_heuristic(
    q: int, tau: int, max_remaining: Optional[int] = 8
) -> Heuristic:
    """Build the paper's improved ``h(x)`` (Algorithm 8) for the object A*.

    ``q`` is the q-gram length; ``tau`` caps the per-component exact
    min-edit searches (the search never needs values beyond ``τ + 1``).
    The value is ``max(ε₁, ε₄, ε₅)``: the ``Γ`` bound, and both-direction
    local label filtering bounds evaluated on the *induced* remaining
    subgraphs (see the module docstring for the admissibility argument).

    The returned heuristic memoizes each remainder's subgraph, q-gram
    profile and label multisets by remaining vertex set: the fixed
    mapping order makes every ``r``-side remainder depend only on the
    search depth (n distinct sets per A* run), and ``s``-side
    remainders recur across branches, so the dominant cost — q-gram
    extraction — is paid once per distinct remainder.  The cached
    profiles are extracted under one label table of the heuristic's own
    (labels ranked in the order first seen) and sorted under one
    vocabulary over it (keys ranked in the order first seen), so every
    comparison is :func:`~repro.grams.mismatch.compare_qgrams`' merge.

    ``max_remaining`` gates the local-label term to states whose
    remainders have at most that many vertices; larger remainders fall
    back to the ``Γ`` bound.  The gate trades heuristic strength for
    per-state cost without affecting admissibility — pass ``None`` to
    evaluate Algorithm 8 at every state, as the paper's C++
    implementation does (it prunes the most states but is far slower in
    CPython).  ``bench_ablation_heuristic_gate`` sweeps the gate: on its
    PROTEIN-like pairs at τ=4, 8 (the default here) took 9.52 s against
    9.02 s at 0, where the term never fires.  The join's verifiers
    therefore run :func:`label_heuristic` alone; this heuristic serves
    the Fig 6(e) bench, the gate ablation and the tests.
    """

    profile_cache: dict = {}
    table = LabelTable()
    vocabulary = QGramVocabulary(table, q=q)

    def remainder(g: Graph, rest: frozenset) -> tuple:
        key = (id(g), rest)
        entry = profile_cache.get(key)
        if entry is None:
            sub = g.subgraph(rest)
            labels = (sub.vertex_label_multiset(), sub.edge_label_multiset())
            table.admit(sub)
            profile = extract_qgrams(sub, q, table)
            vocabulary.sort_profile(profile)
            entry = (sub, profile, labels)
            profile_cache[key] = entry
        return entry

    def improved_h(
        r: Graph, s: Graph, r_rest: Sequence[Vertex], s_rest: AbstractSet[Vertex]
    ) -> int:
        eps1 = _remaining_label_bound(r, s, r_rest, s_rest)
        if eps1 > tau or not r_rest or not s_rest:
            return eps1
        if max_remaining is not None and (
            len(r_rest) > max_remaining or len(s_rest) > max_remaining
        ):
            return eps1
        r_sub, p_r, r_labels = remainder(r, frozenset(r_rest))
        s_sub, p_s, s_labels = remainder(s, frozenset(s_rest))
        mismatch = compare_qgrams(p_r, p_s)
        eps4 = local_label_lower_bound(
            mismatch.mismatch_r, r_sub, s_sub, tau,
            other_labels=s_labels, required_mask=mismatch.required_mask_r,
        )
        eps5 = local_label_lower_bound(
            mismatch.mismatch_s, s_sub, r_sub, tau,
            other_labels=r_labels, required_mask=mismatch.required_mask_s,
        )
        return max(eps1, eps4, eps5)

    return improved_h
