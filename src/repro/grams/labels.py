"""Label filtering (Section V, Lemmas 4–5, Algorithm 5).

*Global label filtering* lower-bounds GED by the label-multiset
mismatch of the whole graphs:

    ``Γ(L_V(r), L_V(s)) + Γ(L_E(r), L_E(s)) <= ged(r, s)``

with ``Γ(A, B) = max(|A|, |B|) − |A ∩ B|`` on multisets.

*Local label filtering* sharpens this using mismatching q-grams: the
mismatching instances are grouped into connected components (q-grams
sharing a vertex); within each component both the exact minimum edit
count (Algorithm 3) and the label mismatch against the *other whole
graph* (Lemma 4) are lower bounds, so the larger is taken, and —
because the components are vertex- and edge-disjoint
(Proposition 2) — the per-component bounds add up.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.grams.minedit import min_edit_exact, min_edit_lower_bound
from repro.grams.qgrams import QGram
from repro.graph.graph import Graph, Vertex

__all__ = [
    "gamma",
    "global_label_lower_bound",
    "connected_gram_components",
    "local_label_lower_bound",
]


def gamma(a: Counter, b: Counter) -> int:
    """``Γ(A, B) = max(|A|, |B|) − |A ∩ B|`` on label multisets."""
    size_a = sum(a.values())
    size_b = sum(b.values())
    inter = sum(min(count, b[label]) for label, count in a.items() if label in b)
    return max(size_a, size_b) - inter


def global_label_lower_bound(
    r: Graph,
    s: Graph,
    r_labels: Optional[Tuple[Counter, Counter]] = None,
    s_labels: Optional[Tuple[Counter, Counter]] = None,
) -> int:
    """Lemma 5's GED lower bound ``Γ(L_V) + Γ(L_E)``.

    Label multisets can be passed precomputed (joins cache them per
    graph); otherwise they are derived on the fly.
    """
    rv, re = r_labels if r_labels is not None else (
        r.vertex_label_multiset(), r.edge_label_multiset())
    sv, se = s_labels if s_labels is not None else (
        s.vertex_label_multiset(), s.edge_label_multiset())
    return gamma(rv, sv) + gamma(re, se)


def _component_index_groups(grams: Sequence[QGram]) -> List[List[int]]:
    """Indices of ``grams`` grouped into vertex-connected components.

    Two instances are connected when they share a vertex; components are
    the transitive closure.  Union–find over the instances' path
    vertices (a simple path never repeats a vertex, so the path tuple is
    already duplicate-free).
    """
    parent: Dict[Vertex, Vertex] = {}

    def find(x: Vertex) -> Vertex:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(x: Vertex, y: Vertex) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for gram in grams:
        vertices = gram.path
        for v in vertices:
            parent.setdefault(v, v)
        for v in vertices[1:]:
            union(vertices[0], v)

    groups: Dict[Vertex, List[int]] = {}
    for index, gram in enumerate(grams):
        root = find(gram.path[0])
        groups.setdefault(root, []).append(index)
    return list(groups.values())


def connected_gram_components(grams: Sequence[QGram]) -> List[List[QGram]]:
    """Group q-gram instances into vertex-connected components.

    Two instances are connected when they share a vertex; components are
    the transitive closure.  Union–find over the instances' vertices.
    """
    return [
        [grams[i] for i in group] for group in _component_index_groups(grams)
    ]


def _component_label_multisets(
    graph: Graph, component: Sequence[QGram]
) -> Tuple[Counter, Counter]:
    """Vertex/edge label multisets of the subgraph formed by a component.

    The subgraph consists of the union of the component's path vertices
    and path edges; each vertex/edge contributes its label once.
    """
    vertices: Set[Vertex] = set()
    edges: Set[Tuple[Vertex, Vertex]] = set()
    for gram in component:
        vertices.update(gram.path)
        edges.update(graph.canonical_edge(u, v) for u, v in gram.edge_pairs())
    vertex_labels = Counter(graph.vertex_label(v) for v in vertices)
    edge_labels = Counter(graph.edge_label(u, v) for u, v in edges)
    return vertex_labels, edge_labels


def _multiset_difference_size(a: Counter, b: Counter) -> int:
    """``|A \\ B|`` on multisets."""
    return sum(max(0, count - b.get(label, 0)) for label, count in a.items())


def local_label_lower_bound(
    mismatch_grams: Sequence[QGram],
    graph: Graph,
    other: Graph,
    tau: int,
    other_labels: Optional[Tuple[Counter, Counter]] = None,
    exact: bool = True,
    required_mask: Optional[Sequence[bool]] = None,
) -> int:
    """Algorithm 5: a GED lower bound from mismatching q-grams.

    Parameters
    ----------
    mismatch_grams:
        Instances of ``Q_graph \\ Q_other``.
    graph / other:
        The graph owning the mismatching instances, and the comparison
        graph whose labels bound the *edit-con* term.
    tau:
        Caps the per-component exact min-edit search (values above
        ``tau`` saturate — the caller only compares the total to
        ``tau``).
    other_labels:
        Optional precomputed ``(L_V(other), L_E(other))``.
    exact:
        Use the exact bounded min-edit per component (the paper's
        choice); ``False`` switches to the greedy lower bound for very
        large components.
    required_mask:
        Per-instance flags aligned with ``mismatch_grams``
        (:attr:`~repro.grams.mismatch.MismatchResult.required_mask_r`):
        ``True`` for an instance whose key is absent from ``other``, so
        it is *guaranteed affected* by any edit script.  Only those
        instances enter the *edit-loc* hitting set; for a key present
        in both graphs with a surplus, which instances an edit script
        affected is unknowable, so counting a specific choice would
        over-estimate and wrongly prune (graph q-grams carry no
        positions — the paper's Section III footnote 2 caveat).  With
        ``None`` every instance is treated as required, which is only
        sound when the caller knows the whole multiset must be affected.

    Notes
    -----
    The instances are grouped into vertex-connected components; within
    each, both the hitting-set bound over required instances and the
    label-surplus bound (Lemma 4) hold, so the larger counts, and the
    components' vertex/edge-disjointness (Proposition 2) lets the
    per-component bounds add up.
    """
    if not mismatch_grams:
        return 0
    ov, oe = other_labels if other_labels is not None else (
        other.vertex_label_multiset(), other.edge_label_multiset())
    total = 0
    for indices in _component_index_groups(mismatch_grams):
        component = [mismatch_grams[i] for i in indices]
        if required_mask is None:
            required = component
        else:
            required = [mismatch_grams[i] for i in indices if required_mask[i]]
        if not required:
            edit_loc = 0
        elif exact:
            edit_loc = min_edit_exact(required, tau)
        else:
            edit_loc = min_edit_lower_bound(required)
        cv, ce = _component_label_multisets(graph, component)
        edit_con = _multiset_difference_size(cv, ov) + _multiset_difference_size(ce, oe)
        total += max(edit_loc, edit_con)
        if total > tau:
            break  # already enough to prune; saturate early
    return total
