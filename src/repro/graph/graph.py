"""Labeled simple graphs — undirected by default, optionally directed.

This module provides :class:`Graph`, the central data structure of the
library.  It models exactly the graphs of the paper: simple (no
self-loops, no parallel edges), carrying a label on every vertex and on
every edge.  Labels are arbitrary hashable values (chemical datasets use
strings such as ``"C"`` or ``"="``).

Graphs are undirected by default.  Passing ``directed=True`` switches a
graph to directed semantics — the extension the paper notes is
straightforward ("our approach can be easily extended to directed
graphs", footnote 1): edges become ordered pairs (antiparallel edges
are allowed in a simple digraph), paths follow edge direction, and all
core algorithms (q-gram extraction, filtering, A* GED) honour the flag.
The κ-AT and AppFull baselines remain undirected-only, like their
original publications.

The representation is an adjacency dictionary (plus a predecessor
dictionary for directed graphs), giving O(1) expected-time edge
existence tests and label lookups, and O(deg) neighbourhood scans — the
access patterns that dominate q-gram extraction and A* search.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

from repro.exceptions import GraphError

Vertex = Hashable
Label = Hashable
Edge = Tuple[Vertex, Vertex]

__all__ = ["Graph", "Vertex", "Label", "Edge", "edge_key"]


def edge_key(u: Vertex, v: Vertex) -> Edge:
    """Return a canonical, order-independent key for the edge ``{u, v}``.

    Vertices need not be mutually comparable, so the canonical order is by
    ``repr`` (stable within a process for the label/vertex types used by
    this library) falling back to the pair itself when reprs tie.
    """
    try:
        return (u, v) if u <= v else (v, u)  # type: ignore[operator]
    except TypeError:
        return (u, v) if repr(u) <= repr(v) else (v, u)


class Graph:
    """A labeled simple graph, undirected by default.

    Parameters
    ----------
    graph_id:
        Optional identifier.  Join algorithms require each graph in a
        collection to carry a distinct, orderable id (the paper's
        ``r.id < s.id`` convention); :func:`repro.graph.io.assign_ids`
        can fill these in.
    directed:
        ``True`` for directed semantics; see the module docstring.

    Examples
    --------
    Build cyclopropanone (graph ``r`` of Figure 1 in the paper)::

        >>> r = Graph("cyclopropanone")
        >>> for v, lbl in enumerate(["C", "C", "C", "O"]):
        ...     r.add_vertex(v, lbl)
        >>> r.add_edge(0, 1, "-"); r.add_edge(1, 2, "-"); r.add_edge(0, 2, "-")
        >>> r.add_edge(0, 3, "=")
        >>> r.num_vertices, r.num_edges
        (4, 4)
    """

    __slots__ = ("graph_id", "_labels", "_adj", "_pred", "_num_edges", "_directed")

    def __init__(
        self, graph_id: Optional[Hashable] = None, directed: bool = False
    ) -> None:
        self.graph_id = graph_id
        self._directed = bool(directed)
        self._labels: Dict[Vertex, Label] = {}
        self._adj: Dict[Vertex, Dict[Vertex, Label]] = {}
        # For undirected graphs the predecessor map aliases the adjacency
        # map, so in-/out-/all-neighbour views coincide for free.
        self._pred: Dict[Vertex, Dict[Vertex, Label]] = (
            {} if directed else self._adj
        )
        self._num_edges = 0

    # ------------------------------------------------------------------
    # Construction and mutation
    # ------------------------------------------------------------------
    @property
    def is_directed(self) -> bool:
        """Whether edges are ordered pairs."""
        return self._directed

    def add_vertex(self, v: Vertex, label: Label) -> None:
        """Add vertex ``v`` with the given label.

        Raises
        ------
        GraphError
            If ``v`` is already present.
        """
        if v in self._labels:
            raise GraphError(f"vertex {v!r} already exists")
        self._labels[v] = label
        self._adj[v] = {}
        if self._directed:
            self._pred[v] = {}

    def remove_vertex(self, v: Vertex) -> None:
        """Remove vertex ``v`` and all edges incident to it."""
        out = self._require_vertex(v)
        if self._directed:
            incoming = self._pred[v]
            for u in list(out):
                del self._pred[u][v]
            for u in list(incoming):
                del self._adj[u][v]
            self._num_edges -= len(out) + len(incoming)
            del self._pred[v]
        else:
            for u in list(out):
                del self._adj[u][v]
            self._num_edges -= len(out)
        del self._adj[v]
        del self._labels[v]

    def set_vertex_label(self, v: Vertex, label: Label) -> None:
        """Change the label of an existing vertex (a paper edit operation)."""
        self._require_vertex(v)
        self._labels[v] = label

    def add_edge(self, u: Vertex, v: Vertex, label: Label) -> None:
        """Add an edge with the given label.

        For directed graphs the edge is ``u -> v``; the antiparallel
        ``v -> u`` may coexist.

        Raises
        ------
        GraphError
            If either endpoint is missing, if ``u == v`` (self-loop), or
            if the edge already exists (parallel edge).
        """
        if u == v:
            raise GraphError(f"self-loop on vertex {u!r} is not allowed")
        adj_u = self._require_vertex(u)
        self._require_vertex(v)
        if v in adj_u:
            arrow = "->" if self._directed else ","
            raise GraphError(f"edge ({u!r} {arrow} {v!r}) already exists")
        adj_u[v] = label
        if self._directed:
            self._pred[v][u] = label
        else:
            self._adj[v][u] = label
        self._num_edges += 1

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the edge ``{u, v}`` (``u -> v`` when directed)."""
        self._require_edge(u, v)
        del self._adj[u][v]
        if self._directed:
            del self._pred[v][u]
        else:
            del self._adj[v][u]
        self._num_edges -= 1

    def set_edge_label(self, u: Vertex, v: Vertex, label: Label) -> None:
        """Change the label of an existing edge (a paper edit operation)."""
        self._require_edge(u, v)
        self._adj[u][v] = label
        if self._directed:
            self._pred[v][u] = label
        else:
            self._adj[v][u] = label

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices, the paper's ``|V(r)|``."""
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        """Number of edges, the paper's ``|E(r)|``."""
        return self._num_edges

    def has_vertex(self, v: Vertex) -> bool:
        return v in self._labels

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Edge existence; directional (``u -> v``) on directed graphs."""
        adj_u = self._adj.get(u)
        return adj_u is not None and v in adj_u

    def vertex_label(self, v: Vertex) -> Label:
        """The label of vertex ``v``, the paper's ``l_V(v)``."""
        try:
            return self._labels[v]
        except KeyError:
            raise GraphError(f"vertex {v!r} does not exist") from None

    def edge_label(self, u: Vertex, v: Vertex) -> Label:
        """The label of edge ``{u, v}`` (``u -> v`` when directed)."""
        return self._require_edge(u, v)

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over vertices in insertion order."""
        return iter(self._labels)

    def edges(self) -> Iterator[Tuple[Vertex, Vertex, Label]]:
        """Iterate over edges once each, as ``(u, v, label)`` triples.

        For directed graphs the triple is oriented ``u -> v``.
        """
        if self._directed:
            for u, nbrs in self._adj.items():
                for v, label in nbrs.items():
                    yield (u, v, label)
            return
        seen: Set[Vertex] = set()
        for u, nbrs in self._adj.items():
            for v, label in nbrs.items():
                if v not in seen:
                    yield (u, v, label)
            seen.add(u)

    def neighbors(self, v: Vertex) -> Iterator[Vertex]:
        """Out-neighbours of ``v`` (all neighbours when undirected)."""
        return iter(self._require_vertex(v))

    def in_neighbors(self, v: Vertex) -> Iterator[Vertex]:
        """In-neighbours of ``v`` (same as :meth:`neighbors` undirected)."""
        self._require_vertex(v)
        return iter(self._pred[v])

    def all_neighbors(self, v: Vertex) -> Iterator[Vertex]:
        """Union of in- and out-neighbours, each reported once."""
        out = self._require_vertex(v)
        if not self._directed:
            return iter(out)
        merged = dict(self._pred[v])
        merged.update(out)
        return iter(merged)

    def neighbor_items(self, v: Vertex) -> Iterator[Tuple[Vertex, Label]]:
        """``(out-neighbour, edge label)`` pairs of ``v``."""
        return iter(self._require_vertex(v).items())

    def in_neighbor_items(self, v: Vertex) -> Iterator[Tuple[Vertex, Label]]:
        """``(in-neighbour, edge label)`` pairs of ``v``."""
        self._require_vertex(v)
        return iter(self._pred[v].items())

    def degree(self, v: Vertex) -> int:
        """Total degree: in + out for directed graphs."""
        out = len(self._require_vertex(v))
        if self._directed:
            return out + len(self._pred[v])
        return out

    def out_degree(self, v: Vertex) -> int:
        return len(self._require_vertex(v))

    def in_degree(self, v: Vertex) -> int:
        self._require_vertex(v)
        return len(self._pred[v])

    def max_degree(self) -> int:
        """The maximum (total) vertex degree, the paper's ``γ``."""
        if not self._adj:
            return 0
        return max(self.degree(v) for v in self._labels)

    def canonical_edge(self, u: Vertex, v: Vertex) -> Edge:
        """A key identifying the edge: ordered for directed graphs,
        order-independent otherwise."""
        if self._directed:
            return (u, v)
        return edge_key(u, v)

    def vertex_label_multiset(self) -> Counter:
        """Multiset of vertex labels, the paper's ``L_V(r)``."""
        return Counter(self._labels.values())

    def edge_label_multiset(self) -> Counter:
        """Multiset of edge labels, the paper's ``L_E(r)``."""
        return Counter(label for _, _, label in self.edges())

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self, graph_id: Optional[Hashable] = None) -> "Graph":
        """Return a deep copy, optionally with a new id."""
        g = Graph(
            self.graph_id if graph_id is None else graph_id,
            directed=self._directed,
        )
        g._labels = dict(self._labels)
        g._adj = {v: dict(nbrs) for v, nbrs in self._adj.items()}
        if self._directed:
            g._pred = {v: dict(nbrs) for v, nbrs in self._pred.items()}
        else:
            g._pred = g._adj
        g._num_edges = self._num_edges
        return g

    def subgraph(self, vertices: Iterable[Vertex]) -> "Graph":
        """Return the subgraph induced by ``vertices`` (same vertex ids).

        Vertices and edges keep this graph's insertion order, whatever
        the order (or hash order) of ``vertices``.
        """
        keep = set(vertices)
        for v in keep:
            self.vertex_label(v)  # raises GraphError on an unknown vertex
        g = Graph(self.graph_id, directed=self._directed)
        for v, label in self._labels.items():
            if v in keep:
                g.add_vertex(v, label)
        for v in g._labels:
            for u, label in self._adj[v].items():
                if u in keep and not g.has_edge(v, u):
                    g.add_edge(v, u, label)
        return g

    def relabel_vertices(self, mapping: Dict[Vertex, Vertex]) -> "Graph":
        """Return a copy with vertex ids renamed through ``mapping``.

        Vertices missing from ``mapping`` keep their ids.  The mapping must
        be injective on the vertex set.
        """
        target = {v: mapping.get(v, v) for v in self._labels}
        if len(set(target.values())) != len(target):
            raise GraphError("vertex relabeling mapping is not injective")
        g = Graph(self.graph_id, directed=self._directed)
        for v, label in self._labels.items():
            g.add_vertex(target[v], label)
        for u, v, label in self.edges():
            g.add_edge(target[u], target[v], label)
        return g

    # ------------------------------------------------------------------
    # Traversal (weak connectivity for directed graphs)
    # ------------------------------------------------------------------
    def connected_components(self) -> List[Set[Vertex]]:
        """Vertex sets of the (weakly) connected components."""
        remaining = set(self._labels)
        components: List[Set[Vertex]] = []
        while remaining:
            root = next(iter(remaining))
            component = {root}
            queue = deque([root])
            while queue:
                v = queue.popleft()
                for u in self.all_neighbors(v):
                    if u not in component:
                        component.add(u)
                        queue.append(u)
            components.append(component)
            remaining -= component
        return components

    def spanning_tree_order(
        self, within: Optional[Iterable[Vertex]] = None
    ) -> List[Vertex]:
        """Return vertices in BFS spanning-tree order.

        Used by the paper's Algorithm 7 (DetermineVertexOrder): visiting
        vertices along a spanning tree lets the A* search discover edge
        edit operations as early as possible.  If ``within`` is given, the
        traversal is restricted to (the induced subgraph on) those
        vertices; otherwise all vertices are covered.  Each (weakly)
        connected component contributes a contiguous run.
        """
        allowed = set(self._labels) if within is None else set(within)
        order: List[Vertex] = []
        visited: Set[Vertex] = set()
        # Iterate in insertion order for determinism.
        for root in self._labels:
            if root not in allowed or root in visited:
                continue
            visited.add(root)
            queue = deque([root])
            while queue:
                v = queue.popleft()
                order.append(v)
                for u in self.all_neighbors(v):
                    if u in allowed and u not in visited:
                        visited.add(u)
                        queue.append(u)
        return order

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, v: Vertex) -> bool:
        return v in self._labels

    def __eq__(self, other: object) -> bool:
        """Structural identity: same directedness, vertex ids, labels,
        and labeled edges.

        Note this is *not* isomorphism — see
        :func:`repro.graph.isomorphism.are_isomorphic` for that.
        """
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._directed == other._directed
            and self._labels == other._labels
            and self._adj == other._adj
        )

    def __repr__(self) -> str:
        kind = "DiGraph" if self._directed else "Graph"
        return (
            f"{kind}(id={self.graph_id!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges})"
        )

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _require_vertex(self, v: Vertex) -> Dict[Vertex, Label]:
        try:
            return self._adj[v]
        except KeyError:
            raise GraphError(f"vertex {v!r} does not exist") from None

    def _require_edge(self, u: Vertex, v: Vertex) -> Label:
        adj_u = self._require_vertex(u)
        self._require_vertex(v)
        try:
            return adj_u[v]
        except KeyError:
            raise GraphError(f"edge {{{u!r}, {v!r}}} does not exist") from None
