"""Serialization of graph collections.

The on-disk format is the line-oriented text format used by most public
graph-database benchmarks (gSpan / AIDS dumps)::

    t # <graph id>
    v <vertex id> <vertex label>
    e <vertex id> <vertex id> <edge label>

Vertex ids inside a graph are integers; labels are stored verbatim as
strings.  :func:`load_graphs` and :func:`save_graphs` round-trip any
collection produced by this library (labels are read back as strings, so
collections that must round-trip exactly should use string labels).

Interop helpers for ``networkx`` are provided for users who already hold
their data as ``networkx`` graphs; the library itself never requires
networkx.
"""

from __future__ import annotations

import io
import os
from typing import Iterable, Iterator, List, Optional, Sequence, TextIO, Tuple, Union

from repro.exceptions import GraphError, GraphFormatError, ParameterError
from repro.graph.graph import Graph, Label

__all__ = [
    "load_graphs",
    "load_graphs_iter",
    "loads_graphs",
    "save_graphs",
    "dumps_graphs",
    "stored_label",
    "assign_ids",
    "from_networkx",
    "to_networkx",
]


#: One lenient-mode parse report: ``(lineno, reason)``.
ParseReport = Tuple[int, str]


def _check_on_error(on_error: str) -> None:
    if on_error not in ("raise", "skip"):
        raise ParameterError(
            f"on_error must be 'raise' or 'skip', got {on_error!r}"
        )


def _parse_iter(
    stream: TextIO,
    source: str,
    on_error: str = "raise",
    errors: Optional[List[ParseReport]] = None,
) -> Iterator[Graph]:
    """Yield each *completed* graph of ``stream``, one at a time.

    A graph is complete (and yielded) only once its last record has
    been seen — the next ``t`` line, or end of input — so lenient mode
    can drop a corrupt graph whole without ever having emitted it.
    Only the graph currently being parsed is resident; the stream is
    never materialized.
    """
    _check_on_error(on_error)
    current: Optional[Graph] = None
    skip_graph = False  # swallowing the rest of a dropped graph
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        tag = fields[0]
        reason: Optional[str] = None
        cause: Optional[Exception] = None
        try:
            if tag == "t":
                # "t # <id> [directed]"; the id may be omitted.
                if current is not None:
                    yield current
                gid: Union[int, str, None] = None
                directed = fields[-1] == "directed"
                if len(fields) >= 3 and fields[2] != "directed":
                    gid = int(fields[2]) if fields[2].lstrip("-").isdigit() else fields[2]
                current = Graph(gid, directed=directed)
                skip_graph = False
            elif tag == "v":
                if skip_graph:
                    continue
                if current is None:
                    reason = "'v' before 't'"
                else:
                    vid = int(fields[1])
                    label = " ".join(fields[2:])
                    current.add_vertex(vid, label)
            elif tag == "e":
                if skip_graph:
                    continue
                if current is None:
                    reason = "'e' before 't'"
                else:
                    u, v = int(fields[1]), int(fields[2])
                    label = " ".join(fields[3:])
                    current.add_edge(u, v, label)
            else:
                reason = f"unknown record type {tag!r}"
        except GraphError as exc:
            reason, cause = str(exc), exc
        except (IndexError, ValueError) as exc:
            reason, cause = f"malformed line {line!r}", exc
        if reason is None:
            continue
        if on_error == "raise":
            raise GraphFormatError(f"{source}:{lineno}: {reason}") from cause
        if errors is not None:
            errors.append((lineno, reason))
        # A graph with any corrupt record is dropped whole — a partially
        # loaded graph would silently change join results.  (It was
        # never yielded: graphs are only emitted once complete.)
        if current is not None:
            skip_graph = True
        current = None
    if current is not None:
        yield current


def _parse(
    stream: TextIO,
    source: str,
    on_error: str = "raise",
    errors: Optional[List[ParseReport]] = None,
) -> List[Graph]:
    return list(_parse_iter(stream, source, on_error=on_error, errors=errors))


def load_graphs(
    path: Union[str, os.PathLike],
    on_error: str = "raise",
    errors: Optional[List[ParseReport]] = None,
) -> List[Graph]:
    """Load a graph collection from a text file.

    ``on_error`` selects what happens on malformed input: ``"raise"``
    (the default) aborts with :class:`GraphFormatError`; ``"skip"``
    drops the graph containing the corrupt record — whole, never
    partially — and keeps loading.  In lenient mode each offending line
    is appended to ``errors`` (when given) as a ``(lineno, reason)``
    tuple, so callers can report what was lost.

    Raises
    ------
    GraphFormatError
        With ``on_error="raise"``, on malformed input (unknown record
        type, edge before its graph, non-integer vertex ids, duplicate
        vertices/edges, ...).
    ParameterError
        On an unknown ``on_error`` value.
    """
    with open(path, "r", encoding="utf-8") as f:
        return _parse(f, str(path), on_error=on_error, errors=errors)


def load_graphs_iter(
    path: Union[str, os.PathLike],
    on_error: str = "raise",
    errors: Optional[List[ParseReport]] = None,
) -> Iterator[Graph]:
    """Stream a graph collection from a text file, one graph at a time.

    The lazy sibling of :func:`load_graphs`: graphs are yielded as soon
    as they are complete and only the graph currently being parsed is
    resident, so the out-of-core sharded join can partition collections
    that do not fit in memory.  ``on_error``/``errors`` have exactly
    :func:`load_graphs`'s semantics — ``"skip"`` drops a corrupt graph
    whole (it is never yielded) and reports ``(lineno, reason)`` into
    ``errors``.  The file stays open until the iterator is exhausted or
    closed.

    Raises
    ------
    GraphFormatError
        With ``on_error="raise"``, on malformed input (raised from the
        iterator at the offending line).
    ParameterError
        On an unknown ``on_error`` value (raised immediately).
    """
    _check_on_error(on_error)

    def generate() -> Iterator[Graph]:
        with open(path, "r", encoding="utf-8") as f:
            yield from _parse_iter(f, str(path), on_error=on_error, errors=errors)

    return generate()


def loads_graphs(
    text: str,
    on_error: str = "raise",
    errors: Optional[List[ParseReport]] = None,
) -> List[Graph]:
    """Parse a graph collection from a string (see :func:`load_graphs`)."""
    return _parse(io.StringIO(text), "<string>", on_error=on_error, errors=errors)


def dumps_graphs(graphs: Iterable[Graph]) -> str:
    """Serialize a collection of graphs to the text format."""
    lines: List[str] = []
    for i, g in enumerate(graphs):
        gid = g.graph_id if g.graph_id is not None else i
        suffix = " directed" if g.is_directed else ""
        lines.append(f"t # {gid}{suffix}")
        index = {v: j for j, v in enumerate(g.vertices())}
        for v, j in index.items():
            lines.append(f"v {j} {g.vertex_label(v)}")
        for u, v, label in g.edges():
            a, b = index[u], index[v]
            if not g.is_directed and a > b:
                a, b = b, a
            lines.append(f"e {a} {b} {label}")
    lines.append("")
    return "\n".join(lines)


def stored_label(label: Label) -> str:
    """``label`` as :func:`loads_graphs` reads it back after
    :func:`dumps_graphs` wrote it: its text, runs of whitespace as one
    space."""
    return " ".join(f"{label}".split())


def save_graphs(graphs: Iterable[Graph], path: Union[str, os.PathLike]) -> None:
    """Write a collection of graphs to ``path`` in the text format."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps_graphs(graphs))


def assign_ids(graphs: Sequence[Graph]) -> List[Graph]:
    """Ensure every graph carries a distinct integer id.

    Graphs without an id (or with duplicate ids) get their position in the
    sequence as id.  Returns the same list for chaining; mutation is
    in-place on the ``graph_id`` attribute only.
    """
    seen = set()
    for i, g in enumerate(graphs):
        if g.graph_id is None or g.graph_id in seen:
            g.graph_id = i
        seen.add(g.graph_id)
    return list(graphs)


def from_networkx(nx_graph, graph_id=None, vertex_label="label", edge_label="label") -> Graph:
    """Convert an undirected ``networkx`` graph to a :class:`Graph`.

    Vertex/edge labels are read from the named node/edge attributes;
    missing attributes default to the empty string.
    """
    g = Graph(graph_id)
    for v, data in nx_graph.nodes(data=True):
        g.add_vertex(v, data.get(vertex_label, ""))
    for u, v, data in nx_graph.edges(data=True):
        g.add_edge(u, v, data.get(edge_label, ""))
    return g


def to_networkx(g: Graph, vertex_label="label", edge_label="label"):
    """Convert a :class:`Graph` to an undirected ``networkx.Graph``."""
    import networkx as nx

    out = nx.Graph(graph_id=g.graph_id)
    for v in g.vertices():
        out.add_node(v, **{vertex_label: g.vertex_label(v)})
    for u, v, label in g.edges():
        out.add_edge(u, v, **{edge_label: label})
    return out
