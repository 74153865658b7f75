"""Multigraph substrate shared by every other module.

Graphs are finite multigraphs with loops allowed. Vertices are 0-indexed and
dense; edge ids are dense 0..m-1 in construction order, and all certificates
elsewhere in the toolkit are reported in terms of these ids. Edge subsets are
plain frozensets of edge ids validated against their host graph.

File format (one graph per file):
    n m
    u v        (m lines, 0-indexed endpoints, edge id = line order)
Lines whose first non-space character is '#' are comments; blank lines are
ignored. A loop is written "v v".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


class GraphFormatError(ValueError):
    """Malformed graph text; message carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Graph:
    vertex_count: int
    endpoints: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        for eid, (u, v) in enumerate(self.endpoints):
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge {eid} endpoint out of range")

    @property
    def edge_count(self) -> int:
        return len(self.endpoints)

    def edge_ids(self) -> range:
        return range(len(self.endpoints))

    def full_edge_set(self) -> frozenset[int]:
        return frozenset(range(len(self.endpoints)))

    def has_loop(self) -> bool:
        return any(u == v for u, v in self.endpoints)

    def loop_edges(self) -> list[int]:
        return [e for e, (u, v) in enumerate(self.endpoints) if u == v]

    def degrees(self) -> list[int]:
        """Degree per vertex; a loop contributes 2 at its endpoint."""
        deg = [0] * self.vertex_count
        for u, v in self.endpoints:
            deg[u] += 1
            deg[v] += 1
        return deg


@dataclass(frozen=True)
class GraphStats:
    """Summary of the subgraph induced by an edge subset: vertex count,
    component count, smallest and largest degree, matching and forest flags."""

    n: int
    c: int
    min_degree: int
    max_degree: int
    is_matching: bool
    is_forest: bool


def check_edge_subset(graph: Graph, subset: Iterable[int]) -> frozenset[int]:
    out = frozenset(subset)
    for e in out:
        if not isinstance(e, int) or not (0 <= e < graph.edge_count):
            raise ValueError(f"edge id {e!r} not in 0..{graph.edge_count - 1}")
    return out


def _spanning_forest_size(pairs: Iterable[tuple[int, int]]) -> int:
    """How many of the (u, v) pairs join two components of the pairs before
    them: the size of any spanning forest of the pairs. A loop never does."""
    parent: dict[int, int] = {}
    size = 0
    for u, v in pairs:
        # path halving keeps the finds short on deep chains
        while u in parent:
            p = parent[u]
            parent[u] = u = parent.get(p, p)
        while v in parent:
            p = parent[v]
            parent[v] = v = parent.get(p, p)
        if u != v:
            parent[u] = v
            size += 1
    return size


def graph_stats(graph: Graph, subset: Iterable[int]) -> GraphStats:
    """n, c, min and max degree, matching/forest flags of the edge-induced
    subgraph.

    min_degree and max_degree are over the vertices the subset touches (0
    for the empty subset). The empty subset counts as both a matching and a
    forest; a loop gives its vertex degree 2, so it is neither.
    """
    edges = check_edge_subset(graph, subset)
    pairs = [graph.endpoints[e] for e in edges]
    deg: dict[int, int] = {}
    for u, v in pairs:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    n = len(deg)
    forest = _spanning_forest_size(pairs)
    top = max(deg.values(), default=0)
    return GraphStats(
        n=n,
        c=n - forest,
        min_degree=min(deg.values(), default=0),
        max_degree=top,
        is_matching=top <= 1,
        is_forest=forest == len(edges),
    )


def line_graph(graph: Graph) -> Graph:
    """Line graph: one vertex per edge, adjacency = sharing an endpoint.

    Parallel edges are adjacent (they share two endpoints but give one line
    edge). A loop is adjacent to every other edge at its vertex and has no
    self-adjacency.
    """
    incident: list[list[int]] = [[] for _ in range(graph.vertex_count)]
    for e, (u, v) in enumerate(graph.endpoints):
        incident[u].append(e)
        if u != v:
            incident[v].append(e)
    pairs: set[tuple[int, int]] = set()
    for edges_at_v in incident:
        for i in range(len(edges_at_v)):
            for j in range(i + 1, len(edges_at_v)):
                a, b = edges_at_v[i], edges_at_v[j]
                pairs.add((a, b) if a < b else (b, a))
    return Graph(graph.edge_count, tuple(sorted(pairs)))


def _int_token(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise GraphFormatError(f"{what} is not an integer: {token!r}", line_no) from None


def parse_graph(text: str) -> Graph:
    """Parse the "n m" + edge-lines format. Errors carry line numbers."""
    header: tuple[int, int] | None = None
    header_line = 0
    edges: list[tuple[int, int]] = []
    last_line = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        last_line = line_no
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if header is None:
            if len(tokens) != 2:
                raise GraphFormatError("header must be exactly 'n m'", line_no)
            n = _int_token(tokens[0], line_no, "vertex count")
            m = _int_token(tokens[1], line_no, "edge count")
            if n < 0 or m < 0:
                raise GraphFormatError("counts must be nonnegative", line_no)
            header = (n, m)
            header_line = line_no
            continue
        n, m = header
        if len(edges) >= m:
            raise GraphFormatError(f"more than the declared {m} edges", line_no)
        if len(tokens) != 2:
            raise GraphFormatError("edge line must be exactly 'u v'", line_no)
        u = _int_token(tokens[0], line_no, "endpoint")
        v = _int_token(tokens[1], line_no, "endpoint")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"vertex index out of range 0..{n - 1}", line_no)
        edges.append((u, v))
    if header is None:
        raise GraphFormatError("missing 'n m' header", last_line + 1)
    n, m = header
    if len(edges) != m:
        raise GraphFormatError(
            f"declared {m} edges but found {len(edges)}", max(last_line, header_line) + 1
        )
    return Graph(n, tuple(edges))


def serialize_graph(graph: Graph) -> str:
    lines = [f"{graph.vertex_count} {graph.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in graph.endpoints)
    return "\n".join(lines) + "\n"
