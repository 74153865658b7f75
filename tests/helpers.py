"""Small graph builders shared across the tests."""

from fractions import Fraction

from arborkit import Graph


def density(graph, verts):
    """|E(S)| / (|S| - 1) for the vertex set S, counted from the edge list."""
    inside = sum(1 for u, v in graph.endpoints if u in verts and v in verts)
    return Fraction(inside, len(verts) - 1)


def complete_graph(n):
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def cycle(n):
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def path(n):
    """Path on n vertices (n - 1 edges)."""
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def star(leaves):
    return Graph(leaves + 1, tuple((0, i + 1) for i in range(leaves)))


def complete_bipartite(a, b):
    return Graph(a + b, tuple((i, a + j) for i in range(a) for j in range(b)))


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, tuple(outer + inner + spokes))


def cube():
    """The 3-dimensional hypercube Q3."""
    edges = []
    for v in range(8):
        for bit in (1, 2, 4):
            w = v ^ bit
            if v < w:
                edges.append((v, w))
    return Graph(8, tuple(edges))


def prism():
    return Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)))


def wheel(rim):
    """Hub vertex 0 joined to every vertex of a cycle on 1..rim."""
    spokes = [(0, i) for i in range(1, rim + 1)]
    ring = [(i, i % rim + 1) for i in range(1, rim + 1)]
    return Graph(rim + 1, tuple(spokes + ring))


def disjoint_union(*graphs):
    """The graphs side by side, vertices and edges numbered in argument order."""
    edges = []
    offset = 0
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.endpoints)
        offset += g.vertex_count
    return Graph(offset, tuple(edges))


def doubled_cycle(n):
    """Cycle on n vertices with every edge doubled."""
    base = [(i, (i + 1) % n) for i in range(n)]
    return Graph(n, tuple(base + base))
