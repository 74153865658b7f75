"""Exact edge-domination and 2-path-domination numbers with witnesses.

A set D of edges dominates a graph when every vertex is incident with an
edge of D or adjacent to a vertex that is. An isolated vertex admits no
dominating edge set at all, which the solvers report as INFINITE.

The 2-path number is edge domination on the line graph: a 2-path is a pair
of adjacent edges, and it dominates every edge within line-graph distance
one of the pair. A component with exactly one edge makes it INFINITE.

The branch and bound keeps its branch points on a list, in the idiom of the
searches in decompose.py: each is a generator that adds its next candidate
edge to the chosen set, yields the mask of vertices still undominated, and
takes the edge back out when resumed. The driver loop pops a generator when
next() returns the sentinel -1, since the empty mask 0 is a state of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .graphs import Graph, check_edge_subset, line_graph
from .limits import DOMINATION_DEFAULT, check_gate
from .rationals import INFINITE, Infinite, is_infinite


@dataclass(frozen=True)
class DominationResult:
    """value is an int or INFINITE; witness is None exactly when INFINITE.

    For edge domination the witness is a sorted tuple of edge ids. For
    2-path domination it is a tuple of vertex triples (a, s, b) with s the
    shared vertex, and witness_pairs carries the same paths as pairs of
    edge ids.
    """

    value: int | Infinite
    witness: tuple | None
    witness_pairs: tuple[tuple[int, int], ...] | None = None


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _coverage(graph: Graph) -> tuple[list[int], list[int]]:
    """covers[e] = vertex mask dominated by edge e; dom[v] = edge mask
    of the edges that dominate vertex v."""
    n = graph.vertex_count
    closed = [1 << v for v in range(n)]
    for u, v in graph.endpoints:
        closed[u] |= 1 << v
        closed[v] |= 1 << u
    covers = [closed[a] | closed[b] for a, b in graph.endpoints]
    dom = [0] * n
    for e, cov in enumerate(covers):
        for v in _bits(cov):
            dom[v] |= 1 << e
    return covers, dom


def dominates(graph: Graph, edges) -> bool:
    """Definition check: do these edges dominate every vertex? One pass marks
    the chosen edges' endpoints, one pass over the edges their neighbours."""
    ids = check_edge_subset(graph, edges)
    ends = graph.endpoints
    touched = bytearray(graph.vertex_count)
    for e in ids:
        u, v = ends[e]
        touched[u] = touched[v] = 1
    seen = bytearray(touched)
    for u, v in ends:
        if touched[u]:
            seen[v] = 1
        if touched[v]:
            seen[u] = 1
    return seen.count(1) == graph.vertex_count


def _edge_domination_core(covers: list[int], dom: list[int], want: int, edges):
    """Fewest of the candidate edges whose covers take in every vertex of the
    mask want, as (size, sorted witness), or (INFINITE, None).

    dom[v] holds only candidate edges, and edges lists the candidates in
    increasing order. Every tie (greedy, packing, branching) goes by the
    order of the ids, so a search on a restriction of a graph to some of its
    vertices and edges sees the same order as one on the restriction
    relabelled in increasing order.
    """
    if not want:
        return 0, ()
    verts = _bits(want)
    if any(dom[v] == 0 for v in verts):
        return INFINITE, None

    greedy: list[int] = []
    undom = want
    while undom:
        e = max(edges, key=lambda i: ((covers[i] & undom).bit_count(), -i))
        greedy.append(e)
        undom &= ~covers[e]
    best_size = len(greedy)
    best_wit = tuple(sorted(greedy))

    packing_order = sorted(verts, key=lambda v: dom[v].bit_count())

    def lower_bound(undom: int) -> int:
        # vertices whose candidate edges are pairwise disjoint each
        # need their own edge
        used = 0
        count = 0
        for v in packing_order:
            if undom >> v & 1 and dom[v] & used == 0:
                count += 1
                used |= dom[v]
        return count

    chosen: list[int] = []

    def branch(undom: int) -> Iterator[int]:
        # the undominated vertex with the fewest candidate edges, the lowest
        # on a tie: packing_order is a stable sort of the increasing want
        # vertices by that count, and undom lies within want
        pick = next(v for v in packing_order if undom >> v & 1)
        cands = _bits(dom[pick])
        cands.sort(key=lambda e: -(covers[e] & undom).bit_count())
        for e in cands:
            chosen.append(e)
            yield undom & ~covers[e]
            chosen.pop()

    frames: list[Iterator[int]] = [iter((want,))]
    while frames:
        undom = next(frames[-1], -1)
        if undom < 0:
            frames.pop()
        elif not undom:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_wit = tuple(sorted(chosen))
        elif len(chosen) + lower_bound(undom) < best_size:
            frames.append(branch(undom))
    return best_size, best_wit


def _solve_and_recheck(graph: Graph):
    """Minimum dominating edge set of the whole graph, as (size, sorted
    witness) or (INFINITE, None). The witness is re-checked against the
    definition with a plain raise, so the check holds under python -O too."""
    covers, dom = _coverage(graph)
    full = (1 << graph.vertex_count) - 1
    value, witness = _edge_domination_core(covers, dom, full, graph.edge_ids())
    if not is_infinite(value) and not dominates(graph, witness):
        raise AssertionError("solver returned a non-dominating witness")
    return value, witness


def edge_domination(graph: Graph) -> DominationResult:
    """Minimum dominating edge set, exact branch and bound."""
    check_gate(graph.edge_count, DOMINATION_DEFAULT, "edge_domination")
    # the gate counts edges only, and _coverage holds an n-bit mask per
    # vertex; an isolated vertex settles the answer before it is built
    if 0 in graph.degrees():
        return DominationResult(INFINITE, None)
    return DominationResult(*_solve_and_recheck(graph))


def _triple(graph: Graph, e1: int, e2: int) -> tuple[int, int, int]:
    u1, v1 = graph.endpoints[e1]
    u2, v2 = graph.endpoints[e2]
    shared = {u1, v1} & {u2, v2}
    s = min(shared)
    a = v1 if u1 == s else u1
    b = v2 if u2 == s else u2
    return (min(a, b), s, max(a, b))


def two_path_domination(graph: Graph) -> DominationResult:
    """Minimum set of adjacent-edge pairs dominating every edge.

    Solved as edge domination on the line graph, then mapped back: the
    witness comes out both as edge-id pairs and as vertex triples
    (a, s, b) where s is the (least) shared vertex of the pair.
    """
    check_gate(graph.edge_count, DOMINATION_DEFAULT, "two_path_domination")
    lg = line_graph(graph)
    value, witness = _solve_and_recheck(lg)
    if is_infinite(value):
        return DominationResult(INFINITE, None, None)
    pairs = tuple(sorted(lg.endpoints[e] for e in witness))
    triples = tuple(_triple(graph, e1, e2) for e1, e2 in pairs)
    return DominationResult(value, triples, pairs)

