"""Decompositions into k forests plus a small remainder.

decompose_forests_matching searches maximal matchings only: if removing some
matching leaves k forests, removing any maximal matching containing it does
too, so the restriction loses nothing. The bounded variant assigns edges one
at a time to the forest side or the remainder and prunes with the exact
necessary condition that the forest side stays coverable by k forests,
maintained incrementally by the matroid layer's one partition engine
(_ForestPartition): each forest-side assignment is one augmenting insertion,
and backtracking restores the partition to a mark in its undo log. A forest
remainder lives in a one-forest _ForestPartition of its own: an edge may join
it when its endpoints climb that forest's parent pointers to two different
roots, and is added and removed directly, with no augmentation. A graph
remainder needs only its degree counts. The remainder itself is never
listed: at a leaf it is every edge the k-forest engine does not own.

Both searches, and the domination search, keep their branch points on a list
rather than the interpreter's stack, so no input depth can overrun its
recursion limit. Each branch point is a generator: it makes its next choice,
yields the state below it (a pivot position or an edge index, never
negative), and undoes that choice when resumed. The driver loop starts from
a one-state iterator, calls next(frames[-1], -1), pushes a branch point for
each state that needs one and pops the generators that return -1.

Both searches first ask remainder_witness for a vertex set with more edges
than k forests and the remainder can hold inside it; such a set settles the
answer before any search. The bounded search checks its size gate only
after that: the gate guards the exhaustive search alone, so an instance past
it that a witness settles gets None, not DeskScaleExceeded. A None return
means EXHAUSTED: no decomposition exists at this (k, remainder) combination,
proved by that set or by enumerating the whole search space. That is a
statement about this instance, not about any threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .arboricity import _edges_within, _peel, _touched_pairs
from .graphs import Graph, graph_stats
from .limits import BOUNDED_SEARCH_DEFAULT, check_gate
from .matroid import _ForestPartition, matroid_partition

REMAINDER_KINDS = ("matching", "forest", "graph")


@dataclass(frozen=True)
class Decomposition:
    forests: tuple[frozenset[int], ...]
    remainder: frozenset[int]
    kind: str
    degree_bound: int | None = None


def _edge_priority(graph: Graph) -> list[int]:
    deg = graph.degrees()
    return sorted(
        graph.edge_ids(),
        key=lambda e: (
            -max(deg[graph.endpoints[e][0]], deg[graph.endpoints[e][1]]),
            -(deg[graph.endpoints[e][0]] + deg[graph.endpoints[e][1]]),
            e,
        ),
    )


def maximal_matchings(graph: Graph) -> Iterator[frozenset[int]]:
    """All maximal matchings, each exactly once, loop-free graphs only.

    Branches on the first edge (in priority order) with both endpoints
    unmatched: either an edge at u joins the matching, or u is pinned
    unmatched and some edge at v must join. The matching only grows below a
    branch point, so the edges before its pivot stay covered and the next
    pivot scan resumes there; each branch point yields its pivot position.
    """
    if graph.has_loop():
        raise ValueError("matchings are undefined with loops present")
    ends = graph.endpoints
    order = _edge_priority(graph)
    matched = [False] * graph.vertex_count
    pinned = [False] * graph.vertex_count
    chosen: list[int] = []
    at: list[list[int]] = [[] for _ in range(graph.vertex_count)]
    for e in order:
        u, v = ends[e]
        at[u].append(e)
        at[v].append(e)

    def branch(cursor: int, anchors: tuple[int, ...]) -> Iterator[int]:
        for which, anchor in enumerate(anchors):
            if which:
                # no edge at u joins: pin u and let an edge at v join
                pinned[anchors[0]] = True
            for e in at[anchor]:
                a, b = ends[e]
                w = b if a == anchor else a
                if matched[w] or pinned[w]:
                    continue
                matched[a] = matched[b] = True
                chosen.append(e)
                yield cursor
                matched[a] = matched[b] = False
                chosen.pop()
        if len(anchors) > 1:
            pinned[anchors[0]] = False

    frames: list[Iterator[int]] = [iter((0,))]
    while frames:
        cursor = next(frames[-1], -1)
        if cursor < 0:
            frames.pop()
            continue
        while cursor < len(order):
            u, v = ends[order[cursor]]
            if not matched[u] and not matched[v]:
                break
            cursor += 1
        if cursor == len(order):
            yield frozenset(chosen)
        elif not pinned[u] or not pinned[v]:
            anchors = (v,) if pinned[u] else (u,) if pinned[v] else (u, v)
            frames.append(branch(cursor, anchors))


def _remainder_cap(kind: str, d: int | None, s: int) -> int:
    """The most edges a remainder of this kind holds on s vertices."""
    if kind == "matching":
        return s // 2
    if kind == "graph":
        return d * s // 2
    return min(s - 1, d * s // 2)


def check_remainder(kind: str, d: int | None) -> None:
    """The remainder rule: a known kind, and a degree bound d >= 1 for a
    forest or a graph. A matching ignores d."""
    if kind not in REMAINDER_KINDS:
        raise ValueError(f"remainder kind must be one of {', '.join(REMAINDER_KINDS)}, got {kind!r}")
    if kind != "matching" and (d is None or d < 1):
        raise ValueError(f"a {kind} remainder needs a degree bound d >= 1")


def remainder_witness(
    graph: Graph, k: int, kind: str, d: int | None = None
) -> frozenset[int] | None:
    """A vertex set S that proves no k forests plus a remainder of this kind
    (max degree d for "forest" and "graph") cover E, or None.

    Inside S, k forests hold at most k (|S| - 1) edges and the remainder at
    most floor(|S| / 2) for a matching, floor(d |S| / 2) for a graph and
    min(|S| - 1, floor(d |S| / 2)) for a forest. S is the first set on the
    min-degree peeling chain (Charikar 2000) with more edges than that, ties
    to the lowest vertex; None decides nothing. The witness is re-counted on
    the graph before it is returned.
    """
    check_remainder(kind, d)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if graph.has_loop():
        raise ValueError("decomposition requires a loop-free graph")
    used, pairs = _touched_pairs(graph)
    limit = [k * (s - 1) + _remainder_cap(kind, d, s) for s in range(len(used) + 1)]
    peeled = set()  # with the first set's v = -1, which is no vertex
    for size, inside, v, _ in _peel(len(used), pairs):
        peeled.add(v)
        if inside > limit[size]:
            break
    else:
        return None
    witness = frozenset(x for i, x in enumerate(used) if i not in peeled)
    if _edges_within(graph, witness) <= limit[len(witness)]:
        raise AssertionError("internal error: the remainder witness is not over its edge bound")
    return witness


def decompose_forests_matching(graph: Graph, k: int) -> Decomposition | None:
    """k forests plus a matching covering E, or None when a counting witness
    rules it out or the search space (all maximal matchings) is exhausted."""
    if remainder_witness(graph, k, "matching") is not None:
        return None
    full = graph.full_edge_set()
    cap = k * max(graph.vertex_count - 1, 0)
    for matching in maximal_matchings(graph):
        rest = full - matching
        if len(rest) > cap:
            continue
        part, uncovered, _ = matroid_partition(graph, k, rest)
        if not uncovered:
            return Decomposition(
                forests=part.forest_sets(),
                remainder=matching,
                kind="matching",
                degree_bound=None,
            )
    return None


def decompose_forests_bounded(graph: Graph, k: int, d: int, kind: str) -> Decomposition | None:
    """k forests plus a max-degree-d remainder (a forest or an arbitrary
    graph, per kind). None means a counting witness rules it out or the
    assignment search is exhausted. The witness is asked first, so the size
    gate (DeskScaleExceeded) refuses only an instance it does not settle."""
    if kind not in ("forest", "graph"):
        raise ValueError(f"kind must be 'forest' or 'graph', got {kind!r}")
    if remainder_witness(graph, k, kind, d) is not None:
        return None
    check_gate(graph.edge_count, BOUNDED_SEARCH_DEFAULT, "decompose_forests_bounded")
    order = _edge_priority(graph)
    part = _ForestPartition(graph, k)
    deg_rem = [0] * graph.vertex_count
    forest_rem = _ForestPartition(graph, 1) if kind == "forest" else None

    def branch(idx: int) -> Iterator[int]:
        e = order[idx]
        u, v = graph.endpoints[e]
        mark = part.snapshot()
        ok, _ = part.try_insert(e)
        if ok:
            yield idx + 1
            part.restore(mark)
        if deg_rem[u] < d and deg_rem[v] < d and (
            forest_rem is None or forest_rem._forest_path(0, u, v) is None
        ):
            deg_rem[u] += 1
            deg_rem[v] += 1
            if forest_rem is not None:
                forest_rem._add(0, e)
            yield idx + 1
            if forest_rem is not None:
                forest_rem._remove(0, e)
            deg_rem[u] -= 1
            deg_rem[v] -= 1

    frames: list[Iterator[int]] = [iter((0,))]
    while frames:
        idx = next(frames[-1], -1)
        if idx < 0:
            frames.pop()
        elif idx == len(order):
            return Decomposition(
                forests=part.forest_sets(),
                # .difference, not -, keeps it a frozenset
                remainder=graph.full_edge_set().difference(part.owner),
                kind=kind,
                degree_bound=d,
            )
        else:
            frames.append(branch(idx))
    return None


def verify_decomposition(
    graph: Graph, decomposition: Decomposition, k: int, d: int | None = None
) -> tuple[bool, str | None]:
    """Re-check every clause from scratch; returns the first violated one.

    Trusts nothing from the solver: disjointness and coverage are recomputed
    from the union of the parts, and each part's acyclicity, matching flag
    and largest degree are read from graph_stats. The one graph_stats call
    per part is also the one edge-id check, and it runs on every part before
    any later clause, so a bad id is reported first.
    """
    dec = decomposition
    if dec.kind not in REMAINDER_KINDS:
        return False, f"unknown remainder kind {dec.kind!r}"
    if len(dec.forests) != k:
        return False, f"expected {k} forests, got {len(dec.forests)}"
    parts = (*dec.forests, dec.remainder)
    try:
        *forest_stats, stats = [graph_stats(graph, p) for p in parts]
    except ValueError as exc:
        return False, str(exc)
    union = frozenset().union(*parts)
    if sum(map(len, parts)) != len(union):
        return False, "parts not disjoint"
    if union != graph.full_edge_set():
        return False, "parts do not cover all edges"
    for i, s in enumerate(forest_stats):
        if not s.is_forest:
            return False, f"forest {i} contains a cycle"
    if dec.kind == "matching":
        if not stats.is_matching:
            return False, "remainder is not a matching"
        return True, None
    bound = d if d is not None else dec.degree_bound
    if bound is None:
        return False, "missing degree bound for the remainder"
    if stats.max_degree > bound:
        return False, f"remainder degree exceeds {bound}"
    if dec.kind == "forest" and not stats.is_forest:
        return False, "remainder contains a cycle"
    return True, None
