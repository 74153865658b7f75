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
it when no forest path links its endpoints, and is added and removed directly,
with no augmentation. A graph remainder needs only its degree counts.

A None return means EXHAUSTED: the whole search space was enumerated and no
decomposition exists at this (k, remainder) combination. That is a statement
about this instance, not about any threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .graphs import Graph, check_edge_subset, graph_stats
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
    unmatched and some edge at v must join.
    """
    if graph.has_loop():
        raise ValueError("matchings are undefined with loops present")
    order = _edge_priority(graph)
    matched = [False] * graph.vertex_count
    pinned = [False] * graph.vertex_count
    chosen: list[int] = []
    at: list[list[int]] = [[] for _ in range(graph.vertex_count)]
    for e in order:
        u, v = graph.endpoints[e]
        at[u].append(e)
        at[v].append(e)

    def usable(e: int, x: int) -> bool:
        u, v = graph.endpoints[e]
        w = v if x == u else u
        return not matched[w] and not pinned[w]

    def take(e: int):
        u, v = graph.endpoints[e]
        matched[u] = matched[v] = True
        chosen.append(e)

    def drop(e: int):
        u, v = graph.endpoints[e]
        matched[u] = matched[v] = False
        chosen.pop()

    def walk() -> Iterator[frozenset[int]]:
        pivot = None
        for e in order:
            u, v = graph.endpoints[e]
            if not matched[u] and not matched[v]:
                pivot = e
                break
        if pivot is None:
            yield frozenset(chosen)
            return
        u, v = graph.endpoints[pivot]
        if pinned[u] and pinned[v]:
            return
        if pinned[u] or pinned[v]:
            anchor = v if pinned[u] else u
            for e in at[anchor]:
                if usable(e, anchor):
                    take(e)
                    yield from walk()
                    drop(e)
            return
        for e in at[u]:
            if usable(e, u):
                take(e)
                yield from walk()
                drop(e)
        pinned[u] = True
        for e in at[v]:
            if usable(e, v):
                take(e)
                yield from walk()
                drop(e)
        pinned[u] = False

    yield from walk()


def decompose_forests_matching(graph: Graph, k: int) -> Decomposition | None:
    """k forests plus a matching covering E, or None when the search space
    (all maximal matchings) is exhausted."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if graph.has_loop():
        raise ValueError("decomposition requires a loop-free graph")
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
    graph, per kind). None means the assignment search is exhausted."""
    if kind not in ("forest", "graph"):
        raise ValueError(f"kind must be 'forest' or 'graph', got {kind!r}")
    if d < 1:
        raise ValueError("d must be a positive integer")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if graph.has_loop():
        raise ValueError("decomposition requires a loop-free graph")
    check_gate(graph.edge_count, BOUNDED_SEARCH_DEFAULT, "decompose_forests_bounded")
    order = _edge_priority(graph)
    part = _ForestPartition(graph, k)
    deg_rem = [0] * graph.vertex_count
    remainder: list[int] = []
    forest_rem = _ForestPartition(graph, 1) if kind == "forest" else None

    def assign(idx: int) -> Decomposition | None:
        if idx == len(order):
            return Decomposition(
                forests=part.forest_sets(),
                remainder=frozenset(remainder),
                kind=kind,
                degree_bound=d,
            )
        e = order[idx]
        u, v = graph.endpoints[e]
        mark = part.snapshot()
        ok, _ = part.try_insert(e)
        if ok:
            found = assign(idx + 1)
            if found is not None:
                return found
            part.restore(mark)
        if deg_rem[u] < d and deg_rem[v] < d and (
            forest_rem is None or forest_rem._forest_path(0, u, v) is None
        ):
            remainder.append(e)
            deg_rem[u] += 1
            deg_rem[v] += 1
            if forest_rem is not None:
                forest_rem._add(0, e)
            found = assign(idx + 1)
            if found is not None:
                return found
            if forest_rem is not None:
                forest_rem._remove(0, e)
            deg_rem[u] -= 1
            deg_rem[v] -= 1
            remainder.pop()
        return None

    return assign(0)


def verify_decomposition(
    graph: Graph, decomposition: Decomposition, k: int, d: int | None = None
) -> tuple[bool, str | None]:
    """Re-check every clause from scratch; returns the first violated one.

    Trusts nothing from the solver: disjointness, coverage, acyclicity of
    each forest, and the remainder-kind condition are all recomputed.
    """
    dec = decomposition
    if dec.kind not in REMAINDER_KINDS:
        return False, f"unknown remainder kind {dec.kind!r}"
    if len(dec.forests) != k:
        return False, f"expected {k} forests, got {len(dec.forests)}"
    try:
        parts = [check_edge_subset(graph, f) for f in dec.forests]
        rem = check_edge_subset(graph, dec.remainder)
    except ValueError as exc:
        return False, str(exc)
    total = 0
    union: set[int] = set()
    for p in parts:
        total += len(p)
        union |= p
    total += len(rem)
    union |= rem
    if total != len(union):
        return False, "parts not disjoint"
    if union != graph.full_edge_set():
        return False, "parts do not cover all edges"
    for i, p in enumerate(parts):
        if not graph_stats(graph, p).is_forest:
            return False, f"forest {i} contains a cycle"
    rem_stats = graph_stats(graph, rem)
    if dec.kind == "matching":
        if not rem_stats.is_matching:
            return False, "remainder is not a matching"
        return True, None
    bound = d if d is not None else dec.degree_bound
    if bound is None:
        return False, "missing degree bound for the remainder"
    degs: dict[int, int] = {}
    for e in rem:
        u, v = graph.endpoints[e]
        degs[u] = degs.get(u, 0) + 1
        degs[v] = degs.get(v, 0) + 1
    if degs and max(degs.values()) > bound:
        return False, f"remainder degree exceeds {bound}"
    if dec.kind == "forest" and not rem_stats.is_forest:
        return False, "remainder contains a cycle"
    return True, None
