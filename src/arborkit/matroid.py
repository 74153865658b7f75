"""Cycle-matroid layer: ranks, k-fold unions, duals and flats.

The cycle matroid of a multigraph has rank n(X) - c(X) on an edge set X
(vertices touched minus components of the edge-induced subgraph); a set is
independent exactly when it is a forest, loops are rank-0 dependent
singletons, and two parallel edges form a dependent pair.

The rank of X in the k-fold union (largest subset of X coverable by k
forests) is computed by the classic matroid-partition augmenting search: k
disjoint forests are grown one element at a time, and a new element e is
inserted by a breadth-first search over exchange moves. The element f can
push g out of forest j whenever g lies on the fundamental cycle of f in
forest j, so a shortest chain of pushes ending at a forest with room absorbs
e. When the search exhausts without reaching a slot, the set L of reached
elements satisfies r(L) = |F_j intersect L| for every j, which yields
|L| > k * r(L) with e uncovered, a certificate that L fits in no k forests.

_ForestPartition is the one partition engine; its undo log makes snapshot()
a mark and restore(mark) a roll-back, through which the bounded search in
decompose.py backtracks. That search also keeps a forest remainder in a
one-forest _ForestPartition, whose forest path between the endpoints of an
edge says whether the edge would close a cycle. union_rank_table does not
augment per subset: it evaluates the union formula r_k(X) = min over T of
|X - T| + k * r(T) (Nash-Williams 1966; Edmonds 1968) for every X at once,
from a cycle-rank table and a subset-min transform, and checks the full set
against the augmenting search. Flats come from one bitmask scan, flat_masks.
The brute-force evaluation of the formula, one X at a time, lives with the
test oracles.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable

from .graphs import Graph, _spanning_forest_size, check_edge_subset
from .limits import DeskScaleExceeded, UNION_TABLE_HARD_CAP

_TRANSFORM_PIECE = 1 << 13  # longest slice of union_rank_table's transform


class RankOracle:
    """A matroid presented by its rank function over ground set 0..size-1."""

    def __init__(self, ground_set_size: int, fn: Callable[[frozenset[int]], int]):
        self.ground_set_size = ground_set_size
        self._fn = fn
        self._cache: dict[frozenset[int], int] = {}

    def ground_set(self) -> frozenset[int]:
        return frozenset(range(self.ground_set_size))

    def rank(self, subset: Iterable[int]) -> int:
        key = frozenset(subset)
        for x in key:
            if not (0 <= x < self.ground_set_size):
                raise ValueError(f"element {x!r} outside ground set")
        got = self._cache.get(key)
        if got is None:
            got = self._fn(key)
            self._cache[key] = got
        return got


def cycle_rank(graph: Graph, subset: Iterable[int]) -> int:
    """n(X) - c(X): the size of any spanning forest of the subset."""
    edges = check_edge_subset(graph, subset)
    return _spanning_forest_size(graph.endpoints[e] for e in edges)


def cycle_matroid(graph: Graph) -> RankOracle:
    return RankOracle(graph.edge_count, lambda X: cycle_rank(graph, X))


class _ForestPartition:
    """k disjoint forests over edges of one graph, with augmenting insertion
    and an undo log.

    matroid_partition (and through it union_rank and partition_into_forests)
    grows one from empty; the bounded search in decompose.py backtracks
    through its undo log. Every move of an augmenting chain is logged as
    (edge, previous owner, new owner), with None as the previous owner of
    the inserted edge. snapshot() is a mark into the log; restore(mark)
    reverses the moves logged after it, newest first.
    """

    def __init__(self, graph: Graph, k: int):
        if k < 0:
            raise ValueError("k must be nonnegative")
        self.graph = graph
        self.k = k
        self.owner: dict[int, int] = {}
        self.adj: list[dict[int, list[tuple[int, int]]]] = [dict() for _ in range(k)]
        self.log: list[tuple[int, int | None, int]] = []

    def forest_sets(self) -> tuple[frozenset[int], ...]:
        sets: list[set[int]] = [set() for _ in range(self.k)]
        for e, j in self.owner.items():
            sets[j].add(e)
        return tuple(frozenset(s) for s in sets)

    def snapshot(self) -> int:
        return len(self.log)

    def restore(self, mark: int) -> None:
        log = self.log
        while len(log) > mark:
            eid, prev, new = log.pop()
            self._remove(new, eid)
            if prev is not None:
                self._add(prev, eid)

    def _add(self, j: int, eid: int) -> None:
        u, v = self.graph.endpoints[eid]
        self.adj[j].setdefault(u, []).append((eid, v))
        if u != v:
            self.adj[j].setdefault(v, []).append((eid, u))
        self.owner[eid] = j

    def _remove(self, j: int, eid: int) -> None:
        u, v = self.graph.endpoints[eid]
        self.adj[j][u].remove((eid, v))
        if u != v:
            self.adj[j][v].remove((eid, u))
        del self.owner[eid]

    def _forest_path(self, j: int, source: int, target: int) -> list[int] | None:
        """Edge ids of the source->target path inside forest j, else None."""
        if source == target:
            return []
        forest = self.adj[j]
        if not forest.get(source) or not forest.get(target):
            return None
        via: dict[int, tuple[int, int] | None] = {source: None}
        queue = deque([source])
        while queue:
            x = queue.popleft()
            for eid, y in forest.get(x, ()):
                if y in via:
                    continue
                via[y] = (eid, x)
                if y == target:
                    path = []
                    cur = y
                    while via[cur] is not None:
                        eid2, prev = via[cur]
                        path.append(eid2)
                        cur = prev
                    return path
                queue.append(y)
        return None

    def try_insert(self, eid: int) -> tuple[bool, frozenset[int] | None]:
        """Cover eid, rearranging as needed.

        Returns (True, None) on success. On failure returns (False, L) where
        L is the reached label set; L always satisfies |L| > k * r(L).
        """
        endpoints = self.graph.endpoints
        parent: dict[int, int | None] = {eid: None}
        queue = deque([eid])
        while queue:
            f = queue.popleft()
            # in the forest that holds f its circuit is [f], already labelled
            own = self.owner.get(f)
            for j in range(self.k):
                if j == own:
                    continue
                # the exchange partners of f in forest j: the forest path
                # between its endpoints, [] for a loop, None when j + f is a
                # forest
                circuit = self._forest_path(j, *endpoints[f])
                if circuit is None:
                    self._apply_chain(parent, f, j)
                    return True, None
                for g in circuit:
                    if g not in parent:
                        parent[g] = f
                        queue.append(g)
        return False, frozenset(parent)

    def _apply_chain(self, parent: dict[int, int | None], last: int, slot: int) -> None:
        # walk from the slot end back to the new element, the only unowned
        # element of the chain, logging each move as it is made
        x, target = last, slot
        touched = {slot}
        while True:
            prev = self.owner.get(x)
            self.log.append((x, prev, target))
            if prev is not None:
                self._remove(prev, x)
                touched.add(prev)
            self._add(target, x)
            if prev is None:
                break
            x, target = parent[x], prev
        for j in touched:
            self._assert_forest(j)

    def _assert_forest(self, j: int) -> None:
        # every edge owner assigns to forest j, a loop included, must join
        # two different components of the edges before it; raised, not
        # asserted, so python -O keeps the check. It keeps its own pass over
        # owner rather than graphs._spanning_forest_size: building the pairs
        # for that call cost about 6% on partition and bounded-search calls
        # in an interleaved A/B, and the bench tracer would wrap the
        # cross-module call in a span on every augmentation
        endpoints = self.graph.endpoints
        parent: dict[int, int] = {}
        for e, owner in self.owner.items():
            if owner != j:
                continue
            u, v = endpoints[e]
            # path halving keeps the finds short on deep chains, a star
            # linked leaf by leaf among them
            while u in parent:
                p = parent[u]
                parent[u] = u = parent.get(p, p)
            while v in parent:
                p = parent[v]
                parent[v] = v = parent.get(p, p)
            if u == v:
                raise AssertionError(f"internal error: forest {j} acquired a cycle")
            parent[u] = v


def matroid_partition(
    graph: Graph, k: int, subset: Iterable[int]
) -> tuple[_ForestPartition, frozenset[int], frozenset[int] | None]:
    """Grow k forests over the subset, element by element in id order.

    Returns (partition, uncovered, violation). uncovered are the elements no
    augmentation could place; violation is the label set of the last failure
    (None when everything fits).
    """
    edges = sorted(check_edge_subset(graph, subset))
    part = _ForestPartition(graph, k)
    uncovered = []
    violation = None
    for e in edges:
        ok, label = part.try_insert(e)
        if not ok:
            uncovered.append(e)
            violation = label
    return part, frozenset(uncovered), violation


def union_rank(graph: Graph, k: int, subset: Iterable[int]) -> int:
    """Rank of the subset in the k-fold union of the cycle matroid."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    edges = check_edge_subset(graph, subset)
    _, uncovered, _ = matroid_partition(graph, k, edges)
    return len(edges) - len(uncovered)


def union_rank_table(graph: Graph, k: int) -> list[int]:
    """union_rank for every subset, indexed by edge bitmask.

    By the matroid union theorem (Nash-Williams 1966; Edmonds 1968)
    r_k(X) = min over T subset of X of |X - T| + k * r(T), with r the cycle
    rank. Two passes fill one 2^m-entry list. The first stores k * r(T) for
    every T: a depth-first walk of the subset tree (the parent of a mask is
    the mask without its lowest edge) with a union-find that rolls back,
    where an edge raises the rank exactly when it joins two components (a
    loop never does). The second is the subset-min transform (Yates 1937):
    for each bit, s[X] = min(s[X], s[X - bit] + 1) over every X holding the
    bit, in place, one map over a pair of slices at a time. The list is
    then r_k. Besides the list, memory holds one slice pair and its result,
    each at most _TRANSFORM_PIECE long for any m; no popcount or second table
    is kept. The full set is checked against the augmenting union_rank.
    """
    m = graph.edge_count
    if m > UNION_TABLE_HARD_CAP:
        raise DeskScaleExceeded(f"union_rank_table needs |E| <= {UNION_TABLE_HARD_CAP}, got {m}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    endpoints = graph.endpoints
    table = [0] * (1 << m)
    # union by size without path compression, so a union is undone by
    # resetting one parent pointer and one size
    up = list(range(graph.vertex_count))
    size = [1] * graph.vertex_count

    def walk(mask: int, below: int, value: int) -> None:
        for e in range(below):
            u, v = endpoints[e]
            while up[u] != u:
                u = up[u]
            while up[v] != v:
                v = up[v]
            child = mask | 1 << e
            if u == v:
                table[child] = value
                if e:
                    walk(child, e, value)
                continue
            if size[u] < size[v]:
                u, v = v, u
            up[v] = u
            size[u] += size[v]
            table[child] = value + k
            if e:
                walk(child, e, value + k)
            up[v] = v
            size[u] -= size[v]

    walk(0, m, 0)

    plus_one = (1).__add__
    for i in range(m):
        step = 1 << i
        block = step << 1
        # low bit: a strided run per offset in a block; high bit: a run per block
        if step <= 1 << (m - 1 - i):
            starts, stride, count = range(step), block, 1 << (m - 1 - i)
        else:
            starts, stride, count = range(0, 1 << m, block), 1, step
        span = min(count, _TRANSFORM_PIECE) * stride
        for start in starts:
            for lo in range(start, start + count * stride, span):
                hi = slice(lo + step, lo + step + span, stride)
                table[hi] = map(min, table[hi], map(plus_one, table[lo:lo + span:stride]))

    full = (1 << m) - 1
    if table[full] != union_rank(graph, k, range(m)):
        raise AssertionError("internal error: union table disagrees with augmenting union_rank")
    return table


def dual_rank(base: RankOracle, subset: Iterable[int]) -> int:
    """|X| + r(E - X) - r(E) for the base matroid's rank function r."""
    ground = base.ground_set()
    key = frozenset(subset)
    return len(key) + base.rank(ground - key) - base.rank(ground)


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def flat_masks(size: int, rank: Callable[[int], int]) -> list[int]:
    """Bitmasks of all flats of a matroid on 0..size-1, in increasing order,
    given its rank function on bitmasks: X is a flat iff every outside
    element raises the rank."""
    flats = []
    for mask in range(1 << size):
        raised = rank(mask) + 1
        for e in range(size):
            if not mask >> e & 1 and rank(mask | 1 << e) != raised:
                break
        else:
            flats.append(mask)
    return flats
