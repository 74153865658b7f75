"""Cycle-matroid layer: ranks, k-fold unions and flats.

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
e (Roskind and Tarjan 1985; Gabow and Westermann 1992). When the search
exhausts without reaching a slot, the set L of reached elements satisfies
r(L) = |F_j intersect L| for every j, which yields |L| > k * r(L) with e
uncovered, a certificate that L fits in no k forests.

_ForestPartition is the one partition engine. It keeps each forest as
parent pointers, so the fundamental cycle of f in forest j is the two climbs
from f's endpoints to the first vertex they share, O(depth) per query, and
a climb that reaches a root first means f joins two trees. Its undo log
makes snapshot() a mark and restore(mark) a roll-back, through which the
bounded search in decompose.py backtracks. That search also keeps a forest
remainder in a one-forest _ForestPartition: an edge whose endpoints climb
to two different roots there closes no cycle. The engine checks each answer
it gives, not each step it takes (McConnell, Mehlhorn, Naher and Schweitzer
2011), with the one forest count, graphs._spanning_forest_size:
forest_sets() counts each forest as it reads them, and a failed insertion
re-counts its L before it returns it. union_rank_table does not
augment per subset: it evaluates the union formula r_k(X) = min over T of
|X - T| + k * r(T) (Nash-Williams 1966; Edmonds 1968) for every X at once,
from a cycle-rank table built edge by edge and a subset-min transform, both
run in pieces of _LANE_PIECE lanes (the cycle-rank build holds n ints of one
piece), and checks the full set against the augmenting search. Flats come
from one scan of a rank table, flat_masks. The brute-force evaluation of
the formula, one X at a time, lives with the test oracles.

All run on byte lanes: a table over the subsets of m elements is 2^m bytes,
the value for bitmask X in byte X, read as one Python int with byte X in
bits 8X..8X+7. The byteorder is always passed as "little", since Python 3.10
has no default for it. A step over one element bit is then a few big-int
operations: a shift by 8 * 2^i bits moves the lane of X + 2^i onto X, a mask
picks the lanes that hold the bit, and _lane_min compares and selects
lane-wise. That compare needs every lane below 128: the lanes of the union
transform stay at most m + 2 <= 22 under UNION_TABLE_HARD_CAP.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from .graphs import Graph, _spanning_forest_size, check_edge_subset
from .limits import DeskScaleExceeded, UNION_TABLE_HARD_CAP

_LANE_PIECE = 1 << 13  # byte lanes in one piece of the cycle-rank build and the union transform


def cycle_rank(graph: Graph, subset: Iterable[int]) -> int:
    """n(X) - c(X): the size of any spanning forest of the subset."""
    edges = check_edge_subset(graph, subset)
    return _spanning_forest_size(graph.endpoints[e] for e in edges)


class _ForestPartition:
    """k disjoint forests over edges of one graph, with augmenting insertion
    and an undo log.

    matroid_partition (and through it union_rank and partition_into_forests)
    grows one from empty; the bounded search in decompose.py backtracks
    through its undo log. Every move of an augmenting chain is logged as
    (edge, previous owner, new owner), with None as the previous owner of
    the inserted edge. snapshot() is a mark into the log; restore(mark)
    reverses the moves logged after it, newest first.

    Forest j is up[j], which maps a vertex to its parent and the id of the
    edge between them; a root has no entry.

    No forest ever holds a loop: its circuit is [] in every forest, so
    try_insert never places one, and the one-forest remainder of the bounded
    search sees loop-free graphs only. _add raises on an edge whose
    endpoints already share a root, a loop included, before it links, so no
    fault can leave a parent cycle for a later climb to loop on. owner
    itself is checked where the engine answers, not after each move:
    forest_sets() counts every forest it reads, and a failed try_insert
    re-counts its label set. Owner states that a restore undoes before any
    caller reads them go unchecked.
    """

    def __init__(self, graph: Graph, k: int):
        if k < 0:
            raise ValueError("k must be nonnegative")
        self.graph = graph
        self.k = k
        self.owner: dict[int, int] = {}
        self.up: list[dict[int, tuple[int, int]]] = [dict() for _ in range(k)]
        self.log: list[tuple[int, int | None, int]] = []

    def forest_sets(self) -> tuple[frozenset[int], ...]:
        """The k forests as owner assigns them, each counted as it is read."""
        sets: list[set[int]] = [set() for _ in range(self.k)]
        for e, j in self.owner.items():
            sets[j].add(e)
        endpoints = self.graph.endpoints
        for j, s in enumerate(sets):
            if _spanning_forest_size(endpoints[e] for e in s) != len(s):
                raise AssertionError(f"internal error: forest {j} acquired a cycle")
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
        up = self.up[j]
        u, v = self.graph.endpoints[eid]
        # endpoints with one root, a loop included, would close a cycle
        x, y = u, v
        while x in up:
            x = up[x][0]
        while y in up:
            y = up[y][0]
        if x == y:
            raise AssertionError(f"internal error: forest {j} acquired a cycle")
        # re-root u's tree at u, each vertex on u's old path to its root
        # pointing back at the one below it, and hang u below v
        x, link = u, (v, eid)
        while True:
            above = up.get(x)
            up[x] = link
            if above is None:
                break
            link = (x, above[1])
            x = above[0]
        self.owner[eid] = j

    def _remove(self, j: int, eid: int) -> None:
        up = self.up[j]
        u, v = self.graph.endpoints[eid]
        # the one pointer that holds the edge hangs one endpoint below the other
        del up[u if u in up and up[u][1] == eid else v]
        del self.owner[eid]

    def _forest_path(self, j: int, source: int, target: int) -> list[int] | None:
        """Edge ids of the path between source and target inside forest j,
        from the target end to the source end, else None."""
        up = self.up[j]
        # source's ancestors, each with the number of edges below it on the
        # climb from source
        climb: list[int] = []
        depth = {source: 0}
        step = up.get(source)
        while step is not None:
            x, eid = step
            climb.append(eid)
            depth[x] = len(climb)
            step = up.get(x)
        # target climbs to the first of them, then the path descends to source
        path: list[int] = []
        x = target
        while x not in depth:
            step = up.get(x)
            if step is None:
                return None
            x, eid = step
            path.append(eid)
        path.extend(reversed(climb[:depth[x]]))
        return path

    def try_insert(self, eid: int) -> tuple[bool, frozenset[int] | None]:
        """Cover eid, rearranging as needed.

        Returns (True, None) on success. On failure returns (False, L) where
        L is the reached label set: eid and owned edges only, with
        |L| > k * r(L), both checked here (raised, not asserted, so python -O
        keeps them).
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
        # a label outside owner is an edge that the parent pointers hold and
        # owner does not
        owner = self.owner
        rank = _spanning_forest_size(endpoints[f] for f in parent)
        if len(parent) <= self.k * rank or any(f != eid and f not in owner for f in parent):
            raise AssertionError(f"internal error: label set of edge {eid} is no violation")
        return False, frozenset(parent)

    def _apply_chain(self, parent: dict[int, int | None], last: int, slot: int) -> None:
        # walk from the slot end back to the new element, the only unowned
        # element of the chain, logging each move as it is made; _add
        # refuses a move that would close a cycle in the pointers, and
        # forest_sets() counts owner whenever a caller reads it
        x, target = last, slot
        while True:
            prev = self.owner.get(x)
            self.log.append((x, prev, target))
            if prev is not None:
                self._remove(prev, x)
            self._add(target, x)
            if prev is None:
                break
            x, target = parent[x], prev


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
    part, _, _ = matroid_partition(graph, k, subset)
    return sum(map(len, part.forest_sets()))


def _bit_lanes(count: int, bit: int) -> int:
    """0xff in each of count byte lanes whose index holds the bit, 0 in the
    others; count is a power of two, at least 2^(bit + 1)."""
    run = 1 << bit
    return int.from_bytes((bytes(run) + b"\xff" * run) * (count >> bit + 1), "little")


def _lane_min(s: int, cand: int, guard: int) -> int:
    """Lane-wise min(s, cand) in the byte lanes where guard holds 0x80; s in
    the others, where cand must be 0.

    Every lane of s and cand is below 0x80, so (s | guard) - cand borrows
    across no lane and keeps bit 7 of a guarded lane exactly where
    s >= cand; that bit, spread to 0xff, selects cand.
    """
    take = ((s | guard) - cand) & guard
    return s ^ ((s ^ cand) & (take >> 7) * 0xFF)


def _cycle_rank_lanes(graph: Graph) -> bytearray:
    """The cycle rank r(T) in byte T for every edge subset T.

    Edge e doubles the table over the subsets of the edges before it:
    r(T + e) = r(T) + 1 - J(T), where J(T) is 1 when T joins e's endpoints
    u and v (always, for a loop). Lanes are independent, so each piece of
    min(2^e, _LANE_PIECE) lanes is solved alone, and reach holds n ints of
    one piece: 0xff in lane T of reach[x] when T joins u to x. From reach[u]
    all 0xff, each earlier edge f sets both endpoints in the lanes that hold
    f and reach just one of them, until a round over the edges sets nothing.
    An f below the piece width takes its lanes from a mask built once at the
    widest piece, which & cuts to the piece; an f at or above it is in every
    lane of the piece (mask -1) or in none (left out).
    """
    endpoints = graph.endpoints
    ranks = bytearray(1 << len(endpoints))
    widest = min(len(ranks) >> 1, _LANE_PIECE)
    masks = [_bit_lanes(widest, f) for f in range(widest.bit_length() - 1)]
    for e, (u, v) in enumerate(endpoints):
        count = 1 << e
        width = min(count, _LANE_PIECE)
        ones = int.from_bytes(b"\x01" * width, "little")
        below = [(*endpoints[f], masks[f]) for f in range(width.bit_length() - 1)]
        for at in range(0, count, width):
            spread = below + [(*endpoints[f], -1) for f in range(len(below), e) if at >> f & 1]
            reach = [0] * graph.vertex_count
            reach[u] = ones * 0xFF
            changed = True
            while changed:
                changed = False
                for a, b, mask in spread:
                    diff = (reach[a] ^ reach[b]) & mask  # 0 for a loop, or nothing to spread
                    if diff:
                        reach[a] |= diff
                        reach[b] |= diff
                        changed = True
            low = int.from_bytes(ranks[at:at + width], "little")
            ranks[count + at:count + at + width] = (low + ones - (reach[v] & ones)).to_bytes(width, "little")
    return ranks


def union_rank_table(graph: Graph, k: int) -> bytes:
    """union_rank for every subset, indexed by edge bitmask.

    By the matroid union theorem (Nash-Williams 1966; Edmonds 1968)
    r_k(X) = min over T subset of X of |X - T| + k * r(T), with r the cycle
    rank, from _cycle_rank_lanes. One bytes.translate turns r into
    min(k * r, m + 1); a clamped entry never wins the min, since
    r_k(X) <= |X| <= m. The subset-min transform (Yates 1937) then sets
    s[X] = min(s[X], s[X - bit] + 1) for each bit over every X holding it,
    on byte lanes (see _lane_min), in pieces of _LANE_PIECE lanes: a bit
    below the piece width shifts lanes inside each piece, a higher bit pairs
    whole pieces. The bytes, one per subset, are then r_k. The full set is
    checked against the augmenting union_rank.
    """
    m = graph.edge_count
    if m > UNION_TABLE_HARD_CAP:
        raise DeskScaleExceeded(f"union_rank_table needs |E| <= {UNION_TABLE_HARD_CAP}, got {m}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    ranks = _cycle_rank_lanes(graph)
    clamp = bytes(min(k * r, m + 1) for r in range(256))
    width = min(len(ranks), _LANE_PIECE)
    ones = int.from_bytes(b"\x01" * width, "little")
    high = ones << 7
    pieces = [
        int.from_bytes(ranks[at:at + width].translate(clamp), "little")
        for at in range(0, len(ranks), width)
    ]
    inside = width.bit_length() - 1  # the element bits below the piece width
    for i in range(inside):
        has_bit = _bit_lanes(width, i)
        shift, one, guard = 8 << i, ones & has_bit, high & has_bit
        pieces = [_lane_min(s, ((s << shift) & has_bit) + one, guard) for s in pieces]
    for i in range(m - inside):
        step = 1 << i
        for j in range(step, len(pieces)):
            if j & step:
                pieces[j] = _lane_min(pieces[j], pieces[j - step] + ones, high)
    table = b"".join(piece.to_bytes(width, "little") for piece in pieces)

    full = (1 << m) - 1
    if table[full] != union_rank(graph, k, range(m)):
        raise AssertionError("internal error: union table disagrees with augmenting union_rank")
    return table


def flat_masks(size: int, ranks: bytes) -> list[int]:
    """Bitmasks of all flats of a matroid on 0..size-1, in increasing order,
    given its rank table: rank(X) in byte X, for each of the 2^size subsets.

    X is a flat iff R[X + e] = R[X] + 1 for every e outside X. Per element,
    the table shifted down by e's lanes puts R[X + e] in lane X; one xor with
    R + 1 leaves a nonzero lane where X fails, and the lanes without e are
    OR'd into a bad mask. The flats are its zero lanes. R + 1 carries across
    no lane, as every rank is at most size.
    """
    count = 1 << size
    table = int.from_bytes(ranks, "little")
    raised = table + int.from_bytes(b"\x01" * count, "little")
    bad = 0
    for e in range(size):
        shift = 8 << e
        bad |= ((table >> shift) ^ raised) & _bit_lanes(count, e) >> shift
    return _zero_lanes(bad, count)


def _zero_lanes(lanes: int, count: int) -> list[int]:
    """The indices of the zero lanes among count byte lanes, in increasing order."""
    table = lanes.to_bytes(count, "little")
    out = []
    at = table.find(0)
    while at >= 0:
        out.append(at)
        at = table.find(0, at + 1)
    return out
