"""Arboricity, exact fractional arboricity, and forest partitions.

fractional_arboricity maximizes |E(S)| / (|S| - 1) over vertex subsets with
at least two vertices, as an exact rational. It runs a Dinkelbach-style
iteration: lambda starts at the density of the densest set on the
min-degree peeling chain (Charikar 2000), a real set and so at most the
optimum, and each step solves max |E(S)| - lambda (|S| - 1) through
integer min cuts, one per vertex v in increasing order, with v free of the
per-vertex charge, which makes the "-1" in the denominator exact rather
than approximate (Picard and Queyranne 1982). The flow for v is built over
the edges among v..n-1 alone: a set with a lower vertex was weighed at
that vertex already (vertex elimination, as in Gabow's parametric flows,
1998).

Each min cut runs on a load network with n + 2 nodes, the source, the sink
and one per vertex, and one arc per edge (Hakimi 1965; Goldberg 1984). At
lambda = p/q with free vertex r, each edge puts q units of load on one
endpoint, never on r, and an arc of capacity q lets them move to the other.
A vertex x has room c_x, which is p, or 0 for r; with L_x its load, an
overloaded vertex gets a source arc of L_x - c_x and an underloaded one a
sink arc of c_x - L_x; overload is the sum of those L_x - c_x. A source
side S (the source plus a vertex set) cuts the source arcs outside S, the
sink arcs inside, and the arc of q of each edge loaded inside S with its
other end outside, a leaving edge. So the cut is overload minus the sum of
L_x - c_x over S, plus q per leaving edge. The load inside S is q |E(S)|
plus q per leaving edge, so the cut is
    overload - (q |E(S)| - p (|S| - [r in S])),
overload minus the excess of S, and the largest excess is overload minus
the max flow. The classic edge-node network (a source arc of q per edge
node and two uncuttable arcs to its endpoints) cuts q |E| minus the same
excess at its best edge nodes. The two cut functions differ by a constant,
so they have the same minimizers, and the minimal and the maximal min-cut
source sides are the same sets in both. Which endpoint takes an edge's
load moves only the constant. One generator, _min_cuts, builds and solves
these networks, one per free vertex in order, and yields each with its
excess, and both readers, the threshold test and the density loop, stop at
the first positive excess: only a pass that certifies runs to the end.

Every step either produces a strictly denser subset or certifies
that none beats lambda, so the candidate densities visited strictly
increase and the loop ends after at most the number of distinct densities.
The witness comes from the certifying pass alone: the largest maximal
min-cut source side there is the largest densest set, the one with the
lowest lowest vertex on a tie, so it does not depend on where lambda
started or which sets the steps before found.

The threshold test gamma_f <= p/q peels first: greedy min-degree peeling
(Charikar 2000) walks a chain of ever smaller vertex sets, and the test
rejects at once if one of them has q |E(S)| > p (|S| - 1), checked exactly
in integers. Only when no peeled set is that dense does it solve min cuts,
so acceptance is always decided by a flow. One peel loop, _peel, serves
the threshold test, the density loop's start, both cores, the remainder
witness and the generator's draws, and each of them walks its chain
directly. One pass builds the adjacency lists, whose lengths are the
degrees, and every peeled vertex is popped from a heap of (degree, vertex)
keys with lazy deletion: the least live key is the lowest vertex of least
degree, and the peel takes O(n + m log n).
Neither the density loop nor the peel walks vertices that no edge touches,
so a sparse graph with a huge vertex count costs what its edges cost.

Both flow-based routines then run on a core only: the k-core is what is
left once every vertex of degree below k is dropped, again and again.
Dropping v from S changes the excess |E(S)| - lambda (|S| - 1) by
lambda - deg_S(v). So if S has the largest excess at lambda, |S| >= 3, a v
with deg_S(v) < lambda would leave S - v strictly better, and every inside
degree is at least lambda; a pair of positive excess has multiplicity above
lambda. At lambda = gamma_f the largest excess is 0, so this holds for every
densest set. The density loop starts at lambda0, the density of the densest
peeled set, and only grows, so each set of largest excess lies in the
ceil(lambda0)-core, and a pass over the core finds a positive excess when
the graph has one. The core's pairs keep their own labels, since each flow
numbers its nodes by rank among the vertices of its suffix anyway. For the
threshold test at bound b, an inclusion-minimal set of largest positive
excess has every inside degree above b, so it lies in the (floor(b) + 1)-core,
and an empty core answers "yes". The peel visits the vertices in core order
(Batagelj and Zaversnik 2003): the k-core is the live set just before the
first step that peels a vertex of k or more live neighbours, empty when none
does. There every live degree is at least k, and each vertex peeled before
had fewer than k neighbours in a superset of the core. The chain runs down
to one vertex, so the step that splits the last pair counts too, with the
pair's multiplicity as its degree. A sparse tail on a dense knot costs no
flows.

arboricity partitions into k forests for k = max(1, c - 1), c, ... until a
partition exists, c being the density ceiling of the whole graph over the
vertices its edges touch. No k below c fits, so a first k above 1 fails;
when the first k succeeds the graph is a forest, and the endpoints of its
first edge, a set of density 1, are the witness. Otherwise the witness is
the vertex set S of the violating edge set T of the last failed k. T is
connected, so |T| > k r(T) reads |T| > k (|S| - 1), and the density of S
has the arboricity, k + 1, as its ceiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .flow import MaxFlow
from .graphs import Graph
from .matroid import matroid_partition
from .rationals import INFINITE, Infinite, is_infinite


@dataclass(frozen=True)
class PartitionResult:
    """Either k forests covering E, or an edge set T with |T| > k * r(T)."""

    forests: tuple[frozenset[int], ...] | None
    violation: frozenset[int] | None

    @property
    def ok(self) -> bool:
        return self.forests is not None


@dataclass(frozen=True)
class ArboricityResult:
    value: int | Infinite
    witness_vertices: frozenset[int]


@dataclass(frozen=True)
class FracArbResult:
    value: Fraction | Infinite
    witness_vertices: frozenset[int]


def partition_into_forests(graph: Graph, k: int) -> PartitionResult:
    """Partition all edges into k forests, or certify impossibility.

    Loops force failure for every k (a loop alone violates |T| > k * 0).
    k = 0 succeeds only on an edgeless graph.
    """
    part, uncovered, violation = matroid_partition(graph, k, graph.full_edge_set())
    if uncovered:
        return PartitionResult(forests=None, violation=violation)
    return PartitionResult(forests=part.forest_sets(), violation=None)


def _edges_within(graph: Graph, vertices: set[int] | frozenset[int]) -> int:
    return sum(1 for u, v in graph.endpoints if u in vertices and v in vertices)


def _density(graph: Graph, vertices: frozenset[int]) -> Fraction:
    return Fraction(_edges_within(graph, vertices), len(vertices) - 1)


def _touched_pairs(graph: Graph) -> tuple[list[int], list[tuple[int, int]]]:
    """The vertices that edges touch, in increasing order, and the edges
    relabelled onto their positions 0..len-1 as sorted (lower, upper) pairs.

    The relabel keeps the order of the vertices, so a set's lowest vertex
    stays its lowest. Sorted pairs list the edges among v..n-1 as a suffix.
    """
    used = sorted({x for e in graph.endpoints for x in e})
    index = {x: i for i, x in enumerate(used)}
    pairs = sorted((index[u], index[v]) if u <= v else (index[v], index[u]) for u, v in graph.endpoints)
    return used, pairs


def _core(pairs: list[tuple[int, int]], chain: list, k: int) -> list[tuple[int, int]]:
    """The pairs among the k-core (k >= 1) of the sorted pairs, in their own
    labels and order, read off their peeling chain (the list of _peel's
    sets; see the module docstring)."""
    out = set()  # with the first set's v = -1, which is no vertex
    for _, _, v, d in chain:
        if d >= k:
            break
        out.add(v)
    else:
        return []
    return [(u, v) for u, v in pairs if u not in out and v not in out]


def _min_cuts(pairs: list[tuple[int, int]], lam: Fraction):
    """The min cuts at lam over the sorted (lower, upper) pairs of a
    loop-free multigraph, the one place where flows are built.

    One min cut is solved per vertex v = 0, 1, ..., over the edges among
    v..n-1, on the load network of the module docstring; a v that is the
    lower endpoint of no edge is skipped. Yields (verts, net, excess) after
    each max flow: verts the vertices of the suffix in order, v first, whose
    nodes are 2, 3, ... (0 is the source and 1 the sink), net the solved
    network, and excess the largest |E(S)| - lam (|S| - 1) over the sets S
    whose lowest vertex is v. Each edge loads its endpoint with the smaller
    load so far, the upper one on a tie or when the lower one is v, which
    keeps the overload, and so the flow, small; the loaded endpoint gets the
    edge's arc.
    """
    p, q = lam.numerator, lam.denominator
    for start, (free, _) in enumerate(pairs):
        if start and pairs[start - 1][0] == free:
            continue
        edges = pairs[start:]
        verts = sorted({x for e in edges for x in e})
        node = {x: i for i, x in enumerate(verts, 2)}
        count = 2 + len(verts)
        net = MaxFlow(count)
        load = [0] * count
        for u, v in edges:
            a, b = node[u], node[v]
            # the free vertex holds no load, else the lighter end takes it
            if u == free or load[b] <= load[a]:
                a, b = b, a
            load[a] += q
            net.add_edge(a, b, q)
        overload = 0
        for a in range(3, count):  # node 2 is free, with no room and no load
            room = p - load[a]
            if room < 0:
                overload -= room
                net.add_edge(0, a, -room)
            elif room:
                net.add_edge(a, 1, room)
        yield verts, net, overload - net.max_flow(0, 1)


def fractional_arboricity(graph: Graph) -> FracArbResult:
    """max |E(S)| / (|S| - 1), exact. Edgeless gives 0; a loop gives INFINITE.

    The witness is the largest densest set, the one with the lowest lowest
    vertex on a tie.
    """
    loops = graph.loop_edges()
    if loops:
        u, _ = graph.endpoints[loops[0]]
        return FracArbResult(value=INFINITE, witness_vertices=frozenset({u}))
    if graph.edge_count == 0:
        return FracArbResult(value=Fraction(0), witness_vertices=frozenset())
    used, pairs = _touched_pairs(graph)
    n = len(used)
    # the densest chain set (the largest on a tie) is real: at most gamma_f
    chain = list(_peel(n, pairs))
    top, low = 0, 1
    for size, inside, _, _ in chain:
        if inside * low > top * (size - 1):
            top, low = inside, size - 1
    lam = Fraction(top, low)
    pairs = _core(pairs, chain, math.ceil(lam))
    steps = 0
    while True:
        steps += 1
        if steps > (graph.edge_count + 1) * (n + 1):
            raise AssertionError("internal error: density iteration failed to terminate")
        # Like the threshold test, a pass stops at the first positive excess;
        # that vertex's minimal min-cut source side, a real set denser than
        # lam, gives the next lam. A pass with none certifies lam = gamma_f
        # (lam starts at a peeled set's density and moves only to densities of
        # real sets). There the maximal source side for v (the nodes that
        # cannot reach the sink) is the union of the densest sets whose lowest
        # vertex is v, densest too, as they share v. Densest sets that meet
        # unite into one, so the largest ones are disjoint, and the largest
        # side of two or more vertices, first v on a tie, is the witness.
        widest, subset = 1, ()
        for verts, net, excess in _min_cuts(pairs, lam):
            if excess > 0:
                source = net.min_cut_source_side(0)
                break
            if len(verts) > widest:
                reach = net.min_cut_sink_side(1)
                side = [x for i, x in enumerate(verts, 2) if i not in reach]
                if len(side) > widest:
                    subset, widest = side, len(side)
        else:
            subset = frozenset(used[x] for x in subset)
            if len(subset) < 2 or _density(graph, subset) != lam:
                raise AssertionError("internal error: the density witness does not reach the value")
            return FracArbResult(value=lam, witness_vertices=subset)
        new_lam = _density(graph, frozenset(used[x] for i, x in enumerate(verts, 2) if i in source))
        # candidate densities must strictly increase or the search is wrong
        if new_lam <= lam:
            raise AssertionError("internal error: density did not improve")
        lam = new_lam


def _density_limits(n: int, p: int, q: int) -> list[int]:
    """limit[s] = floor(p (s - 1) / q) for s = 0..n. A set S of s vertices
    has q |E(S)| > p (s - 1) exactly when |E(S)| > limit[s], since |E(S)| is
    an integer, so one table turns the density test into one comparison."""
    return [p * (s - 1) // q for s in range(n + 1)]


def _peel(n: int, endpoints):
    """Min-degree peeling of the raw pairs of a loop-free multigraph on
    0..n-1, in any order (ties go to the lowest vertex; parallel edges count
    with multiplicity). Yields (size, inside, v, d) for each set on the
    chain, from all n vertices down to one: its size, its edge count, the
    vertex peeled to reach it and that vertex's live degree (v = -1 and
    d = 0 for the first set); nothing for n < 2.
    """
    if n < 2:
        return
    adj = [[] for _ in range(n)]
    for u, v in endpoints:
        adj[u].append(v)
        adj[v].append(u)
    deg = list(map(len, adj))
    total = inside = len(endpoints)
    yield n, inside, -1, 0
    # entry d n + x orders by degree d, then by vertex x
    heap = [dx * n + x for x, dx in enumerate(deg)]
    heapify(heap)
    # a live degree is at most |E|; a peeled vertex starts at 2 |E| + 1 and
    # loses at most its degree afterwards, so it stays above every live one
    gone = 2 * total + 1
    for size in range(n - 1, 0, -1):
        # an entry is stale once its vertex has a lower degree or is
        # peeled; the least live one is the lowest vertex of least degree
        d, low = divmod(heappop(heap), n)
        while deg[low] != d:
            d, low = divmod(heappop(heap), n)
        inside -= d
        deg[low] = gone
        yield size, inside, low, d
        for w in adj[low]:
            deg[w] -= 1
            if deg[w] <= total:
                heappush(heap, deg[w] * n + w)


def fractional_arboricity_at_most(graph: Graph, bound) -> bool:
    """Exact threshold test gamma_f(G) <= bound.

    A peeled witness set can only reject; otherwise a single density step
    of min cuts decides. The bound is an int, a Fraction or INFINITE; a
    float is refused, since its binary value is not the decimal it reads as.
    """
    if isinstance(bound, float):
        raise ValueError("bound must be exact (an int or a Fraction), not a float")
    if is_infinite(bound):
        return True
    bound = Fraction(bound)
    if graph.has_loop():
        return False
    if graph.edge_count == 0:
        return Fraction(0) <= bound
    # peeling takes isolated vertices first and they add no edge, so the
    # peel of the other vertices, relabelled in order, decides the same; at
    # a bound <= 0 the first set, with |E| >= 1 edges, is over its limit
    used, pairs = _touched_pairs(graph)
    n = len(used)
    limit = _density_limits(n, bound.numerator, bound.denominator)
    chain = []
    for step in _peel(n, pairs):
        if step[1] > limit[step[0]]:
            return False
        chain.append(step)
    # a set of positive excess leaves one with every inside degree > bound
    pairs = _core(pairs, chain, math.floor(bound) + 1)
    return all(excess <= 0 for _, _, excess in _min_cuts(pairs, bound))


def arboricity(graph: Graph) -> ArboricityResult:
    """Least k admitting a k-forest partition, with a density witness.

    The witness vertex set induces a subgraph whose ceil density equals the
    value. Edgeless graphs give 0; a loop gives INFINITE.
    """
    loops = graph.loop_edges()
    if loops:
        u, _ = graph.endpoints[loops[0]]
        return ArboricityResult(value=INFINITE, witness_vertices=frozenset({u}))
    if graph.edge_count == 0:
        return ArboricityResult(value=0, witness_vertices=frozenset())
    # no k below the whole graph's density ceiling fits, so the search starts
    # one below it: that k fails too, and a failure at value - 1 gives the
    # witness
    touched = len({x for pair in graph.endpoints for x in pair})
    start = max(1, -(-graph.edge_count // (touched - 1)) - 1)
    below: PartitionResult | None = None
    for k in range(start, graph.edge_count + 1):
        result = partition_into_forests(graph, k)
        if result.ok:
            break
        below = result
    else:
        raise AssertionError("internal error: arboricity search overran |E|")
    if below is None:
        u, v = graph.endpoints[0]
        return ArboricityResult(value=1, witness_vertices=frozenset({u, v}))
    # each edge the failed search labels lies on a forest path between the
    # endpoints of an edge labelled before it, so the violation is connected
    violation = below.violation
    witness = frozenset(x for e in violation for x in graph.endpoints[e])
    if len(violation) <= (k - 1) * (len(witness) - 1):
        raise AssertionError("internal error: violating set is not denser than the forests below")
    return ArboricityResult(value=k, witness_vertices=witness)
