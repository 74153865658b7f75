"""Brute-force reference solvers written straight from the definitions.

These are deliberately independent of the library internals: plain set
scans and ascending-size searches, no bitmask tables or augmenting paths
shared with the package. Everything here is exponential and must only be
fed small inputs. The one exception is reference_sample, the generator's
rejection sampler written one plain step at a time on top of the library's
public random stream and threshold test.
"""

from fractions import Fraction
from itertools import combinations

from arborkit import Graph, SplitMix64, fractional_arboricity_at_most


def subgraph_rank(graph, edges):
    """n - c of the subgraph spanned by the given edge ids."""
    edges = list(edges)
    verts = {x for e in edges for x in graph.endpoints[e]}
    adj = {v: [] for v in verts}
    for e in edges:
        u, v = graph.endpoints[e]
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    seen = set()
    comps = 0
    for v in verts:
        if v in seen:
            continue
        comps += 1
        seen.add(v)
        stack = [v]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return len(verts) - comps


def brute_frac_arboricity(graph):
    """max |E(S)| / (|S| - 1) over vertex subsets, or None on a loop."""
    if any(u == v for u, v in graph.endpoints):
        return None
    if graph.vertex_count < 2:
        return Fraction(0)
    return brute_canonical_witness(graph)[0]


def reference_peel(n, pairs):
    """Min-degree peeling of a loop-free multigraph on 0..n-1, one plain step
    at a time: every step recounts the degrees inside the live set and drops
    the lowest vertex of least degree. Returns the chain, from all n vertices
    down to one: (|S|, |E(S)|, v, d) for each set S, v the vertex dropped to
    reach it and d its degree in the set before (v = -1 and d = 0 for the
    first set), empty for n < 2.
    """
    live = set(range(n)) if n >= 2 else set()
    chain = []
    v, d = -1, 0
    while live:
        inside = [(a, b) for a, b in pairs if a in live and b in live]
        chain.append((len(live), len(inside), v, d))
        degree = {x: sum((a == x) + (b == x) for a, b in inside) for x in live}
        v = min(live, key=lambda x: (degree[x], x))
        d = degree[v]
        live.remove(v)
    return chain


def brute_core(n, pairs, k):
    """The k-core of a loop-free multigraph on 0..n-1 as a vertex set: recount
    the degrees inside the live set and drop every vertex with fewer than k
    live neighbours (parallel edges count with multiplicity), until none is
    left."""
    live = set(range(n))
    while True:
        inside = [(u, v) for u, v in pairs if u in live and v in live]
        low = {x for x in live if sum((u == x) + (v == x) for u, v in inside) < k}
        if not low:
            return frozenset(live)
        live -= low


def brute_canonical_witness(graph):
    """(gamma_f, W) of a loop-free graph on two or more vertices: W is the
    largest vertex set of density gamma_f, and on a tie in size the one
    whose lowest vertex is lowest."""
    n = graph.vertex_count
    best = None
    for size in range(2, n + 1):
        for combo in combinations(range(n), size):
            inside = set(combo)
            m = sum(1 for u, v in graph.endpoints if u in inside and v in inside)
            key = (Fraction(m, size - 1), size, -combo[0])
            if best is None or key > best[0]:
                best = (key, frozenset(combo))
    return best[0][0], best[1]


def brute_min_cuts(node_count, arcs, s, t):
    """(capacity, source sides) of every minimum s-t cut of a network given
    as (tail, head, capacity) arcs, by trying every node set that holds s
    and not t."""
    others = [x for x in range(node_count) if x not in (s, t)]
    cuts = []
    for size in range(len(others) + 1):
        for combo in combinations(others, size):
            side = frozenset(combo) | {s}
            cuts.append((sum(c for u, v, c in arcs if u in side and v not in side), side))
    low = min(c for c, _ in cuts)
    return low, [side for c, side in cuts if c == low]


def brute_union_rank(graph, k, edges):
    """Rank of the edges in the k-fold union of the cycle matroid, as
    min over T within X of |X - T| + k * r(T) (the matroid union theorem)."""
    items = sorted(edges)
    best = len(items)
    for size in range(len(items) + 1):
        for combo in combinations(items, size):
            best = min(best, len(items) - size + k * subgraph_rank(graph, combo))
    return best


def dual_rank_via_bases(rank_fn, ground, subset):
    """max |X \\ B| over all bases B, the textbook dual-rank formula."""
    ground = sorted(ground)
    subset = frozenset(subset)
    r = rank_fn(frozenset(ground))
    best = 0
    for combo in combinations(ground, r):
        if rank_fn(frozenset(combo)) == r:
            best = max(best, len(subset - set(combo)))
    return best


def brute_flats(rank_fn, ground):
    """All flats, by the closure definition: X is a flat iff no element e
    outside X has r(X + e) = r(X)."""
    ground = sorted(ground)
    flats = set()
    for size in range(len(ground) + 1):
        for combo in combinations(ground, size):
            members = frozenset(combo)
            r = rank_fn(members)
            if all(rank_fn(members | {e}) != r for e in ground if e not in members):
                flats.add(members)
    return flats


def brute_dominates(graph, edges):
    """Is every vertex an endpoint of one of the edges, or a neighbour of
    such an endpoint?"""
    ends = {x for e in edges for x in graph.endpoints[e]}
    nbr = [set() for _ in range(graph.vertex_count)]
    for u, v in graph.endpoints:
        nbr[u].add(v)
        nbr[v].add(u)
    return all(v in ends or nbr[v] & ends for v in range(graph.vertex_count))


def brute_edge_domination(graph):
    """Smallest edge set meeting every closed neighborhood.

    Returns (size, witness) or None when some vertex sees no edge at all.
    """
    n = graph.vertex_count
    if n == 0:
        return 0, ()
    nbr = [{v} for v in range(n)]
    for u, v in graph.endpoints:
        nbr[u].add(v)
        nbr[v].add(u)
    reach = []
    for e in range(graph.edge_count):
        a, b = graph.endpoints[e]
        reach.append(nbr[a] | nbr[b])
    if any(not any(v in r for r in reach) for v in range(n)):
        return None
    for size in range(0, graph.edge_count + 1):
        for combo in combinations(range(graph.edge_count), size):
            got = set()
            for e in combo:
                got |= reach[e]
            if len(got) == n:
                return size, combo
    return None


def two_paths(graph):
    """All unordered pairs of distinct edges sharing an endpoint."""
    out = []
    m = graph.edge_count
    ends = [set(graph.endpoints[e]) for e in range(m)]
    for e in range(m):
        for f in range(e + 1, m):
            if ends[e] & ends[f]:
                out.append((e, f))
    return out


def brute_two_path_domination(graph):
    """Smallest set of adjacent-edge pairs touching every edge.

    A pair (f, g) touches edge e when e is f or g or shares an endpoint
    with either. Returns (size, pairs) or None when impossible.
    """
    m = graph.edge_count
    if m == 0:
        return 0, ()
    pairs = two_paths(graph)
    ends = [set(graph.endpoints[e]) for e in range(m)]
    touched = []
    for f, g in pairs:
        cover = set()
        for e in range(m):
            if e in (f, g) or ends[e] & ends[f] or ends[e] & ends[g]:
                cover.add(e)
        touched.append(cover)
    if any(not any(e in t for t in touched) for e in range(m)):
        return None
    for size in range(0, len(pairs) + 1):
        for combo in combinations(range(len(pairs)), size):
            got = set()
            for i in combo:
                got |= touched[i]
            if len(got) == m:
                return size, tuple(pairs[i] for i in combo)
    return None


def all_matchings(graph):
    m = graph.edge_count
    out = []
    for size in range(0, m + 1):
        for combo in combinations(range(m), size):
            used = set()
            ok = True
            for e in combo:
                u, v = graph.endpoints[e]
                if u == v or u in used or v in used:
                    ok = False
                    break
                used.add(u)
                used.add(v)
            if ok:
                out.append(frozenset(combo))
    return out


def maximal_matchings_brute(graph):
    """Matchings no edge can extend, filtered from the full list."""
    ms = all_matchings(graph)
    pool = set(ms)
    out = []
    for match in ms:
        if any(e not in match and frozenset(match | {e}) in pool
               for e in range(graph.edge_count)):
            continue
        out.append(match)
    return out


def forest_cover_exists(graph, k, edges):
    """Exhaustive check that the edges split into k cycle-free parts."""
    items = sorted(edges)
    if k == 0:
        return not items
    parts = [[] for _ in range(k)]

    def rec(i):
        if i == len(items):
            return True
        seen_empty = False
        for j in range(k):
            if not parts[j]:
                if seen_empty:
                    break
                seen_empty = True
            parts[j].append(items[i])
            if subgraph_rank(graph, parts[j]) == len(parts[j]) and rec(i + 1):
                return True
            parts[j].pop()
        return False

    return rec(0)


def brute_decomposable(graph, k, kind, d=None):
    """Whether the edges split into k forests plus a remainder of the kind:
    a matching, or a forest or graph of max degree d. Tries every matching,
    or every edge subset as the remainder."""
    m = graph.edge_count
    if kind == "matching":
        remainders = all_matchings(graph)
    else:
        remainders = []
        for size in range(m + 1):
            for combo in combinations(range(m), size):
                degree = {}
                for e in combo:
                    for x in graph.endpoints[e]:
                        degree[x] = degree.get(x, 0) + 1
                if any(c > d for c in degree.values()):
                    continue
                if kind == "forest" and subgraph_rank(graph, combo) != len(combo):
                    continue
                remainders.append(frozenset(combo))
    # k forests hold at most k (n - 1) edges, so larger rests need no search
    room = k * max(graph.vertex_count - 1, 0)
    return any(
        forest_cover_exists(graph, k, set(range(m)) - rem)
        for rem in remainders
        if m - len(rem) <= room
    )


def brute_decomposition_ok(graph, dec, k, d=None):
    """Whether dec is k forests plus a remainder of its kind that together
    hold every edge id of the graph exactly once. A forest has rank equal to
    its size; a matching remainder has no loop and no two edges at one
    vertex; a forest or graph remainder has degree at most d at every vertex
    it touches (d from dec.degree_bound when not given; a loop counts twice),
    and a forest one has rank equal to its size too."""
    if dec.kind not in ("matching", "forest", "graph") or len(dec.forests) != k:
        return False
    ids = [e for part in dec.forests + (dec.remainder,) for e in part]
    if sorted(ids) != list(range(graph.edge_count)):
        return False
    if any(subgraph_rank(graph, f) != len(f) for f in dec.forests):
        return False
    ends = [graph.endpoints[e] for e in dec.remainder]
    if dec.kind == "matching":
        # a loop, or two edges at one vertex, leaves fewer distinct ends
        return len({x for pair in ends for x in pair}) == 2 * len(ends)
    bound = d if d is not None else dec.degree_bound
    if bound is None:
        return False
    if any(sum((u == x) + (v == x) for u, v in ends) > bound for pair in ends for x in pair):
        return False
    return dec.kind == "graph" or subgraph_rank(graph, dec.remainder) == len(ends)


def brute_arboricity(graph):
    """Least k such that the whole edge set splits into k forests."""
    if any(u == v for u, v in graph.endpoints):
        return None
    k = 0
    while not forest_cover_exists(graph, k, range(graph.edge_count)):
        k += 1
    return k


def splitmix64_unmix(out):
    """The state whose splitmix64 finalizer gives out: each xor-shift is
    undone by re-applying it until every bit is fixed, each product by the
    inverse of its odd constant mod 2^64."""
    mask = (1 << 64) - 1

    def unshift(y, s):
        x = y
        for _ in range(64 // s):
            x = y ^ (x >> s)
        return x

    z = unshift(out, 31)
    z = unshift(z * pow(0x94D049BB133111EB, -1, 1 << 64) & mask, 27)
    return unshift(z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & mask, 30)


def reference_sample(n, bound, seed, max_rejections, allow_parallel=False):
    """The generator's rejection sampler, step by step: every draw calls
    SplitMix64.below, sorts its pairs into a Graph and asks the threshold
    test. Returns (graph, number of the accepting draw), or
    (None, max_rejections) when no draw within the budget is accepted."""
    rng = SplitMix64(seed)
    m = int(bound * (n - 1))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for attempt in range(1, max_rejections + 1):
        edges = []
        if allow_parallel:
            for _ in range(m):
                u = rng.below(n)
                v = rng.below(n - 1)
                if v >= u:
                    v += 1
                edges.append((min(u, v), max(u, v)))
        else:
            # partial Fisher-Yates over the explicit list of pairs
            pool = list(pairs)
            for i in range(m):
                j = i + rng.below(len(pool) - i)
                pool[i], pool[j] = pool[j], pool[i]
                edges.append(pool[i])
        graph = Graph(n, tuple(sorted(edges)))
        if fractional_arboricity_at_most(graph, bound):
            return graph, attempt
    return None, max_rejections
