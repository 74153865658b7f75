"""Exact edge-domination and 2-path-domination numbers with witnesses.

A set D of edges dominates a graph when every vertex is incident with an
edge of D or adjacent to a vertex that is. An isolated vertex admits no
dominating edge set at all, which the solvers report as INFINITE.

The 2-path number is edge domination on the line graph: a 2-path is a pair
of adjacent edges, and it dominates every edge within line-graph distance
one of the pair. A component with exactly one edge makes it INFINITE.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arboricity import fractional_arboricity_at_most
from .graphs import Graph, check_edge_subset, line_graph
from .limits import DOMINATION_DEFAULT, check_gate
from .rationals import INFINITE, Infinite, format_value, is_infinite


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
        rest = cov
        while rest:
            low = rest & -rest
            dom[low.bit_length() - 1] |= 1 << e
            rest ^= low
    return covers, dom


def dominates(graph: Graph, edges) -> bool:
    """Definition check: do these edges dominate every vertex?"""
    ids = check_edge_subset(graph, edges)
    if 0 in graph.degrees():
        return False  # no edge reaches an isolated vertex
    covers, _ = _coverage(graph)
    got = 0
    for e in ids:
        got |= covers[e]
    return got == (1 << graph.vertex_count) - 1


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
    verts = [v for v in range(want.bit_length()) if want >> v & 1]
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

    def search(undom: int):
        nonlocal best_size, best_wit
        if not undom:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_wit = tuple(sorted(chosen))
            return
        if len(chosen) + lower_bound(undom) >= best_size:
            return
        pick = -1
        fewest = len(covers) + 1
        rest = undom
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            c = dom[v].bit_count()
            if c < fewest:
                fewest = c
                pick = v
            rest ^= low
        cands = []
        rest = dom[pick]
        while rest:
            low = rest & -rest
            cands.append(low.bit_length() - 1)
            rest ^= low
        cands.sort(key=lambda e: -(covers[e] & undom).bit_count())
        for e in cands:
            chosen.append(e)
            search(undom & ~covers[e])
            chosen.pop()

    search(want)
    return best_size, best_wit


def edge_domination(graph: Graph) -> DominationResult:
    """Minimum dominating edge set, exact branch and bound."""
    check_gate(graph.edge_count, DOMINATION_DEFAULT, "edge_domination")
    # the gate counts edges only, and _coverage holds an n-bit mask per
    # vertex; an isolated vertex settles the answer before it is built
    if 0 in graph.degrees():
        return DominationResult(INFINITE, None)
    covers, dom = _coverage(graph)
    full = (1 << graph.vertex_count) - 1
    value, witness = _edge_domination_core(covers, dom, full, graph.edge_ids())
    if is_infinite(value):
        return DominationResult(INFINITE, None)
    if not dominates(graph, witness):
        raise AssertionError("solver returned a non-dominating witness")
    return DominationResult(value, witness)


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
    covers, dom = _coverage(lg)
    full = (1 << lg.vertex_count) - 1
    value, witness = _edge_domination_core(covers, dom, full, lg.edge_ids())
    if is_infinite(value):
        return DominationResult(INFINITE, None, None)
    if not dominates(lg, witness):
        raise AssertionError("solver returned a non-dominating witness")
    pairs = tuple(sorted(lg.endpoints[e] for e in witness))
    triples = tuple(_triple(graph, e1, e2) for e1, e2 in pairs)
    return DominationResult(value, triples, pairs)


def two_path_union(graph: Graph, pairs) -> tuple[frozenset[int], frozenset[int]]:
    """Vertices and edges of the union of the given 2-paths."""
    edge_ids: set[int] = set()
    for e1, e2 in pairs:
        edge_ids.add(e1)
        edge_ids.add(e2)
    ids = check_edge_subset(graph, edge_ids)
    vertices: set[int] = set()
    for e in ids:
        u, v = graph.endpoints[e]
        vertices.add(u)
        vertices.add(v)
    return frozenset(vertices), frozenset(ids)


@dataclass(frozen=True)
class ConnChainReport:
    """Inequality chain tying sparse, high-min-degree graphs to a linear
    lower bound on the 2-path domination number.

    Hypotheses (flagged, never thrown): fractional arboricity at most
    k + 1/(3k+2), and minimum degree at least k+1. The chain re-evaluates,
    from raw data, with H* the union of the optimal 2-path witness:
      deficiency_ok:     (k+1)n - m <= (k+1)n* - m*
      witness_ratio_ok:  n* <= (3/2) m*
      sparsity_ok:       m < (k + eps) n
      conclusion_ok:     gamma_p >= eps * n
    An INFINITE gamma_p vacuously passes the witness checks.
    """

    k: int
    epsilon: Fraction
    vertices: int
    edges: int
    frac_arboricity_ok: bool
    min_degree_ok: bool
    gamma_p: int | Infinite
    witness: tuple | None
    n_star: int | None
    m_star: int | None
    deficiency_ok: bool
    witness_ratio_ok: bool
    sparsity_ok: bool
    conclusion_ok: bool

    @property
    def eta_lower_bound(self) -> int | Infinite:
        # certified lower bound for the topological invariant the chain
        # actually targets; gamma_p is the computable stand-in
        return self.gamma_p

    def hypotheses_ok(self) -> bool:
        return self.frac_arboricity_ok and self.min_degree_ok

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "epsilon": format_value(self.epsilon),
            "vertices": self.vertices,
            "edges": self.edges,
            "frac_arboricity_ok": self.frac_arboricity_ok,
            "min_degree_ok": self.min_degree_ok,
            "gamma_p": format_value(self.gamma_p),
            "eta_lower_bound": format_value(self.gamma_p),
            "n_star": self.n_star,
            "m_star": self.m_star,
            "deficiency_ok": self.deficiency_ok,
            "witness_ratio_ok": self.witness_ratio_ok,
            "sparsity_ok": self.sparsity_ok,
            "conclusion_ok": self.conclusion_ok,
            "witness": None if self.witness is None else [list(t) for t in self.witness],
        }


def check_conn_chain(graph: Graph, k: int) -> ConnChainReport:
    if k < 1:
        raise ValueError("k must be a positive integer")
    eps = Fraction(1, 3 * k + 2)
    n, m = graph.vertex_count, graph.edge_count
    frac_ok = fractional_arboricity_at_most(graph, k + eps)
    degrees = graph.degrees()
    mindeg_ok = n == 0 or min(degrees) >= k + 1
    result = two_path_domination(graph)
    gp = result.value
    if is_infinite(gp):
        n_star = m_star = None
        deficiency_ok = ratio_ok = conclusion_ok = True
    else:
        vs, es = two_path_union(graph, result.witness_pairs or ())
        n_star, m_star = len(vs), len(es)
        deficiency_ok = (k + 1) * n - m <= (k + 1) * n_star - m_star
        ratio_ok = 2 * n_star <= 3 * m_star
        conclusion_ok = Fraction(gp) >= eps * n
    sparsity_ok = Fraction(m) < (k + eps) * n
    return ConnChainReport(
        k=k,
        epsilon=eps,
        vertices=n,
        edges=m,
        frac_arboricity_ok=frac_ok,
        min_degree_ok=mindeg_ok,
        gamma_p=gp,
        witness=result.witness,
        n_star=n_star,
        m_star=m_star,
        deficiency_ok=deficiency_ok,
        witness_ratio_ok=ratio_ok,
        sparsity_ok=sparsity_ok,
        conclusion_ok=conclusion_ok,
    )
