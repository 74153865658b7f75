"""Desk-scale mechanical checks on the dual of the k-fold forest union.

Everything here is exhaustive over edge subsets and meant for small inputs:
the cover/matching-base equivalence, the independence-versus-basic-set
correspondence, the min-degree property of flat complements, and the
per-flat domination condition with the 2-path number standing in as a
certified lower bound. A report can say FAIL only for unconditional facts;
when the domination bound is merely too weak to certify a flat, the verdict
is INCONCLUSIVE.

The tables over all 2^m edge subsets live on byte lanes, one byte per
subset. The per-flat checks run on masks of one parent line graph: the
line graph of the subgraph on a complement X is L(G) restricted to X, so
each flat takes its degrees from per-vertex edge masks and its 2-path
search from L(G)'s coverage cut down to X, with no subgraph built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arboricity import fractional_arboricity_at_most
from .domination import _bits, _coverage, _edge_domination_core
from .graphs import Graph, line_graph
from .limits import PROOFTRACE_DEFAULT, check_gate
from .matroid import _bit_lanes, _zero_lanes, flat_masks, union_rank_table
from .rationals import Infinite, format_value, is_infinite

VERDICT_PASS = "PASS"
VERDICT_INCONCLUSIVE = "INCONCLUSIVE"
VERDICT_FAIL = "FAIL"

_PLUS_ONE = bytes(range(1, 256)) + b"\0"  # bytes.translate table for b + 1


def _matching_masks(graph: Graph) -> list[int]:
    """Bitmasks of all matchings, in increasing order. On byte lanes: lane X
    of bad is nonzero when X holds a loop, or two edges at one vertex (the
    second is met while the lanes of the vertex's earlier edges are OR'd in
    seen); the matchings are its zero lanes."""
    count = 1 << graph.edge_count
    bad = 0
    at: list[list[int]] = [[] for _ in range(graph.vertex_count)]
    for e, (u, v) in enumerate(graph.endpoints):
        if u == v:
            bad |= _bit_lanes(count, e)
        else:
            at[u].append(e)
            at[v].append(e)
    for edges in at:
        seen = 0
        for e in edges:
            lane = _bit_lanes(count, e)
            bad |= seen & lane
            seen |= lane
    return _zero_lanes(bad, count)


def _size_lanes(m: int) -> bytes:
    """|X| in byte X, for every X below 2^m."""
    sizes = b"\0"
    for _ in range(m):
        sizes += sizes.translate(_PLUS_ONE)
    return sizes


def _equal_to(value: int) -> bytes:
    """A bytes.translate table: 1 for value, 0 for every other byte."""
    return bytes(int(b == value) for b in range(256))


def _link_agrees(graph: Graph, table: bytes) -> bool:
    """(a) E splits into k forests plus a matching iff (b) the dual of the
    k-fold union has a base that is a matching; True when both agree."""
    m = graph.edge_count
    full_mask = (1 << m) - 1
    ur_full = table[full_mask]
    matchings = _matching_masks(graph)
    covered = any(table[full_mask ^ mm] == m - mm.bit_count() for mm in matchings)
    r_dual = m - ur_full
    base_found = any(
        mm.bit_count() == r_dual and table[full_mask ^ mm] == ur_full for mm in matchings
    )
    return covered == base_found


def _basic_obs_holds(table: bytes, sizes: bytes) -> bool:
    """X is independent in the dual union matroid iff X is disjoint from
    some maximum-size k-forest-coverable edge set (a basic set).

    On byte lanes: lane X of `avoid` starts at 1 when E - X is basic, a
    superset-OR transform takes it to the down-closure of the basic-set
    complements (everything avoiding one), and it must equal the lanes
    where r_k(E - X) = r_k(E).
    """
    count = len(table)
    ur_full = table[-1]
    independent = int.from_bytes(table[::-1].translate(_equal_to(ur_full)), "little")
    m = count.bit_length() - 1
    avoid = independent & int.from_bytes(sizes.translate(_equal_to(m - ur_full)), "little")
    for i in range(m):
        shift = 8 << i
        avoid |= (avoid >> shift) & _bit_lanes(count, i) >> shift
    return avoid == independent


@dataclass(frozen=True)
class FlatRecord:
    """One flat of the dual union matroid, keyed by its complement X.

    min_degree is None when X is empty. required = |X| - union_rank(X) is
    what the domination number of the subgraph on X must reach; falling
    short is recorded as inconclusive, never as a failure.
    """

    complement: tuple[int, ...]
    min_degree: int | None
    mindeg_ok: bool
    gamma_p: int | Infinite
    required: int
    inters_status: str

    def to_json(self) -> dict:
        return {
            "complement": list(self.complement),
            "min_degree": self.min_degree,
            "mindeg_ok": self.mindeg_ok,
            "gamma_p": format_value(self.gamma_p),
            "required": self.required,
            "inters": self.inters_status,
        }


def _flat_records(graph: Graph, k: int, table: bytes, sizes: bytes) -> list[FlatRecord]:
    m = graph.edge_count
    count = 1 << m
    full_mask = count - 1
    ur_full = table[full_mask]
    # dual rank |X| + r_k(E - X) - r_k(E) in lane X; every lane sum is at
    # least r_k(E), so the subtraction borrows across no lane
    dual = (
        int.from_bytes(sizes, "little") + int.from_bytes(table[::-1], "little")
        - ur_full * int.from_bytes(b"\x01" * count, "little")
    )
    # L(G[X]) is L(G) restricted to X with its ids in the same order, so one
    # line graph serves every flat and each search ties as on L(G[X]) itself
    lg = line_graph(graph)
    covers, dom = _coverage(lg)
    all_line = (1 << lg.edge_count) - 1
    touching = [0] * m  # line edges at each edge of G
    for i, (a, b) in enumerate(lg.endpoints):
        touching[a] |= 1 << i
        touching[b] |= 1 << i
    at = [0] * graph.vertex_count  # edges at each vertex
    loops = [0] * graph.vertex_count  # a loop counts twice in a degree
    for e, (u, v) in enumerate(graph.endpoints):
        at[u] |= 1 << e
        at[v] |= 1 << e
        if u == v:
            loops[u] |= 1 << e
    # the vertices no edge touches have degree 0 under every X; skipping them
    # once keeps the per-flat scan off the declared vertex count
    masks = [(a, b) for a, b in zip(at, loops) if a]
    records = []
    for mask in flat_masks(m, dual.to_bytes(count, "little")):
        comp = full_mask ^ mask
        if not comp:
            records.append(FlatRecord((), None, True, 0, 0, "pass"))
            continue
        degrees = [(a & comp).bit_count() + (b & comp).bit_count() for a, b in masks]
        mind = min(d for d in degrees if d)
        cand = all_line
        for e in _bits(mask):
            cand &= ~touching[e]
        gp, _ = _edge_domination_core(covers, [d & cand for d in dom], comp, _bits(cand))
        x_ids = tuple(_bits(comp))
        required = len(x_ids) - table[comp]
        ok = is_infinite(gp) or gp >= required
        records.append(
            FlatRecord(
                complement=x_ids,
                min_degree=mind,
                mindeg_ok=mind >= k + 1,
                gamma_p=gp,
                required=required,
                inters_status="pass" if ok else "inconclusive",
            )
        )
    records.sort(key=lambda r: (len(r.complement), r.complement))
    return records


@dataclass(frozen=True)
class ProofTraceReport:
    vertices: int
    edges: int
    k: int
    hypothesis_ok: bool
    flat_count: int
    records: tuple[FlatRecord, ...]
    link_ok: bool
    basic_obs_ok: bool
    verdict: str

    def to_json(self) -> dict:
        return {
            "graph": {"vertices": self.vertices, "edges": self.edges},
            "k": self.k,
            "hypothesis_ok": self.hypothesis_ok,
            "flats_of_dual": self.flat_count,
            "records": [r.to_json() for r in self.records],
            "link_ok": self.link_ok,
            "basic_obs_ok": self.basic_obs_ok,
            "verdict": self.verdict,
        }


def run_prooftrace(graph: Graph, k: int) -> ProofTraceReport:
    """Run the whole battery once and fold the outcomes into one verdict.

    FAIL needs a violated unconditional fact (link, basic sets, or flat
    min degree). Weak domination bounds only downgrade PASS to
    INCONCLUSIVE. The sparsity hypothesis is reported, not judged.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    check_gate(graph.edge_count, PROOFTRACE_DEFAULT, "run_prooftrace")
    table = union_rank_table(graph, k)
    sizes = _size_lanes(graph.edge_count)
    records = tuple(_flat_records(graph, k, table, sizes))
    link_ok = _link_agrees(graph, table)
    basic_ok = _basic_obs_holds(table, sizes)
    hyp = fractional_arboricity_at_most(graph, k + Fraction(1, 3 * k + 2))
    mindeg_all = all(r.mindeg_ok for r in records)
    inters_all = all(r.inters_status == "pass" for r in records)
    if not (link_ok and basic_ok and mindeg_all):
        verdict = VERDICT_FAIL
    elif not inters_all:
        verdict = VERDICT_INCONCLUSIVE
    else:
        verdict = VERDICT_PASS
    return ProofTraceReport(
        vertices=graph.vertex_count,
        edges=graph.edge_count,
        k=k,
        hypothesis_ok=hyp,
        flat_count=len(records),
        records=records,
        link_ok=link_ok,
        basic_obs_ok=basic_ok,
        verdict=verdict,
    )
