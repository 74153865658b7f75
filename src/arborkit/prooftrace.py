"""Desk-scale mechanical checks on the dual of the k-fold forest union.

Everything here is exhaustive over edge subsets and meant for small inputs:
the cover/matching-base equivalence, the independence-versus-basic-set
correspondence, the min-degree property of flat complements, and the
per-flat domination condition with the 2-path number standing in as a
certified lower bound. A report can say FAIL only for unconditional facts;
when the domination bound is merely too weak to certify a flat, the verdict
is INCONCLUSIVE.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arboricity import fractional_arboricity_at_most
from .domination import _edge_domination_core
from .graphs import Graph, edge_induced_subgraph, line_graph
from .limits import (
    PROOFTRACE_DEFAULT,
    UNION_TABLE_HARD_CAP,
    DeskScaleExceeded,
    check_gate,
)
from .matroid import RankOracle, _bits, dual_oracle, flat_masks, union_oracle, union_rank_table
from .rationals import Infinite, format_value, is_infinite

VERDICT_PASS = "PASS"
VERDICT_INCONCLUSIVE = "INCONCLUSIVE"
VERDICT_FAIL = "FAIL"


def _gate(graph: Graph, max_edges: int | None, what: str) -> None:
    if max_edges is None:
        check_gate(graph.edge_count, PROOFTRACE_DEFAULT, what)
    elif graph.edge_count > max_edges:
        raise DeskScaleExceeded(
            f"{what}: size {graph.edge_count} exceeds the desk-scale limit {max_edges}"
        )


def build_dual_union_oracle(graph: Graph, k: int) -> RankOracle:
    """Rank oracle for the dual of the k-fold cycle-matroid union: the dual
    formula |X| + r(E - X) - r(E) read from a union rank table when the graph
    is small enough, else dual_oracle over per-call union ranks."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    m = graph.edge_count
    if m > UNION_TABLE_HARD_CAP:
        return dual_oracle(union_oracle(graph, k))
    table = union_rank_table(graph, k)
    full = (1 << m) - 1

    def fn(subset: frozenset[int]) -> int:
        mask = 0
        for e in subset:
            mask |= 1 << e
        return len(subset) + table[full ^ mask] - table[full]

    return RankOracle(m, fn)


def _matching_masks(graph: Graph) -> list[int]:
    m = graph.edge_count
    loops = 0
    conflict = [0] * m
    for e in range(m):
        u, v = graph.endpoints[e]
        if u == v:
            loops |= 1 << e
            continue
        for f in range(m):
            if f == e:
                continue
            x, y = graph.endpoints[f]
            if u in (x, y) or v in (x, y):
                conflict[e] |= 1 << f
    out = []
    for mask in range(1 << m):
        if mask & loops:
            continue
        rest = mask
        ok = True
        while rest:
            low = rest & -rest
            if mask & conflict[low.bit_length() - 1]:
                ok = False
                break
            rest ^= low
        if ok:
            out.append(mask)
    return out


def _link_agrees(graph: Graph, k: int, table: list[int]) -> bool:
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


def check_link(graph: Graph, k: int, max_edges: int | None = None) -> bool:
    """Brute-forces both statements and reports whether they agree:
    (a) the edge set splits into k forests plus a matching;
    (b) the dual of the k-fold union has a base that is a matching."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    _gate(graph, max_edges, "check_link")
    return _link_agrees(graph, k, union_rank_table(graph, k))


def _basic_obs_holds(graph: Graph, k: int, table: list[int]) -> bool:
    m = graph.edge_count
    full_mask = (1 << m) - 1
    ur_full = table[full_mask]
    basics = [
        mask
        for mask in range(1 << m)
        if mask.bit_count() == ur_full and table[mask] == ur_full
    ]
    # down-closure of the basic-set complements = everything avoiding one
    avoiders: set[int] = set()
    stack = [full_mask ^ b for b in basics]
    while stack:
        x = stack.pop()
        if x in avoiders:
            continue
        avoiders.add(x)
        rest = x
        while rest:
            low = rest & -rest
            y = x ^ low
            if y not in avoiders:
                stack.append(y)
            rest ^= low
    for mask in range(1 << m):
        independent = table[full_mask ^ mask] == ur_full
        if independent != (mask in avoiders):
            return False
    return True


def check_basic_observation(graph: Graph, k: int, max_edges: int | None = None) -> bool:
    """Exhaustive: X is independent in the dual union matroid iff X is
    disjoint from some maximum-size k-forest-coverable edge set."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    _gate(graph, max_edges, "check_basic_observation")
    return _basic_obs_holds(graph, k, union_rank_table(graph, k))


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


def _flat_records(graph: Graph, k: int, table: list[int]) -> list[FlatRecord]:
    m = graph.edge_count
    full_mask = (1 << m) - 1
    ur_full = table[full_mask]

    def rank_dual(mask: int) -> int:
        return mask.bit_count() + table[full_mask ^ mask] - ur_full

    records = []
    for mask in flat_masks(m, rank_dual):
        comp = full_mask ^ mask
        x_ids = tuple(_bits(comp))
        if not x_ids:
            records.append(FlatRecord((), None, True, 0, 0, "pass"))
            continue
        sub = edge_induced_subgraph(graph, x_ids)
        mind = sub.stats.min_degree
        gp, _ = _edge_domination_core(line_graph(sub.graph))
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
class MindegCheck:
    ok: bool
    records: tuple[FlatRecord, ...]


@dataclass(frozen=True)
class IntersCheck:
    ok: bool
    hypothesis_ok: bool
    records: tuple[FlatRecord, ...]


def check_mindeg_flats(graph: Graph, k: int, max_edges: int | None = None) -> MindegCheck:
    """Every flat's complement induces an empty subgraph or one with min
    degree at least k+1. No hypothesis on the graph."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    _gate(graph, max_edges, "check_mindeg_flats")
    records = tuple(_flat_records(graph, k, union_rank_table(graph, k)))
    return MindegCheck(ok=all(r.mindeg_ok for r in records), records=records)


def check_inters_condition(graph: Graph, k: int, max_edges: int | None = None) -> IntersCheck:
    """For every complement X of a flat: gamma_p(G[X]) >= |X| - union_rank(X).

    The sparsity hypothesis (fractional arboricity <= k + 1/(3k+2)) is
    flagged, not enforced; records are produced either way.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    _gate(graph, max_edges, "check_inters_condition")
    hyp = fractional_arboricity_at_most(graph, k + Fraction(1, 3 * k + 2))
    records = tuple(_flat_records(graph, k, union_rank_table(graph, k)))
    return IntersCheck(
        ok=all(r.inters_status == "pass" for r in records),
        hypothesis_ok=hyp,
        records=records,
    )


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


def run_prooftrace(graph: Graph, k: int, max_edges: int | None = None) -> ProofTraceReport:
    """Run the whole battery once and fold the outcomes into one verdict.

    FAIL needs a violated unconditional fact (link, basic sets, or flat
    min degree). Weak domination bounds only downgrade PASS to
    INCONCLUSIVE. The sparsity hypothesis is reported, not judged.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    _gate(graph, max_edges, "run_prooftrace")
    table = union_rank_table(graph, k)
    records = tuple(_flat_records(graph, k, table))
    link_ok = _link_agrees(graph, k, table)
    basic_ok = _basic_obs_holds(graph, k, table)
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
