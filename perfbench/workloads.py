"""The three workloads: their inputs, their items, and the checks on outputs.

An item is one call into the library's public API: a sweep cell, a
``run_prooftrace`` on one (graph, k), or one solver query. Each item gives
its raw result to ``canon`` (the canonical form that goes into the output
digest) and to ``check`` (independent re-verification, run outside the timed
region; it returns None or the reason the output is wrong).

All randomness comes from arborkit's splitmix64 stream, so a seed names the
same inputs on every platform.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import arborkit as ak
from arborkit.experiment import ExperimentConfig
from tracing import layer_module

# The ROADMAP reference sweep's grid and trial count.
SWEEP_THEOREM5 = dict(selector="theorem5", k_values=(1, 2), n_values=tuple(range(6, 13)), trials=10)
# 20 trials put every theorem2ii cell above the median reference cell and
# below the two starved ones, so the workload seed, which drives these
# cells, moves wall_s but not which cells the item percentiles land on.
SWEEP_THEOREM2II = dict(selector="theorem2ii", k_values=(1,), n_values=tuple(range(12, 16)), trials=20)


def _val(x):
    return ak.format_value(x) if isinstance(x, Fraction) or ak.is_infinite(x) else x


def _sets(sets) -> list:
    return [sorted(s) for s in sets]


def _dec(dec) -> list | None:
    return None if dec is None else [_sets(dec.forests), sorted(dec.remainder), dec.kind, dec.degree_bound]


def _graph(g: ak.Graph) -> list:
    return [g.vertex_count, [list(e) for e in g.endpoints]]


def draw_simple(seed: int, n: int, m: int) -> ak.Graph:
    """m distinct vertex pairs on n vertices, a seeded partial shuffle."""
    rng = ak.SplitMix64(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for i in range(m):
        j = i + rng.below(len(pairs) - i)
        pairs[i], pairs[j] = pairs[j], pairs[i]
    return ak.Graph(n, tuple(sorted(pairs[:m])))


def petersen_prefix(m: int = 14) -> ak.Graph:
    """The first m edges of the Petersen graph: outer cycle, inner star, spokes."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return ak.Graph(10, tuple(outer + inner + spokes)[:m])


def _density(g: ak.Graph, vertices) -> Fraction:
    vs = set(vertices)
    inside = sum(1 for u, v in g.endpoints if u in vs and v in vs)
    return Fraction(inside, len(vs) - 1)


def _check_decomposition(g: ak.Graph, dec, k: int, d: int | None) -> str | None:
    if dec is None:
        return None
    ok, reason = ak.verify_decomposition(g, dec, k, d)
    if not ok:
        return f"decomposition rejected: {reason}"
    if not all(ak.graph_stats(g, f).is_forest for f in dec.forests):
        return "a forest has a cycle"
    return None


class Item:
    """One call; ``fn`` is looked up by (layer, name) when a pass starts."""

    def __init__(self, label: str, layer: str, name: str, args: tuple, canon, check):
        self.label = label
        self.layer = layer
        self.name = name
        self.args = args
        self.canon = canon
        self.check = check

    def resolve(self):
        return getattr(layer_module(self.layer), self.name)

    def collect(self, result):
        """The output the digest and the checks see; runs after the timer stops."""
        return result

    def starved(self, output) -> bool:
        """True when the generator ran out of budget inside this item."""
        return False


# ---------------------------------------------------------------- sweep

class SweepCapture:
    """Keeps what the experiment harness generated and decomposed.

    run_experiment returns only counts; the generated graphs and the
    decompositions behind them are recorded on the way through, so the
    digest and the re-verification see them. Installed for every pass,
    traced or not; the cost is one list append per trial.
    """

    def __init__(self):
        self.calls: list[tuple[str, tuple, object]] = []

    def install(self) -> None:
        exp = layer_module("experiment")
        for attr in ("generate", "decompose_forests_matching", "decompose_forests_bounded"):
            original = getattr(exp, attr)

            @functools.wraps(original)
            def recorder(*args, _original=original, _attr=attr):
                result = _original(*args)
                self.calls.append((_attr, args, result))
                return result

            setattr(exp, attr, recorder)

    def take(self) -> list:
        calls, self.calls = self.calls, []
        return calls


class SweepItem(Item):
    def __init__(self, *args, capture: SweepCapture):
        super().__init__(*args)
        self.capture = capture

    def collect(self, result):
        return result, self.capture.take()

    def starved(self, output) -> bool:
        return output[0][0].gen_failed > 0


def _sweep_item(selector_cfg: dict, k: int, n: int, root: int, capture: SweepCapture) -> Item:
    config = ExperimentConfig(
        selector=selector_cfg["selector"],
        k_values=(k,),
        n_values=(n,),
        trials=selector_cfg["trials"],
        seed=root,
    )
    label = f"{config.selector} k={k} n={n} seed={root}"

    def canon(output):
        (row,), calls = output
        graphs = [[c[1][0].seed, _graph(c[2])] for c in calls if c[0] == "generate"]
        decs = [_dec(c[2]) for c in calls if c[0] != "generate"]
        out = row.to_json()
        del out["seconds"]
        out["graphs"] = graphs
        out["decompositions"] = decs
        return out

    def check(output):
        (row,), calls = output
        gens = [(c[1][0], c[2]) for c in calls if c[0] == "generate"]
        decs = [(c[1], c[2]) for c in calls if c[0] != "generate"]
        if row.generated != len(gens) or row.generated + row.gen_failed != row.attempted:
            return "cell counts disagree with the generated graphs"
        if len(decs) != row.generated or row.exhausted != sum(d is None for _, d in decs):
            return "cell counts disagree with the decompositions"
        bound = config.cell_bound(k)
        for spec, g in gens:
            if g.vertex_count != n or g.edge_count != int(bound * (n - 1)) or len(set(g.endpoints)) != g.edge_count:
                return f"generated graph for seed {spec.seed} has the wrong shape"
            if ak.fractional_arboricity(g).value > bound:
                return f"generated graph for seed {spec.seed} is denser than {bound}"
        verified = 0
        for args, dec in decs:
            kk = args[1]
            dd = args[2] if len(args) > 2 else None
            err = _check_decomposition(args[0], dec, kk, dd)
            if err:
                return err
            verified += dec is not None
        if verified != row.verified:
            return f"harness verified {row.verified}, re-check verified {verified}"
        return None

    return SweepItem(label, "experiment", "run_experiment", (config, 1), canon, check, capture=capture)


def sweep(seed: int, reference_seed: int) -> list[Item]:
    """The reference theorem5 grid at the reference seed, then theorem2ii at
    the workload seed. The theorem5 root stays fixed because its cost is set
    by a handful of starved cells whose rejection counts swing the pass time
    by a fifth from one root seed to the next."""
    capture = SweepCapture()
    capture.install()
    items = [
        _sweep_item(SWEEP_THEOREM5, k, n, reference_seed, capture)
        for k in SWEEP_THEOREM5["k_values"]
        for n in SWEEP_THEOREM5["n_values"]
    ]
    items += [
        _sweep_item(SWEEP_THEOREM2II, k, n, seed, capture)
        for k in SWEEP_THEOREM2II["k_values"]
        for n in SWEEP_THEOREM2II["n_values"]
    ]
    return items


# ------------------------------------------------------------ prooftrace

def _prooftrace_item(label: str, g: ak.Graph, k: int) -> Item:
    def canon(report):
        return report.to_json()

    def check(report):
        hyp = ak.fractional_arboricity(g).value <= k + Fraction(1, 3 * k + 2)
        if report.hypothesis_ok != hyp:
            return "hypothesis flag disagrees with the exact fractional arboricity"
        if report.flat_count != len(report.records):
            return "flat count disagrees with the records"
        for rec in report.records:
            if not rec.complement:
                continue
            stats = ak.graph_stats(g, rec.complement)
            if rec.min_degree != stats.min_degree or rec.mindeg_ok != (stats.min_degree >= k + 1):
                return f"min degree of complement {rec.complement} is wrong"
        return None

    return Item(f"{label} k={k}", "prooftrace", "run_prooftrace", (g, k), canon, check)


def prooftrace(seed: int, reference_seed: int) -> list[Item]:
    graphs = [("petersen14", petersen_prefix(14))]
    for i in range(4):
        graphs.append((f"random13-{i}", draw_simple(ak.derive_seed(seed, 13, i), 9, 13)))
        graphs.append((f"random14-{i}", draw_simple(ak.derive_seed(seed, 14, i), 10, 14)))
    return [_prooftrace_item(label, g, k) for label, g in graphs for k in (1, 2)]


# ----------------------------------------------------------------- solve

def _decomp_item(label, g, k, d, kind) -> Item:
    if kind == "matching":
        name, args = "decompose_forests_matching", (g, k)
    else:
        name, args = "decompose_forests_bounded", (g, k, d, kind)
    return Item(label, "decompose", name, args, _dec, lambda dec: _check_decomposition(g, dec, k, d))


def _edge_dom_item(label, g) -> Item:
    def check(res):
        if ak.is_infinite(res.value):
            return None if 0 in g.degrees() else "INFINITE without an isolated vertex"
        if len(res.witness) != res.value or not ak.dominates(g, res.witness):
            return "edge domination witness does not dominate"
        return None

    return Item(label, "domination", "edge_domination", (g,),
                lambda r: [_val(r.value), None if r.witness is None else list(r.witness)], check)


def _two_path_item(label, g) -> Item:
    def check(res):
        lg = ak.line_graph(g)
        if ak.is_infinite(res.value):
            return None if 0 in lg.degrees() else "INFINITE without a lone edge"
        ids = [lg.endpoints.index(tuple(p)) for p in res.witness_pairs]
        if len(ids) != res.value or not ak.dominates(lg, ids):
            return "2-path witness does not dominate the line graph"
        return None

    return Item(label, "domination", "two_path_domination", (g,),
                lambda r: [_val(r.value), None if r.witness is None else [list(t) for t in r.witness]], check)


def _frac_item(label, g, arb) -> Item:
    def check(res):
        if _density(g, res.witness_vertices) != res.value:
            return "witness density differs from the value"
        if ak.ceil_value(res.value) != arb:
            return "ceiling of the fractional arboricity differs from the arboricity"
        return None

    return Item(label, "arboricity", "fractional_arboricity", (g,),
                lambda r: [_val(r.value), sorted(r.witness_vertices)], check)


def _arb_item(label, g) -> Item:
    def check(res):
        if ak.ceil_value(_density(g, res.witness_vertices)) != res.value:
            return "witness density ceiling differs from the arboricity"
        return None

    return Item(label, "arboricity", "arboricity", (g,),
                lambda r: [_val(r.value), sorted(r.witness_vertices)], check)


def _partition_item(label, g, k) -> Item:
    def canon(res):
        return [None if res.forests is None else _sets(res.forests),
                None if res.violation is None else sorted(res.violation)]

    def check(res):
        if res.ok:
            covered = [e for f in res.forests for e in f]
            if len(res.forests) != k or sorted(covered) != list(g.edge_ids()):
                return "forests do not partition the edges"
            if not all(ak.graph_stats(g, f).is_forest for f in res.forests):
                return "a forest has a cycle"
            return None
        if not len(res.violation) > k * ak.cycle_rank(g, res.violation):
            return "violation set is not a certificate"
        return None

    return Item(label, "arboricity", "partition_into_forests", (g, k), canon, check)


def solve(seed: int, reference_seed: int) -> list[Item]:
    """Band A (m 14..22 on n 10..14, inside every gate) and band B
    (n 16..24, m = 2n).

    Every k is arb - 1, the hardest place for the decomposition searches,
    so many of their answers are exhausted, which is a valid negative
    answer. arb comes from the library during set-up. Band A starts at
    n = 10: on 8 or 9 vertices with 20 or more edges, a few searches per
    seed take a hundred times the median query, and the pass time then
    swings by a third from one seed to the next.
    """
    items = []
    for i in range(144):
        m = 14 + i % 9
        n = 10 + (i // 9) % 5
        g = draw_simple(ak.derive_seed(seed, 1, i), n, m)
        k = ak.arboricity(g).value - 1
        d = 2 + i % 2
        tag = f"A{i} n={n} m={m} k={k}"
        items += [
            _decomp_item(f"{tag} matching", g, k, None, "matching"),
            _decomp_item(f"{tag} forest d={d}", g, k, d, "forest"),
            _decomp_item(f"{tag} graph d={d}", g, k, d, "graph"),
            _edge_dom_item(f"{tag} edge", g),
            _two_path_item(f"{tag} two_path", g),
        ]
    for i in range(36):
        n = 16 + i % 9
        g = draw_simple(ak.derive_seed(seed, 2, i), n, 2 * n)
        arb = ak.arboricity(g).value
        tag = f"B{i} n={n} m={2 * n}"
        items += [
            _frac_item(f"{tag} frac", g, arb),
            _arb_item(f"{tag} arboricity", g),
            _partition_item(f"{tag} partition k={arb - 1}", g, arb - 1),
        ]
    return items


WORKLOADS = {"sweep": sweep, "prooftrace": prooftrace, "solve": solve}
