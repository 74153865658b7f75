"""End-to-end acceptance battery.

Each test prints one [acceptance] line and enforces its runtime budget.
The corpus fixtures (atlas + seeded multigraphs) come from conftest, the
reference solvers from oracles; nothing here trusts a library result
without an independent recomputation next to it.
"""

import time
from fractions import Fraction

from arborkit import (
    GenerationError,
    GenSpec,
    arboricity,
    cycle_rank,
    decompose_forests_bounded,
    decompose_forests_matching,
    derive_seed,
    fractional_arboricity,
    fractional_arboricity_at_most,
    generate,
    graph_stats,
    is_infinite,
    partition_into_forests,
    two_path_domination,
    union_rank_table,
    verify_decomposition,
)
from oracles import (
    brute_frac_arboricity,
    brute_two_path_domination,
    subgraph_rank,
)


def _report(num, title, ok, detail):
    line = f"[acceptance] criterion {num} ({title}): {'PASS' if ok else 'FAIL'} [{detail}]"
    print(line, flush=True)
    assert ok, line


def _bits_list(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def test_criterion_01_fractional_arboricity_oracle(corpus, corpus_cache):
    start = time.perf_counter()
    bad = []
    for i, g in enumerate(corpus):
        exact = corpus_cache.frac(i)
        brute = brute_frac_arboricity(g)
        if exact != brute:
            bad.append(i)
    elapsed = time.perf_counter() - start
    detail = f"{len(corpus)} graphs, {elapsed:.1f}s"
    _report(1, "exact density search equals exhaustive subsets", not bad and elapsed < 120, detail)


def test_criterion_02_arboricity_is_the_ceiling(corpus, corpus_cache):
    start = time.perf_counter()
    bad = []
    for i, g in enumerate(corpus):
        frac = corpus_cache.frac(i)
        ceiling = -(-frac.numerator // frac.denominator)
        if arboricity(g).value != ceiling:
            bad.append(i)
    elapsed = time.perf_counter() - start
    detail = f"{len(corpus)} graphs, {elapsed:.1f}s"
    _report(2, "arboricity equals ceil of fractional arboricity", not bad and elapsed < 60, detail)


def test_criterion_03_partition_and_certificate(corpus):
    start = time.perf_counter()
    bad = []
    for i, g in enumerate(corpus):
        a = arboricity(g).value
        res = partition_into_forests(g, a)
        ok = res.ok
        if ok:
            union = set()
            total = 0
            for forest in res.forests:
                if subgraph_rank(g, forest) != len(forest):
                    ok = False
                union |= forest
                total += len(forest)
            ok = ok and total == len(union) and union == set(g.edge_ids())
        if ok and a >= 1:
            below = partition_into_forests(g, a - 1)
            t = below.violation
            ok = (
                not below.ok
                and t is not None
                and len(t) > (a - 1) * subgraph_rank(g, t)
            )
        if not ok:
            bad.append(i)
    elapsed = time.perf_counter() - start
    detail = f"{len(corpus)} graphs, {elapsed:.1f}s"
    _report(3, "partitions at k and violating sets at k-1", not bad and elapsed < 120, detail)


def _seeded_instances(base, k, bound, count, max_rejections=20000):
    out = []
    for idx in range(count):
        n = 4 + (idx % 9)
        attempt = 0
        while True:
            seed = derive_seed(base, k, idx, attempt)
            spec = GenSpec(n=n, target_bound=bound, seed=seed, max_rejections=max_rejections)
            try:
                out.append(generate(spec))
                break
            except GenerationError:
                attempt += 1
                assert attempt < 50, f"generator starved at n={n}, k={k}"
    return out


def test_criterion_04_forests_plus_matching_sweep():
    start = time.perf_counter()
    failures = []
    per_k = 100
    for k in (1, 2):
        bound = k + Fraction(1, 3 * k + 2)
        for idx, g in enumerate(_seeded_instances(1001, k, bound, per_k)):
            if brute_frac_arboricity(g) > bound:
                failures.append((k, idx, "bound"))
                continue
            dec = decompose_forests_matching(g, k)
            if dec is None:
                failures.append((k, idx, "exhausted"))
                continue
            ok, reason = verify_decomposition(g, dec, k)
            if not ok:
                failures.append((k, idx, reason))
    elapsed = time.perf_counter() - start
    detail = f"200 instances, {elapsed:.1f}s, failures={failures[:4]}"
    _report(4, "k forests plus a matching on seeded instances", not failures and elapsed < 600, detail)


def test_criterion_05_low_density_variants():
    start = time.perf_counter()
    failures = []
    for idx, g in enumerate(_seeded_instances(1005, 1, Fraction(4, 3), 50)):
        dec = decompose_forests_matching(g, 1)
        ok = dec is not None and verify_decomposition(g, dec, 1)[0]
        if not ok:
            failures.append(("4/3", idx))
    for idx, g in enumerate(_seeded_instances(1006, 1, Fraction(3, 2), 50)):
        dec = decompose_forests_bounded(g, 1, 2, "forest")
        ok = dec is not None and verify_decomposition(g, dec, 1, d=2)[0]
        if not ok:
            failures.append(("3/2", idx))
    elapsed = time.perf_counter() - start
    detail = f"100 instances, {elapsed:.1f}s, failures={failures[:4]}"
    _report(5, "forest+matching at 4/3 and two forests at 3/2", not failures and elapsed < 600, detail)


def test_criterion_06_flat_complements_have_min_degree(corpus, corpus_cache):
    start = time.perf_counter()
    bad = []
    pairs = 0
    for i, g in enumerate(corpus):
        if g.edge_count > 10:
            continue
        for k in (1, 2):
            pairs += 1
            report = corpus_cache.prooftrace(i, k)
            if not all(r.mindeg_ok for r in report.records):
                bad.append((i, k))
    elapsed = time.perf_counter() - start
    detail = f"{pairs} graph/k pairs, {elapsed:.1f}s"
    _report(6, "flat complements have min degree k+1", not bad and elapsed < 300, detail)


def _two_path_union_size(g, pairs):
    """n* and m*: the vertices and the edges of the union of the 2-paths."""
    edges = {e for pair in pairs for e in pair}
    return len({x for e in edges for x in g.endpoints[e]}), len(edges)


def test_criterion_07_domination_lower_bound(corpus, corpus_cache, named_graphs):
    start = time.perf_counter()
    bad = []
    cases = 0
    pool = [(f"corpus[{i}]", g, corpus_cache.frac(i)) for i, g in enumerate(corpus)]
    pool += [(name, g, fractional_arboricity(g).value) for name, g in sorted(named_graphs.items())]
    for label, g, frac in pool:
        if g.vertex_count == 0 or is_infinite(frac):
            continue
        degrees = g.degrees()
        for k in (1, 2, 3):
            eps = Fraction(1, 3 * k + 2)
            if min(degrees) < k + 1 or frac > k + eps:
                continue
            cases += 1
            res = brute_two_path_domination(g)
            if res is None:
                bad.append((label, k, "no dominating set"))
                continue
            value, pairs = res
            if Fraction(value) < eps * g.vertex_count:
                bad.append((label, k, "bound"))
                continue
            n_star, m_star = _two_path_union_size(g, pairs)
            if 2 * n_star > 3 * m_star:
                bad.append((label, k, "witness ratio"))
                continue
            if not fractional_arboricity_at_most(g, k + eps):
                bad.append((label, k, "sparsity hypothesis"))
                continue
            # the library's own witness: compare the values first, since
            # witness_pairs is None when the value is INFINITE
            lib = two_path_domination(g)
            if is_infinite(lib.value) or lib.value != value:
                bad.append((label, k, "library value"))
                continue
            n_star, m_star = _two_path_union_size(g, lib.witness_pairs)
            n, m = g.vertex_count, g.edge_count
            if (k + 1) * n - m > (k + 1) * n_star - m_star:
                bad.append((label, k, "library witness deficiency"))
            elif 2 * n_star > 3 * m_star:
                bad.append((label, k, "library witness ratio"))
    elapsed = time.perf_counter() - start
    detail = f"{cases} qualifying cases, {elapsed:.1f}s, bad={bad[:4]}"
    _report(7, "2-path domination beats n/(3k+2) under the hypotheses",
            not bad and cases > 0 and elapsed < 300, detail)


def test_criterion_08_two_path_equals_line_graph_domination(corpus):
    start = time.perf_counter()
    bad = []
    checked = 0
    for i, g in enumerate(corpus):
        if g.edge_count > 10:
            continue
        checked += 1
        lib = two_path_domination(g)
        ref = brute_two_path_domination(g)
        if ref is None:
            if not is_infinite(lib.value):
                bad.append(i)
            continue
        if is_infinite(lib.value) or lib.value != ref[0]:
            bad.append(i)
            continue
        # the witness must be real 2-paths covering the value
        if len(lib.witness_pairs) != lib.value:
            bad.append(i)
            continue
        for e1, e2 in lib.witness_pairs:
            a = set(g.endpoints[e1])
            b = set(g.endpoints[e2])
            if e1 == e2 or not a & b:
                bad.append(i)
                break
    elapsed = time.perf_counter() - start
    detail = f"{checked} graphs, {elapsed:.1f}s"
    _report(8, "2-path number equals line-graph edge domination", not bad and elapsed < 180, detail)


def test_criterion_09_matroid_layer_exhaustive(corpus):
    start = time.perf_counter()
    bad = []
    graphs = 0
    for gi, g in enumerate(corpus):
        m = g.edge_count
        if m > 9:
            continue
        graphs += 1
        size = 1 << m
        ranks = [0] * size
        for mask in range(size):
            members = _bits_list(mask)
            r = cycle_rank(g, members)
            ranks[mask] = r
            if r != subgraph_rank(g, members):
                bad.append((gi, "rank oracle"))
        # rank axioms: normalization, unit increase, diminishing returns
        if ranks[0] != 0:
            bad.append((gi, "empty rank"))
        for mask in range(size):
            r = ranks[mask]
            for e in range(m):
                be = 1 << e
                if mask & be:
                    continue
                re_ = ranks[mask | be]
                if not r <= re_ <= r + 1:
                    bad.append((gi, "unit increase"))
                for f in range(m):
                    bf = 1 << f
                    if f == e or mask & bf:
                        continue
                    if ranks[mask | be | bf] - ranks[mask | bf] > re_ - r:
                        bad.append((gi, "submodularity"))
        # k-fold union: augmenting table against the min-formula
        for k in (1, 2):
            table = union_rank_table(g, k)
            for mask in range(size):
                best = mask.bit_count()
                sub = mask
                while True:
                    value = (mask ^ sub).bit_count() + k * ranks[sub]
                    if value < best:
                        best = value
                    if sub == 0:
                        break
                    sub = (sub - 1) & mask
                if table[mask] != best:
                    bad.append((gi, k, "union rank"))
            # circuits cannot leave a flat through exactly one element
            rk = table
            circuits = []
            for mask in range(1, size):
                if rk[mask] >= mask.bit_count():
                    continue
                if all(
                    rk[mask ^ (1 << e)] == mask.bit_count() - 1
                    for e in _bits_list(mask)
                ):
                    circuits.append(mask)
            flats = []
            for mask in range(size):
                if all(
                    rk[mask | (1 << e)] == rk[mask] + 1
                    for e in range(m)
                    if not mask >> e & 1
                ):
                    flats.append(mask)
            for flat in flats:
                for circ in circuits:
                    if (circ & ~flat).bit_count() == 1:
                        bad.append((gi, k, "circuit/flat"))
        # the same exclusion on the cycle matroid itself
        circuits = []
        for mask in range(1, size):
            if ranks[mask] >= mask.bit_count():
                continue
            if all(
                ranks[mask ^ (1 << e)] == mask.bit_count() - 1 for e in _bits_list(mask)
            ):
                circuits.append(mask)
        flats = []
        for mask in range(size):
            if all(
                ranks[mask | (1 << e)] == ranks[mask] + 1
                for e in range(m)
                if not mask >> e & 1
            ):
                flats.append(mask)
        for flat in flats:
            for circ in circuits:
                if (circ & ~flat).bit_count() == 1:
                    bad.append((gi, "cycle circuit/flat"))
    elapsed = time.perf_counter() - start
    detail = f"{graphs} graphs, {elapsed:.1f}s, bad={bad[:4]}"
    _report(9, "rank axioms, union ranks, circuit/flat exclusion",
            not bad and graphs > 0 and elapsed < 300, detail)


def test_criterion_10_link_equivalence(corpus, corpus_cache):
    start = time.perf_counter()
    bad = []
    pairs = 0
    for i, g in enumerate(corpus):
        if g.edge_count > 10:
            continue
        for k in (1, 2):
            pairs += 1
            if not corpus_cache.prooftrace(i, k).link_ok:
                bad.append((i, k))
    elapsed = time.perf_counter() - start
    detail = f"{pairs} graph/k pairs, {elapsed:.1f}s"
    _report(10, "cover-with-matching iff dual base is a matching",
            not bad and elapsed < 300, detail)
