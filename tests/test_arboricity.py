import importlib
import math
import random
import time
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from arborkit import (
    Graph,
    SplitMix64,
    arboricity,
    ceil_value,
    cycle_rank,
    derive_seed,
    fractional_arboricity,
    fractional_arboricity_at_most,
    is_infinite,
    partition_into_forests,
)
from arborkit.arboricity import _core, _density_limits, _peel
from arborkit.flow import MaxFlow
from helpers import (
    complete_bipartite,
    complete_graph,
    cycle,
    density,
    disjoint_union,
    doubled_cycle,
    path,
    petersen,
    star,
)
from oracles import (
    brute_arboricity,
    brute_canonical_witness,
    brute_core,
    brute_frac_arboricity,
    reference_peel,
)


FROZEN_FRAC = [
    (cycle(3), Fraction(3, 2)),
    (complete_graph(4), Fraction(2)),
    (complete_graph(5), Fraction(5, 2)),
    (cycle(6), Fraction(6, 5)),
    (petersen(), Fraction(5, 3)),
    (complete_bipartite(3, 3), Fraction(9, 5)),
    (path(5), Fraction(1)),
    (star(4), Fraction(1)),
    (doubled_cycle(3), Fraction(3)),
    (Graph(2, ((0, 1),)), Fraction(1)),
]


@pytest.mark.parametrize("graph,value", FROZEN_FRAC)
def test_fractional_arboricity_frozen(graph, value):
    res = fractional_arboricity(graph)
    assert res.value == value
    # the witness must actually achieve the reported density
    assert density(graph, res.witness_vertices) == value


@pytest.mark.parametrize("graph,value", FROZEN_FRAC)
def test_brute_mode_agrees(graph, value):
    assert brute_frac_arboricity(graph) == value


def test_fractional_arboricity_degenerate():
    assert fractional_arboricity(Graph(3, ())).value == 0
    assert fractional_arboricity(Graph(0, ())).value == 0
    looped = fractional_arboricity(Graph(2, ((0, 1), (1, 1))))
    assert is_infinite(looped.value)
    assert looped.witness_vertices == frozenset({1})


def test_sparse_graphs_with_a_huge_vertex_count():
    # only edges and their endpoints enter the density loop and the peel;
    # the vertex count alone must not make either walk 10**6 vertices
    for graph, value, witness in (
        (Graph(10**6, ((0, 1), (1, 2), (0, 2))), Fraction(3, 2), {0, 1, 2}),
        (Graph(10**6, ((999998, 999999),)), Fraction(1), {999998, 999999}),
    ):
        start = time.perf_counter()
        res = fractional_arboricity(graph)
        assert (res.value, res.witness_vertices) == (value, frozenset(witness))
        assert fractional_arboricity_at_most(graph, value)
        assert not fractional_arboricity_at_most(graph, value - Fraction(1, 1000))
        assert time.perf_counter() - start < 0.5


def test_at_most_threshold():
    c6 = cycle(6)
    assert fractional_arboricity_at_most(c6, Fraction(6, 5))
    assert not fractional_arboricity_at_most(c6, Fraction(117, 100))
    k4 = complete_graph(4)
    assert fractional_arboricity_at_most(k4, 2)
    assert not fractional_arboricity_at_most(k4, Fraction(39, 20))
    assert not fractional_arboricity_at_most(Graph(1, ((0, 0),)), 100)
    assert fractional_arboricity_at_most(Graph(3, ()), 0)
    assert not fractional_arboricity_at_most(cycle(3), 0)
    # float 1.2 is just below 6/5 = gamma_f(C6), so its binary value would
    # read as a "no"; a float bound is refused, whatever the graph
    for graph in (c6, Graph(3, ()), Graph(1, ((0, 0),))):
        with pytest.raises(ValueError, match="not a float"):
            fractional_arboricity_at_most(graph, 1.2)


THEOREM5_BOUNDS = tuple(k + Fraction(1, 3 * k + 2) for k in (1, 2))
COMPONENTS_BASE_SEED = 424242


def _components_multigraph(seed):
    """A bundle of parallel edges, a larger component of higher degree but
    lower density, a small third component and up to two isolated vertices,
    shuffled. Min-degree peeling removes the bundle early, so on some of
    them (six of the 40 drawn below) the densest part is not among the sets
    peeling leaves and only the flow can reject."""
    rng = SplitMix64(seed)
    sizes = (2, 4 + rng.below(3), 2 + rng.below(3))
    counts = (2 + rng.below(4), 2 * sizes[1] + rng.below(sizes[1]), 1 + rng.below(2 * sizes[2]))
    n = sum(sizes) + rng.below(3)
    labels = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        labels[i], labels[j] = labels[j], labels[i]
    edges = []
    start = 0
    for size, count in zip(sizes, counts):
        for _ in range(count):
            u = rng.below(size)
            v = rng.below(size - 1)
            if v >= u:
                v += 1
            a, b = labels[start + u], labels[start + v]
            edges.append((min(a, b), max(a, b)))
        start += size
    return Graph(n, tuple(sorted(edges)))


def _assert_threshold_matches_oracle(graph):
    gf = brute_frac_arboricity(graph)
    eps = Fraction(1, 1000)
    for bound in (gf, gf - eps, gf + eps) + THEOREM5_BOUNDS:
        assert fractional_arboricity_at_most(graph, bound) == (gf <= bound), (graph, bound)


def test_threshold_matches_oracle_on_atlas(atlas_corpus):
    for g in atlas_corpus:
        _assert_threshold_matches_oracle(g)


def test_threshold_matches_oracle_on_component_multigraphs():
    for i in range(40):
        _assert_threshold_matches_oracle(
            _components_multigraph(derive_seed(COMPONENTS_BASE_SEED, i))
        )


def test_arboricity_frozen_values():
    assert arboricity(complete_graph(5)).value == 3
    assert arboricity(cycle(6)).value == 2
    assert arboricity(path(6)).value == 1
    assert arboricity(Graph(4, ())).value == 0
    assert is_infinite(arboricity(Graph(1, ((0, 0),))).value)


# Components of different density side by side, the densest not always
# first in edge-id order: the witness has to land in a component dense
# enough for the arboricity, not on the first one or on the whole graph.
DISCONNECTED = (
    disjoint_union(cycle(6), complete_graph(5)),
    disjoint_union(path(4), doubled_cycle(4), complete_graph(4)),
    disjoint_union(complete_graph(4), complete_bipartite(3, 3), complete_graph(5)),
    disjoint_union(doubled_cycle(3), petersen(), doubled_cycle(5)),
    disjoint_union(star(4), Graph(3, ()), complete_graph(6), cycle(3)),
)


# The exact witness fractional_arboricity returns, recorded once: a faster
# density loop must return the same set, not just another set as dense.
# Each row pairs a graph with (value, witness). Ties between equally dense
# parts and the whole vertex set as witness (when no proper part is denser)
# pin the tie-breaking too.
WITNESS_BASE_SEED = 13579


def _witness_multigraph(seed):
    """6..14 vertices: a random multigraph on the low labels, up to two
    labels above it left isolated, most pairs of the 3..6 highest labels
    (a few doubled) and up to two edges joining the two parts."""
    rng = SplitMix64(seed)
    n = 6 + rng.below(9)
    core = 3 + rng.below(4)
    isolated = rng.below(3)
    top = n - core
    low = max(top - isolated, 0)
    edges = []
    if low > 1:
        for _ in range(1 + rng.below(2 * low)):
            u = rng.below(low)
            v = rng.below(low - 1)
            if v >= u:
                v += 1
            edges.append((u, v))
    for u in range(top, n):
        for v in range(u + 1, n):
            if rng.below(4):
                edges.append((u, v))
    for _ in range(rng.below(3)):
        u = top + rng.below(core)
        v = top + rng.below(core - 1)
        if v >= u:
            v += 1
        edges.append((u, v))
    for _ in range(rng.below(3) if low else 0):
        edges.append((rng.below(low), top + rng.below(core)))
    return Graph(n, tuple(sorted((min(e), max(e)) for e in edges)))


FROZEN_FRAC_WITNESSES = (
    {0, 1, 2},
    {0, 1, 2, 3},
    {0, 1, 2, 3, 4},
    {0, 1, 2, 3, 4, 5},
    set(range(10)),
    {0, 1, 2, 3, 4, 5},
    {0, 1, 2, 3, 4},
    {0, 1, 2, 3, 4},
    {0, 1, 2},
    {0, 1},
)

NAMED_WITNESSES = (
    (disjoint_union(complete_graph(4), complete_graph(4)), Fraction(2), {0, 1, 2, 3}),
    (disjoint_union(cycle(3), path(3), cycle(3)), Fraction(3, 2), {0, 1, 2}),
    (DISCONNECTED[0], Fraction(5, 2), {6, 7, 8, 9, 10}),
    (DISCONNECTED[1], Fraction(8, 3), {4, 5, 6, 7}),
    (DISCONNECTED[2], Fraction(5, 2), {10, 11, 12, 13, 14}),
    (DISCONNECTED[3], Fraction(3), {0, 1, 2}),
    (DISCONNECTED[4], Fraction(3), {8, 9, 10, 11, 12, 13}),
)

SEEDED_WITNESSES = (
    (Fraction(2), {10, 11, 12, 13}),
    (Fraction(7, 3), {10, 11, 12, 13}),
    (Fraction(11, 5), {1, 2, 3, 4, 5, 6}),
    (Fraction(2), {1, 3, 4}),
    (Fraction(3), {0, 1, 2, 3, 4, 5}),
    (Fraction(12, 5), {2, 3, 4, 5, 6, 7}),
    (Fraction(5, 2), {0, 1, 2, 3, 4}),
    (Fraction(2), {11, 12, 13}),
    (Fraction(8, 3), {6, 7, 10, 11}),
    (Fraction(2), {6, 7}),
    (Fraction(11, 4), {7, 8, 9, 11, 12}),
    (Fraction(3), {6, 7}),
    (Fraction(2), {8, 10}),
    (Fraction(4), {2, 3}),
    (Fraction(7, 2), {0, 1, 4}),
    (Fraction(3), {0, 1, 2}),
    (Fraction(2), {0, 1}),
    (Fraction(14, 5), {5, 6, 7, 8, 9, 10}),
    (Fraction(5, 2), {0, 1, 2}),
    (Fraction(5, 2), {10, 11, 12}),
    (Fraction(3, 2), {11, 12, 13}),
    (Fraction(9, 4), {8, 9, 10, 11, 12}),
    (Fraction(3), {10, 12}),
    (Fraction(3), {0, 1}),
    (Fraction(3), {3, 4}),
    (Fraction(11, 5), {5, 6, 7, 8, 9, 10}),
    (Fraction(13, 5), {3, 4, 5, 6, 7, 8}),
    (Fraction(5, 2), {7, 8, 9}),
    (Fraction(8, 3), {9, 10, 11, 12}),
    (Fraction(2), {2, 5}),
)


def test_fractional_arboricity_frozen_witnesses():
    seeded = [_witness_multigraph(derive_seed(WITNESS_BASE_SEED, i)) for i in range(len(SEEDED_WITNESSES))]
    # the seeded rows cover parallel edges, isolated vertices and witnesses
    # that reach the highest label
    assert sum(len(set(g.endpoints)) < g.edge_count for g in seeded) >= 20
    assert sum(len({x for e in g.endpoints for x in e}) < g.vertex_count for g in seeded) >= 15
    assert sum(max(w) == g.vertex_count - 1 for g, (_, w) in zip(seeded, SEEDED_WITNESSES)) >= 10
    rows = [(g, v, w) for (g, v), w in zip(FROZEN_FRAC, FROZEN_FRAC_WITNESSES)]
    rows += NAMED_WITNESSES
    rows += [(g, v, w) for g, (v, w) in zip(seeded, SEEDED_WITNESSES)]
    for graph, value, witness in rows:
        res = fractional_arboricity(graph)
        assert (res.value, res.witness_vertices) == (value, frozenset(witness)), graph


def test_arboricity_witness_density_ceiling(multigraph_corpus):
    named = (complete_graph(5), cycle(6), petersen(), doubled_cycle(4))
    for g in named + DISCONNECTED + multigraph_corpus:
        res = arboricity(g)
        dens = density(g, res.witness_vertices)
        assert -(-dens.numerator // dens.denominator) == res.value, g


def test_arboricity_starts_one_below_the_density_ceiling(monkeypatch, multigraph_corpus):
    # no k below ceil(m / (n - 1)) over the touched vertices fits, so the k
    # loop starts one below it; the witness is still the violation of a
    # fresh partition at value - 1
    module = importlib.import_module("arborkit.arboricity")
    partition = module.partition_into_forests
    tried = []

    def counted(graph, k):
        tried.append(k)
        return partition(graph, k)

    monkeypatch.setattr(module, "partition_into_forests", counted)
    named = (complete_graph(5), cycle(6), petersen(), doubled_cycle(4))
    graphs = [g for g in named + DISCONNECTED + multigraph_corpus if g.edge_count and not g.has_loop()]
    assert len(graphs) > 100
    for g in graphs:
        tried.clear()
        res = arboricity(g)
        touched = len({x for pair in g.endpoints for x in pair})
        start = max(1, -(-g.edge_count // (touched - 1)) - 1)
        assert tried == list(range(start, res.value + 1)), g
        if res.value > 1:
            below = partition(g, res.value - 1).violation
            assert res.witness_vertices == {x for e in below for x in g.endpoints[e]}
    # K5: 10 edges on 5 vertices, ceiling 3, so k = 1 never runs
    tried.clear()
    assert arboricity(complete_graph(5)).value == 3
    assert tried == [2, 3]


def test_violation_below_arboricity_is_connected(atlas_corpus, multigraph_corpus):
    # the witness of arboricity() is the vertex set of this violation, which
    # is only dense enough when the violation is one connected piece
    for g in atlas_corpus + multigraph_corpus + DISCONNECTED:
        if not g.edge_count:
            continue
        below = partition_into_forests(g, arboricity(g).value - 1)
        assert not below.ok
        touched = nx.MultiGraph()
        touched.add_edges_from(g.endpoints[e] for e in below.violation)
        assert nx.is_connected(touched), (g.endpoints, below.violation)


def test_partition_at_arboricity_and_below():
    g = petersen()
    k = arboricity(g).value
    assert partition_into_forests(g, k).ok
    below = partition_into_forests(g, k - 1)
    assert not below.ok
    t = below.violation
    assert len(t) > (k - 1) * cycle_rank(g, t)


def test_matches_ceiling_on_named_graphs():
    for g in (complete_graph(5), complete_bipartite(3, 3), cycle(6), petersen(),
              doubled_cycle(3), star(4)):
        assert arboricity(g).value == ceil_value(fractional_arboricity(g).value)


def test_check_subgraph_bound():
    # |X| <= gamma_f(G) * r(X) for every edge set X; a loop makes gamma_f
    # INFINITE, which bounds everything
    g = complete_graph(4)
    gf = fractional_arboricity(g).value
    assert gf == 2
    for subset in (g.full_edge_set(), {0, 1, 3}, ()):
        assert len(subset) <= gf * cycle_rank(g, subset)
    assert is_infinite(fractional_arboricity(Graph(1, ((0, 0),))).value)
    with pytest.raises(ValueError):
        cycle_rank(g, {9})


@st.composite
def loop_free_pair_lists(draw):
    """Up to 7 vertices and 14 edges as a raw pair list, parallel edges
    allowed, no loops, endpoints in either order."""
    n = draw(st.integers(2, 7))
    pair = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)).map(lambda t: (t[0], (t[0] + t[1]) % n))
    return n, draw(st.lists(pair, max_size=14))


@settings(max_examples=300, deadline=None)
@given(loop_free_pair_lists(), st.integers(1, 16), st.integers(1, 6), st.data())
def test_peeling_witness_is_sound_and_order_free(drawn, p, q, data):
    n, edges = drawn
    limit = _density_limits(n, p, q)
    exceeds = _chain_reads(n, edges, limit)[0]
    if exceeds:
        assert brute_frac_arboricity(Graph(n, tuple(edges))) > Fraction(p, q)
    # the generator peels its draws before sorting them
    assert _chain_reads(n, data.draw(st.permutations(edges)), limit)[0] == exceeds


def _chain_reads(n, edges, limit):
    """What the library reads off _peel's chain: the first set over its limit
    as (|E(S)|, |S| - 1), None when no set is over, and the densest pair on
    the chain, the largest set on a tie."""
    chain = list(_peel(n, edges))
    assert [size for size, _, _, _ in chain] == list(range(n, 0, -1))
    first = None
    top, low = 0, 1
    for size, inside, _, _ in chain:
        if first is None and inside > limit[size]:
            first = (inside, size - 1)
        if inside * low > top * (size - 1):
            top, low = inside, size - 1
    return first, (top, low)


@settings(max_examples=300, deadline=None)
@given(loop_free_pair_lists())
@example((4, [(3, 1), (1, 0), (0, 2)]))  # both ends of a path tie, twice
@example((6, [(1, 2), (2, 3), (1, 3), (2, 3)]))  # isolated 0, 4, 5
def test_peeling_matches_the_reference_peel(drawn):
    n, edges = drawn
    # every step: the set's size and edge count, the vertex peeled to reach
    # it and that vertex's live degree, which _core reads
    assert list(_peel(n, edges)) == reference_peel(n, edges)


@settings(max_examples=300, deadline=None)
@given(loop_free_pair_lists(), st.integers(1, 6))
@example((5, [(0, 1), (1, 2), (2, 3), (3, 4)]), 2)  # an empty core
@example((4, [(0, 1)] * 3 + [(1, 2), (2, 3)]), 3)  # a pair of multiplicity k
@example((4, [(0, 1), (0, 2), (1, 2), (2, 3)] * 2), 6)  # k above every degree
def test_core_read_off_the_chain_is_the_k_core(drawn, k):
    n, edges = drawn
    pairs = sorted((min(e), max(e)) for e in edges)
    core = brute_core(n, edges, k)
    inside = _core(pairs, list(_peel(n, edges)), k)
    assert inside == [(u, v) for u, v in pairs if u in core and v in core]
    # every core vertex has k >= 1 core neighbours, so the pairs touch it
    assert {x for e in inside for x in e} == set(core)


def _knot_with_tail(n):
    """K5 on 0..4 with a pendant path 4, 5, ..., n - 1."""
    return [(u, v) for u in range(5) for v in range(u + 1, 5)] + [(v, v + 1) for v in range(4, n - 1)]


@pytest.mark.parametrize("shape", ["path", "star", "knot"])
def test_peeling_is_not_quadratic(shape):
    # a forest never exceeds density 1, so the peel walks its whole chain;
    # a scan of every degree per peeled vertex takes minutes here. The knot's
    # chain sheds the tail's end at each step, (10 + j) edges on 4 + j, so it
    # grows denser at every step and the densest read finds a new best each time
    n = 50000
    if shape == "knot":
        edges, bound, densest = _knot_with_tail(n), (5, 2), (10, 4)
    else:
        edges = [(v, v + 1) if shape == "path" else (0, v + 1) for v in range(n - 1)]
        bound, densest = (1, 1), (n - 1, n - 1)
    start = time.perf_counter()
    limit = _density_limits(n, *bound)
    assert _chain_reads(n, edges, limit) == (None, densest)
    assert time.perf_counter() - start < 2.0


def test_long_pendant_path_leaves_the_knot_alone():
    # only the 3-core, the K5, enters the flows: a per-vertex min cut over
    # the whole path took half a minute on a 2,500-vertex tail
    graph = Graph(20005, tuple(_knot_with_tail(20005)))
    start = time.perf_counter()
    res = fractional_arboricity(graph)
    assert (res.value, res.witness_vertices) == (Fraction(5, 2), frozenset(range(5)))
    assert fractional_arboricity_at_most(graph, Fraction(5, 2))
    assert not fractional_arboricity_at_most(graph, Fraction(5, 2) - Fraction(1, 1000))
    assert time.perf_counter() - start < 5.0


@st.composite
def loop_free_multigraphs(draw, max_n=9, max_m=18):
    """2..max_n vertices and 1..max_m edges, parallel edges allowed, no
    loops; vertices that no edge touches stay isolated."""
    n = draw(st.integers(2, max_n))
    pair = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)).map(
        lambda t: tuple(sorted((t[0], (t[0] + t[1]) % n))))
    return Graph(n, tuple(sorted(draw(st.lists(pair, min_size=1, max_size=max_m)))))


@settings(max_examples=300, deadline=None)
@given(loop_free_multigraphs())
def test_frac_witness_is_the_largest_densest_set(graph):
    res = fractional_arboricity(graph)
    assert (res.value, res.witness_vertices) == brute_canonical_witness(graph)


@settings(max_examples=300, deadline=None)
@given(loop_free_multigraphs(max_n=6, max_m=9))
def test_arboricity_against_brute(graph):
    res = arboricity(graph)
    assert res.value == brute_arboricity(graph)
    assert math.ceil(density(graph, res.witness_vertices)) == res.value


@st.composite
def cored_multigraphs(draw):
    """A loop-free multigraph whose core is smaller than its touched set:
    a knot (K3..K5, up to three edges repeated) with pendant trees, or a pair
    of multiplicity 3 with a sparse tail (a tree, perhaps with one chord),
    so that the core is the pair. Up to 9 vertices, labels shuffled."""
    if draw(st.booleans()):
        k = draw(st.integers(3, 5))
        knot = [(u, v) for u in range(k) for v in range(u + 1, k)]
        edges = knot + draw(st.lists(st.sampled_from(knot), max_size=3))
    else:
        k, edges = 2, [(0, 1)] * 3
    n = draw(st.integers(k + 1, 9))
    edges += [(draw(st.integers(0, x - 1)), x) for x in range(k, n)]
    if k == 2 and n > 3 and draw(st.booleans()):
        u, v = draw(st.lists(st.integers(2, n - 1), min_size=2, max_size=2, unique=True))
        edges.append((u, v))
    label = draw(st.permutations(range(n)))
    return Graph(n, tuple(sorted(tuple(sorted((label[u], label[v]))) for u, v in edges)))


@settings(max_examples=200, deadline=None)
@given(cored_multigraphs())
def test_core_keeps_the_value_witness_and_threshold(graph):
    res = fractional_arboricity(graph)
    assert (res.value, res.witness_vertices) == brute_canonical_witness(graph)
    value = brute_frac_arboricity(graph)
    assert fractional_arboricity_at_most(graph, value)
    assert not fractional_arboricity_at_most(graph, value - Fraction(1, 1000))


@st.composite
def load_network_multigraphs(draw):
    """Edge cases of the min cuts' load network, on up to 8 vertices, with
    the vertices below the lowest touched one isolated: a star bundle, whose
    every edge meets that lowest vertex, so it holds no load and every share
    sits on a leaf; or up to ten random edges beside one pair repeated 2..5
    times, a pair above every integer bound below its multiplicity."""
    n = draw(st.integers(3, 8))
    low = draw(st.integers(0, n - 3))
    if draw(st.booleans()):
        edges = [(low, x) for x in draw(st.lists(st.integers(low + 1, n - 1), min_size=1, max_size=12))]
    else:
        pair = st.lists(st.integers(low, n - 1), min_size=2, max_size=2, unique=True).map(tuple)
        edges = [draw(pair)] * draw(st.integers(2, 5)) + draw(st.lists(pair, max_size=10))
    return Graph(n, tuple(sorted(tuple(sorted(e)) for e in edges)))


@settings(max_examples=200, deadline=None)
@given(load_network_multigraphs())
@example(complete_graph(4))  # at bound 2 one vertex is left with zero room
@example(Graph(4, ((1, 2), (1, 2), (1, 3), (1, 3))))  # a star bundle, all at zero room
@example(disjoint_union(complete_graph(5), Graph(2, ((0, 1),) * 3)))  # only a flow finds the pair
def test_load_network_edge_cases(graph):
    res = fractional_arboricity(graph)
    assert (res.value, res.witness_vertices) == brute_canonical_witness(graph)
    value = brute_frac_arboricity(graph)
    eps = Fraction(1, 997)
    # at an integer bound q = 1, so a vertex whose load is p gets no source
    # arc and no sink arc
    for bound in (value, value - eps, value + eps, *range(1, math.ceil(value) + 2)):
        assert fractional_arboricity_at_most(graph, bound) == (value <= bound), bound


def test_density_loop_improves_on_the_peeled_start(monkeypatch):
    # the densest peeled set can be less dense than gamma_f; only then does
    # the loop take an improving step, the one place that reads a minimal
    # min-cut source side. Here the peel starts at 7/5 and gamma_f = 3/2.
    steps = []
    source_side = MaxFlow.min_cut_source_side

    def counted(self, s):
        steps.append(s)
        return source_side(self, s)

    monkeypatch.setattr(MaxFlow, "min_cut_source_side", counted)
    graph = Graph(6, ((0, 1), (0, 4), (1, 4), (1, 5), (2, 3), (2, 5), (3, 4)))
    res = fractional_arboricity(graph)
    assert steps
    assert (res.value, res.witness_vertices) == (Fraction(3, 2), frozenset({0, 1, 4}))
    # about 2% of random simple graphs on 5..9 vertices take such a step
    rng = random.Random(5)
    improved = 0
    while improved < 12:
        n = rng.randint(5, 9)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        graph = Graph(n, tuple(sorted(rng.sample(pairs, rng.randint(n - 1, 2 * n)))))
        steps.clear()
        res = fractional_arboricity(graph)
        if steps:
            improved += 1
            assert res.value == brute_frac_arboricity(graph)
            assert (res.value, res.witness_vertices) == brute_canonical_witness(graph)


def test_threshold_test_stops_at_the_first_positive_excess(monkeypatch):
    # the graph of test_density_loop_improves_on_the_peeled_start: its
    # densest peeled set reaches 7/5 and no more, so both bounds need flows.
    # Vertex 0 lies in the densest set {0, 1, 4}, so at 7/5 the first flow
    # finds a positive excess and ends the test; at 3/2 none does, and every
    # lower endpoint of the core, 0, 1, 2 and 3, gets its flow
    flows = []
    max_flow = MaxFlow.max_flow

    def counted(self, s, t):
        flows.append(s)
        return max_flow(self, s, t)

    monkeypatch.setattr(MaxFlow, "max_flow", counted)
    graph = Graph(6, ((0, 1), (0, 4), (1, 4), (1, 5), (2, 3), (2, 5), (3, 4)))
    assert not fractional_arboricity_at_most(graph, Fraction(7, 5))
    assert len(flows) == 1
    flows.clear()
    assert fractional_arboricity_at_most(graph, Fraction(3, 2))
    assert len(flows) == 4


def test_density_loop_stops_at_the_first_positive_excess(monkeypatch):
    # the density loop reads the min-cut stream as the threshold test does:
    # an improving pass ends at the first vertex with a positive excess, so
    # only the certifying pass solves one flow per lower endpoint of the core
    flows = []
    max_flow = MaxFlow.max_flow

    def counted(self, s, t):
        flows.append(s)
        return max_flow(self, s, t)

    monkeypatch.setattr(MaxFlow, "max_flow", counted)
    # the graph above: at the peeled 7/5 the first flow improves to 3/2,
    # and the pass at 3/2 certifies with 4 flows; an improving pass that
    # ran on past the first positive excess would make 8
    graph = Graph(6, ((0, 1), (0, 4), (1, 4), (1, 5), (2, 3), (2, 5), (3, 4)))
    res = fractional_arboricity(graph)
    assert (res.value, res.witness_vertices) == (Fraction(3, 2), frozenset({0, 1, 4}))
    assert len(flows) == 5
    # a seeded simple graph with improving passes, where passes that ran to
    # their end would make 410 flows
    rng = random.Random(5)
    n, m = 300, 900
    edges = set()
    while len(edges) < m:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    flows.clear()
    res = fractional_arboricity(Graph(n, tuple(sorted(edges))))
    assert res.value == Fraction(178, 57)
    assert len(res.witness_vertices) == 229
    assert len(flows) <= 206
