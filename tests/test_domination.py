"""Edge domination, 2-path domination, and the witness re-check they share."""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from arborkit import (
    DeskScaleExceeded,
    Graph,
    dominates,
    edge_domination,
    is_infinite,
    line_graph,
    two_path_domination,
)
from arborkit import domination
from helpers import (
    complete_bipartite,
    complete_graph,
    cube,
    cycle,
    doubled_cycle,
    path,
    petersen,
    prism,
    star,
    wheel,
)
from oracles import brute_dominates, brute_edge_domination, brute_two_path_domination


def test_edge_domination_frozen_values():
    for g, want in [
        (path(4), 1),
        (complete_graph(4), 1),
        (cycle(6), 2),
        (star(4), 1),
        (cycle(3), 1),
    ]:
        res = edge_domination(g)
        assert res.value == want
        assert len(res.witness) == want
        assert dominates(g, res.witness)


# (graph, edge_domination, two_path_domination) as (value, witness) pairs: a
# named graph, or a graph of the multigraph corpus by its index there
FROZEN_WITNESSES = [
    (cycle(6), (2, (0, 2)), (2, ((0, 1, 2), (2, 3, 4)))),
    (cycle(9), (3, (0, 4, 5)), (3, ((0, 1, 2), (1, 0, 8), (4, 5, 6)))),
    (petersen(), (3, (0, 2, 3)), (3, ((0, 1, 2), (3, 2, 7), (8, 6, 9)))),
    (cube(), (2, (0, 5)), (2, ((1, 0, 2), (4, 5, 7)))),
    (prism(), (1, (6,)), (2, ((1, 0, 3), (2, 1, 4)))),
    (wheel(5), (1, (0,)), (2, ((1, 0, 3), (1, 0, 4)))),
    (complete_graph(4), (1, (0,)), (1, ((1, 0, 2),))),
    (complete_bipartite(3, 3), (1, (0,)), (2, ((3, 0, 4), (3, 0, 5)))),
    (doubled_cycle(4), (1, (0,)), (1, ((0, 1, 2),))),
    (path(5), (2, (1, 2)), (1, ((1, 2, 3),))),
    (path(8), (2, (1, 5)), (2, ((1, 2, 3), (4, 5, 6)))),
    (star(4), (1, (0,)), (1, ((1, 0, 2),))),
    (28, (1, (7,)), (3, ((0, 3, 7), (0, 8, 2), (3, 1, 9)))),
    (41, (2, (0, 10)), (2, ((0, 7, 1), (1, 6, 2)))),
    (67, (2, (2, 9)), (2, ((7, 2, 8), (4, 6, 5)))),
    (79, (2, (5, 7)), (2, ((1, 0, 3), (6, 8, 7)))),
    (144, (2, (6, 10)), (2, ((0, 3, 5), (2, 9, 7)))),
    (162, (2, (3, 8)), (2, ((0, 9, 6), (4, 5, 7)))),
    (178, (2, (2, 9)), (2, ((2, 1, 7), (8, 3, 9)))),
    (196, (2, (3, 8)), (2, ((0, 9, 5), (2, 1, 3)))),
]


def test_domination_witnesses_frozen(multigraph_corpus):
    # which optimum comes back, not only its size: a change to the greedy
    # start, the bounds or the branch order of the search moves these
    assert len(FROZEN_WITNESSES) == 20
    for key, edge, two_path in FROZEN_WITNESSES:
        g = multigraph_corpus[key] if isinstance(key, int) else key
        got = [edge_domination(g), two_path_domination(g)]
        assert [(r.value, r.witness) for r in got] == [edge, two_path], key


def test_edge_domination_isolated_vertex():
    res = edge_domination(Graph(3, ((0, 1),)))
    assert is_infinite(res.value)
    assert res.witness is None


def test_isolated_vertex_answers_before_the_coverage_masks():
    # the gate counts edges only; n-bit masks for every vertex would take
    # about 25 MB here
    g = Graph(20000, ((0, 1),))
    tracemalloc.start()
    try:
        res = edge_domination(g)
        covered = dominates(g, {0})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert is_infinite(res.value) and res.witness is None
    assert not covered
    assert peak < 1 << 20, peak


def test_edge_domination_degenerate_sizes():
    empty = edge_domination(Graph(0, ()))
    assert empty.value == 0 and empty.witness == ()
    bare = edge_domination(Graph(2, ()))
    assert is_infinite(bare.value)


def test_dominates_follows_the_definition():
    g = path(4)
    assert not dominates(g, {0})
    assert dominates(g, {1})
    with pytest.raises(ValueError):
        dominates(g, {5})


def test_dominates_a_long_matching_in_linear_space():
    # an n-bit closed-neighbourhood mask per vertex would take about 50 MB
    n = 20000
    g = Graph(n, tuple((v, v + 1) for v in range(0, n, 2)))
    tracemalloc.start()
    try:
        every = dominates(g, range(n // 2))
        all_but_one = dominates(g, range(1, n // 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert every and not all_but_one
    assert peak < 1 << 20, peak


@st.composite
def graphs_with_edge_subsets(draw):
    """Up to 8 vertices and 12 edges, loops and parallel edges allowed,
    isolated vertices possible, and a subset of the edge ids."""
    n = draw(st.integers(0, 8))
    if n == 0:
        return Graph(0, ()), []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(lambda t: tuple(sorted(t)))
    g = Graph(n, tuple(sorted(draw(st.lists(pair, max_size=12)))))
    return g, draw(st.lists(st.integers(0, max(g.edge_count - 1, 0)), max_size=g.edge_count))


@settings(max_examples=300, deadline=None)
@given(graphs_with_edge_subsets())
def test_dominates_matches_the_definition(drawn):
    g, edges = drawn
    assert dominates(g, edges) == brute_dominates(g, edges)


def test_no_single_edge_dominates_a_hexagon():
    g = cycle(6)
    for e in range(6):
        assert not dominates(g, {e})


def test_edge_domination_matches_brute_oracle(corpus):
    checked = 0
    for g in corpus:
        if g.vertex_count > 6 or g.edge_count > 8:
            continue
        checked += 1
        res = edge_domination(g)
        ref = brute_edge_domination(g)
        if ref is None:
            assert is_infinite(res.value)
        else:
            assert res.value == ref[0]
    assert checked > 50


def test_the_coverage_bound_settles_cycles_at_the_root(monkeypatch):
    # an edge of C6 or C9 covers 4 vertices and dominates 4 of the n
    # vertices' candidate sets, so the packing bound is 1 on C6 and 2 on C9,
    # one short of the optimum; ceil(6 / 4) = 2 and ceil(9 / 4) = 3 meet
    # greedy, so the core scans want once and opens no branch point
    bits, core = domination._bits, domination._edge_domination_core
    calls, inside = [], []

    def counted_bits(mask):
        calls.append(mask)
        return bits(mask)

    def counted_core(*args):
        calls.clear()
        out = core(*args)
        inside.append(len(calls))
        return out

    monkeypatch.setattr(domination, "_bits", counted_bits)
    monkeypatch.setattr(domination, "_edge_domination_core", counted_core)
    assert edge_domination(cycle(6)).value == 2
    assert edge_domination(cycle(9)).value == 3
    assert inside == [1, 1]


@st.composite
def multigraphs_without_isolated_vertices(draw):
    """Loop-free multigraphs on 2..7 vertices in which every vertex has an
    edge: drawn edges, then one more edge at each vertex still bare."""
    n = draw(st.integers(2, 7))
    vertex = st.integers(0, n - 1)
    edges = [tuple(sorted(p)) for p in draw(st.lists(st.tuples(vertex, vertex), max_size=10))
             if p[0] != p[1]]
    for v in range(n):
        if all(v not in e for e in edges):
            w = draw(vertex.filter(lambda w: w != v))
            edges.append((min(v, w), max(v, w)))
    return Graph(n, tuple(edges))


@settings(max_examples=200, deadline=None)
@given(multigraphs_without_isolated_vertices())
def test_coverage_bound_holds_against_brute(g):
    closed = [{v} for v in range(g.vertex_count)]
    for u, v in g.endpoints:
        closed[u].add(v)
        closed[v].add(u)
    widest = max(len(closed[u] | closed[v]) for u, v in g.endpoints)
    assert brute_edge_domination(g)[0] >= -(-g.vertex_count // widest)


def test_two_path_frozen_values():
    assert two_path_domination(cycle(6)).value == 2
    assert two_path_domination(complete_graph(4)).value == 1
    assert two_path_domination(path(4)).value == 1
    empty = two_path_domination(Graph(0, ()))
    assert empty.value == 0
    assert empty.witness == () and empty.witness_pairs == ()


def test_two_path_single_path_witness():
    res = two_path_domination(path(3))
    assert res.value == 1
    assert res.witness == ((0, 1, 2),)
    assert res.witness_pairs == ((0, 1),)


def test_two_path_single_edge_component():
    res = two_path_domination(Graph(2, ((0, 1),)))
    assert is_infinite(res.value)
    assert res.witness is None
    assert res.witness_pairs is None


def test_two_path_witness_is_consistent():
    for g in [cycle(6), complete_graph(4), star(4), cycle(7)]:
        res = two_path_domination(g)
        assert len(res.witness_pairs) == res.value
        assert len(res.witness) == res.value
        for (e1, e2), (a, s, b) in zip(res.witness_pairs, res.witness):
            assert e1 != e2
            shared = set(g.endpoints[e1]) & set(g.endpoints[e2])
            assert s in shared
            assert set(g.endpoints[e1]) | set(g.endpoints[e2]) == {a, s, b} or a == b
        assert edge_domination(line_graph(g)).value == res.value


def test_two_path_matches_brute_oracle(corpus):
    checked = 0
    for g in corpus:
        if g.vertex_count > 6 or g.edge_count > 8:
            continue
        checked += 1
        res = two_path_domination(g)
        ref = brute_two_path_domination(g)
        if ref is None:
            assert is_infinite(res.value)
        else:
            assert res.value == ref[0]
    assert checked > 50


def test_domination_gates(monkeypatch):
    monkeypatch.delenv("ARBORKIT_MAX_EDGES", raising=False)
    with pytest.raises(DeskScaleExceeded):
        edge_domination(complete_graph(8))
    with pytest.raises(DeskScaleExceeded):
        two_path_domination(path(26))
    monkeypatch.setenv("ARBORKIT_MAX_EDGES", "30")
    assert edge_domination(complete_graph(8)).value == 1



def test_a_non_dominating_witness_raises(monkeypatch):
    # edge 0 of a 5-vertex path covers vertices 0..2 only, and vertex 0 of
    # its line graph (a 4-vertex path) covers line-graph vertices 0..2 only;
    # the re-check is a plain raise, so it fires under python -O as well
    monkeypatch.setattr(domination, "_edge_domination_core", lambda *args: (1, (0,)))
    g = path(5)
    with pytest.raises(AssertionError, match="non-dominating witness"):
        edge_domination(g)
    with pytest.raises(AssertionError, match="non-dominating witness"):
        two_path_domination(g)
