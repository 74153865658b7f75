import importlib
import pkgutil
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from arborkit import (
    DeskScaleExceeded,
    Graph,
    cycle_rank,
    matroid_partition,
    partition_into_forests,
    union_rank,
    union_rank_table,
)
import arborkit
from arborkit import matroid
from arborkit.matroid import _ForestPartition, flat_masks
from helpers import complete_graph, cycle, doubled_cycle
from oracles import brute_flats, brute_union_rank, subgraph_rank


def powerset(items):
    items = list(items)
    for size in range(len(items) + 1):
        yield from (frozenset(c) for c in combinations(items, size))


def test_cycle_rank_frozen_values():
    k4 = complete_graph(4)
    assert cycle_rank(k4, k4.full_edge_set()) == 3
    assert cycle_rank(k4, {0, 1, 3}) == 2  # a triangle
    assert cycle_rank(k4, ()) == 0
    assert cycle_rank(Graph(1, ((0, 0),)), {0}) == 0
    assert cycle_rank(Graph(2, ((0, 1), (0, 1))), {0, 1}) == 1


def test_cycle_rank_matches_component_count_formula():
    for g in (complete_graph(4), cycle(5), doubled_cycle(3)):
        for subset in powerset(g.edge_ids()):
            assert cycle_rank(g, subset) == subgraph_rank(g, subset)


def test_rank_axioms_exhaustive():
    # unit increase plus diminishing returns imply the full axiom set
    for g in (complete_graph(4), doubled_cycle(3), Graph(3, ((0, 0), (0, 1), (1, 2)))):
        ground = sorted(g.edge_ids())
        assert cycle_rank(g, ()) == 0
        for subset in powerset(ground):
            r = cycle_rank(g, subset)
            for e in ground:
                if e in subset:
                    continue
                re = cycle_rank(g, subset | {e})
                assert r <= re <= r + 1
                for f in ground:
                    if f == e or f in subset:
                        continue
                    gain_late = cycle_rank(g, subset | {f, e}) - cycle_rank(g, subset | {f})
                    assert gain_late <= re - r


def edge_set(mask):
    return frozenset(e for e in range(mask.bit_length()) if mask >> e & 1)


def cycle_flats(g):
    """Flats of the cycle matroid as edge-id sets, in increasing bitmask
    order, from the flat_masks scan over the table of cycle ranks."""
    return [edge_set(mask) for mask in flat_masks(g.edge_count, cycle_rank_table(g))]


def cycle_rank_table(g):
    return bytes(cycle_rank(g, edge_set(mask)) for mask in range(1 << g.edge_count))


def test_flats_of_triangle():
    flats = cycle_flats(cycle(3))
    assert flats == [
        frozenset(),
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
        frozenset({0, 1, 2}),
    ]


def test_flats_respect_parallel_closure():
    g = Graph(2, ((0, 1), (0, 1)))
    assert cycle_flats(g) == [frozenset(), frozenset({0, 1})]


def test_flats_with_loop():
    # the loop sits in the closure of the empty set
    g = Graph(2, ((0, 0), (0, 1)))
    assert cycle_flats(g) == [frozenset({0}), frozenset({0, 1})]


def test_circuit_flat_exclusion():
    # a circuit cannot leave a flat through exactly one element
    for g in (complete_graph(4), doubled_cycle(3)):
        flats = cycle_flats(g)
        # circuits by the definition: dependent, and independent once any
        # one element is dropped
        circuits = [
            c for c in powerset(g.edge_ids())
            if subgraph_rank(g, c) < len(c)
            and all(subgraph_rank(g, c - {x}) == len(c) - 1 for x in c)
        ]
        assert circuits
        for flat in flats:
            for circ in circuits:
                assert len(circ - flat) != 1


def test_partition_covers_or_certifies():
    tri = cycle(3)
    part, uncovered, violation = matroid_partition(tri, 1, tri.full_edge_set())
    assert uncovered == frozenset({2})
    assert violation is not None
    assert len(violation) > 1 * cycle_rank(tri, violation)

    part, uncovered, violation = matroid_partition(tri, 2, tri.full_edge_set())
    assert not uncovered
    assert violation is None
    forests = part.forest_sets()
    assert len(forests) == 2
    assert frozenset().union(*forests) == tri.full_edge_set()
    for forest in forests:
        assert cycle_rank(tri, forest) == len(forest)


def test_partition_at_zero():
    tri = cycle(3)
    res = partition_into_forests(tri, 0)
    assert not res.ok
    assert len(res.violation) > 0
    edgeless = Graph(4, ())
    assert partition_into_forests(edgeless, 0).ok


def test_partition_rejects_negative_k():
    with pytest.raises(ValueError):
        partition_into_forests(cycle(3), -1)


def test_forest_partition_restore_returns_to_mark():
    # parallel edges at k=2: inserting edge 5 pushes edge 1, placed before
    # the mark, from forest 0 to forest 1 and edge 4 back to forest 0
    g = Graph(4, (
        (0, 1), (3, 2), (2, 1), (0, 3), (1, 3),
        (0, 1), (2, 0), (3, 0), (1, 0), (0, 3),
    ))
    part = _ForestPartition(g, 2)
    for e in range(3):
        assert part.try_insert(e) == (True, None)
    owner_before = dict(part.owner)
    sets_before = part.forest_sets()
    mark = part.snapshot()
    outcomes = []
    for e in range(3, g.edge_count):
        before = part.snapshot()
        owner = dict(part.owner)
        ok, label = part.try_insert(e)
        outcomes.append(ok)
        if not ok:
            assert len(label) > 2 * subgraph_rank(g, label)
            assert part.snapshot() == before
            assert part.owner == owner
    assert outcomes == [True, True, True, False, False, False, False]
    assert any(part.owner[e] != j for e, j in owner_before.items())
    for forest in part.forest_sets():
        assert subgraph_rank(g, forest) == len(forest)

    part.restore(mark)
    assert part.snapshot() == mark
    assert part.owner == owner_before
    assert part.forest_sets() == sets_before
    # the restored adjacency is live: the same run gives the same outcomes
    assert [part.try_insert(e)[0] for e in range(3, g.edge_count)] == outcomes
    part.restore(0)
    assert part.owner == {}
    assert part.forest_sets() == (frozenset(), frozenset())


@pytest.mark.parametrize("graph, k, planted, insert, placed", [
    # a triangle in forest 0; edge 3 fits there
    (Graph(4, ((0, 1), (1, 2), (0, 2), (2, 3))), 1, {0: 0, 1: 0, 2: 0}, 3, {3: 0}),
    # a parallel pair in forest 0
    (Graph(4, ((0, 1), (0, 1), (2, 3))), 1, {0: 0, 1: 0}, 2, {2: 0}),
    # a loop in forest 0
    (Graph(3, ((0, 0), (1, 2))), 1, {0: 0}, 1, {1: 0}),
    # a parallel pair (edges 3, 4) in forest 1, which the chain only
    # passes through: edge 5 enters forest 1 and pushes edge 2 into forest 0
    (
        Graph(5, ((0, 1), (0, 2), (2, 1), (3, 4), (3, 4), (0, 1))),
        2,
        {0: 0, 1: 1, 2: 1, 3: 1, 4: 1},
        5,
        {5: 1, 2: 0},
    ),
])
def test_forest_check_raises_on_planted_cycle(graph, k, planted, insert, placed):
    def plant(edges):
        part = _ForestPartition(graph, k)
        for e in edges:
            part._add(planted[e], e)
        return part

    # without the edge that closes the cycle the insertion succeeds
    part = plant(list(planted)[:-1])
    assert part.try_insert(insert) == (True, None)
    assert {e: part.owner[e] for e in placed} == placed
    part = plant(planted)
    with pytest.raises(AssertionError, match="acquired a cycle"):
        part.try_insert(insert)


def test_union_rank_frozen_values():
    k4 = complete_graph(4)
    assert union_rank(k4, 1, k4.full_edge_set()) == 3
    assert union_rank(k4, 2, k4.full_edge_set()) == 6
    c6 = cycle(6)
    assert union_rank(c6, 1, c6.full_edge_set()) == 5
    assert union_rank(k4, 0, {0, 1}) == 0


def test_union_rank_augment_equals_brute():
    graphs = [
        complete_graph(4),
        doubled_cycle(3),
        Graph(3, ((0, 0), (0, 1), (0, 1), (1, 2))),
    ]
    for g in graphs:
        for k in (1, 2, 3):
            for subset in powerset(g.edge_ids()):
                assert union_rank(g, k, subset) == brute_union_rank(g, k, subset)


def test_union_rank_table_matches_oracle():
    graphs = [
        Graph(0, ()),
        Graph(1, ((0, 0),)),
        Graph(3, ((0, 0), (0, 1), (0, 1), (1, 2), (1, 2), (1, 2), (2, 0), (2, 2))),
        # 10 edges: K4, two parallel copies, a pendant edge, a loop
        Graph(5, (
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
            (0, 1), (2, 3), (3, 4), (4, 4),
        )),
    ]
    for g in graphs:
        for k in range(4):
            table = union_rank_table(g, k)
            assert len(table) == 1 << g.edge_count
            for mask, got in enumerate(table):
                subset = [e for e in range(g.edge_count) if mask >> e & 1]
                assert got == brute_union_rank(g, k, subset), (g.endpoints, k, subset)


def _assert_table_matches_augmenting(g, k):
    table = union_rank_table(g, k)
    assert len(table) == 1 << g.edge_count
    for mask, got in enumerate(table):
        subset = [e for e in range(g.edge_count) if mask >> e & 1]
        assert got == union_rank(g, k, subset), (g.endpoints, k, subset)


def test_union_rank_table_matches_pointwise():
    for k in (1, 2):
        _assert_table_matches_augmenting(complete_graph(4), k)


def test_union_rank_table_matches_augmenting_on_corpus(multigraph_corpus):
    # the table comes from the union formula and a subset transform; the
    # augmenting search reaches the same ranks by a different route
    small = [g for g in multigraph_corpus if g.edge_count <= 10]
    assert len(small) > 100
    for g in small:
        for k in range(4):
            _assert_table_matches_augmenting(g, k)


@pytest.mark.parametrize("piece", [1, 2, 8])
def test_union_rank_table_cut_into_small_pieces(monkeypatch, multigraph_corpus, piece):
    # tables up to 13 edges fit one piece of lanes; a piece of 1, 2 or 8
    # lanes runs the step that pairs whole pieces, as tables past 13 edges do
    monkeypatch.setattr(matroid, "_LANE_PIECE", piece)
    graphs = [g for g in multigraph_corpus if 8 <= g.edge_count <= 10][:8]
    assert len(graphs) == 8
    for g in graphs:
        for k in (1, 2):
            _assert_table_matches_augmenting(g, k)


@st.composite
def small_multigraphs(draw):
    """Up to 5 vertices and 8 edges, loops and parallel edges allowed."""
    n = draw(st.integers(1, 5))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=8))
    return Graph(n, tuple(edges))


@settings(max_examples=200, deadline=None)
@given(small_multigraphs(), st.integers(0, 3))
def test_union_rank_table_matches_augmenting_on_multigraphs(g, k):
    _assert_table_matches_augmenting(g, k)


@settings(max_examples=100, deadline=None)
@given(small_multigraphs())
def test_flat_masks_on_rank_tables(g):
    m = g.edge_count
    flats = brute_flats(lambda x: subgraph_rank(g, x), g.full_edge_set())
    expected = sorted(sum(1 << e for e in flat) for flat in flats)
    assert flat_masks(m, cycle_rank_table(g)) == expected
    # the dual of the k-fold union, against the definition mask by mask
    full = (1 << m) - 1
    for k in (1, 2):
        table = union_rank_table(g, k)
        dual = [mask.bit_count() + table[full ^ mask] - table[full] for mask in range(full + 1)]
        expected = [
            mask
            for mask in range(full + 1)
            if all(dual[mask | 1 << e] == dual[mask] + 1 for e in range(m) if not mask >> e & 1)
        ]
        assert flat_masks(m, bytes(dual)) == expected


def test_union_rank_table_lanes_past_one_byte(multigraph_corpus):
    # k * r(T) runs far past one byte lane at k = 40 and 300; the table
    # clamps it to m + 1 before the transform, which must not change a rank
    graphs = [Graph(0, ()), Graph(1, ((0, 0),))]
    graphs += [g for g in multigraph_corpus if g.edge_count <= 6]
    assert len(graphs) > 20
    for g in graphs:
        for k in (0, 1, 7, 40, 300):
            table = union_rank_table(g, k)
            for mask, got in enumerate(table):
                subset = [e for e in range(g.edge_count) if mask >> e & 1]
                assert got == brute_union_rank(g, k, subset), (g.endpoints, k, subset)


def test_union_rank_table_hard_cap():
    g = complete_graph(7)  # 21 edges
    with pytest.raises(DeskScaleExceeded):
        union_rank_table(g, 1)


def test_union_rank_table_at_the_hard_cap():
    # the largest table the cap admits: 20 edges of K8 at k = 2, about 0.6 s
    # with the checks
    g = Graph(8, complete_graph(8).endpoints[:20])
    table = union_rank_table(g, 2)
    assert type(table) is bytes
    assert len(table) == 1 << 20
    full = (1 << 20) - 1
    assert table[full] == union_rank(g, 2, range(20)) == 14
    sample = {x * 2654435761 % (1 << 20) for x in range(1, 97)} | {0, 0b111, 1 << 19}
    checked = 0
    for mask in sorted(sample):
        subset = [e for e in range(20) if mask >> e & 1]
        assert table[mask] == union_rank(g, 2, subset), subset
        if len(subset) <= 10:
            assert table[mask] == brute_union_rank(g, 2, subset), subset
            checked += 1
    assert checked > 30


def test_union_oracle_wraps_union_rank():
    g = cycle(4)
    assert union_rank(g, 1, g.full_edge_set()) == 3
    assert union_rank(g, 1, ()) == 0


def test_test_only_api_is_gone():
    # one matroid representation (bitmask tables and flat_masks); the
    # frozenset oracles, circuit and basis enumerators, the edge-induced
    # subgraph, the gate wrapper, and the predicates that only restated
    # graph_stats or the definitions are not API
    removed = (
        "union_oracle", "dual_oracle", "enumerate_flats", "is_circuit", "bases",
        "FLAT_ENUM_DEFAULT", "check_subgraph_bound", "arboricity_matches_ceiling",
        "Threshold", "cover_degree_bound", "components", "is_matching", "is_forest",
        "RankOracle", "cycle_matroid", "dual_rank", "edge_induced_subgraph",
        "InducedSubgraph", "gate",
    )
    modules = [arborkit] + [
        importlib.import_module(f"arborkit.{info.name}")
        for info in pkgutil.iter_modules(arborkit.__path__)
        if info.name != "__main__"
    ]
    assert len(modules) > 10
    for module in modules:
        for name in removed:
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(Graph, "incident")
