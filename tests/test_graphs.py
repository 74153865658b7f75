import pytest
from hypothesis import example, given, settings, strategies as st

from arborkit import (
    Graph,
    GraphFormatError,
    cycle_rank,
    graph_stats,
    line_graph,
    parse_graph,
    serialize_graph,
)
from helpers import complete_graph, cycle, path, star
from oracles import subgraph_rank


def test_rejects_out_of_range_endpoints():
    with pytest.raises(ValueError):
        Graph(2, ((0, 2),))
    with pytest.raises(ValueError):
        Graph(-1, ())


def test_degrees_count_loops_twice():
    g = Graph(2, ((0, 1), (1, 1)))
    assert g.degrees() == [1, 3]
    assert g.has_loop()
    assert g.loop_edges() == [1]


def test_stats_on_triangle():
    g = cycle(3)
    s = graph_stats(g, g.full_edge_set())
    assert (s.n, s.c, s.min_degree) == (3, 1, 2)
    assert not s.is_forest
    assert not s.is_matching


def test_empty_subset_is_forest_and_matching():
    s = graph_stats(complete_graph(4), ())
    assert s.is_forest
    assert s.is_matching
    assert s.n == 0 and s.min_degree == 0


def test_forest_and_matching_predicates():
    g = complete_graph(4)
    # edge ids: 0=(0,1) 1=(0,2) 2=(0,3) 3=(1,2) 4=(1,3) 5=(2,3)
    assert graph_stats(g, {0, 1, 2}).is_forest
    assert not graph_stats(g, {0, 1, 3}).is_forest
    assert graph_stats(g, {0, 5}).is_matching
    assert not graph_stats(g, {0, 1}).is_matching


def test_loop_is_neither_forest_nor_matching():
    g = Graph(1, ((0, 0),))
    s = graph_stats(g, {0})
    assert not s.is_forest
    assert not s.is_matching


def test_subset_validation():
    g = cycle(3)
    with pytest.raises(ValueError):
        graph_stats(g, {7})


def test_line_graph_frozen_cases():
    assert line_graph(path(3)).endpoints == ((0, 1),)
    lt = line_graph(cycle(3))
    assert lt.vertex_count == 3 and lt.edge_count == 3
    lg = line_graph(star(3))
    assert lg.vertex_count == 3 and lg.edge_count == 3
    lc4 = line_graph(cycle(4))
    assert lc4.vertex_count == 4 and lc4.edge_count == 4
    assert sorted(lc4.degrees()) == [2, 2, 2, 2]


def test_line_graph_parallel_pair_gives_one_edge():
    g = Graph(2, ((0, 1), (0, 1)))
    assert line_graph(g).endpoints == ((0, 1),)


def test_line_graph_loop_has_no_self_adjacency():
    g = Graph(2, ((0, 1), (0, 0)))
    assert line_graph(g).endpoints == ((0, 1),)
    lone = line_graph(Graph(1, ((0, 0),)))
    assert lone.vertex_count == 1 and lone.edge_count == 0


def test_parse_serialize_roundtrip():
    text = "4 3\n0 1\n1 2\n2 3\n"
    assert serialize_graph(parse_graph(text)) == text


@st.composite
def multigraphs(draw):
    """n = 0..8, loops, parallel edges and isolated vertices allowed; the
    edge list is empty for n = 0 and may be empty otherwise."""
    n = draw(st.integers(0, 8))
    if n == 0:
        return Graph(0, ())
    vertex = st.integers(0, n - 1)
    return Graph(n, tuple(draw(st.lists(st.tuples(vertex, vertex), max_size=12))))


@settings(max_examples=300, deadline=None)
@given(multigraphs())
@example(Graph(0, ()))
@example(Graph(3, ()))
@example(Graph(3, ((1, 1), (0, 1), (0, 1))))
def test_parse_serialize_roundtrip_on_multigraphs(g):
    assert parse_graph(serialize_graph(g)) == g


@st.composite
def graphs_with_subsets(draw):
    g = draw(multigraphs())
    return g, draw(st.sets(st.integers(0, g.edge_count - 1))) if g.edge_count else set()


@settings(max_examples=300, deadline=None)
@given(graphs_with_subsets())
@example((Graph(4, ((0, 0), (1, 2), (1, 2), (2, 3))), {0, 1, 2}))
@example((Graph(3, ((0, 1), (1, 1))), {1}))
@example((Graph(5, ((0, 1), (2, 3))), {0, 1}))
def test_stats_and_cycle_rank_match_the_definitions(case):
    g, subset = case
    deg = {}
    for e in subset:
        u, v = g.endpoints[e]
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    rank = subgraph_rank(g, subset)
    s = graph_stats(g, subset)
    assert s.n == len(deg)
    assert s.c == len(deg) - rank
    assert s.min_degree == (min(deg.values()) if deg else 0)
    assert s.max_degree == max(deg.values(), default=0)
    # a matching's edges touch two vertices each, and no vertex twice
    assert s.is_matching == (len(deg) == 2 * len(subset))
    assert s.is_forest == (rank == len(subset))
    assert cycle_rank(g, subset) == rank


def test_parse_skips_comments_and_blanks():
    g = parse_graph("# header\n\n3 1\n# edge next\n0 2\n")
    assert g.vertex_count == 3
    assert g.endpoints == ((0, 2),)


def test_parse_accepts_loops_and_parallel_edges():
    g = parse_graph("3 3\n0 0\n1 2\n1 2\n")
    assert g.loop_edges() == [0]
    assert g.endpoints.count((1, 2)) == 2


@pytest.mark.parametrize(
    "text,line",
    [
        ("2\n", 1),
        ("2 2\n0 1\n", 3),
        ("2 1\n0 x\n", 2),
        ("2 1\n0 5\n", 2),
        ("2 1\n0 1\n1 0\n", 3),
        ("", 1),
        # only a whole line is a comment
        ("2 1\n0 1 # c\n", 2),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(GraphFormatError) as err:
        parse_graph(text)
    assert err.value.line == line
    assert f"line {line}:" in str(err.value)
