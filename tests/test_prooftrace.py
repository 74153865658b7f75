import time
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from arborkit import (
    DeskScaleExceeded,
    Graph,
    INFINITE,
    run_prooftrace,
    union_rank_table,
)
from arborkit.prooftrace import VERDICT_INCONCLUSIVE, VERDICT_PASS, _matching_masks
from helpers import complete_graph, cycle, doubled_cycle, path, petersen
from oracles import (
    all_matchings,
    brute_flats,
    brute_two_path_domination,
    brute_union_rank,
    dual_rank_via_bases,
)


def dual_union_rank(g, k, subset):
    """|X| + r_k(E - X) - r_k(E), read off the k-fold union rank table."""
    table = union_rank_table(g, k)
    full = (1 << g.edge_count) - 1
    mask = sum(1 << e for e in subset)
    return len(subset) + table[full ^ mask] - table[full]


def test_dual_union_oracle_frozen_ranks():
    tri = cycle(3)
    assert dual_union_rank(tri, 1, ()) == 0
    assert dual_union_rank(tri, 1, {0}) == 1
    assert dual_union_rank(tri, 1, {0, 1}) == 1
    assert dual_union_rank(tri, 1, tri.full_edge_set()) == 1

    k4 = complete_graph(4)
    for subset in ({0}, {0, 3}, k4.full_edge_set()):
        assert dual_union_rank(k4, 2, subset) == 0


def test_dual_union_oracle_rejects_negative_k():
    with pytest.raises(ValueError):
        union_rank_table(cycle(3), -1)


def test_flat_records_agree_with_generic_enumeration():
    loop_and_edge = Graph(2, ((0, 0), (0, 1)))
    parallel_and_loop = Graph(3, ((0, 1), (0, 1), (1, 2), (2, 2)))
    for g in (cycle(3), complete_graph(4), path(4), doubled_cycle(3), loop_and_edge,
              parallel_and_loop):
        ground = g.full_edge_set()
        for k in (1, 2):
            report = run_prooftrace(g, k)
            from_records = {ground - frozenset(r.complement) for r in report.records}

            def dual_rank_fn(subset):
                return dual_rank_via_bases(
                    lambda x: brute_union_rank(g, k, x), ground, subset
                )

            expected = brute_flats(dual_rank_fn, ground)
            assert from_records == expected


def test_isolated_vertices_leave_the_records_alone():
    # a vertex no edge touches takes no part in any flat, so the per-flat
    # scan must not grow with the declared vertex count
    small = Graph(10, petersen().endpoints[:14])
    wide = Graph(200_010, small.endpoints)
    for k in (1, 2):
        want = run_prooftrace(small, k)
        start = time.perf_counter()
        got = run_prooftrace(wide, k)
        elapsed = time.perf_counter() - start
        assert got.vertices == 200_010
        assert replace(got, vertices=10) == want
        assert elapsed < 2.0, elapsed


def test_triangle_prooftrace_frozen():
    report = run_prooftrace(cycle(3), 1)
    assert report.verdict == VERDICT_PASS
    assert report.flat_count == 2
    assert not report.hypothesis_ok
    assert report.link_ok and report.basic_obs_ok
    complements = [r.complement for r in report.records]
    assert complements == [(), (0, 1, 2)]
    full_record = report.records[1]
    assert full_record.min_degree == 2
    assert full_record.gamma_p == 1
    assert full_record.required == 1
    assert full_record.inters_status == "pass"


def test_single_edge_prooftrace():
    report = run_prooftrace(Graph(2, ((0, 1),)), 1)
    assert report.verdict == VERDICT_PASS
    assert report.hypothesis_ok
    assert report.flat_count == 1
    assert report.records[0].complement == ()


def test_cycle_hypothesis_boundary():
    # gamma_f(C6) = 6/5 sits exactly on the k = 1 threshold
    report = run_prooftrace(cycle(6), 1)
    assert report.hypothesis_ok
    assert report.verdict == VERDICT_PASS


def test_doubled_triangle_is_inconclusive():
    # the full complement needs gamma_p >= 4 but the subgraph only has 1
    report = run_prooftrace(doubled_cycle(3), 1)
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert not report.hypothesis_ok
    assert report.link_ok and report.basic_obs_ok
    weak = [r for r in report.records if r.inters_status == "inconclusive"]
    assert weak


def test_check_link_frozen():
    assert run_prooftrace(cycle(3), 1).link_ok
    assert run_prooftrace(complete_graph(4), 1).link_ok
    assert run_prooftrace(complete_graph(4), 2).link_ok
    assert run_prooftrace(Graph(3, ()), 1).link_ok


@st.composite
def multigraphs_with_loops(draw, max_edges=10):
    """Up to 6 vertices and max_edges edges, loops and parallel edges allowed."""
    n = draw(st.integers(1, 6))
    vertex = st.integers(0, n - 1)
    return Graph(n, tuple(draw(st.lists(st.tuples(vertex, vertex), max_size=max_edges))))


@settings(max_examples=200, deadline=None)
@given(multigraphs_with_loops())
def test_matching_masks_match_the_definition(g):
    expected = sorted(sum(1 << e for e in match) for match in all_matchings(g))
    assert _matching_masks(g) == expected


@settings(max_examples=300, deadline=None)
@given(multigraphs_with_loops(max_edges=6), st.integers(1, 2))
def test_flat_records_match_the_definitions(g, k):
    for record in run_prooftrace(g, k).records:
        x = record.complement
        if not x:
            continue
        degree = {}
        for e in x:
            for end in g.endpoints[e]:  # a loop counts twice
                degree[end] = degree.get(end, 0) + 1
        assert record.min_degree == min(degree.values())
        brute = brute_two_path_domination(Graph(g.vertex_count, tuple(g.endpoints[e] for e in x)))
        assert record.gamma_p == (INFINITE if brute is None else brute[0])
        assert record.required == len(x) - brute_union_rank(g, k, x)


def test_check_basic_observation_frozen():
    assert run_prooftrace(cycle(3), 1).basic_obs_ok
    assert run_prooftrace(complete_graph(4), 2).basic_obs_ok
    assert run_prooftrace(doubled_cycle(3), 1).basic_obs_ok
    assert run_prooftrace(Graph(2, ((0, 0), (0, 1))), 1).basic_obs_ok


def test_check_mindeg_flats():
    report = run_prooftrace(cycle(6), 1)
    assert all(r.mindeg_ok for r in report.records)
    report = run_prooftrace(complete_graph(4), 2)
    assert all(r.mindeg_ok for r in report.records) and len(report.records) == 1
    report = run_prooftrace(Graph(3, ()), 1)
    assert all(r.mindeg_ok for r in report.records)


def test_check_inters_condition():
    report = run_prooftrace(cycle(6), 1)
    assert all(r.inters_status == "pass" for r in report.records)
    assert report.hypothesis_ok
    report = run_prooftrace(doubled_cycle(3), 1)
    assert not all(r.inters_status == "pass" for r in report.records)
    assert not report.hypothesis_ok


def test_report_json_shape():
    doc = run_prooftrace(cycle(3), 1).to_json()
    assert doc["graph"] == {"vertices": 3, "edges": 3}
    assert doc["k"] == 1
    assert doc["flats_of_dual"] == 2
    assert doc["verdict"] == "PASS"
    assert doc["records"][1]["inters"] == "pass"
    assert doc["records"][1]["gamma_p"] == "1"


def test_verdict_is_reproducible():
    first = run_prooftrace(complete_graph(4), 1)
    second = run_prooftrace(complete_graph(4), 1)
    assert first == second


def test_gates(monkeypatch):
    monkeypatch.delenv("ARBORKIT_MAX_EDGES", raising=False)
    with pytest.raises(DeskScaleExceeded):
        run_prooftrace(path(16), 1)
    monkeypatch.setenv("ARBORKIT_MAX_EDGES", "5")
    with pytest.raises(DeskScaleExceeded):
        run_prooftrace(cycle(6), 1)
    # the variable can also widen past the default
    monkeypatch.setenv("ARBORKIT_MAX_EDGES", "15")
    assert run_prooftrace(path(16), 1).link_ok


def test_k_validation():
    with pytest.raises(ValueError):
        run_prooftrace(cycle(3), 0)
    with pytest.raises(ValueError):
        run_prooftrace(cycle(3), -1)
