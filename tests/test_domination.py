"""Edge domination, 2-path domination, and the connectivity chain report."""

import tracemalloc
from fractions import Fraction

import pytest

from arborkit import (
    DeskScaleExceeded,
    Graph,
    check_conn_chain,
    dominates,
    edge_domination,
    is_infinite,
    line_graph,
    two_path_domination,
    two_path_union,
)
from helpers import complete_graph, cycle, path, star
from oracles import brute_edge_domination, brute_two_path_domination


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


def test_two_path_frozen_values():
    assert two_path_domination(cycle(6)).value == 2
    assert two_path_domination(complete_graph(4)).value == 1
    assert two_path_domination(path(4)).value == 1


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


def test_two_path_union_counts():
    vs, es = two_path_union(cycle(6), ((0, 1), (2, 3)))
    assert vs == frozenset(range(5))
    assert es == frozenset({0, 1, 2, 3})
    with pytest.raises(ValueError):
        two_path_union(cycle(6), ((0, 9),))


def test_domination_gates(monkeypatch):
    monkeypatch.delenv("ARBORKIT_MAX_EDGES", raising=False)
    with pytest.raises(DeskScaleExceeded):
        edge_domination(complete_graph(8))
    with pytest.raises(DeskScaleExceeded):
        two_path_domination(path(26))
    monkeypatch.setenv("ARBORKIT_MAX_EDGES", "30")
    assert edge_domination(complete_graph(8)).value == 1


def test_conn_chain_hexagon_at_the_boundary():
    rep = check_conn_chain(cycle(6), 1)
    assert rep.epsilon == Fraction(1, 5)
    assert rep.vertices == 6 and rep.edges == 6
    assert rep.frac_arboricity_ok and rep.min_degree_ok
    assert rep.hypotheses_ok()
    assert rep.gamma_p == 2
    assert rep.n_star == 5 and rep.m_star == 4
    assert rep.deficiency_ok and rep.witness_ratio_ok
    assert rep.sparsity_ok and rep.conclusion_ok
    assert rep.eta_lower_bound == 2
    assert len(rep.witness) == 2


def test_conn_chain_single_edge_is_vacuous():
    rep = check_conn_chain(Graph(2, ((0, 1),)), 1)
    assert is_infinite(rep.gamma_p)
    assert rep.witness is None
    assert rep.n_star is None and rep.m_star is None
    assert rep.deficiency_ok and rep.witness_ratio_ok and rep.conclusion_ok
    assert rep.frac_arboricity_ok
    assert not rep.min_degree_ok
    assert not rep.hypotheses_ok()
    assert rep.sparsity_ok
    assert is_infinite(rep.eta_lower_bound)


def test_conn_chain_dense_graph_fails_hypotheses():
    rep = check_conn_chain(complete_graph(4), 1)
    assert not rep.frac_arboricity_ok
    assert not rep.sparsity_ok
    assert rep.min_degree_ok
    assert not rep.hypotheses_ok()
    # the conclusion may still hold, the report just cannot promise it
    assert rep.gamma_p == 1
    assert rep.conclusion_ok
    assert rep.deficiency_ok and rep.witness_ratio_ok


def test_conn_chain_empty_graph():
    rep = check_conn_chain(Graph(0, ()), 1)
    assert rep.gamma_p == 0
    assert rep.min_degree_ok
    assert not rep.sparsity_ok
    assert rep.deficiency_ok and rep.witness_ratio_ok and rep.conclusion_ok


def test_conn_chain_rejects_bad_k():
    with pytest.raises(ValueError):
        check_conn_chain(cycle(6), 0)
    with pytest.raises(ValueError):
        check_conn_chain(cycle(6), -1)


def test_conn_chain_json_shape():
    doc = check_conn_chain(cycle(6), 1).to_json()
    assert doc["epsilon"] == "1/5"
    assert doc["gamma_p"] == "2"
    assert doc["eta_lower_bound"] == "2"
    assert doc["n_star"] == 5 and doc["m_star"] == 4
    assert doc["k"] == 1
    assert isinstance(doc["conclusion_ok"], bool)
    assert all(len(t) == 3 for t in doc["witness"])
    vacuous = check_conn_chain(Graph(2, ((0, 1),)), 1).to_json()
    assert vacuous["gamma_p"] == "INFINITE"
    assert vacuous["witness"] is None
