from fractions import Fraction

import pytest

from arborkit import (
    Decomposition,
    DeskScaleExceeded,
    ExperimentConfig,
    Graph,
    decompose_forests_bounded,
    decompose_forests_matching,
    graph_stats,
    maximal_matchings,
    verify_decomposition,
)
from helpers import complete_graph, cycle, doubled_cycle, path, petersen, star
from oracles import maximal_matchings_brute


def test_threshold_constants():
    def theorem5(k):
        return ExperimentConfig(selector="theorem5", k_values=(k,), n_values=(6,), trials=1, seed=0)

    t1 = theorem5(1).cell_bound(1)
    assert t1 - 1 == Fraction(1, 5)
    assert t1 == Fraction(6, 5)
    t2 = theorem5(2).cell_bound(2)
    assert t2 - 2 == Fraction(1, 8)
    assert t2 == Fraction(17, 8)
    assert theorem5(3).cell_bound(3) == Fraction(34, 11)
    with pytest.raises(ValueError):
        theorem5(0)


def test_maximal_matchings_match_brute():
    samples = [
        complete_graph(4),
        cycle(5),
        cycle(6),
        star(4),
        path(6),
        doubled_cycle(3),
        Graph(2, ((0, 1), (0, 1))),
    ]
    for g in samples:
        got = list(maximal_matchings(g))
        assert len(got) == len(set(got)), "a matching was produced twice"
        assert set(got) == set(maximal_matchings_brute(g))


def test_maximal_matchings_atlas_sample(atlas_corpus):
    small = [g for g in atlas_corpus if g.vertex_count <= 6 and g.edge_count <= 8]
    assert small
    for g in small:
        got = list(maximal_matchings(g))
        assert len(got) == len(set(got))
        assert set(got) == set(maximal_matchings_brute(g))


def test_maximal_matchings_edge_cases():
    assert list(maximal_matchings(Graph(0, ()))) == [frozenset()]
    assert list(maximal_matchings(Graph(3, ()))) == [frozenset()]
    with pytest.raises(ValueError):
        list(maximal_matchings(Graph(1, ((0, 0),))))


def test_matching_decomposition_found():
    for g, k in [(cycle(3), 1), (cycle(6), 1), (star(4), 1), (petersen(), 2)]:
        dec = decompose_forests_matching(g, k)
        assert dec is not None
        assert dec.kind == "matching"
        ok, reason = verify_decomposition(g, dec, k)
        assert ok, reason
        # the searched remainders are maximal matchings in particular
        assert graph_stats(g, dec.remainder).is_matching


def test_matching_decomposition_exhausted():
    assert decompose_forests_matching(complete_graph(4), 1) is None
    assert decompose_forests_matching(doubled_cycle(3), 2) is None


def test_matching_decomposition_input_errors():
    with pytest.raises(ValueError):
        decompose_forests_matching(Graph(1, ((0, 0),)), 1)
    with pytest.raises(ValueError):
        decompose_forests_matching(cycle(3), -1)


def test_bounded_decomposition_forest_kind():
    c6 = cycle(6)
    dec = decompose_forests_bounded(c6, 1, 2, "forest")
    assert dec is not None
    assert dec.degree_bound == 2
    ok, reason = verify_decomposition(c6, dec, 1, d=2)
    assert ok, reason

    k4 = complete_graph(4)
    dec = decompose_forests_bounded(k4, 1, 2, "forest")
    assert dec is not None
    ok, reason = verify_decomposition(k4, dec, 1, d=2)
    assert ok, reason


def test_bounded_decomposition_exhausted():
    # one forest holds 2 edges here and a degree-2 remainder cannot take 4
    assert decompose_forests_bounded(doubled_cycle(3), 1, 2, "graph") is None


def test_bounded_decomposition_graph_kind_allows_cycles():
    tri = cycle(3)
    dec = decompose_forests_bounded(tri, 0, 2, "graph")
    assert dec is not None
    assert dec.forests == ()
    assert dec.remainder == tri.full_edge_set()
    ok, reason = verify_decomposition(tri, dec, 0)
    assert ok, reason


def test_bounded_decomposition_validation():
    with pytest.raises(ValueError):
        decompose_forests_bounded(cycle(3), 1, 0, "forest")
    with pytest.raises(ValueError):
        decompose_forests_bounded(cycle(3), 1, 2, "tree")
    with pytest.raises(ValueError):
        decompose_forests_bounded(Graph(1, ((0, 0),)), 1, 1, "graph")


def test_bounded_decomposition_forest_gate(monkeypatch):
    monkeypatch.delenv("ARBORKIT_MAX_EDGES", raising=False)
    long_path = path(24)
    # both kinds run the same exhaustive search, so both are gated, even on
    # an instance this easy
    for kind in ("forest", "graph"):
        with pytest.raises(DeskScaleExceeded):
            decompose_forests_bounded(long_path, 1, 1, kind)


def test_verify_decomposition_clauses():
    tri = cycle(3)
    p3 = path(3)

    bad = Decomposition(forests=(frozenset({0, 1}),), remainder=frozenset({1, 2}), kind="matching")
    assert verify_decomposition(tri, bad, 1) == (False, "parts not disjoint")

    bad = Decomposition(forests=(frozenset({0}),), remainder=frozenset({1}), kind="matching")
    assert verify_decomposition(tri, bad, 1) == (False, "parts do not cover all edges")

    bad = Decomposition(forests=(tri.full_edge_set(),), remainder=frozenset(), kind="matching")
    assert verify_decomposition(tri, bad, 1) == (False, "forest 0 contains a cycle")

    bad = Decomposition(forests=(frozenset(),), remainder=frozenset({0, 1}), kind="matching")
    assert verify_decomposition(p3, bad, 1) == (False, "remainder is not a matching")

    good = Decomposition(forests=(frozenset({0}),), remainder=frozenset({1}), kind="matching")
    assert verify_decomposition(p3, good, 1) == (True, None)

    wrong_k = verify_decomposition(p3, good, 2)
    assert wrong_k == (False, "expected 2 forests, got 1")

    bad = Decomposition(forests=(), remainder=tri.full_edge_set(), kind="forest")
    assert verify_decomposition(tri, bad, 0) == (False, "missing degree bound for the remainder")
    assert verify_decomposition(tri, bad, 0, d=2) == (False, "remainder contains a cycle")

    s3 = star(3)
    bad = Decomposition(forests=(), remainder=s3.full_edge_set(), kind="graph", degree_bound=2)
    assert verify_decomposition(s3, bad, 0) == (False, "remainder degree exceeds 2")

    bad = Decomposition(forests=(frozenset({9}),), remainder=frozenset(), kind="matching")
    ok, reason = verify_decomposition(tri, bad, 1)
    assert not ok and "9" in reason

    bad = Decomposition(forests=(), remainder=frozenset(), kind="blob")
    ok, reason = verify_decomposition(Graph(0, ()), bad, 0)
    assert not ok and "blob" in reason
