import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import arborkit.decompose
import arborkit.graphs
from arborkit import (
    Decomposition,
    DeskScaleExceeded,
    ExperimentConfig,
    Graph,
    SplitMix64,
    arboricity,
    decompose_forests_bounded,
    decompose_forests_matching,
    derive_seed,
    graph_stats,
    maximal_matchings,
    remainder_witness,
    verify_decomposition,
)
from helpers import complete_graph, cycle, doubled_cycle, path, petersen, star
from oracles import brute_decomposable, brute_decomposition_ok, maximal_matchings_brute


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


# SHA-256 of every maximal_matchings sequence over the atlas and multigraph
# corpora, each matching as its sorted edge ids; a change to the order in
# which the enumerator tries its choices moves it
MATCHING_ORDER_DIGEST = "0bf28d47387dc48b8869cae7f1dcaaa901e26ae39976618eb6e22dd3630790a6"


def test_maximal_matchings_order_frozen(atlas_corpus, multigraph_corpus):
    # the order, not only the set: decompose_forests_matching returns the
    # decomposition of the first matching that leaves k forests
    digest = hashlib.sha256()
    count = 0
    for g in atlas_corpus + multigraph_corpus:
        for matching in maximal_matchings(g):
            digest.update(repr(sorted(matching)).encode())
            count += 1
        digest.update(b";")
    assert count == 20073
    assert digest.hexdigest() == MATCHING_ORDER_DIGEST


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


def test_bounded_decomposition_asks_the_witness_before_the_gate(monkeypatch):
    monkeypatch.delenv("ARBORKIT_MAX_EDGES", raising=False)
    # K8 has 28 edges, past the gate, but at k = 1 and d = 1 its eight
    # vertices hold at most 7 + 4 of them: the witness answers, no search runs
    for kind in ("graph", "forest"):
        assert decompose_forests_bounded(complete_graph(8), 1, 1, kind) is None


def test_each_check_runs_once(monkeypatch):
    calls = {"request": 0, "ids": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    check_edge_subset = arborkit.graphs.check_edge_subset
    monkeypatch.setattr(arborkit.decompose, "check_remainder",
                        counted("request", arborkit.decompose.check_remainder))
    monkeypatch.setattr(arborkit.graphs, "check_edge_subset", counted("ids", check_edge_subset))
    monkeypatch.setattr(arborkit.decompose, "check_edge_subset", counted("ids", check_edge_subset),
                        raising=False)

    assert decompose_forests_bounded(cycle(4), 1, 1, "graph") is not None
    assert calls["request"] == 1

    calls["ids"] = 0
    # K4: a star at 0, the path 2 1 3, and the edge 2 3
    dec = Decomposition(forests=(frozenset({0, 1, 2}), frozenset({3, 4})), remainder=frozenset({5}),
                        kind="matching")
    assert verify_decomposition(complete_graph(4), dec, 2) == (True, None)
    assert calls["ids"] == 3


@pytest.mark.parametrize("kind", ["graph", "forest"])
def test_bounded_decomposition_of_a_deep_path(kind, monkeypatch):
    # one branch point per edge: 1,500 of them lie on the search's frame
    # list, deeper than the interpreter's default recursion limit
    monkeypatch.setenv("ARBORKIT_MAX_EDGES", "1500")
    long_path = path(1501)
    dec = decompose_forests_bounded(long_path, 1, 1, kind)
    assert dec is not None
    assert verify_decomposition(long_path, dec, 1, 1) == (True, None)


def test_remainder_witness_counts():
    # K4 at k = 1: six edges on four vertices, a forest holds 3 and a
    # matching 2
    assert remainder_witness(complete_graph(4), 1, "matching") == frozenset(range(4))
    # two disjoint triangles, six edges, no forests: a matching holds 3 of
    # them and a forest remainder 5, but a max-degree-2 graph takes all six
    two = Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    assert remainder_witness(two, 0, "matching") == frozenset(range(6))
    assert remainder_witness(two, 0, "graph", 2) is None
    assert remainder_witness(two, 0, "forest", 2) == frozenset(range(6))
    # a forest admits every decomposition, and no set proves otherwise
    assert remainder_witness(path(5), 1, "matching") is None
    assert remainder_witness(Graph(0, ()), 0, "matching") is None
    with pytest.raises(ValueError):
        remainder_witness(cycle(3), 1, "tree")
    with pytest.raises(ValueError):
        remainder_witness(cycle(3), 1, "graph")
    with pytest.raises(ValueError):
        remainder_witness(Graph(1, ((0, 0),)), 1, "matching")


@st.composite
def small_multigraphs(draw):
    """1..8 vertices and 0..12 edges, parallel edges allowed, no loops."""
    n = draw(st.integers(1, 8))
    if n == 1:
        return Graph(1, ())
    pair = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)).map(
        lambda t: tuple(sorted((t[0], (t[0] + t[1]) % n))))
    return Graph(n, tuple(sorted(draw(st.lists(pair, max_size=12)))))


@settings(max_examples=500, deadline=None)
@given(small_multigraphs(), st.integers(0, 3), st.sampled_from(("matching", "forest", "graph")),
       st.integers(1, 3))
def test_remainder_witness_against_brute(graph, k, kind, d):
    witness = remainder_witness(graph, k, kind, d)
    if witness is not None:
        s = len(witness)
        inside = sum(1 for u, v in graph.endpoints if u in witness and v in witness)
        cap = {"matching": s // 2, "graph": d * s // 2, "forest": min(s - 1, d * s // 2)}[kind]
        assert inside > k * (s - 1) + cap
    exists = brute_decomposable(graph, k, kind, d)
    if exists:
        assert witness is None
    if kind == "matching":
        dec = decompose_forests_matching(graph, k)
    else:
        dec = decompose_forests_bounded(graph, k, d, kind)
    assert (dec is not None) == exists
    if dec is not None:
        assert brute_decomposition_ok(graph, dec, k, d)
        hash(dec)  # a set remainder would raise TypeError here


FROZEN_BASE_SEED = 8675309
EDGE_LETTERS = "abcdefghijklmnop"


def _frozen_graph(i):
    """A seeded multigraph on 4..9 vertices with at most 16 edges, in drawn
    order: about one edge in eight repeats an earlier one, and up to two
    isolated vertices follow the drawn ones."""
    rng = SplitMix64(derive_seed(FROZEN_BASE_SEED, i))
    n = 4 + rng.below(6)
    m = min(n - 1 + rng.below(n + 4), 16)
    edges = []
    for _ in range(m):
        if edges and rng.below(8) == 0:
            edges.append(edges[rng.below(len(edges))])
            continue
        u = rng.below(n)
        v = rng.below(n - 1)
        if v >= u:
            v += 1
        edges.append((u, v))
    return Graph(n + rng.below(3), tuple(edges))


def _spell(dec):
    """None, or the forests in order and then the remainder, each as its
    edge ids written as letters (a = 0), e.g. "abd|ce:f"."""
    if dec is None:
        return None

    def word(edges):
        return "".join(EDGE_LETTERS[e] for e in sorted(edges))
    return "|".join(map(word, dec.forests)) + ":" + word(dec.remainder)


# (graph, k, matching, forest d = 1, 2, 3, graph d = 1, 2, 3) for
# k = arboricity - 1 (never below 0) and k = arboricity
FROZEN_DECOMPOSITIONS = [
    (0, 2, "ad|e:bc", "abc|d:e", "abc|d:e", "abc|d:e", "abc|d:e", "abc|d:e", "abc|d:e"),
    (0, 3, "ad|e|:bc", "abc|d|e:", "abc|d|e:", "abc|d|e:", "abc|d|e:", "abc|d|e:", "abc|d|e:"),
    (1, 2, None, None, "begijn|cfhklp:admo", "begijn|cfhklp:admo", None, "begijn|cfhklp:admo",
     "begijn|cfhklp:admo"),
    (1, 3, "abehij|cfklop|dm:gn", "begijn|cfhklp|admo:", "begijn|cfhklp|admo:",
     "begijn|cfhklp|admo:", "begijn|cfhklp|admo:", "begijn|cfhklp|admo:", "begijn|cfhklp|admo:"),
    (2, 1, "acdf:be", "abcf:de", "abce:df", "abce:df", "abcf:de", "abce:df", "abce:df"),
    (2, 2, "bce|d:af", "abce|df:", "abce|df:", "abce|df:", "abce|df:", "abce|df:", "abce|df:"),
    (3, 0, None, None, ":abc", ":abc", None, ":abc", ":abc"),
    (3, 1, "bc:a", "abc:", "abc:", "abc:", "abc:", "abc:", "abc:"),
    (4, 1, "bdefg:ac", "abcde:fg", "abcde:fg", "abcde:fg", "abcde:fg", "abcde:fg", "abcde:fg"),
    (4, 2, "bdefg|:ac", "abcde|fg:", "abcde|fg:", "abcde|fg:", "abcde|fg:", "abcde|fg:",
     "abcde|fg:"),
    (5, 1, "bcd:a", "abd:c", "abd:c", "abd:c", "abd:c", "abd:c", "abd:c"),
    (5, 2, "bcd|:a", "abd|c:", "abd|c:", "abd|c:", "abd|c:", "abd|c:", "abd|c:"),
    (6, 3, "ace|dgj|fhi:b", "abc|deg|fhi:j", "abc|deg|fhi:j", "abc|deg|fhi:j", "abc|deg|fhi:j",
     "abc|deg|fhi:j", "abc|deg|fhi:j"),
    (6, 4, "ace|dfg|hi|j:b", "abc|deg|fhi|j:", "abc|deg|fhi|j:", "abc|deg|fhi|j:", "abc|deg|fhi|j:",
     "abc|deg|fhi|j:", "abc|deg|fhi|j:"),
    (7, 2, None, None, "bce|dgi:afh", "bce|dgi:afh", None, "bce|dgh:afi", "bce|dgh:afi"),
    (7, 3, "bcf|dgh|i:ae", "abc|dgh|efi:", "abc|dgh|efi:", "abc|dgh|efi:", "abc|dgh|efi:",
     "abc|dgh|efi:", "abc|dgh|efi:"),
    (8, 3, "abcfj|ghkmn|i:del", "acdlmn|befhk|gj:i", "acdlmn|befhk|gj:i", "acdlmn|befhk|gj:i",
     "acdlmn|befhk|gj:i", "acdlmn|befhk|gj:i", "acdlmn|befhk|gj:i"),
    (8, 4, "cdehlm|fjkn|g|i:ab", "acdlmn|befhk|gj|i:", "acdlmn|befhk|gj|i:", "acdlmn|befhk|gj|i:",
     "acdlmn|befhk|gj|i:", "acdlmn|befhk|gj|i:", "acdlmn|befhk|gj|i:"),
    (9, 1, "bcd:a", "abd:c", "abd:c", "abd:c", "abd:c", "abd:c", "abd:c"),
    (9, 2, "bcd|:a", "abd|c:", "abd|c:", "abd|c:", "abd|c:", "abd|c:", "abd|c:"),
    (10, 4, "abfghk|cjlm|np|o:dei", "abdegkp|cfhl|ijm|n:o", "abdegkp|cfhl|ijm|n:o",
     "abdegkp|cfhl|ijm|n:o", "abdegkp|cfhl|ijm|n:o", "abdegkp|cfhl|ijm|n:o",
     "abdegkp|cfhl|ijm|n:o"),
    (10, 5, "abfghk|cjlm|np|o|:dei", "abdegkp|cfhl|ijm|n|o:", "abdegkp|cfhl|ijm|n|o:",
     "abdegkp|cfhl|ijm|n|o:", "abdegkp|cfhl|ijm|n|o:", "abdegkp|cfhl|ijm|n|o:",
     "abdegkp|cfhl|ijm|n|o:"),
    (11, 2, "abdegj|fhilm:ck", "abcdgk|efilm:hj", "abcdgk|efilm:hj", "abcdgk|efilm:hj",
     "abcdgk|efilm:hj", "abcdgk|efilm:hj", "abcdgk|efilm:hj"),
    (11, 3, "abdegj|fhilm|:ck", "abcdgk|efilm|hj:", "abcdgk|efilm|hj:", "abcdgk|efilm|hj:",
     "abcdgk|efilm|hj:", "abcdgk|efilm|hj:", "abcdgk|efilm|hj:"),
    (12, 2, "bdefi|ghjk:ac", "abcfi|degj:hk", "abcfi|degj:hk", "abcfi|degj:hk", "abcfi|degj:hk",
     "abcfi|degj:hk", "abcfi|degj:hk"),
    (12, 3, "bdefi|ghjk|:ac", "abcfi|degj|hk:", "abcfi|degj|hk:", "abcfi|degj|hk:",
     "abcfi|degj|hk:", "abcfi|degj|hk:", "abcfi|degj|hk:"),
    (13, 3, "abd|efi|hj:cg", "bcj|fhi|ade:g", "bcj|fhi|ade:g", "bcj|fhi|ade:g", "bcj|fhi|ade:g",
     "bcj|fhi|ade:g", "bcj|fhi|ade:g"),
    (13, 4, "abd|efi|hj|:cg", "bce|fhi|ad|gj:", "bce|fhi|ad|gj:", "bce|fhi|ad|gj:",
     "bce|fhi|ad|gj:", "bce|fhi|ad|gj:", "bce|fhi|ad|gj:"),
    (14, 2, None, None, "abcdfk|eghi:jlmn", "abcdfk|eghj:ilmn", None, "abcdfk|eghi:jlmn",
     "abcdfk|ehjn:gilm"),
    (14, 3, "bcdfhi|ejkn|lm:ag", "abcdfk|ehjl|gimn:", "abcdfk|ehjl|gimn:", "abcdfk|ehjl|gimn:",
     "abcdfk|ehjl|gimn:", "abcdfk|ehjl|gimn:", "abcdfk|ehjl|gimn:"),
    (15, 1, "acdeg:bf", "abcefg:d", "abcefg:d", "abcefg:d", "abcefg:d", "abcefg:d", "abcefg:d"),
    (15, 2, "acdeg|:bf", "abcefg|d:", "abcefg|d:", "abcefg|d:", "abcefg|d:", "abcefg|d:",
     "abcefg|d:"),
    (16, 4, "bc|dg|e|f:a", "ac|bg|d|e:f", "ac|bg|d|e:f", "ac|bg|d|e:f", "ac|bg|d|e:f",
     "ac|bg|d|e:f", "ac|bg|d|e:f"),
    (16, 5, "bc|dg|e|f|:a", "ac|bg|d|e|f:", "ac|bg|d|e|f:", "ac|bg|d|e|f:", "ac|bg|d|e|f:",
     "ac|bg|d|e|f:", "ac|bg|d|e|f:"),
    (17, 1, "cde:ab", "abcd:e", "abcd:e", "abcd:e", "abcd:e", "abcd:e", "abcd:e"),
    (17, 2, "abc|e:d", "abcd|e:", "abcd|e:", "abcd|e:", "abcd|e:", "abcd|e:", "abcd|e:"),
    (18, 3, "acegi|fj|h:bd", "bdegi|acj|f:h", "bdegi|acj|f:h", "bdegi|acj|f:h", "bdegi|acj|f:h",
     "bdegi|acj|f:h", "bdegi|acj|f:h"),
    (18, 4, "acegi|fj|h|:bd", "bdegi|acj|f|h:", "bdegi|acj|f|h:", "bdegi|acj|f|h:",
     "bdegi|acj|f|h:", "bdegi|acj|f|h:", "bdegi|acj|f|h:"),
    (19, 2, None, None, "begk|acij:dfhl", "begk|acij:dfhl", None, "begk|acij:dfhl",
     "begk|acij:dfhl"),
    (19, 3, "aceg|dhij|kl:bf", "begk|acij|dfhl:", "begk|acij|dfhl:", "begk|acij|dfhl:",
     "begk|acij|dfhl:", "begk|acij|dfhl:", "begk|acij|dfhl:"),
    (20, 1, "cdef:ab", "abcdf:e", "abcdf:e", "abcdf:e", "abcdf:e", "abcdf:e", "abcdf:e"),
    (20, 2, "abdf|e:c", "abcdf|e:", "abcdf|e:", "abcdf|e:", "abcdf|e:", "abcdf|e:", "abcdf|e:"),
    (21, 3, "bcfg|ehij|klm:ad", "afgi|bjkm|cde:hl", "afgi|bjkm|cde:hl", "afgi|bjkm|cde:hl",
     "afgi|bjkm|cde:hl", "afgi|bjkm|cde:hl", "afgi|bjkm|cde:hl"),
    (21, 4, "bcfg|ehij|klm|:ad", "acgh|bjkm|dei|fl:", "acgh|bjkm|dei|fl:", "acgh|bjkm|dei|fl:",
     "acgh|bjkm|dei|fl:", "acgh|bjkm|dei|fl:", "acgh|bjkm|dei|fl:"),
    (22, 1, "cde:ab", "abce:d", "abce:d", "abce:d", "abce:d", "abce:d", "abce:d"),
    (22, 2, "cde|:ab", "abce|d:", "abce|d:", "abce|d:", "abce|d:", "abce|d:", "abce|d:"),
    (23, 2, "abdi|efgj:ch", "abcd|fghj:ei", "abcd|efgj:hi", "abcd|efgj:hi", "abcd|fghj:ei",
     "abcd|efgj:hi", "abcd|efgj:hi"),
    (23, 3, "acdg|efhj|i:b", "abcd|efgj|hi:", "abcd|efgj|hi:", "abcd|efgj|hi:", "abcd|efgj|hi:",
     "abcd|efgj|hi:", "abcd|efgj|hi:"),
    (24, 2, "bcgh|dei:af", "abcfg|deh:i", "abcfg|deh:i", "abcfg|deh:i", "abcfg|deh:i",
     "abcfg|deh:i", "abcfg|deh:i"),
    (24, 3, "bcgh|dei|:af", "abcfg|deh|i:", "abcfg|deh|i:", "abcfg|deh|i:", "abcfg|deh|i:",
     "abcfg|deh|i:", "abcfg|deh|i:"),
    (25, 4, "acfgh|i|j|k:bde", "abcdeg|fh|i|j:k", "abcdeg|fh|i|j:k", "abcdeg|fh|i|j:k",
     "abcdeg|fh|i|j:k", "abcdeg|fh|i|j:k", "abcdeg|fh|i|j:k"),
    (25, 5, "acfgh|i|j|k|:bde", "abcdeg|fh|i|j|k:", "abcdeg|fh|i|j|k:", "abcdeg|fh|i|j|k:",
     "abcdeg|fh|i|j|k:", "abcdeg|fh|i|j|k:", "abcdeg|fh|i|j|k:"),
    (26, 1, None, None, "adefgj:bchi", "adefgj:bchi", None, "adefgj:bchi", "adefgj:bchi"),
    (26, 2, "acdehj|bi:fg", "adefgj|bchi:", "adefgj|bchi:", "adefgj|bchi:", "adefgj|bchi:",
     "adefgj|bchi:", "adefgj|bchi:"),
    (27, 2, "bcf|e:ad", "acd|bf:e", "acd|bf:e", "acd|bf:e", "acd|bf:e", "acd|bf:e", "acd|bf:e"),
    (27, 3, "bcf|e|:ad", "acd|bf|e:", "acd|bf|e:", "acd|bf|e:", "acd|bf|e:", "acd|bf|e:",
     "acd|bf|e:"),
    (28, 3, "defgik|hlmno|jp:abc", "cdeklp|abfgmo|hin:j", "cdeklp|abfgmo|hin:j",
     "cdeklp|abfgmo|hin:j", "cdeklp|abfgmo|hin:j", "cdeklp|abfgmo|hin:j", "cdeklp|abfgmo|hin:j"),
    (28, 4, "acdefk|gmnop|h|j:bil", "cdeklp|abfgmo|hin|j:", "cdeklp|abfgmo|hin|j:",
     "cdeklp|abfgmo|hin|j:", "cdeklp|abfgmo|hin|j:", "cdeklp|abfgmo|hin|j:",
     "cdeklp|abfgmo|hin|j:"),
    (29, 2, "bc|de:a", "ac|be:d", "ac|be:d", "ac|be:d", "ac|be:d", "ac|be:d", "ac|be:d"),
    (29, 3, "bc|de|:a", "ac|be|d:", "ac|be|d:", "ac|be|d:", "ac|be|d:", "ac|be|d:", "ac|be|d:"),
    (30, 1, None, None, "bcd:aef", "bcd:aef", None, "bcd:aef", "bcd:aef"),
    (30, 2, "acd|f:be", "bcd|aef:", "bcd|aef:", "bcd|aef:", "bcd|aef:", "bcd|aef:", "bcd|aef:"),
    (31, 1, None, None, None, "adeghi:bcfjk", None, None, "adeghi:bcfjk"),
    (31, 2, "acdghi|fjk:be", "adeghi|bcfjk:", "adeghi|bcfjk:", "adeghi|bcfjk:", "adeghi|bcfjk:",
     "adeghi|bcfjk:", "adeghi|bcfjk:"),
    (32, 2, "acfij|behkm:dgl", "acdefg|bhikl:jm", "acdefg|bhikl:jm", "acdefg|bhikl:jm",
     "acdefg|bhikl:jm", "acdefg|bhikl:jm", "acdefg|bhikl:jm"),
    (32, 3, "acefi|bhkm|j:dgl", "acdefg|bhikl|jm:", "acdefg|bhikl|jm:", "acdefg|bhikl|jm:",
     "acdefg|bhikl|jm:", "acdefg|bhikl|jm:", "acdefg|bhikl|jm:"),
    (33, 1, None, None, "abcfgi:dehj", "abcfgi:dehj", None, "abcfgi:dehj", "abcfgi:dehj"),
    (33, 2, "acgij|dh:bef", "abcfgi|dehj:", "abcfgi|dehj:", "abcfgi|dehj:", "abcfgi|dehj:",
     "abcfgi|dehj:", "abcfgi|dehj:"),
    (34, 0, None, None, ":abc", ":abc", None, ":abc", ":abc"),
    (34, 1, "bc:a", "abc:", "abc:", "abc:", "abc:", "abc:", "abc:"),
    (35, 2, "aefjkl|ghi:bcd", "abefjl|cdghi:k", "abefjl|cdghi:k", "abefjl|cdghi:k",
     "abefjl|cdghi:k", "abefjl|cdghi:k", "abefjl|cdghi:k"),
    (35, 3, "aefgjl|hi|k:bcd", "abfijl|cdgh|ek:", "abfijl|cdgh|ek:", "abfijl|cdgh|ek:",
     "abfijl|cdgh|ek:", "abfijl|cdgh|ek:", "abfijl|cdgh|ek:"),
    (36, 1, "acd:b", "bcd:a", "bcd:a", "bcd:a", "bcd:a", "bcd:a", "bcd:a"),
    (36, 2, "acd|:b", "bcd|a:", "bcd|a:", "bcd|a:", "bcd|a:", "bcd|a:", "bcd|a:"),
    (37, 2, "cehi|afg:bd", "abdg|cefh:i", "abdg|cefh:i", "abdg|cefh:i", "abdg|cefh:i",
     "abdg|cefh:i", "abdg|cefh:i"),
    (37, 3, "acef|gi|h:bd", "abdg|cefh|i:", "abdg|cefh|i:", "abdg|cefh|i:", "abdg|cefh|i:",
     "abdg|cefh|i:", "abdg|cefh|i:"),
    (38, 1, None, None, "acef:bd", "acef:bd", None, "acef:bd", "acef:bd"),
    (38, 2, "bde|f:ac", "acef|bd:", "acef|bd:", "acef|bd:", "acef|bd:", "acef|bd:", "acef|bd:"),
    (39, 2, None, None, "abcd|efgh:ij", "abcd|efgh:ij", None, "abcd|fghj:ei", "abcd|fghj:ei"),
    (39, 3, "abce|fgi|j:dh", "abci|fghj|de:", "abci|fghj|de:", "abci|fghj|de:", "abci|fghj|de:",
     "abci|fghj|de:", "abci|fghj|de:"),
]


def test_decompositions_frozen():
    # which decomposition comes back, not only that it verifies: a change to
    # the search order or to the partition engine moves these
    assert len({(g, k) for g, k, *_ in FROZEN_DECOMPOSITIONS}) == 80
    for g, k, matching, *bounded in FROZEN_DECOMPOSITIONS:
        graph = _frozen_graph(g)
        arb = arboricity(graph).value
        assert k in (arb - 1, arb)
        got = [decompose_forests_matching(graph, k)]
        for kind in ("forest", "graph"):
            got.extend(decompose_forests_bounded(graph, k, d, kind) for d in (1, 2, 3))
        for dec, d in zip(got, (None, 1, 2, 3, 1, 2, 3)):
            if dec is not None:
                assert verify_decomposition(graph, dec, k, d) == (True, None)
        assert [_spell(dec) for dec in got] == [matching, *bounded], (g, k)


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

    # two clauses broken at once: the earlier clause is the one reported
    bad = Decomposition(forests=(frozenset({0, 1, 9}),), remainder=frozenset({1, 2}), kind="matching")
    assert verify_decomposition(tri, bad, 1) == (False, "edge id 9 not in 0..2")
    bad = Decomposition(forests=(frozenset({0, 1}),), remainder=frozenset({1}), kind="matching")
    assert verify_decomposition(tri, bad, 1) == (False, "parts not disjoint")
    # a triangle 0 1 2 with the tail 2 3 4
    tailed = Graph(5, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4)))
    bad = Decomposition(forests=(frozenset({0, 1, 2}),), remainder=frozenset({3}), kind="matching")
    assert verify_decomposition(tailed, bad, 1) == (False, "parts do not cover all edges")
    bad = Decomposition(forests=(frozenset({0, 1, 2}),), remainder=frozenset({3, 4}), kind="matching")
    assert verify_decomposition(tailed, bad, 1) == (False, "forest 0 contains a cycle")

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


@st.composite
def checker_inputs(draw):
    """(graph, decomposition, k, d): a multigraph on 1..5 vertices with 0..8
    edges, loops and parallel edges allowed, and each edge id put in one of
    k forests or the remainder, or left out; then perhaps ids put in a second
    part or out of range, and perhaps one forest too many or too few."""
    n = draw(st.integers(1, 5))
    vertex = st.integers(0, n - 1)
    graph = Graph(n, tuple(draw(st.lists(st.tuples(vertex, vertex), max_size=8))))
    k = draw(st.integers(0, 3))
    count = {3: max(k - 1, 0), 4: k + 1}.get(draw(st.integers(0, 4)), k)
    parts = [set() for _ in range(count + 1)]  # the last one is the remainder
    for e in graph.edge_ids():
        where = draw(st.integers(-1 if draw(st.booleans()) else 0, count))
        if where >= 0:
            parts[where].add(e)
    for e, where in draw(st.lists(st.tuples(st.integers(-1, graph.edge_count + 1),
                                            st.integers(0, count)), max_size=2)):
        parts[where].add(e)
    dec = Decomposition(
        forests=tuple(frozenset(p) for p in parts[:-1]),
        remainder=frozenset(parts[-1]),
        kind=draw(st.sampled_from(("matching", "forest", "graph"))),
        degree_bound=draw(st.sampled_from((None, 1, 2, 3))),
    )
    return graph, dec, k, draw(st.sampled_from((None, 0, 1, 2, 3)))


@settings(max_examples=1000, deadline=None)
@given(checker_inputs())
def test_verify_decomposition_against_the_definitions(inputs):
    graph, dec, k, d = inputs
    ok, reason = verify_decomposition(graph, dec, k, d)
    assert ok == brute_decomposition_ok(graph, dec, k, d)
    assert (reason is None) == ok
