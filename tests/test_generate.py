import hashlib
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from arborkit import (
    GenerationError,
    GenSpec,
    Graph,
    SplitMix64,
    derive_seed,
    fractional_arboricity,
    fractional_arboricity_at_most,
    generate,
)
from arborkit.arboricity import _density_limits, _peel
from arborkit.generate import _FIRST_BLOCK
from oracles import brute_frac_arboricity, reference_sample, splitmix64_unmix

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def test_splitmix64_reference_vectors():
    # the published outputs for seed 0; any deviation breaks portability
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F
    assert SplitMix64(0x123456789ABCDEF).next_u64() == 0x157A3807A48FAA9D


@pytest.mark.parametrize("seed", [0, _MASK64, -3 * _GOLDEN & _MASK64])
def test_next_block_matches_next_u64(seed):
    # the last seed's state passes 0 at its third output, inside every block
    blocks, scalar = SplitMix64(seed), SplitMix64(seed)
    for count in (0, 1, 2, 3, 4, 8, 16, 64, 128, 256):
        assert blocks.next_block(count) == [scalar.next_u64() for _ in range(count)]
        assert blocks.state == scalar.state
    with pytest.raises(ValueError):
        blocks.next_block(-1)


def test_splitmix64_unmix_inverts_the_finalizer():
    for out in (0, 1, _MASK64, 0xE220A8397B1DCDAF):
        assert SplitMix64(splitmix64_unmix(out) - _GOLDEN).next_u64() == out


def test_splitmix64_below():
    rng = SplitMix64(99)
    draws = [rng.below(10) for _ in range(200)]
    assert all(0 <= x < 10 for x in draws)
    assert len(set(draws)) == 10
    assert SplitMix64(5).below(1) == 0
    with pytest.raises(ValueError):
        SplitMix64(0).below(0)


def test_splitmix64_below_refuses_bounds_above_2_to_the_64():
    # 2^64 takes every output as it is; above it no output is accepted
    assert SplitMix64(7).below(1 << 64) == SplitMix64(7).next_u64()
    for bound in ((1 << 64) + 1, 1 << 65, -1):
        with pytest.raises(ValueError):
            SplitMix64(0).below(bound)


def test_derive_seed_is_stable_and_order_sensitive():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert derive_seed(1, 2, 3) == 10270377180022029311
    assert derive_seed(987654321, 0) == 12744715263588028796
    assert 0 <= derive_seed(0) < 1 << 64


def test_genspec_validation():
    with pytest.raises(ValueError):
        GenSpec(n=-1, target_bound=Fraction(1))
    with pytest.raises(ValueError):
        GenSpec(n=5, target_bound=Fraction(1, 2))
    with pytest.raises(ValueError):
        GenSpec(n=5, target_bound=Fraction(2), max_rejections=0)
    # a float bound is inexact: 1.2 sits just below 6/5, which 6 edges on 6 vertices exceed
    with pytest.raises(ValueError):
        GenSpec(n=6, target_bound=1.2, seed=0)
    # bounds below 1 are fine when no edges can exist
    GenSpec(n=1, target_bound=Fraction(1, 2))


def test_genspec_refuses_more_draw_values_than_a_list_indexes():
    # a multigraph draw reads 2m values; past sys.maxsize no list holds them
    for n, bound in ((4, Fraction(99999999999999999999)), (2, Fraction(sys.maxsize // 2 + 1))):
        with pytest.raises(ValueError, match="draw values"):
            GenSpec(n=n, target_bound=bound, allow_parallel=True)
    GenSpec(n=2, target_bound=Fraction(sys.maxsize // 2), allow_parallel=True)


def test_trivial_sizes():
    assert generate(GenSpec(n=0, target_bound=Fraction(1))) == Graph(0, ())
    assert generate(GenSpec(n=1, target_bound=Fraction(1))) == Graph(1, ())


def test_generated_graph_is_deterministic():
    spec = GenSpec(n=6, target_bound=Fraction(6, 5), seed=42)
    g = generate(spec)
    assert g.endpoints == ((0, 3), (0, 5), (1, 4), (1, 5), (2, 3), (2, 4))
    assert generate(spec).endpoints == g.endpoints


def test_generated_graph_meets_bound():
    for seed in range(12):
        spec = GenSpec(n=8, target_bound=Fraction(6, 5), seed=seed)
        g = generate(spec)
        assert g.edge_count == int(Fraction(6, 5) * 7)
        assert fractional_arboricity_at_most(g, Fraction(6, 5))
        # re-verify against the exhaustive oracle, not just the threshold test
        assert brute_frac_arboricity(g) <= Fraction(6, 5)


def test_simple_draws_have_no_duplicates():
    for seed in range(8):
        g = generate(GenSpec(n=9, target_bound=Fraction(17, 8), seed=seed))
        assert len(set(g.endpoints)) == g.edge_count
        assert all(u < v for u, v in g.endpoints)


def test_parallel_draws_allowed_when_asked():
    g = generate(GenSpec(n=2, target_bound=Fraction(3), seed=0, allow_parallel=True))
    assert g.endpoints == ((0, 1), (0, 1), (0, 1))
    assert fractional_arboricity(g).value == Fraction(3)


def test_edge_budget_overflow_is_an_error():
    with pytest.raises(ValueError):
        generate(GenSpec(n=2, target_bound=Fraction(3)))


def test_generation_error_carries_stats():
    # seed 0's first draw at this shape fails the threshold test
    spec = GenSpec(n=6, target_bound=Fraction(6, 5), seed=0, max_rejections=1)
    with pytest.raises(GenerationError) as err:
        generate(spec)
    assert err.value.attempts == 1
    assert err.value.spec == spec
    assert "no graph with fractional arboricity" in str(err.value)


def test_rejection_resumes_the_stream():
    # the accepting draw differs from the first, so rejection happened
    spec = GenSpec(n=6, target_bound=Fraction(6, 5), seed=0)
    g = generate(spec)
    assert fractional_arboricity_at_most(g, Fraction(6, 5))


# SHA-256 over the endpoints of every graph the theorem5 grid below
# generates. It pins each accept or reject decision of the sampler: a faster
# threshold test may make rejection cheaper but must not move it.
STREAM_DIGEST = "bf85fbf1d1472d72012e13f8c96df8ea1519021597a0b2c4baba0c52cb08de30"


def test_generator_stream_is_pinned():
    digest = hashlib.sha256()
    for allow_parallel in (False, True):
        for k in (1, 2):
            bound = k + Fraction(1, 3 * k + 2)
            for n in range(6, 11):
                for seed in range(20):
                    spec = GenSpec(n=n, target_bound=bound, allow_parallel=allow_parallel, seed=seed)
                    digest.update(repr(generate(spec).endpoints).encode())
    assert digest.hexdigest() == STREAM_DIGEST


def test_budget_exhaustion_is_pinned():
    # theorem5 k=1, n=11, seed 0 accepts its 490th draw and no earlier one
    spec = GenSpec(n=11, target_bound=Fraction(6, 5), seed=0, max_rejections=489)
    with pytest.raises(GenerationError) as err:
        generate(spec)
    assert err.value.attempts == 489
    g = generate(replace(spec, max_rejections=490))
    assert g.endpoints == (
        (0, 3), (0, 10), (1, 7), (1, 8), (2, 4), (2, 8),
        (3, 4), (4, 6), (5, 6), (5, 9), (7, 9), (7, 10),
    )


# theorem5 at k = 1 and k = 2, and theorem2ii
SAMPLER_BOUNDS = (Fraction(6, 5), Fraction(17, 8), Fraction(3, 2))


def _assert_matches_reference(n, bound, seed, budget, allow_parallel=False):
    expected, attempts = reference_sample(n, bound, seed, budget, allow_parallel)
    spec = GenSpec(n=n, target_bound=bound, seed=seed, max_rejections=budget, allow_parallel=allow_parallel)
    if expected is None:
        with pytest.raises(GenerationError) as err:
            generate(spec)
        assert err.value.attempts == budget
        return
    assert generate(spec) == expected
    if attempts > 1:
        # a budget one short of the accepting draw must run dry
        short = replace(spec, max_rejections=attempts - 1)
        with pytest.raises(GenerationError) as err:
            generate(short)
        assert err.value.attempts == attempts - 1


@pytest.mark.parametrize("n", range(2, 15))
def test_generator_matches_reference_sampler(n):
    # the bound n/2 asks for every possible pair, the complete graph
    for bound in SAMPLER_BOUNDS + (Fraction(n, 2),):
        if int(bound * (n - 1)) > n * (n - 1) // 2:
            with pytest.raises(ValueError):
                generate(GenSpec(n=n, target_bound=bound))
            continue
        for seed in range(30):
            _assert_matches_reference(n, bound, seed, budget=60)


def test_parallel_generator_matches_reference_sampler():
    for n in (2, 5, 9):
        for seed in range(30):
            _assert_matches_reference(n, Fraction(17, 8), seed, budget=60, allow_parallel=True)


def _seed_with_top_output(position):
    """A seed whose output at this position is 2^64 - 1, which every draw
    below a bound that does not divide 2^64 skips."""
    seed = splitmix64_unmix(_MASK64) - (position + 1) * _GOLDEN & _MASK64
    rng = SplitMix64(seed)
    assert [rng.next_u64() for _ in range(position + 1)][-1] == _MASK64
    return seed


# (n, bound, allow_parallel): 15 pairs on 6 vertices and below(5) skip
# 2^64 - 1, as 2^64 mod 15 = 2^64 mod 5 = 1; below(4) keeps it, so multigraph
# draws on 5 vertices skip it only at an endpoint's first output, and those
# on 6 vertices (below 6, then below 5) skip it at either. Each bound accepts
# few draws, so the sampler reads past the end of the first two blocks.
BIAS_SHAPES = ((6, Fraction(6, 5), False), (5, Fraction(5, 4), True), (6, Fraction(8, 5), True))


def _straddling_position(per_draw):
    """A position whose output, skipped with every output before it kept,
    falls in a draw that starts in the first block and ends in the second:
    the first output of the second block, or the last of the first when a
    draw ends at the block boundary. Returns it and how many of that draw's
    values come before the boundary, the phase at which the second block
    starts."""
    position = _FIRST_BLOCK if _FIRST_BLOCK % per_draw else _FIRST_BLOCK - 1
    start = position - position % per_draw
    # the draw reads per_draw + 1 outputs, the skipped one among them
    assert start < _FIRST_BLOCK < start + per_draw + 1
    return position, _FIRST_BLOCK - start - (position < _FIRST_BLOCK)


@pytest.mark.parametrize("n, bound, allow_parallel", BIAS_SHAPES)
@pytest.mark.parametrize("position", [0, _FIRST_BLOCK - 1, 3 * _FIRST_BLOCK - 1, "straddling"])
def test_generator_skips_biased_outputs_like_below(n, bound, allow_parallel, position):
    # the chance of a skipped output is below 2^-57, so no ordinary seed
    # reaches this path: the seed puts one at the first output, at the last
    # of the first block, at the last of the second, and in a draw that
    # reads outputs of both the first and the second block
    per_draw = int(bound * (n - 1)) * (2 if allow_parallel else 1)
    if position == "straddling":
        position, phase = _straddling_position(per_draw)
        assert 0 < phase < per_draw
    seed = _seed_with_top_output(position)
    expected, attempts = reference_sample(n, bound, seed, 60, allow_parallel)
    assert attempts * per_draw > position  # the sampler read that output
    _assert_matches_reference(n, bound, seed, budget=60, allow_parallel=allow_parallel)


@st.composite
def draws_with_a_low_vertex(draw):
    """(n, bound, edges): the m = int(bound (n - 1)) edges of a simple or a
    multigraph draw, as sorted pairs of distinct vertices, in which some
    vertex x has degree below min(t, 2), t = m - floor(p (n - 2) / q)."""
    n = draw(st.integers(3, 9))
    bound = draw(st.sampled_from(SAMPLER_BOUNDS + (Fraction(n, 2),)))
    allow_parallel = draw(st.booleans())
    m = int(bound * (n - 1))
    t = m - _density_limits(n, *bound.as_integer_ratio())[n - 1]
    x = draw(st.integers(0, n - 1))
    low = draw(st.integers(0, min(t, 2) - 1))
    others = [v for v in range(n) if v != x]
    rest = [(u, v) for u in others for v in others if u < v]
    if allow_parallel:
        at_x = draw(st.lists(st.sampled_from(others), min_size=low, max_size=low))
        away = draw(st.lists(st.sampled_from(rest), min_size=m - low, max_size=m - low))
    else:
        # a simple draw of all pairs is the complete graph, with no low vertex
        assume(m - low <= len(rest))
        at_x = draw(st.lists(st.sampled_from(others), min_size=low, max_size=low, unique=True))
        away = draw(st.permutations(rest))[:m - low]
    edges = [(min(x, v), max(x, v)) for v in at_x] + away
    return n, bound, draw(st.permutations(edges))


@settings(max_examples=300, deadline=None)
@given(draws_with_a_low_vertex())
def test_a_low_degree_vertex_makes_the_peel_reject(drawn):
    # generate() rejects such a draw on its two vertex masks, before the peel
    n, bound, edges = drawn
    limit = _density_limits(n, *bound.as_integer_ratio())
    assert any(inside > limit[size] for size, inside, _, _ in _peel(n, edges))


def _first_rejecting_step(n, bound):
    """j*: the least j in 1..n - 1 with m - j over the limit of n - j
    vertices, m = int(bound (n - 1)); None when there is none."""
    m = int(bound * (n - 1))
    limit = _density_limits(n, *bound.as_integer_ratio())
    return next((j for j in range(1, n) if m - j > limit[n - j]), None)


@st.composite
def draws_with_many_leaves(draw):
    """(n, bound, edges): the m = int(bound (n - 1)) edges of a simple or a
    multigraph draw, as sorted pairs of distinct vertices, with no vertex of
    degree 0 and at least j* of degree 1."""
    n = draw(st.integers(2, 12))
    bound = draw(st.sampled_from(SAMPLER_BOUNDS + (Fraction(n, 2),)))
    allow_parallel = draw(st.booleans())
    m = int(bound * (n - 1))
    j_star = _first_rejecting_step(n, bound)
    assume(j_star is not None)
    a = draw(st.integers(j_star, n))
    order = draw(st.permutations(range(n)))
    leaves, inner = order[:a], order[a:]
    # `paired` pairs of leaves share an edge, each other leaf hangs off an
    # inner vertex, and the edges left join inner vertices
    paired = draw(st.integers(max(0, a - m), a // 2))
    hung = leaves[2 * paired:]
    assume(inner or not hung)
    edges = [(leaves[2 * i], leaves[2 * i + 1]) for i in range(paired)]
    edges += [(x, inner[i] if i < len(inner) else draw(st.sampled_from(inner))) for i, x in enumerate(hung)]
    left = m - len(edges)
    rest = [(u, v) for u in inner for v in inner if u < v]
    assume(left == 0 or rest)
    if allow_parallel:
        edges += draw(st.lists(st.sampled_from(rest), min_size=left, max_size=left)) if left else []
    else:
        assume(left <= len(rest))
        edges += draw(st.permutations(rest))[:left]
    edges = [(min(u, v), max(u, v)) for u, v in edges]
    degree = [sum(x in e for e in edges) for x in range(n)]
    assume(0 not in degree)
    assert len(edges) == m and degree.count(1) >= j_star
    return n, bound, draw(st.permutations(edges))


@settings(max_examples=300, deadline=None)
@given(draws_with_many_leaves())
# theorem5 at n = 12 and theorem2ii at n = 6, where j* = 2: two leaves on a
# cycle with one chord
@example((12, Fraction(6, 5), [(0, 2), (1, 3), (2, 5)] + [(v, v + 1) for v in range(2, 11)] + [(2, 11)]))
@example((6, Fraction(3, 2), [(0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (2, 5), (2, 4)]))
def test_many_degree_one_vertices_make_the_peel_reject(drawn):
    # generate() rejects such a draw on its two vertex masks, before the peel
    n, bound, edges = drawn
    limit = _density_limits(n, *bound.as_integer_ratio())
    assert any(inside > limit[size] for size, inside, _, _ in _peel(n, edges))


def test_most_draws_stop_before_the_peel(monkeypatch):
    # theorem5 k = 1, n = 12 (j* = 2), first trial of the reference sweep at
    # root seed 7: 5 draws reach the peel; a check on degree 0 alone sent 581
    peels = []

    def counted(n, edges):
        peels.append(n)
        return _peel(n, edges)

    monkeypatch.setattr(sys.modules["arborkit.generate"], "_peel", counted)
    g = generate(GenSpec(12, Fraction(6, 5), seed=derive_seed(7, 1, 12, 0)))
    assert g.endpoints == (
        (0, 4), (0, 11), (1, 5), (1, 11), (2, 3), (2, 6), (3, 10),
        (4, 10), (5, 7), (5, 8), (6, 7), (8, 9), (9, 10),
    )
    assert len(peels) == 5
