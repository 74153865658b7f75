"""Seeded random graphs below a fractional-arboricity bound.

Rejection sampling on purpose: a constructive generator would bake the
decomposition into the instance and make downstream success trivial. Draw
floor(bound * (n-1)) edges uniformly, keep the graph iff the exact
threshold test accepts it. Each draw is checked on two vertex masks, then
peeled as raw pairs, before any Graph is built, and rejected only on a
witness set S with q |E(S)| > p (|S| - 1) for bound p/q; survivors become
a Graph whose acceptance is always decided by a flow, so neither check
changes a decision.

The stream is splitmix64 so instances are portable: state advances by the
64-bit constant 0x9E3779B97F4A7C15 and each output is the finalizer
z ^= z >> 30, z *= 0xBF58476D1CE4E5B9, z ^= z >> 27,
z *= 0x94D049BB133111EB, z ^= z >> 31 (all mod 2^64). Bounded draws use
rejection on the top of the 64-bit range, so they are exactly uniform.

generate() reads the stream a block at a time (SplitMix64.next_block). The
state is an arithmetic progression mod 2^64, so output i of a block is the
finalizer of state + G (i + 1), G = 0x9E3779B97F4A7C15: one Python int
holds all of them in 128-bit lanes, and the finalizer runs lane-wise. A
64-bit lane times a 64-bit constant fits its 128-bit lane, and a mask back
to the low 64 bits of each lane after each xor-shift and product leaves
exactly the mod 2^64 value (only the low halves are read), so a block
equals the outputs of next_u64 one at a time.

Each block becomes draw values at once. A draw reads a fixed cycle of
bounded values: a partial Fisher-Yates shuffle of the pairs for a simple
graph, endpoints below n and below n - 1 for a multigraph. When the block's
max is below the least bias limit, one map of mod and add over the cycle,
from the phase that a draw straddling the refill left, gives every value
with the shuffle's offset i added; otherwise the block goes output by
output and skips one at or above its position's limit as below() does. So
every graph and attempt count is the one the scalar stream gives.

Most draws never reach the peel. A draw's m edges meet the limit of the
whole vertex set exactly, so the peel's first step, which removes a vertex
v of least degree, leaves n - 1 vertices over their limit exactly when
deg(v) < t = m - floor(p (n - 2) / q). Two masks over the draw's pair
masks, the vertices touched at least once and at least twice (parallel
edges count twice, as in the peel), reject each draw with a vertex of
degree below min(t, 2) before the peel. A vertex of degree 0 always
qualifies, as GenSpec asks for bound >= 1: m >= floor(p (n - 2) / q) + 1,
so t >= 1. (At n = 2 the one-vertex set that the peel's first step leaves
has no edge, so it is never over its limit 0, and there both vertices have
degree m = t.)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import cycle, islice
from operator import add, mod, or_

from .arboricity import _density_limits, _peel, fractional_arboricity_at_most
from .graphs import Graph

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_FIRST_BLOCK = 64  # outputs in generate()'s first block; each refill doubles it
_BLOCK_CAP = 2048  # the largest refill


@lru_cache(maxsize=16)
def _block_lanes(count: int) -> tuple[int, int, int]:
    """A count-output block's constants, one 128-bit lane per output: 1 in
    every lane, 2^64 - 1 in every lane, and G (i + 1) mod 2^64 in lane i."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * count, "little")
    steps = b"".join((_GOLDEN * i & _MASK64).to_bytes(16, "little") for i in range(1, count + 1))
    return ones, ones * _MASK64, int.from_bytes(steps, "little")


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        z = self.state = (self.state + _GOLDEN) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_block(self, count: int) -> list[int]:
        """The next count outputs of next_u64, computed on 128-bit lanes."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        ones, mask, steps = _block_lanes(count)
        z = (self.state * ones + steps) & mask
        z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
        z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
        # no mask: the last shift moves bits of lane i + 1 only into the
        # high half of lane i, which the read below drops
        z ^= z >> 31
        self.state = (self.state + count * _GOLDEN) & _MASK64
        return memoryview(z.to_bytes(16 * count, "little")).cast("Q")[::2].tolist()

    def below(self, bound: int) -> int:
        """Uniform draw from [0, bound), bias-free, for 1 <= bound <= 2^64;
        a larger bound would leave no output below the limit."""
        if not 0 < bound <= 1 << 64:
            raise ValueError("bound must be in 1..2^64")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound


def derive_seed(base: int, *parts: int) -> int:
    """Stable per-task seed from a base seed and integer coordinates."""
    x = base & _MASK64
    for p in parts:
        x = SplitMix64(x ^ ((p * _GOLDEN) & _MASK64)).next_u64()
    return x


@dataclass(frozen=True)
class GenSpec:
    n: int
    target_bound: Fraction
    allow_parallel: bool = False
    seed: int = 0
    max_rejections: int = 10000

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if self.max_rejections < 1:
            raise ValueError("max_rejections must be positive")
        if isinstance(self.target_bound, float):
            raise ValueError("target_bound must be exact (an int or a Fraction), not a float")
        if self.n > 1:
            if self.target_bound < 1:
                raise ValueError("target_bound must be at least 1 when n > 1")
            m = int(self.target_bound * (self.n - 1))
            if not self.allow_parallel and m > self.n * (self.n - 1) // 2:
                raise ValueError(f"{m} edges do not fit in a simple graph on {self.n} vertices")


class GenerationError(RuntimeError):
    def __init__(self, spec: GenSpec, attempts: int):
        self.spec = spec
        self.attempts = attempts
        super().__init__(
            f"no graph with fractional arboricity <= {spec.target_bound} "
            f"accepted after {attempts} attempts (n={spec.n}, seed={spec.seed})"
        )


def _block_values(
    block: list[int], phase: int, spans: list[int], limits: list[int], offsets: list[int]
) -> list[int]:
    """The draw values a block of stream outputs gives when its first output
    falls at position phase of the cycle of spans: output z at position k
    becomes z mod spans[k] + offsets[k], and one at or above limits[k] is
    skipped as SplitMix64.below skips it, taking no position."""
    if max(block) < min(limits):  # no output of the block is skipped
        reduced = map(mod, block, islice(cycle(spans), phase, None))
        return list(map(add, reduced, islice(cycle(offsets), phase, None)))
    values = []
    k = phase
    for z in block:
        if z < limits[k]:
            values.append(z % spans[k] + offsets[k])
            k = (k + 1) % len(spans)
    return values


def _twice(masks: list[int]) -> int:
    """The vertices that two or more of the masks hold."""
    once = twice = 0
    for b in masks:
        twice |= once & b
        once |= b
    return twice


@lru_cache(maxsize=8)
def _draw_tables(n: int, m: int, allow_parallel: bool) -> tuple:
    """What generate() reads, never writes, to draw m edges on n vertices:
    each pair's vertex mask with the pair, the masks the draw values pick
    (a list for the shuffle, a table by endpoints for a multigraph), and
    the cycle of spans, bias limits and offsets the values follow."""
    pair_of = {1 << u | 1 << v: (u, v) for u in range(n) for v in range(u + 1, n)}
    if allow_parallel:
        # values alternate below n and below n - 1: an endpoint, then the other
        spans = [n, n - 1] * m
        offsets = [0] * (2 * m)
        picks = [[1 << u | 1 << (v + (v >= u)) for v in range(n - 1)] for u in range(n)]
    else:
        # partial Fisher-Yates over the pair masks: value i is a position
        # among the len(pair_of) - i not yet taken, plus i
        spans = list(range(len(pair_of), len(pair_of) - m, -1))
        offsets = list(range(m))
        picks = list(pair_of)
    limits = [(1 << 64) - (1 << 64) % s for s in spans]
    return pair_of, picks, spans, limits, offsets


def generate(spec: GenSpec) -> Graph:
    """Deterministic rejection sampler; raises GenerationError on budget
    exhaustion with the attempt count attached."""
    n = spec.n
    if n <= 1:
        return Graph(n, ())
    m = int(spec.target_bound * (n - 1))
    pair_of, picks, spans, limits, offsets = _draw_tables(n, m, spec.allow_parallel)
    density = _density_limits(n, *spec.target_bound.as_integer_ratio())
    # the peel's first step rejects a draw exactly when some vertex has
    # degree below t (see the module docstring); t >= 1
    t = m - density[n - 1]
    full = (1 << n) - 1
    rng = SplitMix64(spec.seed)
    values: list[int] = []
    pos = 0
    size = _FIRST_BLOCK
    for _ in range(spec.max_rejections):
        end = pos + len(spans)
        while end > len(values):
            # a draw that straddles the refill has read len(values) - pos
            # values: the phase at which the new block starts
            block = _block_values(rng.next_block(size), len(values) - pos, spans, limits, offsets)
            values = values[pos:] + block
            pos, end = 0, len(spans)
            size = min(2 * size, _BLOCK_CAP)
        draw = values[pos:end]
        pos = end
        if spec.allow_parallel:
            it = iter(draw)
            drawn = [picks[u][v] for u, v in zip(it, it)]
            once = reduce(or_, drawn)
        else:
            drawn = picks[:]
            once = 0
            for i, j in enumerate(draw):
                once |= drawn[j]  # the pair step i takes
                drawn[i], drawn[j] = drawn[j], drawn[i]
            del drawn[m:]
        # a vertex of degree below min(t, 2)
        if once != full or (t > 1 and _twice(drawn) != full):
            continue
        edges = list(map(pair_of.__getitem__, drawn))
        if all(inside <= density[size] for size, inside, _, _ in _peel(n, edges)):
            graph = Graph(n, tuple(sorted(edges)))
            if fractional_arboricity_at_most(graph, spec.target_bound):
                return graph
    raise GenerationError(spec, spec.max_rejections)
