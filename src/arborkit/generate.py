"""Seeded random graphs below a fractional-arboricity bound.

Rejection sampling on purpose: a constructive generator would bake the
decomposition into the instance and make downstream success trivial. Draw
floor(bound * (n-1)) edges uniformly, keep the graph iff the exact
threshold test accepts it. Each draw is peeled as raw pairs, before any
Graph is built, and rejected only on a witness set S with
q |E(S)| > p (|S| - 1) for bound p/q; survivors become a Graph whose
acceptance is always decided by a flow, so peeling changes no decision.

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
equals the outputs of next_u64 one at a time. Each draw reads its outputs
from the buffer and skips one at or above its position's bias limit just
as below() does, so every graph and attempt count is the one the scalar
stream gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import lt, mod

from .arboricity import _density_limits, _peeling_exceeds, fractional_arboricity_at_most
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
        """Uniform draw from [0, bound), bias-free."""
        if bound <= 0:
            raise ValueError("bound must be positive")
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
        if self.n > 1 and self.target_bound < 1:
            raise ValueError("target_bound must be at least 1 when n > 1")


class GenerationError(RuntimeError):
    def __init__(self, spec: GenSpec, attempts: int):
        self.spec = spec
        self.attempts = attempts
        super().__init__(
            f"no graph with fractional arboricity <= {spec.target_bound} "
            f"accepted after {attempts} attempts (n={spec.n}, seed={spec.seed})"
        )


def _below_each(
    rng: SplitMix64, buf: list[int], pos: int, limits: list[int], spans: list[int]
) -> tuple[list[int], int]:
    """A uniform value below each span, read from buf at pos on, and the
    next read position. An output at or above its span's limit is skipped
    as SplitMix64.below skips it. A spent buf is refilled in place from rng,
    with a block twice its size: _FIRST_BLOCK outputs first, _BLOCK_CAP at most."""
    end = pos + len(spans)
    outputs = buf[pos:end]
    if len(outputs) == len(spans) and all(map(lt, outputs, limits)):
        return list(map(mod, outputs, spans)), end
    values = []
    for limit, span in zip(limits, spans):
        while True:
            if pos == len(buf):
                buf[:] = rng.next_block(min(max(2 * len(buf), _FIRST_BLOCK), _BLOCK_CAP))
                pos = 0
            z = buf[pos]
            pos += 1
            if z < limit:
                break
        values.append(z % span)
    return values, pos


def _draw_simple(values: list[int], pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    # partial Fisher-Yates over a copy of the pair table: value i picks a
    # position among the len(pairs) - i not yet taken
    pool = pairs[:]
    for i, r in enumerate(values):
        j = i + r
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:len(values)]


def _draw_multi(values: list[int]) -> list[tuple[int, int]]:
    # values alternate below n and below n - 1: an endpoint, then the other
    out = []
    ends = iter(values)
    for u, v in zip(ends, ends):
        if v >= u:
            v += 1
        out.append((u, v) if u < v else (v, u))
    return out


def generate(spec: GenSpec) -> Graph:
    """Deterministic rejection sampler; raises GenerationError on budget
    exhaustion with the attempt count attached."""
    n = spec.n
    if n <= 1:
        return Graph(n, ())
    m = int(spec.target_bound * (n - 1))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not spec.allow_parallel and m > len(pairs):
        raise ValueError(f"{m} edges do not fit in a simple graph on {n} vertices")
    spans = [n, n - 1] * m if spec.allow_parallel else list(range(len(pairs), len(pairs) - m, -1))
    limits = [(1 << 64) - (1 << 64) % s for s in spans]
    rng = SplitMix64(spec.seed)
    buf: list[int] = []
    pos = 0
    density = _density_limits(n, *spec.target_bound.as_integer_ratio())
    for _ in range(spec.max_rejections):
        values, pos = _below_each(rng, buf, pos, limits, spans)
        edges = _draw_multi(values) if spec.allow_parallel else _draw_simple(values, pairs)
        if not _peeling_exceeds(n, edges, density):
            graph = Graph(n, tuple(sorted(edges)))
            if fractional_arboricity_at_most(graph, spec.target_bound):
                return graph
    raise GenerationError(spec, spec.max_rejections)
