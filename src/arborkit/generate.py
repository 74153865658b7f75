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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arboricity import _density_limits, _peeling_exceeds, fractional_arboricity_at_most
from .graphs import Graph

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        z = self.state = (self.state + _GOLDEN) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

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


def _draw_simple(rng: SplitMix64, pairs: list[tuple[int, int]], m: int) -> list[tuple[int, int]]:
    # partial Fisher-Yates over a copy of the pair table, SplitMix64.below inlined
    pool = pairs[:]
    total = len(pool)
    state = rng.state
    for i in range(m):
        limit = (1 << 64) - (1 << 64) % (total - i)
        while True:
            state = (state + _GOLDEN) & _MASK64
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            z ^= z >> 31
            if z < limit:
                break
        j = i + z % (total - i)
        pool[i], pool[j] = pool[j], pool[i]
    rng.state = state
    return pool[:m]


def _draw_multi(rng: SplitMix64, n: int, m: int) -> list[tuple[int, int]]:
    out = []
    for _ in range(m):
        u = rng.below(n)
        v = rng.below(n - 1)
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
    rng = SplitMix64(spec.seed)
    limit = _density_limits(n, *spec.target_bound.as_integer_ratio())
    for _ in range(spec.max_rejections):
        edges = _draw_multi(rng, n, m) if spec.allow_parallel else _draw_simple(rng, pairs, m)
        if not _peeling_exceeds(n, edges, limit):
            graph = Graph(n, tuple(sorted(edges)))
            if fractional_arboricity_at_most(graph, spec.target_bound):
                return graph
    raise GenerationError(spec, spec.max_rejections)
