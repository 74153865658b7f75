"""Seeded random graphs below a fractional-arboricity bound.

Rejection sampling on purpose: a constructive generator would bake the
decomposition into the instance and make downstream success trivial. Draw
floor(bound * (n-1)) edges uniformly, keep the graph iff the exact
threshold test accepts it. That test peels first and rejects only on a
witness set S with q |E(S)| > p (|S| - 1) for bound p/q; acceptance is
always decided by a flow, so peeling changes no decision.

The stream is splitmix64 so instances are portable: state advances by the
64-bit constant 0x9E3779B97F4A7C15 and each output is the finalizer
z ^= z >> 30, z *= 0xBF58476D1CE4E5B9, z ^= z >> 27,
z *= 0x94D049BB133111EB, z ^= z >> 31 (all mod 2^64). Bounded draws use
rejection on the top of the 64-bit range, so they are exactly uniform.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arboricity import fractional_arboricity_at_most
from .graphs import Graph

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        z = self.state
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


def _pair_from_index(n: int, p: int) -> tuple[int, int]:
    # lexicographic rank over pairs (0,1), (0,2), ..., (n-2,n-1)
    u = 0
    row = n - 1
    while p >= row:
        p -= row
        u += 1
        row -= 1
    return (u, u + 1 + p)


def _draw_simple(rng: SplitMix64, n: int, m: int) -> list[tuple[int, int]]:
    # partial Fisher-Yates over pair indices, sparse via dict
    total = n * (n - 1) // 2
    swap: dict[int, int] = {}
    picked = []
    for i in range(m):
        j = i + rng.below(total - i)
        vi = swap.get(i, i)
        vj = swap.get(j, j)
        picked.append(vj)
        swap[j] = vi
    return sorted(_pair_from_index(n, p) for p in picked)


def _draw_multi(rng: SplitMix64, n: int, m: int) -> list[tuple[int, int]]:
    out = []
    for _ in range(m):
        u = rng.below(n)
        v = rng.below(n - 1)
        if v >= u:
            v += 1
        out.append((u, v) if u < v else (v, u))
    return sorted(out)


def generate(spec: GenSpec) -> Graph:
    """Deterministic rejection sampler; raises GenerationError on budget
    exhaustion with the attempt count attached."""
    n = spec.n
    if n <= 1:
        return Graph(n, ())
    m = int(spec.target_bound * (n - 1))
    if not spec.allow_parallel and m > n * (n - 1) // 2:
        raise ValueError(f"{m} edges do not fit in a simple graph on {n} vertices")
    rng = SplitMix64(spec.seed)
    draw = _draw_multi if spec.allow_parallel else _draw_simple
    for attempt in range(1, spec.max_rejections + 1):
        graph = Graph(n, tuple(draw(rng, n, m)))
        if fractional_arboricity_at_most(graph, spec.target_bound):
            return graph
    raise GenerationError(spec, spec.max_rejections)
