"""Batch sweeps: generate seeded instances near a bound, decompose, verify.

A sweep is a grid of (k, n) cells. Every trial seed derives from
(seed, k, n, trial), so any row can be reproduced in isolation. Generator
exhaustion and decomposition exhaustion are counted per cell, never fatal.

Each selector reads only some of the optional settings: conjecture reads d;
custom reads custom_bound and remainder, and d with a forest or graph
remainder; theorem5, theorem2i and theorem2ii read none of them. A setting
that the selector does not read is refused (exit 2 on the command line), so
the report's config records only what its cells used; its remainder and d
are the ones every row reads (cell_remainder). Building the config
runs every cell's generator checks (GenSpec: n, the bound, whether the
edges fit a simple graph), so a bad cell is refused before the first runs.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, fields
from fractions import Fraction

from .decompose import check_remainder, decompose_forests_bounded, decompose_forests_matching, verify_decomposition
from .generate import GenSpec, GenerationError, derive_seed, generate
from .rationals import format_value

SELECTORS = ("theorem5", "theorem2i", "theorem2ii", "conjecture", "custom")


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep description. The selector fixes the bound and remainder shape:

    theorem5    k forests + matching at bound k + 1/(3k+2)
    theorem2i   one forest + matching at bound 4/3 (k must be 1)
    theorem2ii  one forest + max-degree-2 forest at bound 3/2 (k must be 1)
    conjecture  k forests + max-degree-d forest at bound k + d/(k+d+1)
    custom      explicit bound with an explicit remainder kind
    """

    selector: str
    k_values: tuple[int, ...]
    n_values: tuple[int, ...]
    trials: int
    seed: int
    d: int | None = None
    custom_bound: Fraction | None = None
    remainder: str = "matching"
    allow_parallel: bool = False
    max_rejections: int = GenSpec.max_rejections

    def __post_init__(self):
        if self.selector not in SELECTORS:
            raise ValueError(f"unknown selector {self.selector!r}")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if not self.k_values or not self.n_values:
            raise ValueError("a sweep needs at least one k value and one n value")
        if any(k < 1 for k in self.k_values):
            raise ValueError("k values must be positive")
        if self.selector in ("theorem2i", "theorem2ii") and any(k != 1 for k in self.k_values):
            raise ValueError(f"selector {self.selector} is defined for k=1 only")
        if self.selector == "custom" and self.custom_bound is None:
            raise ValueError("selector custom needs an explicit bound")
        check_remainder(*self.cell_remainder())
        reads, defaults = self._read_options(), {f.name: f.default for f in fields(self)}
        for name in ("d", "custom_bound", "remainder"):
            if name not in reads and getattr(self, name) != defaults[name]:
                where = " with a matching remainder" if self.selector == "custom" else ""
                raise ValueError(f"selector {self.selector} does not read {name}{where}")
        for k in self.k_values:  # the generator's own checks, before any cell runs
            for n in self.n_values:
                GenSpec(n, self.cell_bound(k), self.allow_parallel, max_rejections=self.max_rejections)

    def _read_options(self) -> tuple[str, ...]:
        """The optional settings that this selector's cells read."""
        if self.selector == "conjecture":
            return ("d",)
        if self.selector != "custom":
            return ()
        return ("custom_bound", "remainder") + (() if self.remainder == "matching" else ("d",))

    def cell_bound(self, k: int) -> Fraction:
        if self.selector == "theorem5":
            return k + Fraction(1, 3 * k + 2)
        if self.selector == "theorem2i":
            return Fraction(4, 3)
        if self.selector == "theorem2ii":
            return Fraction(3, 2)
        if self.selector == "conjecture":
            return k + Fraction(self.d, k + self.d + 1)
        return self.custom_bound

    def cell_remainder(self) -> tuple[str, int | None]:
        if self.selector in ("theorem5", "theorem2i"):
            return "matching", None
        if self.selector == "theorem2ii":
            return "forest", 2
        if self.selector == "conjecture":
            return "forest", self.d
        return self.remainder, self.d

    def to_json(self) -> dict:
        doc = asdict(self)
        doc.update(k_values=list(self.k_values), n_values=list(self.n_values))
        doc["remainder"], doc["d"] = self.cell_remainder()
        if self.custom_bound is not None:
            doc["custom_bound"] = format_value(self.custom_bound)
        return doc


@dataclass(frozen=True)
class CellResult:
    k: int
    n: int
    bound: Fraction
    remainder: str
    d: int | None
    attempted: int
    generated: int
    decomposed: int
    verified: int
    exhausted: int
    gen_failed: int
    seconds: float

    @property
    def clean(self) -> bool:
        return self.exhausted == 0 and self.gen_failed == 0 and self.verified == self.attempted

    def to_json(self) -> dict:
        doc = asdict(self)
        del doc["seconds"]  # re-added after success, in the report's key order
        doc.update(
            bound=format_value(self.bound),
            success=f"{self.verified}/{self.attempted}",
            seconds=round(self.seconds, 3),
        )
        return doc


def _run_cell(args: tuple[ExperimentConfig, int, int]) -> CellResult:
    config, k, n = args
    bound = config.cell_bound(k)
    kind, d = config.cell_remainder()
    generated = decomposed = verified = exhausted = gen_failed = 0
    start = time.perf_counter()
    for trial in range(config.trials):
        seed = derive_seed(config.seed, k, n, trial)
        spec = GenSpec(
            n=n,
            target_bound=bound,
            allow_parallel=config.allow_parallel,
            seed=seed,
            max_rejections=config.max_rejections,
        )
        try:
            graph = generate(spec)
        except GenerationError:
            gen_failed += 1
            continue
        generated += 1
        if kind == "matching":
            dec = decompose_forests_matching(graph, k)
        else:
            dec = decompose_forests_bounded(graph, k, d, kind)
        if dec is None:
            exhausted += 1
            continue
        decomposed += 1
        ok, _ = verify_decomposition(graph, dec, k, d)
        if ok:
            verified += 1
    return CellResult(
        k=k,
        n=n,
        bound=bound,
        remainder=kind,
        d=d,
        attempted=config.trials,
        generated=generated,
        decomposed=decomposed,
        verified=verified,
        exhausted=exhausted,
        gen_failed=gen_failed,
        seconds=time.perf_counter() - start,
    )


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> list[CellResult]:
    if jobs < 1:
        raise ValueError("jobs must be positive")
    cells = [(config, k, n) for k in config.k_values for n in config.n_values]
    if jobs > 1 and len(cells) > 1:
        # imported here: the pool's modules (multiprocessing and friends)
        # add about 2.7 MiB to every process that imports arborkit
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
            rows = list(pool.map(_run_cell, cells))
    else:
        rows = [_run_cell(cell) for cell in cells]
    rows.sort(key=lambda r: (r.k, r.n))
    return rows


# the text table's columns: every key of CellResult.to_json but attempted
_COLUMNS = (
    "k", "n", "bound", "remainder", "d", "generated", "decomposed",
    "verified", "exhausted", "gen_failed", "success", "seconds",
)


def _cell_text(value) -> str:
    if value is None:
        return "-"
    return f"{value:.2f}" if isinstance(value, float) else str(value)


def emit_report(config: ExperimentConfig, rows: list[CellResult]) -> tuple[str, dict]:
    """Aligned text table plus the versioned JSON payload."""
    docs = [r.to_json() for r in rows]
    table = [_COLUMNS] + [[_cell_text(doc[name]) for name in _COLUMNS] for doc in docs]
    widths = [max(map(len, column)) for column in zip(*table)]
    lines = ["  ".join(val.ljust(w) for val, w in zip(row, widths)).rstrip() for row in table]
    payload = {"schema": 1, "config": config.to_json(), "rows": docs}
    return "\n".join(lines) + "\n", payload
