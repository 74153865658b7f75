"""Desk-scale gates for the exhaustive searches.

Every gate but UNION_TABLE_HARD_CAP honors the ARBORKIT_MAX_EDGES environment
variable, so a caller who accepts the runtime cost can raise (or lower) them at once.
Each gate reads it when checked, and the command line once before any command
runs, so every command refuses a value that is no integer.
"""

from __future__ import annotations

import os

ENV_MAX_EDGES = "ARBORKIT_MAX_EDGES"

UNION_TABLE_HARD_CAP = 20
BOUNDED_SEARCH_DEFAULT = 22
DOMINATION_DEFAULT = 24
PROOFTRACE_DEFAULT = 14


class DeskScaleExceeded(ValueError):
    """Input larger than the configured exhaustive-search gate."""


def _max_edges(default: int | None = None) -> int | None:
    """ARBORKIT_MAX_EDGES as an int, default when it is unset; a value that
    is no integer raises ValueError."""
    raw = os.environ.get(ENV_MAX_EDGES)
    try:
        return default if raw is None else int(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_MAX_EDGES} must be an integer, got {raw!r}") from exc


def check_gate(size: int, default: int, what: str) -> None:
    limit = _max_edges(default)
    if size > limit:
        raise DeskScaleExceeded(
            f"{what}: size {size} exceeds the desk-scale limit {limit}"
            f" (set {ENV_MAX_EDGES} to override)"
        )
