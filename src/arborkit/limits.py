"""Desk-scale gates for the exhaustive searches.

Every gate but UNION_TABLE_HARD_CAP honors the ARBORKIT_MAX_EDGES environment
variable, so a caller who accepts the runtime cost can raise (or lower) them at once.
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


def check_gate(size: int, default: int, what: str) -> None:
    limit = default
    raw = os.environ.get(ENV_MAX_EDGES)
    if raw is not None:
        try:
            limit = int(raw)
        except ValueError as exc:
            raise ValueError(f"{ENV_MAX_EDGES} must be an integer, got {raw!r}") from exc
    if size > limit:
        raise DeskScaleExceeded(
            f"{what}: size {size} exceeds the desk-scale limit {limit}"
            f" (set {ENV_MAX_EDGES} to override)"
        )
