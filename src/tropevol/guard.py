"""Work guard shared by every potentially explosive enumeration.

Resolution order: explicit argument, then the TROPEVOL_GUARD environment
variable, then the built-in default.  The guard bounds the number of
elementary steps (grid cells visited, recursion nodes, DP states, ...) and
exceeding it raises GuardExceeded rather than silently grinding.
"""

from __future__ import annotations

import os

from .errors import GuardExceeded, ValidationError

DEFAULT_GUARD = 10_000_000


def resolve_guard(guard: int | None = None) -> int:
    if guard is None:
        raw = os.environ.get("TROPEVOL_GUARD")
        if raw is None:
            return DEFAULT_GUARD
        try:
            guard = int(raw)
        except ValueError:
            raise ValidationError(f"TROPEVOL_GUARD is not an integer: {raw!r}")
    if isinstance(guard, bool) or not isinstance(guard, int) or guard <= 0:
        raise ValidationError(f"guard must be a positive integer, got {guard!r}")
    return guard


def check_guard(required: int, guard: int, what: str) -> None:
    if required > guard:
        raise GuardExceeded(
            f"{what} needs about {required} steps, guard is {guard}",
            required=required,
            limit=guard,
        )
