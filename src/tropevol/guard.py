"""Work guard shared by every potentially explosive enumeration.

Resolution order: explicit argument, then the TROPEVOL_GUARD environment
variable, then the built-in default.  The guard bounds the number of
elementary steps (grid cells visited, recursion nodes, DP states, ...) and
exceeding it raises GuardExceeded rather than silently grinding.

BoundedTable keeps results that depend on their key alone across calls, with
a fixed cap on its entries, so what the library remembers stays bounded too.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict

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


class BoundedTable:
    """A least-recently-used map holding at most cap entries.

    The library keeps in such tables only values that are functions of
    their key (a cube pattern's chains, a class polynomial), so every
    caller in the process may share them.  A lookup or store holds a lock,
    so threads may share a table too.
    """

    def __init__(self, cap: int):
        self.cap = cap
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        """The value stored under key, or None.  A hit becomes the most recent entry."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key, value) -> None:
        """Store value under key; past the cap, the least recently used entry goes."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            if len(self._entries) > self.cap:
                self._entries.popitem(last=False)

    def keys(self) -> list:
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
