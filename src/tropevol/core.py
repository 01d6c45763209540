"""Exact arithmetic for the max-plus semiring and tropical point sets.

Scalars live in (Q union {-inf}, max, +).  A scalar is an int, a Fraction, or
None, with None standing for -inf (the additive neutral element).  The
multiplicative neutral element is 0.  No floats anywhere; everything is exact.

A tropical point configuration is a d x m matrix whose columns are the
generators v_1 .. v_m of the tropical hull

    tconv(M) = { max_j (lambda_j + v_j) : max_j lambda_j = 0 },

with max taken componentwise.  Membership is decided by residuation, see
``residuate`` and ``contains``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import ValidationError

# None encodes -inf.  Kept as a named constant so call sites read naturally.
MINUS_INF = None

Entry = Optional[Union[int, Fraction]]


def as_entry(value) -> Entry:
    """Coerce a scalar to the internal exact representation.

    Accepts int, Fraction and None.  Floats are rejected: the whole point of
    the package is exactness.
    """
    if value is None:
        return None
    if isinstance(value, bool):
        raise ValidationError("bool is not a tropical scalar")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    raise ValidationError(f"not an exact tropical scalar: {value!r}")


def tadd(a: Entry, b: Entry) -> Entry:
    """Tropical addition: max, with -inf neutral."""
    if a is None:
        return b
    if b is None:
        return a
    return a if a >= b else b


def tmul(a: Entry, b: Entry) -> Entry:
    """Tropical multiplication: +, with -inf absorbing."""
    if a is None or b is None:
        return None
    return a + b


def tsum(values: Iterable[Entry]) -> Entry:
    best: Entry = None
    for v in values:
        if v is not None and (best is None or v > best):
            best = v
    return best


_ENTRY_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def parse_entry(value) -> Entry:
    """Parse a JSON-level entry: int, "p/q" string, or "-inf"."""
    if isinstance(value, bool):
        raise ValidationError("bool is not a matrix entry")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        if value == "-inf":
            return None
        m = _ENTRY_RE.match(value)
        if m:
            num = int(m.group(1))
            den = int(m.group(2)) if m.group(2) else 1
            if den == 0:
                raise ValidationError(f"zero denominator in entry {value!r}")
            return as_entry(Fraction(num, den))
    raise ValidationError(f"unparseable matrix entry: {value!r}")


def format_entry(value: Entry):
    """Inverse of parse_entry: int stays int, rationals become "p/q"."""
    if value is None:
        return "-inf"
    if isinstance(value, int):
        return value
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class TropMatrix:
    """A d x m matrix over the max-plus semiring, columns = generators.

    entries is row-major.  Columns that are identically -inf are rejected
    unless allow_minus_inf_columns is set; such a column generates nothing but
    changes the normalization rule for hull membership, so it has to be asked
    for explicitly.
    """

    entries: tuple
    allow_minus_inf_columns: bool = False

    def __post_init__(self):
        if not self.entries:
            raise ValidationError("matrix needs at least one row")
        width = None
        for row in self.entries:
            if not isinstance(row, tuple):
                raise ValidationError("entries must be a tuple of tuples")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValidationError("ragged matrix")
            for e in row:
                if e is not None and not isinstance(e, (int, Fraction)):
                    raise ValidationError(f"bad entry {e!r}")
                if isinstance(e, bool):
                    raise ValidationError("bool entry")
        if width == 0:
            raise ValidationError("matrix needs at least one column")
        if not self.allow_minus_inf_columns:
            for j in range(width):
                if all(row[j] is None for row in self.entries):
                    raise ValidationError(
                        f"column {j} is identically -inf "
                        "(pass allow_minus_inf_columns=True if intended)"
                    )

    @classmethod
    def _trusted(cls, entries: tuple, allow_minus_inf_columns: bool) -> "TropMatrix":
        """A matrix whose entries come from validated matrices, unchecked.

        Such entries are exact scalars and keep every column's finiteness,
        so only the shape can be wrong: an empty selection of rows or
        columns raises the constructor's error.
        """
        if not entries:
            raise ValidationError("matrix needs at least one row")
        if not entries[0]:
            raise ValidationError("matrix needs at least one column")
        m = object.__new__(cls)
        object.__setattr__(m, "entries", entries)
        object.__setattr__(m, "allow_minus_inf_columns", allow_minus_inf_columns)
        return m

    @staticmethod
    def from_rows(rows: Sequence[Sequence], allow_minus_inf_columns: bool = False) -> "TropMatrix":
        ent = tuple(tuple(as_entry(e) for e in row) for row in rows)
        return TropMatrix(ent, allow_minus_inf_columns)

    @staticmethod
    def from_columns(cols: Sequence[Sequence], allow_minus_inf_columns: bool = False) -> "TropMatrix":
        if not cols:
            raise ValidationError("need at least one column")
        d = len(cols[0])
        rows = [[col[i] for col in cols] for i in range(d)]
        return TropMatrix.from_rows(rows, allow_minus_inf_columns)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> Iterator[tuple]:
        for j in range(self.cols):
            yield self.column(j)

    def submatrix_columns(self, js: Sequence[int]) -> "TropMatrix":
        return TropMatrix._trusted(
            tuple(tuple(row[j] for j in js) for row in self.entries),
            self.allow_minus_inf_columns,
        )

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "TropMatrix":
        return TropMatrix._trusted(
            tuple(tuple(self.entries[i][j] for j in cols) for i in rows),
            True,
        )

    def is_integer(self) -> bool:
        """True when every finite entry is an integer."""
        return all(e is None or isinstance(e, int) for row in self.entries for e in row)

    def is_finite(self) -> bool:
        return all(e is not None for row in self.entries for e in row)

    def is_nonnegative(self) -> bool:
        return all(e is None or e >= 0 for row in self.entries for e in row)

    def has_minus_inf_column(self) -> bool:
        return any(all(row[j] is None for row in self.entries) for j in range(self.cols))

    def max_entry(self) -> Entry:
        return tsum(e for row in self.entries for e in row)

    def translate(self, lam: Entry) -> "TropMatrix":
        """Tropical scalar multiple lam (x) M: add lam to every entry."""
        lam = as_entry(lam)
        if lam is None:
            raise ValidationError("cannot scale a point configuration by -inf")
        return TropMatrix._trusted(
            tuple(tuple(tmul(e, lam) for e in row) for row in self.entries),
            self.allow_minus_inf_columns,
        )

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[format_entry(e) for e in row] for row in self.entries],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @staticmethod
    def from_json_dict(obj: dict, allow_minus_inf_columns: bool = False) -> "TropMatrix":
        try:
            r, c = obj["rows"], obj["cols"]
            raw = obj["entries"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"matrix JSON missing field: {exc}") from exc
        if any(isinstance(n, bool) or not isinstance(n, int) for n in (r, c)):
            raise ValidationError("rows/cols must be integers")
        if not isinstance(raw, (list, tuple)) or not all(isinstance(row, (list, tuple)) for row in raw):
            raise ValidationError("entries must be a list of rows, each a list")
        if len(raw) != r or any(len(row) != c for row in raw):
            raise ValidationError("entries shape disagrees with rows/cols")
        ent = tuple(tuple(parse_entry(e) for e in row) for row in raw)
        return TropMatrix(ent, allow_minus_inf_columns)

    @staticmethod
    def from_json(text: str, allow_minus_inf_columns: bool = False) -> "TropMatrix":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON: {exc}") from exc
        return TropMatrix.from_json_dict(obj, allow_minus_inf_columns)


def as_point(x: Sequence, d: int | None = None) -> tuple:
    pt = tuple(as_entry(e) for e in x)
    if d is not None and len(pt) != d:
        raise ValidationError(f"point has {len(pt)} coordinates, expected {d}")
    return pt


def mat_tmul(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    """Tropical matrix product (A (x) B)_ik = max_j (A_ij + B_jk)."""
    if a.cols != b.rows:
        raise ValidationError(f"shape mismatch: {a.shape} (x) {b.shape}")
    out = tuple(
        tuple(
            tsum(tmul(a.entries[i][j], b.entries[j][k]) for j in range(a.cols))
            for k in range(b.cols)
        )
        for i in range(a.rows)
    )
    return TropMatrix._trusted(out, True)


def residuate(m: TropMatrix, x: Sequence) -> tuple:
    """Largest lambda with M (x) lambda <= x componentwise.

    lambda_j = min over rows i with finite M_ij of (x_i - M_ij).  If such a row
    has x_i = -inf the minimum is -inf.  A column with no finite entry imposes
    no constraint and gets lambda_j = -inf by convention (its scaled copy is
    the all -inf point no matter the coefficient).
    """
    x = as_point(x, m.rows)
    lams = []
    for j in range(m.cols):
        lam: Entry = None
        seen = False
        dead = False
        for i in range(m.rows):
            e = m.entries[i][j]
            if e is None:
                continue
            seen = True
            if x[i] is None:
                dead = True
                break
            diff = x[i] - e
            if lam is None or diff < lam:
                lam = diff
        if not seen or dead:
            lams.append(None)
        else:
            lams.append(as_entry(lam))
    return tuple(lams)


def recompose(m: TropMatrix, lam: Sequence) -> tuple:
    """The point max_j (lambda_j + v_j) for columns v_j of M."""
    lam = as_point(lam, m.cols)
    return tuple(
        tsum(tmul(lam[j], m.entries[i][j]) for j in range(m.cols))
        for i in range(m.rows)
    )


def contains(m: TropMatrix, x: Sequence) -> bool:
    """Exact membership of x in tconv(M).

    Residuate, cap the coefficients at 0, recompose, compare.  The capped
    vector is a valid hull combination iff some coefficient reached 0 before
    capping, or the matrix carries an all -inf column (which can absorb the
    mandatory 0 coefficient for free).
    """
    x = as_point(x, m.rows)
    lam = residuate(m, x)
    capped = tuple(None if l is None else (l if l <= 0 else 0) for l in lam)
    if recompose(m, capped) != x:
        return False
    if m.has_minus_inf_column():
        return True
    return any(l is not None and l >= 0 for l in lam)


def trop_distance(v: Sequence, w: Sequence) -> Entry:
    """Tropical metric d(v, w) = max_i (v_i - w_i) + max_i (w_i - v_i).

    Defined for finite points only; equals 0 iff v and w differ by a constant
    vector (i.e. are the same projective point).
    """
    v = as_point(v)
    w = as_point(w)
    if len(v) != len(w):
        raise ValidationError("dimension mismatch")
    if any(c is None for c in v) or any(c is None for c in w):
        raise ValidationError("tropical distance needs finite points")
    return max(a - b for a, b in zip(v, w)) + max(b - a for a, b in zip(v, w))


def exp_point(x: Sequence, b: int) -> tuple:
    """Coordinatewise base-b exponential: x_i -> b**x_i, -inf -> 0.

    Only integer coordinates are accepted; the image then consists of exact
    rationals (negative exponents give fractions 1/b**k).
    """
    check_base(b)
    x = as_point(x)
    out = []
    for c in x:
        if c is None:
            out.append(0)
        elif isinstance(c, int):
            out.append(b ** c if c >= 0 else Fraction(1, b ** (-c)))
        else:
            raise ValidationError(f"exp map needs integer coordinates, got {c!r}")
    return tuple(out)


def log_point(y: Sequence, b: int) -> tuple:
    """Coordinatewise base-b logarithm on exact powers of b; 0 -> -inf."""
    check_base(b)
    out = []
    for c in y:
        out.append(_log_scalar(as_entry(c), b))
    return tuple(out)


def _log_scalar(c: Entry, b: int) -> Entry:
    if c is None:
        raise ValidationError("log of -inf is undefined (use 0 for the tropical zero)")
    if c == 0:
        return None
    frac = Fraction(c)
    if frac < 0:
        raise ValidationError(f"log of negative value {c!r}")
    if frac.denominator == 1:
        return _int_log(frac.numerator, b)
    if frac.numerator == 1:
        return -_int_log(frac.denominator, b)
    raise ValidationError(f"{c!r} is not an exact power of {b}")


def _int_log(n: int, b: int) -> int:
    k = 0
    while n % b == 0:
        n //= b
        k += 1
    if n != 1:
        raise ValidationError(f"not an exact power of {b}")
    return k


def check_base(b) -> None:
    """Reject anything but an integer base b >= 2 (bool included)."""
    if not isinstance(b, int) or isinstance(b, bool) or b < 2:
        raise ValidationError(f"base must be an integer >= 2, got {b!r}")


def max_subset_sum(values: Sequence, i: int) -> Entry:
    """Sum of the i largest entries (finite entries only)."""
    vals = [as_entry(v) for v in values]
    if any(v is None for v in vals):
        raise ValidationError("subset sums need finite entries")
    if not 0 <= i <= len(vals):
        raise ValidationError(f"subset size {i} out of range")
    return sum(sorted(vals, reverse=True)[:i], 0)


def min_subset_sum(values: Sequence, i: int) -> Entry:
    vals = [as_entry(v) for v in values]
    if any(v is None for v in vals):
        raise ValidationError("subset sums need finite entries")
    if not 0 <= i <= len(vals):
        raise ValidationError(f"subset size {i} out of range")
    return sum(sorted(vals)[:i], 0)


@dataclass(frozen=True)
class ScaledPermutationMatrix:
    """A matrix with exactly one finite entry z_i per row, in column sigma(i).

    Acting on the left, it permutes and translates: (S (x) M) has row i equal
    to z_i + row sigma(i) of M.  These are exactly the hull isomorphisms of
    tropical point configurations.
    """

    sigma: tuple  # tuple[int, ...], 0-based, sigma[i] = column of row i's entry
    z: tuple      # tuple[Entry, ...], all finite

    def __post_init__(self):
        n = len(self.sigma)
        if sorted(self.sigma) != list(range(n)):
            raise ValidationError(f"not a permutation: {self.sigma}")
        if len(self.z) != n:
            raise ValidationError("z length disagrees with sigma")
        for zi in self.z:
            if as_entry(zi) is None:
                raise ValidationError("scaled permutation entries must be finite")

    @property
    def d(self) -> int:
        return len(self.sigma)

    def to_matrix(self) -> TropMatrix:
        rows = []
        for i in range(self.d):
            row = [None] * self.d
            row[self.sigma[i]] = self.z[i]
            rows.append(tuple(row))
        return TropMatrix(tuple(rows))

    def is_rotation_plus(self, i: int) -> bool:
        """The largest i-subset sum of the scaling vector is 0.

        Acting by such a matrix never increases the max-type i-volume.
        """
        return max_subset_sum(self.z, i) == 0

    def is_rotation_minus(self, i: int) -> bool:
        """The smallest i-subset sum of the scaling vector is 0.

        Acting by such a matrix never decreases the min-type i-volume.
        """
        return min_subset_sum(self.z, i) == 0


def act(s: ScaledPermutationMatrix, m: TropMatrix) -> TropMatrix:
    """Left action S (x) M of a scaled permutation on a configuration."""
    if s.d != m.rows:
        raise ValidationError("dimension mismatch")
    rows = tuple(
        tuple(tmul(s.z[i], e) for e in m.entries[s.sigma[i]])
        for i in range(s.d)
    )
    return TropMatrix._trusted(rows, m.allow_minus_inf_columns)

