"""Exact rational linear algebra and ordered-index bookkeeping.

Everything here runs over Fraction; no floats anywhere.  One elimination
routine serves rank, det, rref, kernel_basis and solve_many: rows are
cleared of denominators and pushed, in order, through the integer-preserving
step of Bareiss (Math. Comp. 1968), each kept row pivoting on its first
nonzero entry.  ``Echelon`` exposes the same step incrementally: ``add`` keeps a
vector only when it raises the rank, so feeding candidates in scan order
selects the first independent ones and repeated runs yield byte-identical
bases.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

Vector = tuple[Fraction, ...]


def as_fraction(value) -> Fraction:
    """Coerce int, str ("a/b" or "a"), or Fraction to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def rat_str(value: Fraction) -> str:
    """Serialize a rational as "a/b", or "a" when the denominator is 1."""
    return str(value)


def perm_sign(perm: Sequence[int]) -> int:
    """Sign of a permutation given as a sequence of distinct comparables."""
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv % 2 else 1


def shuffle_sign(a: Sequence[int], b: Sequence[int]):
    """Merge two strictly increasing index tuples.

    Returns (sign, merged) where sign is the parity of the interleaving, or
    None if the tuples share an element.
    """
    out = []
    inv = 0
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining entries of a
            inv += len(a) - i
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return (-1 if inv % 2 else 1), tuple(out)


class QMatrix:
    """Immutable dense matrix over Fraction. Rows may be empty; pass ncols
    explicitly for matrices with zero rows."""

    __slots__ = ("nrows", "ncols", "data")

    def __init__(self, rows: Iterable[Iterable] = (), ncols: Optional[int] = None):
        data = tuple(tuple(as_fraction(x) for x in row) for row in rows)
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError("ncols disagrees with row width")
            ncols = width
        elif ncols is None:
            ncols = 0
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "nrows", len(data))
        object.__setattr__(self, "ncols", ncols)

    def __setattr__(self, name, value):
        raise AttributeError("QMatrix is immutable")

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "QMatrix":
        return cls([[0] * ncols for _ in range(nrows)], ncols=ncols)

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence], nrows: Optional[int] = None) -> "QMatrix":
        if cols:
            nrows = len(cols[0])
        elif nrows is None:
            nrows = 0
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(nrows)],
                   ncols=len(cols))

    def __getitem__(self, idx):
        i, j = idx
        return self.data[i][j]

    def row(self, i: int) -> Vector:
        return self.data[i]

    def transpose(self) -> "QMatrix":
        return QMatrix([[self.data[i][j] for i in range(self.nrows)]
                        for j in range(self.ncols)], ncols=self.nrows)

    def __add__(self, other: "QMatrix") -> "QMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return QMatrix([[a + b for a, b in zip(r1, r2)]
                        for r1, r2 in zip(self.data, other.data)], ncols=self.ncols)

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        return QMatrix(
            [[sum((self.data[i][k] * other.data[k][j] for k in range(self.ncols)),
                  Fraction(0)) for j in range(other.ncols)]
             for i in range(self.nrows)],
            ncols=other.ncols)

    def matvec(self, v: Sequence) -> Vector:
        if len(v) != self.ncols:
            raise ValueError("length mismatch")
        vv = [as_fraction(x) for x in v]
        return tuple(sum((r[k] * vv[k] for k in range(self.ncols)), Fraction(0))
                     for r in self.data)

    def vstack(self, other: "QMatrix") -> "QMatrix":
        if self.ncols != other.ncols:
            raise ValueError("width mismatch")
        return QMatrix(self.data + other.data, ncols=self.ncols)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def __eq__(self, other) -> bool:
        return (isinstance(other, QMatrix) and self.ncols == other.ncols
                and self.data == other.data)

    def __hash__(self):
        return hash((self.ncols, self.data))

    def __repr__(self) -> str:
        return f"QMatrix({[[str(x) for x in r] for r in self.data]}, ncols={self.ncols})"

    def to_json_obj(self):
        return [[rat_str(x) for x in row] for row in self.data]


def _clear(row: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(multiplier, integer row): clear denominators.  Row scaling preserves
    row space, rank, kernel, and pivot positions."""
    mult = lcm(*(x.denominator for x in row))
    return mult, [x.numerator * (mult // x.denominator) for x in row]


Pivot = tuple[int, int, list[int]]  # (pivot column, pivot value, Bareiss row)


def _reduce(row: list[int], stored: Sequence[Pivot]) -> list[int]:
    """Bareiss steps of every stored pivot row, in order; entries stay
    integer minors (Sylvester), so each division is exact.  A step on a 0
    in its pivot column only rescales, so that factor waits in num/den."""
    num = den = prev = 1
    for c, p, srow in stored:
        if row[c]:
            if num != den:
                row = [x * num // den for x in row]
                num = den = 1
            a = row[c]
            row = [(p * x - a * y) // prev for x, y in zip(row, srow)]
        else:
            num *= p
            den *= prev
        prev = p
    if num != den:
        row = [x * num // den for x in row]
    return row


def _push(stored: list[Pivot], row: list[int]) -> bool:
    """Keep a nonzero remainder as a pivot row on its first nonzero entry."""
    row = _reduce(row, stored)
    c = next((c for c, x in enumerate(row) if x), None)
    if c is not None:
        stored.append((c, row[c], row))
    return c is not None


def _echelon(m: QMatrix) -> list[Pivot]:
    """Fraction-free echelon of the rows of m, taken in order; the single
    elimination routine behind rank, det, rref, kernel_basis and solve_many."""
    stored: list[Pivot] = []
    for row in m.data:
        _push(stored, _clear(row)[1])
    return stored


class Echelon:
    """Incremental fraction-free echelon: ``add(v)`` keeps v, and returns
    True, only when its remainder is nonzero, that is, when v raises the rank."""

    def __init__(self, length: int):
        self.length = length
        self._stored: list[Pivot] = []

    def add(self, v: Sequence) -> bool:
        if len(v) != self.length:
            raise ValueError("length mismatch")
        return _push(self._stored, _clear([as_fraction(x) for x in v])[1])


def rref(m: QMatrix) -> tuple[list[Vector], tuple[int, ...]]:
    """Reduced row echelon form with unit pivots; deterministic."""
    stored = sorted(_echelon(m), key=lambda piv: piv[0])
    pivots = tuple(c for c, _, _ in stored)
    rows = [row for _, _, row in stored]
    for r in range(len(rows) - 1, 0, -1):
        c, low = pivots[r], rows[r]
        p = low[c]
        for i in range(r):
            f = rows[i][c]
            if f:
                g = gcd(p, f)
                row = [(p // g) * x - (f // g) * y for x, y in zip(rows[i], low)]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
    return ([tuple(Fraction(x, row[c]) for x in row) for row, c in zip(rows, pivots)],
            pivots)


def rank(m: QMatrix) -> int:
    return len(_echelon(m))


def det(m: QMatrix) -> Fraction:
    """The last Bareiss pivot is det of m with its columns in pivot order."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    stored: list[Pivot] = []
    scale = 1
    for row in m.data:
        mult, ints = _clear(row)
        if not _push(stored, ints):
            return Fraction(0)
        scale *= mult
    if not stored:
        return Fraction(1)
    return Fraction(perm_sign([c for c, _, _ in stored]) * stored[-1][1], scale)


def kernel_basis(m: QMatrix) -> list[Vector]:
    """Basis of the right kernel; one vector per free column, unit at the
    free position, in increasing column order."""
    reduced, pivots = rref(m)
    free = [c for c in range(m.ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * m.ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][f]
        basis.append(tuple(v))
    return basis


def solve_many(m: QMatrix, rhs: Sequence[Sequence]) -> list[Optional[Vector]]:
    """For each b in rhs, one exact solution of m x = b with free variables
    set to 0, or None.  m is reduced once, augmented by every b."""
    targets = [[as_fraction(x) for x in b] for b in rhs]
    if any(len(b) != m.nrows for b in targets):
        raise ValueError("length mismatch")
    n = m.ncols
    aug = QMatrix([list(row) + [b[i] for b in targets]
                   for i, row in enumerate(m.data)], ncols=n + len(targets))
    reduced, pivots = rref(aug)
    r = sum(1 for c in pivots if c < n)
    out: list[Optional[Vector]] = []
    for col in range(n, n + len(targets)):
        x = [Fraction(0)] * n
        for row, c in zip(reduced, pivots[:r]):
            x[c] = row[col]
        out.append(None if any(row[col] for row in reduced[r:]) else tuple(x))
    return out
