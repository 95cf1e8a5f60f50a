"""Exact rational linear algebra and ordered-index bookkeeping.

Everything here runs over Fraction and int; no floats anywhere.  One
elimination routine serves det and kernel_basis: rows are sparse
``{column: nonzero}`` maps, cleared of denominators and pushed, in the
order they arrive, through the integer-preserving step of Bareiss (Math.
Comp. 1968), each kept row pivoting on its first nonzero column; every step
touches nonzero entries only.  The forward pass alone gives a rank (_rank,
the number of rows kept).  _rref back-substitutes the echelon to the
reduced row echelon form, which the row space fixes, so the sparse vectors
kernel_basis returns do not depend on the order of elimination.  A reduced
entry stays an int where its pivot divides it, as _rational reads input, and
is a Fraction only otherwise; a kernel vector is 1 at its free column.  det
alone takes a dense ``QMatrix``, and feeds its rows through the same
routine.  The value types here and in poly, forms and simplex refuse
assignment and deletion through one private base, ``_Frozen``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Optional, Sequence

Vector = tuple[Fraction, ...]


# an optionally signed decimal integer, optionally over an unsigned one: with
# no exponent, point, separator or padding, a short literal is a small number
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def as_fraction(value) -> Fraction:
    """Read an int (not a bool), a string ("a/b" or "a", through _rational)
    or a Fraction as a Fraction; any other value, a bad literal or a zero
    denominator is refused with a ValueError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    value = _rational(value)
    return value if isinstance(value, Fraction) else Fraction(value)


def _rational(value):
    """value as as_fraction reads it, refusals and messages included, but an
    int where integral: an integral int, Fraction or literal ("-0", "+10/5")
    gives an int, and a literal builds a Fraction only when it is not."""
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value)
        if match:
            try:
                num = int(match[1])
                if match[2] is None:
                    return num
                den = int(match[2])
                return Fraction(num, den) if num % den else num // den
            except (ValueError, ZeroDivisionError):
                pass
    elif isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    elif isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"cannot interpret {value!r} as a rational number")


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


class _Frozen:
    """Base of the value types: slots filled once, by object.__setattr__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class QMatrix(_Frozen):
    """Immutable dense matrix over Fraction, for data that is a dense matrix:
    an affine map, a printed comparison matrix or a failure witness.  Rows
    may be empty; pass ncols explicitly for matrices with zero rows."""

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

    def __getitem__(self, idx):
        i, j = idx
        return self.data[i][j]

    def row(self, i: int) -> Vector:
        return self.data[i]

    def __eq__(self, other) -> bool:
        return (isinstance(other, QMatrix) and self.ncols == other.ncols
                and self.data == other.data)

    def __hash__(self):
        return hash((self.ncols, self.data))

    def __repr__(self) -> str:
        return f"QMatrix({[[str(x) for x in r] for r in self.data]}, ncols={self.ncols})"

    def to_json_obj(self):
        return [[str(x) for x in row] for row in self.data]


Pivot = tuple[int, int, dict]  # (pivot column, pivot value, Bareiss row)


def _clear(row: Mapping) -> tuple[int, dict[int, int]]:
    """(multiplier, integer row): clear the denominators of a sparse row of
    ints and Fractions, dropping zeros.  Row scaling preserves row space,
    rank, kernel, and pivot positions."""
    mult = lcm(*(x.denominator for x in row.values()))
    return mult, {j: x.numerator * (mult // x.denominator)
                  for j, x in row.items() if x}


def _reduce(row: dict[int, int], stored: Sequence[Pivot]) -> dict[int, int]:
    """Bareiss steps of every stored pivot row, in order, on nonzero entries
    only; entries stay integer minors (Sylvester), so each division is
    exact.  A step on a 0 in its pivot column only scales the row by its
    pivot over the previous one; such factors telescope, so the row catches
    up (from pivot ``last`` to ``prev``) just before a step that changes
    it, and at the end."""
    last = prev = 1
    for c, p, srow in stored:
        a = row.get(c)
        if a:
            if prev != last:
                row = {j: x * prev // last for j, x in row.items()}
                a = row[c]
            row = {j: p * x for j, x in row.items()}
            for j, y in srow.items():
                x = row.get(j, 0) - a * y
                if x:
                    row[j] = x
                else:
                    del row[j]
            if prev != 1:
                row = {j: x // prev for j, x in row.items()}
            last = p
        prev = p
    if prev != last:
        row = {j: x * prev // last for j, x in row.items()}
    return row


def _push(stored: list[Pivot], row: dict[int, int]) -> bool:
    """Keep a nonzero remainder as a pivot row on its first nonzero column."""
    row = _reduce(row, stored)
    if row:
        c = min(row)
        stored.append((c, row[c], row))
    return bool(row)


def _rank(rows: Iterable[Mapping]) -> int:
    """Rank of sparse rows: the number of pivots the forward pass keeps,
    with no back substitution."""
    stored: list[Pivot] = []
    return sum(_push(stored, _clear(row)[1]) for row in rows)


def _rref(rows: Iterable[Mapping]) -> dict[int, dict]:
    """Reduced row echelon form of sparse rows, as {pivot column: the row's
    entries in the free columns after it}, each an int where integral, else
    a Fraction; each row is 1 at its pivot column and 0 at the others.  Back
    substitution runs from the last pivot column up, each echelon row
    subtracting the reduced rows of the later pivot columns it meets, so no
    row is cleared above its pivot during the forward pass."""
    stored: list[Pivot] = []
    for row in rows:
        _push(stored, _clear(row)[1])
    reduced: dict[int, dict] = {}
    for c, p, row in sorted(stored, key=lambda piv: -piv[0]):
        out: dict = {}
        for j, x in row.items():
            below = reduced.get(j)
            if below is not None:
                for k, y in below.items():
                    out[k] = out.get(k, 0) - x * y
            elif j != c:
                out[j] = out.get(j, 0) + x
        reduced[c] = {k: Fraction(v, p) if v % p else v // p
                      for k, v in out.items() if v}
    return reduced


def _in_range(rows: Iterable[Mapping], ncols: int) -> None:
    """Refuse sparse rows with a column outside range(ncols)."""
    if any(not 0 <= j < ncols for row in rows for j in row):
        raise ValueError("index out of range")


def det(m: QMatrix) -> Fraction:
    """The last Bareiss pivot is det of m with its columns in pivot order."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    stored: list[Pivot] = []
    scale = 1
    for row in m.data:
        mult, ints = _clear(dict(enumerate(row)))
        if not _push(stored, ints):
            return Fraction(0)
        scale *= mult
    if not stored:
        return Fraction(1)
    return Fraction(perm_sign([c for c, _, _ in stored]) * stored[-1][1], scale)


def kernel_basis(rows: Sequence[Mapping], ncols: int) -> list[dict]:
    """Basis of the right kernel of the matrix with the given sparse rows and
    ncols columns, as sparse vectors; one per free column, 1 at the free
    position and nonzero elsewhere only at pivot columns before it (so the
    free column is the vector's largest), in increasing column order."""
    _in_range(rows, ncols)
    reduced = _rref(rows)
    basis = {f: {f: 1} for f in range(ncols) if f not in reduced}
    for c, row in reduced.items():
        for f, x in row.items():
            basis[f][c] = -x
    return list(basis.values())
