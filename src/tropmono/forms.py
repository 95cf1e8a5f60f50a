"""Bigraded forms on R^n with polynomial coefficients.

A form is a sum of monomials f(x) d'x_I ^ d''x_J with I, J strictly
increasing index tuples; the two blocks anticommute degree by degree, and
canonical order is the full d' block first, then the full d'' block, each
sorted.  Mixed bidegrees may coexist in one value; graded operators act
piecewise.  A Superform is the shared sparse container of poly (keys are
block pairs, coefficients Poly), so sums, scaling and equality are the
container's.

Indices are 0-based in memory.  Serialized structures and printed witnesses
use 1-based indices.
"""

from __future__ import annotations

from bisect import bisect
from typing import Sequence

from .linalg import QMatrix, _Frozen, as_fraction, shuffle_sign
from .poly import Poly, _accumulate, _derivative, _index_tuple, _Terms

Key = tuple[tuple[int, ...], tuple[int, ...]]


def _append_row(minors: dict, row: Sequence) -> dict:
    """One Cauchy-Binet step: from {J: det R[:, J]} over the column tuples J
    of a matrix R to the same map for R with one more row appended,
    expanding each new minor along that last row.  Zero minors are
    dropped."""
    out: dict = {}
    for cols, c in minors.items():
        for j, x in enumerate(row):
            if not x or j in cols:
                continue
            k = bisect(cols, j)
            key = cols[:k] + (j,) + cols[k:]
            # column j moves past the len(cols) - k columns after it
            _accumulate(out, key, -c * x if (len(cols) - k) % 2 else c * x)
    return out


class Superform(_Terms):
    __slots__ = ()

    @staticmethod
    def _key(nvars: int, raw) -> Key:
        dpr, dsec = raw
        return (_index_tuple(dpr, nvars), _index_tuple(dsec, nvars))

    @classmethod
    def monomial(cls, nvars: int, dprime: Sequence[int], dsecond: Sequence[int],
                 coeff) -> "Superform":
        if not isinstance(coeff, Poly):
            coeff = Poly.const(nvars, coeff)
        return cls(nvars, {(tuple(dprime), tuple(dsecond)): coeff})

    def wedge(self, other: "Superform") -> "Superform":
        """Graded product.  The cross sign (-1)^(p' * q) moves the incoming d'
        block through the resident d'' block; block-internal sorting then
        contributes the usual shuffle signs."""
        self._check(other)
        acc: dict[Key, Poly] = {}
        for (i1, j1), f in self.terms.items():
            for (i2, j2), g in other.terms.items():
                sh_i = shuffle_sign(i1, i2)
                if sh_i is None:
                    continue
                sh_j = shuffle_sign(j1, j2)
                if sh_j is None:
                    continue
                sign = sh_i[0] * sh_j[0]
                if (len(i2) * len(j1)) % 2:
                    sign = -sign
                term = f * g
                _accumulate(acc, (sh_i[1], sh_j[1]), term if sign > 0 else -term)
        return self._made(self.nvars, acc)

    def d_prime(self) -> "Superform":
        return _derivative(self, 0)

    def d_second(self) -> "Superform":
        # the new d'' factor crosses the whole d' block, hence the (-1)^p
        return _derivative(self, 1, lambda key: len(key[0]))

    def flip(self) -> "Superform":
        """Swap the two blocks wholesale; costs (-1)^(p*q) per monomial."""
        acc: dict[Key, Poly] = {}
        for (dpr, dsec), f in self.terms.items():
            sign = -1 if (len(dpr) * len(dsec)) % 2 else 1
            _accumulate(acc, (dsec, dpr), f if sign > 0 else -f)
        return self._made(self.nvars, acc)

    def monodromy(self) -> "Superform":
        """Trade one d' factor for the matching d'' factor, summed over the
        d' block.  Undefined when a (0,q) component is present."""
        acc: dict[Key, Poly] = {}
        for (dpr, dsec), f in self.terms.items():
            p = len(dpr)
            if p == 0:
                raise ValueError("monodromy is undefined on (0,q) components")
            neg = None
            for k, i in enumerate(dpr):
                if i in dsec:
                    continue
                # d''x_i moves past the m indices of dsec below it, and the
                # traded d'x_i past the p - 1 - k d' factors after it
                m = bisect(dsec, i)
                key = (dpr[:k] + dpr[k + 1:], dsec[:m] + (i,) + dsec[m:])
                odd = (p - 1 - k + m) % 2
                if odd and neg is None:
                    neg = -f
                _accumulate(acc, key, neg if odd else f)
        return self._made(self.nvars, acc)

    def to_json_obj(self) -> list[dict]:
        out = []
        for dpr, dsec in sorted(self.terms):
            out.append({
                "dprime": [i + 1 for i in dpr],
                "dsecond": [i + 1 for i in dsec],
                "coeff": self.terms[(dpr, dsec)].to_json_obj(),
            })
        return out

    def __repr__(self) -> str:
        if not self.terms:
            return "Superform(0)"
        bits = []
        for dpr, dsec in sorted(self.terms):
            factors = [f"d'x{i + 1}" for i in dpr] + [f"d''x{i + 1}" for i in dsec]
            label = "^".join(factors) if factors else "1"
            bits.append(f"({self.terms[(dpr, dsec)]!r}) {label}")
        return " + ".join(bits)


class AffineMap(_Frozen):
    """x = A y + b from R^(source) to R^(target); A is target x source.  Its
    substitutes and block minors are built once, for every pullback."""

    __slots__ = ("matrix", "translation", "_subs", "_minors")

    def __init__(self, matrix: QMatrix, translation: Sequence = None):
        if translation is None:
            translation = [0] * matrix.nrows
        translation = tuple(as_fraction(x) for x in translation)
        if len(translation) != matrix.nrows:
            raise ValueError("translation length must match the target dimension")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "translation", translation)
        object.__setattr__(self, "_subs", tuple(
            Poly.affine(matrix.ncols, matrix.row(i), t)
            for i, t in enumerate(translation)))
        object.__setattr__(self, "_minors", {(): {(): 1}})

    @property
    def source_dim(self) -> int:
        return self.matrix.ncols

    @property
    def target_dim(self) -> int:
        return self.matrix.nrows

    def pullback(self, omega: Superform) -> "Superform":
        """Cauchy-Binet: f d'x_I ^ d''x_K pulls back to the sum over J, L of
        (f o phi) det A[I, J] det A[K, L] d'y_J ^ d''y_L.  A block's scalar
        minors append one more row of A to those of its prefix."""
        if omega.nvars != self.target_dim:
            raise ValueError("form does not live on the target space")
        n2, subs, minors = self.source_dim, self._subs, self._minors

        def block(index: tuple[int, ...]) -> dict:
            if index not in minors:
                minors[index] = _append_row(block(index[:-1]),
                                            self.matrix.row(index[-1]))
            return minors[index]

        acc: dict[Key, Poly] = {}
        for (dpr, dsec), f in omega.terms.items():
            left, right = block(dpr), block(dsec)
            if not (left and right):
                continue
            g = (f.eval_poly(subs) if subs and n2
                 else Poly.const(n2, f.eval_point(self.translation)))
            for cols_p, a in left.items():
                for cols_s, b in right.items():
                    _accumulate(acc, (cols_p, cols_s), g * (a * b))
        return Superform._made(n2, acc)
