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

from typing import Iterable, Mapping, Sequence

from .linalg import QMatrix, as_fraction, shuffle_sign
from .poly import Poly, _Terms, accumulate

Key = tuple[tuple[int, ...], tuple[int, ...]]


def _as_index_tuple(indices: Iterable[int], nvars: int) -> tuple[int, ...]:
    out = tuple(int(i) for i in indices)
    if any(not 0 <= i < nvars for i in out):
        raise ValueError("index out of range")
    if any(out[k] >= out[k + 1] for k in range(len(out) - 1)):
        raise ValueError("indices must be strictly increasing")
    return out


class Superform(_Terms):
    __slots__ = ()

    @staticmethod
    def _key(nvars: int, raw) -> Key:
        dpr, dsec = raw
        return (_as_index_tuple(dpr, nvars), _as_index_tuple(dsec, nvars))

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
                accumulate(acc, (sh_i[1], sh_j[1]), term if sign > 0 else -term)
        return self._made(acc)

    def d_prime(self) -> "Superform":
        acc: dict[Key, Poly] = {}
        for (dpr, dsec), f in self.terms.items():
            for i in range(self.nvars):
                g = f.derivative(i)
                if g.is_zero():
                    continue
                sh = shuffle_sign((i,), dpr)
                if sh is None:
                    continue
                sign, merged = sh
                accumulate(acc, (merged, dsec), g if sign > 0 else -g)
        return self._made(acc)

    def d_second(self) -> "Superform":
        # the new d'' factor crosses the whole d' block, hence the (-1)^p
        acc: dict[Key, Poly] = {}
        for (dpr, dsec), f in self.terms.items():
            lead = -1 if len(dpr) % 2 else 1
            for i in range(self.nvars):
                g = f.derivative(i)
                if g.is_zero():
                    continue
                sh = shuffle_sign((i,), dsec)
                if sh is None:
                    continue
                sign, merged = sh
                accumulate(acc, (dpr, merged), g if lead * sign > 0 else -g)
        return self._made(acc)

    def flip(self) -> "Superform":
        """Swap the two blocks wholesale; costs (-1)^(p*q) per monomial."""
        acc: dict[Key, Poly] = {}
        for (dpr, dsec), f in self.terms.items():
            sign = -1 if (len(dpr) * len(dsec)) % 2 else 1
            accumulate(acc, (dsec, dpr), f if sign > 0 else -f)
        return self._made(acc)

    def monodromy(self) -> "Superform":
        """Trade one d' factor for the matching d'' factor, summed over the
        d' block.  Undefined when a (0,q) component is present."""
        acc: dict[Key, Poly] = {}
        for (dpr, dsec), f in self.terms.items():
            p = len(dpr)
            if p == 0:
                raise ValueError("monodromy is undefined on (0,q) components")
            for k in range(p):
                sh = shuffle_sign((dpr[k],), dsec)
                if sh is None:
                    continue
                sign, merged = sh
                if (p - 1 - k) % 2:
                    sign = -sign
                reduced = dpr[:k] + dpr[k + 1:]
                accumulate(acc, (reduced, merged), f if sign > 0 else -f)
        return self._made(acc)

    def to_json_obj(self) -> list[dict]:
        out = []
        for dpr, dsec in sorted(self.terms):
            out.append({
                "dprime": [i + 1 for i in dpr],
                "dsecond": [i + 1 for i in dsec],
                "coeff": self.terms[(dpr, dsec)].to_json_obj(),
            })
        return out

    @classmethod
    def from_json_obj(cls, nvars: int, data: Sequence[Mapping]) -> "Superform":
        terms = []
        for entry in data:
            dpr = tuple(int(i) - 1 for i in entry["dprime"])
            dsec = tuple(int(i) - 1 for i in entry["dsecond"])
            terms.append(((dpr, dsec), Poly.from_json_obj(nvars, entry["coeff"])))
        return cls(nvars, terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "Superform(0)"
        bits = []
        for dpr, dsec in sorted(self.terms):
            factors = [f"d'x{i + 1}" for i in dpr] + [f"d''x{i + 1}" for i in dsec]
            label = "^".join(factors) if factors else "1"
            bits.append(f"({self.terms[(dpr, dsec)]!r}) {label}")
        return " + ".join(bits)


class AffineMap:
    """x = A y + b from R^(source) to R^(target); A is target x source."""

    __slots__ = ("matrix", "translation")

    def __init__(self, matrix: QMatrix, translation: Sequence = None):
        if translation is None:
            translation = [0] * matrix.nrows
        translation = tuple(as_fraction(x) for x in translation)
        if len(translation) != matrix.nrows:
            raise ValueError("translation length must match the target dimension")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "translation", translation)

    def __setattr__(self, name, value):
        raise AttributeError("AffineMap is immutable")

    @property
    def source_dim(self) -> int:
        return self.matrix.ncols

    @property
    def target_dim(self) -> int:
        return self.matrix.nrows

    def pullback(self, omega: Superform) -> "Superform":
        if omega.nvars != self.target_dim:
            raise ValueError("form does not live on the target space")
        n2 = self.source_dim
        subs = [Poly.affine(n2, self.matrix.row(i), self.translation[i])
                for i in range(self.target_dim)]
        pulled_prime: dict[int, Superform] = {}
        pulled_second: dict[int, Superform] = {}
        total = Superform.zero(n2)
        for (dpr, dsec), f in omega.terms.items():
            if n2 == 0:
                if dpr or dsec:
                    continue
                acc = Superform(0, {((), ()): Poly.const(0, f.eval_point(self.translation))})
                total = total + acc
                continue
            acc = Superform(n2, {((), ()): f.eval_poly(subs)})
            for i in dpr:
                if i not in pulled_prime:
                    row = self.matrix.row(i)
                    pulled_prime[i] = Superform(
                        n2, {((j,), ()): Poly.const(n2, row[j])
                             for j in range(n2) if row[j]})
                acc = acc.wedge(pulled_prime[i])
                if acc.is_zero():
                    break
            else:
                for j in dsec:
                    if j not in pulled_second:
                        row = self.matrix.row(j)
                        pulled_second[j] = Superform(
                            n2, {((), (k,)): Poly.const(n2, row[k])
                                 for k in range(n2) if row[k]})
                    acc = acc.wedge(pulled_second[j])
                    if acc.is_zero():
                        break
                total = total + acc
        return total
