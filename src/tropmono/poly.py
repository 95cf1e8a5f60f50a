"""Sparse multivariate polynomials over the rationals.

A Poly is a map from exponent tuples (one slot per variable) to nonzero
Fraction coefficients.  The class is closed under the operations the rest of
the package needs: ring arithmetic, partial derivatives, substitution of
polynomials for variables, and exact integration of the last variable over
the unit interval.

The same immutable sparse container also carries Superform (forms) and
SimplexForm (simplex): the private base _Terms owns construction, addition,
negation, scaling, equality and hashing, and accumulate() is the one
zero-dropping sum into a term dict.  Each subclass supplies only its key and
coefficient checks and its own operations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .linalg import as_fraction, rat_str


def accumulate(acc: dict, key, value):
    """Add value into acc[key]; a key whose sum is zero is dropped."""
    prev = acc.get(key)
    total = value if prev is None else prev + value
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


class _Terms:
    """Immutable sparse map from keys to nonzero coefficients, tied to a
    number of variables: the container under Poly, Superform and
    SimplexForm.  The constructor validates raw input through the
    subclass's _key and _coeff; _made wraps a dict that is already clean.
    The default _coeff accepts Poly coefficients in the same ring."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping = ()):
        cleaned: dict = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for raw, coeff in items:
            accumulate(cleaned, self._key(nvars, raw), self._coeff(nvars, coeff))
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", cleaned)

    @staticmethod
    def _coeff(nvars: int, coeff: "Poly") -> "Poly":
        if coeff.nvars != nvars:
            raise ValueError("coefficient lives in the wrong ring")
        return coeff

    def _made(self, terms: dict):
        """Same class and variable count; terms must be valid and nonzero."""
        out = type(self).__new__(type(self))
        object.__setattr__(out, "nvars", self.nvars)
        object.__setattr__(out, "terms", terms)
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, nvars: int):
        return cls(nvars)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _check(self, other):
        if type(other) is not type(self) or other.nvars != self.nvars:
            raise ValueError("mixed variable counts")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            accumulate(terms, key, coeff)
        return self._made(terms)

    def __neg__(self):
        return self._made({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        c = as_fraction(scalar)
        if not c:
            return self._made({})
        return self._made({k: v * c for k, v in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))


class Poly(_Terms):
    __slots__ = ()

    @staticmethod
    def _key(nvars: int, exps) -> tuple[int, ...]:
        exps = tuple(int(e) for e in exps)
        if len(exps) != nvars:
            raise ValueError("exponent tuple has wrong length")
        if any(e < 0 for e in exps):
            raise ValueError("negative exponent")
        return exps

    @staticmethod
    def _coeff(nvars: int, coeff) -> Fraction:
        return as_fraction(coeff)

    @classmethod
    def const(cls, nvars: int, value) -> "Poly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        if not 0 <= i < nvars:
            raise ValueError("variable index out of range")
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {exps: 1})

    @classmethod
    def affine(cls, nvars: int, coeffs: Sequence, constant=0) -> "Poly":
        """constant + sum(coeffs[i] * x_i)."""
        if len(coeffs) != nvars:
            raise ValueError("coefficient list has wrong length")
        terms = {(0,) * nvars: as_fraction(constant)}
        for i, c in enumerate(coeffs):
            exps = tuple(1 if j == i else 0 for j in range(nvars))
            terms[exps] = as_fraction(c)
        return cls(nvars, terms)

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return super().__mul__(other)
        self._check(other)
        terms: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                accumulate(terms, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return self._made(terms)

    def derivative(self, i: int) -> "Poly":
        if not 0 <= i < self.nvars:
            raise ValueError("variable index out of range")
        # lowering a positive exponent is injective, so no terms collide
        return self._made({exps[:i] + (exps[i] - 1,) + exps[i + 1:]: c * exps[i]
                           for exps, c in self.terms.items() if exps[i]})

    def eval_poly(self, args: Sequence["Poly"]) -> "Poly":
        """Substitute args[i] for variable i; args live in a common ring."""
        if len(args) != self.nvars:
            raise ValueError("need one substitute per variable")
        if not args:
            raise ValueError("eval_poly needs a target ring; use constant_value")
        target = args[0].nvars
        if any(a.nvars != target for a in args):
            raise ValueError("substitutes live in different rings")
        powers: list[list[Poly]] = [[Poly.const(target, 1)] for _ in args]
        out = Poly.zero(target)
        for exps, c in self.terms.items():
            term = Poly.const(target, c)
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                while len(powers[i]) <= e:
                    powers[i].append(powers[i][-1] * args[i])
                term = term * powers[i][e]
            out = out + term
        return out

    def eval_point(self, point: Sequence) -> Fraction:
        vals = [as_fraction(x) for x in point]
        if len(vals) != self.nvars:
            raise ValueError("point has wrong length")
        total = Fraction(0)
        for exps, c in self.terms.items():
            prod = c
            for x, e in zip(vals, exps):
                prod *= x ** e
            total += prod
        return total

    def integrate_last_unit(self) -> "Poly":
        """Integrate the last variable over [0, 1] and drop it."""
        if self.nvars == 0:
            raise ValueError("no variable to integrate")
        terms: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.terms.items():
            accumulate(terms, exps[:-1], c / (exps[-1] + 1))
        return Poly(self.nvars - 1, terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for exps in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            c = self.terms[exps]
            mono = "*".join(f"x{i}^{e}" if e > 1 else f"x{i}"
                            for i, e in enumerate(exps) if e)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)

    def to_json_obj(self) -> dict[str, str]:
        out = {}
        for exps in sorted(self.terms):
            out[",".join(str(e) for e in exps)] = rat_str(self.terms[exps])
        return out

    @classmethod
    def from_json_obj(cls, nvars: int, obj: Mapping[str, str]) -> "Poly":
        terms = {}
        for key, val in obj.items():
            exps = tuple(int(p) for p in key.split(",")) if key else ()
            terms[exps] = as_fraction(val)
        return cls(nvars, terms)
