"""Sparse multivariate polynomials over the rationals.

A Poly is a map from exponent tuples (one slot per variable) to nonzero
Fraction coefficients.  The class is closed under the operations the rest of
the package needs: ring arithmetic, partial derivatives, substitution of
polynomials for variables, and exact integration of the last variable over
the unit interval.

The same sparse container also carries Superform (forms) and SimplexForm
(simplex): the private base _Terms, immutable through linalg's _Frozen (no
assignment, no deletion), owns construction, addition, negation, scaling,
and the one equality and hash of all three, on the stored terms (SimplexForm
compares on the simplex only by name).  _accumulate() is the one
zero-dropping sum into a term dict and _derivative() the one exterior
derivative loop (one walk over each coefficient; no operator calls the
public Poly.derivative).  Each subclass supplies only its key and
coefficient checks and its own operations.  Validation happens once, where
outside input enters: Poly(...), Superform(...) and SimplexForm(...) check
every key and coefficient, while code that builds clean terms itself
(operators, const/variable/affine, substitution, randgen) wraps them
unchecked through the one trusted route, _made.
"""

from __future__ import annotations

from bisect import bisect
from collections.abc import Mapping, Sequence
from fractions import Fraction
from operator import add
from types import MappingProxyType

from .linalg import _Frozen, as_fraction


def _index_tuple(indices, size: int) -> tuple[int, ...]:
    """The indices as a tuple of ints, each in range(size), strictly
    increasing: the key check of forms and simplex faces."""
    out = tuple(indices)
    if any(type(i) is not int for i in out):
        raise ValueError("indices must be ints")
    if any(not 0 <= i < size for i in out):
        raise ValueError("index out of range")
    if any(out[k] >= out[k + 1] for k in range(len(out) - 1)):
        raise ValueError("indices must be strictly increasing")
    return out


def _accumulate(acc: dict, key, value):
    """Add value into acc[key]; a key whose sum is zero is dropped."""
    prev = acc.get(key)
    total = value if prev is None else prev + value
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


def _derivative(form, block, crossed=None):
    """d of a container: each f dx_K gains sum_i (df/dx_i) dx_i, dx_i shuffled
    into the block of K at position block (None: K) past crossed(K) factors."""
    acc: dict = {}
    for key, f in form.terms.items():
        indices = key if block is None else key[block]
        partials: dict = {}  # df/dx_i for each i, from one walk over f
        for exps, c in f.terms.items():
            for i, e in enumerate(exps):
                if e and i not in indices:
                    # lowering a positive exponent is injective: no collisions
                    lowered = exps[:i] + (e - 1,) + exps[i + 1:]
                    partials.setdefault(i, {})[lowered] = c if e == 1 else c * e
        lead = crossed(key) if crossed is not None else 0
        for i in sorted(partials):
            g = f._made(f.nvars, partials[i])
            # dx_i moves past the k indices of K below it
            k = bisect(indices, i)
            merged = indices[:k] + (i,) + indices[k:]
            if block is not None:
                merged = key[:block] + (merged,) + key[block + 1:]
            _accumulate(acc, merged, -g if (lead + k) % 2 else g)
    return form._made(form.nvars, acc)


class _Terms(_Frozen):
    """Immutable sparse map from keys to nonzero coefficients, tied to a
    number of variables: the container under Poly, Superform and
    SimplexForm.  The constructor validates raw input through the
    subclass's _key and _coeff; _made wraps a dict that is already clean.
    The default _coeff accepts Poly coefficients in the same ring."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping = MappingProxyType({})):
        cleaned: dict = {}
        for raw, coeff in terms.items():
            _accumulate(cleaned, self._key(nvars, raw), self._coeff(nvars, coeff))
        _set_nvars(self, nvars)
        _set_terms(self, cleaned)

    @staticmethod
    def _coeff(nvars: int, coeff: "Poly") -> "Poly":
        if coeff.nvars != nvars:
            raise ValueError("coefficient lives in the wrong ring")
        return coeff

    @classmethod
    def _made(cls, nvars: int, terms: dict):
        """The trusted route: wraps terms unchecked, so its keys must be
        valid and its coefficients nonzero.  The slots' own setters (bound
        once, below) fill it past _Frozen, which refuses every assignment."""
        out = cls.__new__(cls)
        _set_nvars(out, nvars)
        _set_terms(out, terms)
        return out

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
            _accumulate(terms, key, coeff)
        return self._made(self.nvars, terms)

    def __neg__(self):
        return self._made(self.nvars, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        c = as_fraction(scalar)
        if not c:
            return self._made(self.nvars, {})
        return self._made(self.nvars, {k: v * c for k, v in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))


_set_nvars, _set_terms = _Terms.nvars.__set__, _Terms.terms.__set__


class Poly(_Terms):
    __slots__ = ()

    @staticmethod
    def _key(nvars: int, exps) -> tuple[int, ...]:
        exps = tuple(exps)
        if any(type(e) is not int for e in exps):
            raise ValueError("exponents must be ints")
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
        c = as_fraction(value)
        return cls._made(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        if type(i) is not int or not 0 <= i < nvars:
            raise ValueError("variable index out of range")
        zero = (0,) * nvars
        return cls._made(nvars, {zero[:i] + (1,) + zero[i + 1:]: Fraction(1)})

    @classmethod
    def affine(cls, nvars: int, coeffs: Sequence, constant=0) -> "Poly":
        """constant + sum(coeffs[i] * x_i)."""
        if len(coeffs) != nvars:
            raise ValueError("coefficient list has wrong length")
        zero = (0,) * nvars
        keys = [zero] + [zero[:i] + (1,) + zero[i + 1:] for i in range(nvars)]
        values = [as_fraction(c) for c in (constant, *coeffs)]
        return cls._made(nvars, {k: c for k, c in zip(keys, values) if c})

    def is_constant(self) -> bool:
        return not any(map(any, self.terms))

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
                _accumulate(terms, tuple(map(add, e1, e2)), c1 * c2)
        return self._made(self.nvars, terms)

    def derivative(self, i: int) -> "Poly":
        if type(i) is not int or not 0 <= i < self.nvars:
            raise ValueError("variable index out of range")
        # lowering a positive exponent is injective, so no terms collide
        return self._made(self.nvars, {
            exps[:i] + (exps[i] - 1,) + exps[i + 1:]: c * exps[i]
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
        # powers[i][e - 1] is args[i] ** e, built as exponents call for it
        powers: list[list[Poly]] = [[a] for a in args]
        zero = (0,) * target
        acc: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.terms.items():
            term = None
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                while len(powers[i]) < e:
                    powers[i].append(powers[i][-1] * args[i])
                term = powers[i][e - 1] if term is None else term * powers[i][e - 1]
            for key, v in (term.terms if term is not None else {zero: 1}).items():
                _accumulate(acc, key, v * c)
        return Poly._made(target, acc)

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
            _accumulate(terms, exps[:-1], c / (exps[-1] + 1))
        return self._made(self.nvars - 1, terms)

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
            out[",".join(str(e) for e in exps)] = str(self.terms[exps])
        return out
