"""Differential forms on the standard simplex and star-shaped integration.

The simplex with n+1 vertices sits inside R^(n+1) as the locus sum(x) = 1,
x >= 0.  Forms are stored as ambient polynomial forms; two ambient forms are
the same form on the simplex when they differ by a multiple of (sum(x) - 1)
or by d(sum(x)) wedge anything.  Substituting the pivot coordinate away
(x_pivot = 1 - rest, dx_pivot = -sum of the rest) produces a normal form in
the surviving coordinates, so equality on the simplex is decidable by
comparing canonical representatives.  A SimplexForm stores its terms in the
shared sparse container of poly (keys are index tuples, coefficients Poly),
but == and hash compare on the simplex, through canonical(); raw_equal and
is_zero_raw compare the stored terms.

Integration along rays from a base point is exact: coefficients stay
polynomial with rational coefficients throughout.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from .linalg import as_fraction, shuffle_sign
from .poly import Poly, _Terms, accumulate

IndexTuple = tuple[int, ...]


class SimplexContext:
    """Vertex bookkeeping for the simplex with vertices e_0 .. e_n."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("need n >= 0")
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError("SimplexContext is immutable")

    def barycenter(self, subset: Sequence[int]) -> tuple[Fraction, ...]:
        subset = _subset(subset, self.n)
        if not subset:
            raise ValueError("barycenter of the empty face")
        w = Fraction(1, len(subset))
        return tuple(w if i in subset else Fraction(0)
                     for i in range(self.n + 1))


def _subset(indices: Sequence[int], n: int) -> IndexTuple:
    out = tuple(int(i) for i in indices)
    if any(not 0 <= i <= n for i in out):
        raise ValueError("vertex index out of range")
    if any(out[k] >= out[k + 1] for k in range(len(out) - 1)):
        raise ValueError("indices must be strictly increasing")
    return out


class SimplexForm(_Terms):
    """Ambient polynomial form on R^(n+1), considered up to the simplex
    relation.  Terms map strictly increasing index tuples to Poly
    coefficients in the n+1 ambient variables."""

    __slots__ = ()

    @staticmethod
    def _key(nvars: int, raw) -> IndexTuple:
        return _subset(raw, nvars - 1)

    @classmethod
    def monomial(cls, nvars: int, indices: Sequence[int], coeff) -> "SimplexForm":
        if not isinstance(coeff, Poly):
            coeff = Poly.const(nvars, coeff)
        return cls(nvars, {tuple(indices): coeff})

    def degrees(self) -> set[int]:
        return {len(k) for k in self.terms}

    # comparisons of the stored terms; ==, hash and is_zero_on_simplex
    # compare on the simplex instead
    raw_equal = _Terms.__eq__
    is_zero_raw = _Terms.is_zero

    def exterior_derivative(self) -> "SimplexForm":
        acc: dict[IndexTuple, Poly] = {}
        for indices, f in self.terms.items():
            for i in range(self.nvars):
                g = f.derivative(i)
                if g.is_zero():
                    continue
                sh = shuffle_sign((i,), indices)
                if sh is None:
                    continue
                sign, merged = sh
                accumulate(acc, merged, g if sign > 0 else -g)
        return self._made(acc)

    def contract(self, vector: Sequence) -> "SimplexForm":
        """Left interior product with a constant vector; degree-0 terms are
        rejected."""
        vals = [as_fraction(x) for x in vector]
        if len(vals) != self.nvars:
            raise ValueError("vector has wrong length")
        acc: dict[IndexTuple, Poly] = {}
        for indices, f in self.terms.items():
            if not indices:
                raise ValueError("cannot contract a degree-0 term")
            for k, ik in enumerate(indices):
                if not vals[ik]:
                    continue
                term = f * vals[ik]
                if k % 2:
                    term = -term
                accumulate(acc, indices[:k] + indices[k + 1:], term)
        return self._made(acc)

    def ray_integrate(self, base: Sequence) -> "SimplexForm":
        """Homotopy operator along straight rays from the base point:
        pull back along (x, t) -> base + t (x - base), contract with d/dt,
        then integrate t over [0, 1].  Exact, term by term.  A constant
        coefficient c on an r-form needs no substitution: its integral is
        (c / r) times the contraction with x - base."""
        base_vals = [as_fraction(x) for x in base]
        if len(base_vals) != self.nvars:
            raise ValueError("base point has wrong length")
        n1 = self.nvars
        zero = (0,) * n1
        subs = None
        acc: dict[IndexTuple, Poly] = {}
        for indices, f in self.terms.items():
            r = len(indices)
            if r == 0:
                raise ValueError("cannot integrate a degree-0 term")
            if f.is_constant():
                c = f.terms[zero] / r
                for k, ik in enumerate(indices):
                    ck = -c if k % 2 else c
                    piece = {zero[:ik] + (1,) + zero[ik + 1:]: ck}
                    if base_vals[ik]:
                        piece[zero] = -ck * base_vals[ik]
                    accumulate(acc, indices[:k] + indices[k + 1:], f._made(piece))
                continue
            if subs is None:
                # x_i -> base_i + t (x_i - base_i), in the ring with one
                # extra trailing variable t
                subs = [Poly(n1 + 1, {zero + (0,): b, zero + (1,): -b,
                                      zero[:i] + (1,) + zero[i + 1:] + (1,): 1})
                        for i, b in enumerate(base_vals)]
            g = f.eval_poly(subs) * Poly(n1 + 1, {zero + (r - 1,): 1})
            for k, ik in enumerate(indices):
                linear = Poly.affine(n1 + 1,
                                     [1 if j == ik else 0 for j in range(n1 + 1)],
                                     -base_vals[ik])
                piece = (g * linear).integrate_last_unit()
                if k % 2:
                    piece = -piece
                accumulate(acc, indices[:k] + indices[k + 1:], piece)
        return self._made(acc)

    def star_integrate(self, base: Sequence) -> "SimplexForm":
        """Ray integration from a point of the simplex hyperplane (the
        star-shaped homotopy); requires the coordinates of the base to sum
        to 1."""
        base_vals = [as_fraction(x) for x in base]
        if sum(base_vals, Fraction(0)) != 1:
            raise ValueError("base point must lie on the simplex hyperplane")
        return self.ray_integrate(base_vals)

    def reduce_to_face(self, face: Sequence[int]) -> "SimplexForm":
        """Normal form on the face spanned by the given vertices: kill the
        coordinates off the face, then eliminate the smallest face vertex via
        the face relation sum_(j in face) x_j = 1."""
        face = _subset(face, self.nvars - 1)
        if not face:
            raise ValueError("empty face")
        return self._normalize(face, face[0])

    def canonical(self, pivot: int = 0) -> "SimplexForm":
        """Normal form on the whole simplex, eliminating the pivot."""
        return self._normalize(tuple(range(self.nvars)), pivot)

    def _normalize(self, keep: IndexTuple, pivot: int) -> "SimplexForm":
        if pivot not in keep:
            raise ValueError("pivot must belong to the face")
        n1 = self.nvars
        keep_set = set(keep)
        others = [j for j in keep if j != pivot]
        subs = None
        acc: dict[IndexTuple, Poly] = {}
        for indices, f in self.terms.items():
            if any(i not in keep_set for i in indices):
                continue
            if f.is_constant():
                f2 = f  # a constant is its own image
            else:
                if subs is None:
                    subs = [Poly.variable(n1, j) if j in keep_set
                            else Poly.zero(n1) for j in range(n1)]
                    subs[pivot] = Poly.affine(
                        n1, [-1 if k in others else 0 for k in range(n1)], 1)
                f2 = f.eval_poly(subs)
                if f2.is_zero():
                    continue
            if pivot not in indices:
                accumulate(acc, indices, f2)
                continue
            k = indices.index(pivot)
            rest = indices[:k] + indices[k + 1:]
            # dx_pivot = -sum of the other face differentials
            lead = -1 if k % 2 == 0 else 1
            for j in others:
                sh = shuffle_sign((j,), rest)
                if sh is None:
                    continue
                sign, merged = sh
                accumulate(acc, merged, f2 * (lead * sign))
        return self._made(acc)

    def equal_on_simplex(self, other: "SimplexForm") -> bool:
        if self.nvars != other.nvars:
            return False
        return self.canonical().terms == other.canonical().terms

    def is_zero_on_simplex(self) -> bool:
        return not self.canonical().terms

    def is_constant_on_simplex(self) -> bool:
        return all(f.is_constant() for f in self.canonical().terms.values())

    def constant_value(self) -> Fraction:
        """Value of a degree-0 form that is constant on the simplex."""
        canon = self.canonical()
        if not canon.terms:
            return Fraction(0)
        if set(canon.terms) != {()} or not canon.terms[()].is_constant():
            raise ValueError("form is not a constant function on the simplex")
        return canon.terms[()].constant_value()

    def __eq__(self, other) -> bool:
        return isinstance(other, SimplexForm) and self.equal_on_simplex(other)

    def __hash__(self):
        return _Terms.__hash__(self.canonical())

    def __repr__(self) -> str:
        if not self.terms:
            return "SimplexForm(0)"
        bits = []
        for indices in sorted(self.terms):
            label = "^".join(f"dx{i}" for i in indices) if indices else "1"
            bits.append(f"({self.terms[indices]!r}) {label}")
        return " + ".join(bits)

    def to_json_obj(self) -> list[dict]:
        return [{"indices": list(k), "coeff": self.terms[k].to_json_obj()}
                for k in sorted(self.terms)]


class SimplexCochain:
    """Assignment of values to all vertex subsets of a fixed size r+1.

    Values must support +, unary -, and scalar multiplication; in practice
    they are SimplexForm or Fraction.
    """

    __slots__ = ("n", "degree", "values")

    def __init__(self, n: int, degree: int, values: Mapping[IndexTuple, object]):
        if not 0 <= degree <= n:
            raise ValueError("cochain degree out of range")
        expected = set(itertools.combinations(range(n + 1), degree + 1))
        keys = {_subset(k, n) for k in values}
        if keys != expected:
            raise ValueError("cochain must assign a value to every subset "
                             f"of size {degree + 1}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "values", {_subset(k, n): v for k, v in values.items()})

    def __setattr__(self, name, value):
        raise AttributeError("SimplexCochain is immutable")

    @classmethod
    def build(cls, n: int, degree: int, fn: Callable[[IndexTuple], object]) -> "SimplexCochain":
        return cls(n, degree, {J: fn(J)
                               for J in itertools.combinations(range(n + 1), degree + 1)})

    def __getitem__(self, subset: Sequence[int]) -> object:
        return self.values[_subset(subset, self.n)]

    def map_values(self, fn: Callable[[IndexTuple, object], object]) -> "SimplexCochain":
        return SimplexCochain(self.n, self.degree,
                              {k: fn(k, v) for k, v in self.values.items()})

    def coboundary(self) -> "SimplexCochain":
        """Alternating sum over facets: (dc)(J) = sum_j (-1)^j c(J minus its
        j-th smallest element)."""
        if self.degree == self.n:
            raise ValueError("no subsets above the top degree")
        out = {}
        for J in itertools.combinations(range(self.n + 1), self.degree + 2):
            total = None
            for j in range(len(J)):
                v = self.values[J[:j] + J[j + 1:]]
                if j % 2:
                    v = -v
                total = v if total is None else total + v
            out[J] = total
        return SimplexCochain(self.n, self.degree + 1, out)


def integrate_cochain(ctx: SimplexContext, cochain: SimplexCochain) -> SimplexCochain:
    """Star-integrate each value at the barycenter of its own subset."""
    return cochain.map_values(
        lambda J, form: form.star_integrate(ctx.barycenter(J)))


def beta_recursion(ctx: SimplexContext, beta: SimplexForm, p: int) -> list[SimplexCochain]:
    """Iterated integrate-then-coboundary tower over a constant p-form.

    Returns the cochains of degrees 0..p.  The degree-0 cochain repeats the
    input; the top one is converted to rational numbers (its values are
    constant functions).
    """
    n = ctx.n
    if not 1 <= p <= n:
        raise ValueError("need 1 <= p <= n")
    if beta.nvars != n + 1:
        raise ValueError("form does not live on this simplex")
    if beta.degrees() not in ({p}, set()):
        raise ValueError("form must be homogeneous of the stated degree")
    if not beta.is_constant_on_simplex():
        raise ValueError("form must have constant coefficients on the simplex")
    chain = [SimplexCochain.build(n, 0, lambda J: beta)]
    for _ in range(p):
        chain.append(integrate_cochain(ctx, chain[-1]).coboundary())
    top = chain[p].map_values(lambda J, form: form.constant_value())
    chain[p] = top
    return chain


def star_closed_form(ctx: SimplexContext, beta: SimplexForm, p: int, r: int,
                     subset: Sequence[int]) -> SimplexForm:
    """Direct contraction formula for the degree-r stage of the tower at one
    subset: alternating sum over omitted barycenters of iterated contractions,
    scaled by (-1)^r over the falling factorial p (p-1) ... (p-r+1)."""
    n = ctx.n
    if not 0 <= r <= p:
        raise ValueError("need 0 <= r <= p")
    subset = _subset(subset, n)
    if len(subset) != r + 1:
        raise ValueError("subset size must be r + 1")
    if r == 0:
        return beta
    total: Optional[SimplexForm] = None
    for j in range(r + 1):
        omitted = subset[:j] + subset[j + 1:]
        piece = beta
        for idx in reversed(omitted):
            piece = piece.contract(ctx.barycenter((idx,)))
        if j % 2:
            piece = -piece
        total = piece if total is None else total + piece
    falling = 1
    for k in range(r):
        falling *= (p - k)
    return total * Fraction((-1) ** r, falling)
