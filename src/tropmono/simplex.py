"""Differential forms on the standard simplex and star-shaped integration.

The simplex with n+1 vertices sits inside R^(n+1) as the locus sum(x) = 1,
x >= 0.  Forms are stored as ambient polynomial forms; two ambient forms are
the same form on the simplex when they differ by a multiple of (sum(x) - 1)
or by d(sum(x)) wedge anything.  Substituting the pivot coordinate away
(x_pivot = 1 - rest, dx_pivot = -sum of the rest) produces a normal form in
the surviving coordinates, so equality on the simplex is decidable by
comparing canonical representatives: equal_on_simplex and
is_zero_on_simplex.  A SimplexForm stores its terms in the shared sparse
container of poly (keys are index tuples, coefficients Poly), and ==, hash,
is_zero() and bool() read those stored terms, as for Poly and Superform.

Integration along rays from a base point is exact: coefficients stay
polynomial with rational coefficients throughout.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect
from fractions import Fraction
from typing import Callable, Sequence

from .linalg import _Frozen, as_fraction
from .poly import Poly, _accumulate, _derivative, _index_tuple, _Terms

IndexTuple = tuple[int, ...]


class SimplexContext(_Frozen):
    """Vertex bookkeeping for the simplex with vertices e_0 .. e_n, with
    the memos of its barycenters and of its basis towers (tower_top)."""

    __slots__ = ("n", "_points", "_tops")

    def __init__(self, n: int):
        if type(n) is not int or n < 0:
            raise ValueError("need an int n >= 0")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_points", {})
        object.__setattr__(self, "_tops", {})

    def barycenter(self, subset: Sequence[int]) -> tuple[Fraction, ...]:
        subset = _index_tuple(subset, self.n + 1)
        if not subset:
            raise ValueError("barycenter of the empty face")
        return self._point(subset)

    def _point(self, subset: IndexTuple) -> tuple[Fraction, ...]:
        """The barycenter of a nonempty increasing subset of range(n + 1)
        that the caller built or checked, made once per context."""
        point = self._points.get(subset)
        if point is None:
            w, zero = Fraction(1, len(subset)), Fraction(0)
            point = tuple(w if i in subset else zero for i in range(self.n + 1))
            self._points[subset] = point
        return point


class SimplexForm(_Terms):
    """Ambient polynomial form on R^(n+1), considered up to the simplex
    relation.  Terms map strictly increasing index tuples to Poly
    coefficients in the n+1 ambient variables.  ==, hash, is_zero() and
    bool() read the stored terms; equal_on_simplex and is_zero_on_simplex
    compare on the simplex."""

    __slots__ = ()

    @staticmethod
    def _key(nvars: int, raw) -> IndexTuple:
        return _index_tuple(raw, nvars)

    @classmethod
    def monomial(cls, nvars: int, indices: Sequence[int], coeff) -> "SimplexForm":
        if not isinstance(coeff, Poly):
            coeff = Poly.const(nvars, coeff)
        return cls(nvars, {tuple(indices): coeff})

    def degrees(self) -> set[int]:
        return {len(k) for k in self.terms}

    def exterior_derivative(self) -> "SimplexForm":
        return _derivative(self, None)

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
                _accumulate(acc, indices[:k] + indices[k + 1:], term)
        return self._made(self.nvars, acc)

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
                    _accumulate(acc, indices[:k] + indices[k + 1:],
                                Poly._made(f.nvars, piece))
                continue
            if subs is None:
                # x_i -> base_i + t (x_i - base_i), in the ring with one
                # extra trailing variable t
                subs = [Poly(n1 + 1, {zero + (0,): b, zero + (1,): -b,
                                      zero[:i] + (1,) + zero[i + 1:] + (1,): 1})
                        for i, b in enumerate(base_vals)]
            g = f.eval_poly(subs) * Poly(n1 + 1, {zero + (r - 1,): 1})
            g = g.integrate_last_unit()  # each x_ik - base_ik is free of t
            for k, ik in enumerate(indices):
                piece = g * Poly.affine(n1, zero[:ik] + (1,) + zero[ik + 1:],
                                        -base_vals[ik])
                if k % 2:
                    piece = -piece
                _accumulate(acc, indices[:k] + indices[k + 1:], piece)
        return self._made(self.nvars, acc)

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
        face = _index_tuple(face, self.nvars)
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
        whole = len(keep) == n1
        others = [j for j in keep if j != pivot]
        subs = None
        acc: dict[IndexTuple, Poly] = {}
        for indices, f in self.terms.items():
            if not whole and any(i not in keep_set for i in indices):
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
                _accumulate(acc, indices, f2)
                continue
            k = indices.index(pivot)
            rest = indices[:k] + indices[k + 1:]
            # dx_pivot = -sum of the other face differentials; dx_j leaves
            # position k and enters rest at m = bisect(rest, j): (-1)^(k+m+1)
            neg = -f2
            for j in others:
                if j in rest:
                    continue
                m = bisect(rest, j)
                _accumulate(acc, rest[:m] + (j,) + rest[m:],
                            f2 if (k + m) % 2 else neg)
        return self._made(self.nvars, acc)

    def equal_on_simplex(self, other: "SimplexForm") -> bool:
        return self.canonical() == other.canonical()

    def is_zero_on_simplex(self) -> bool:
        return self.canonical().is_zero()

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


class SimplexCochain(_Frozen):
    """Values fn(J) on every vertex subset J of a fixed size r+1, made in
    itertools.combinations order: complete by construction, keyed by the
    increasing tuples it generated.  A cochain that is differentiated
    carries SimplexForms on its simplex; the top cochain of beta_recursion,
    whose values are Fractions, never is."""

    __slots__ = ("n", "degree", "values")

    def __init__(self, n: int, degree: int, fn: Callable[[IndexTuple], object]):
        if not 0 <= degree <= n:
            raise ValueError("cochain degree out of range")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "values", {
            J: fn(J) for J in itertools.combinations(range(n + 1), degree + 1)})

    def __getitem__(self, subset: Sequence[int]) -> object:
        return self.values[tuple(subset)]

    def map_values(self, fn: Callable[[IndexTuple, object], object]) -> "SimplexCochain":
        return SimplexCochain(self.n, self.degree,
                              lambda J: fn(J, self.values[J]))

    def coboundary(self) -> "SimplexCochain":
        """Alternating sum over facets: (dc)(J) = sum_j (-1)^j c(J minus its
        j-th smallest element)."""
        if self.degree == self.n:
            raise ValueError("no subsets above the top degree")

        nvars = self.n + 1
        if any(type(v) is not SimplexForm or v.nvars != nvars
               for v in self.values.values()):
            raise ValueError("coboundary needs forms on this simplex")

        def value(J: IndexTuple) -> SimplexForm:
            acc: dict[IndexTuple, Poly] = {}
            for j in range(len(J)):
                for key, coeff in self.values[J[:j] + J[j + 1:]].terms.items():
                    _accumulate(acc, key, -coeff if j % 2 else coeff)
            return SimplexForm._made(nvars, acc)
        return SimplexCochain(self.n, self.degree + 1, value)


def integrate_cochain(ctx: SimplexContext, cochain: SimplexCochain) -> SimplexCochain:
    """Star-integrate each value at the barycenter of its own subset.  The
    points come from the context's memo and lie on the simplex hyperplane by
    construction, so each value is ray-integrated there directly."""
    if cochain.n != ctx.n:
        raise ValueError("cochain does not live on this simplex")
    return cochain.map_values(
        lambda J, form: form.ray_integrate(ctx._point(J)))


def _check_p_form(ctx: SimplexContext, beta: SimplexForm, p: int) -> None:
    """Refuse a form off this simplex, then one that is not a p-form."""
    if beta.nvars != ctx.n + 1:
        raise ValueError("form does not live on this simplex")
    if beta.degrees() not in ({p}, set()):
        raise ValueError("form must be homogeneous of the stated degree")


def _tower_input(ctx: SimplexContext, beta: SimplexForm, p: int) -> SimplexForm:
    """The canonical form of a tower's input, after its checks."""
    if not 1 <= p <= ctx.n:
        raise ValueError("need 1 <= p <= n")
    _check_p_form(ctx, beta, p)
    canon = beta.canonical()
    if not all(f.is_constant() for f in canon.terms.values()):
        raise ValueError("form must have constant coefficients on the simplex")
    return canon


def beta_recursion(ctx: SimplexContext, beta: SimplexForm, p: int) -> list[SimplexCochain]:
    """Iterated integrate-then-coboundary tower over a constant p-form.

    Returns the cochains of degrees 0..p.  The degree-0 cochain repeats the
    input; the top one is converted to rational numbers (its values are
    constant functions).
    """
    _tower_input(ctx, beta, p)
    chain = [SimplexCochain(ctx.n, 0, lambda J: beta)]
    for _ in range(p):
        chain.append(integrate_cochain(ctx, chain[-1]).coboundary())
    top = chain[p].map_values(lambda J, form: form.constant_value())
    chain[p] = top
    return chain


def tower_top(ctx: SimplexContext, beta: SimplexForm, p: int) -> SimplexCochain:
    """The top cochain of beta_recursion(ctx, beta, p), by linearity: beta's
    canonical form sum c_K dx_K gives sum c_K top(dx_K).  Each basis tower
    top(dx_K) runs through beta_recursion the first time some form of this
    context needs it, and is kept in the context."""
    tops = ctx._tops
    scaled = []
    for K, f in _tower_input(ctx, beta, p).terms.items():
        top = tops.get(K)
        if top is None:
            top = tops[K] = beta_recursion(
                ctx, SimplexForm.monomial(ctx.n + 1, K, 1), p)[p]
        scaled.append((f.constant_value(), top.values))
    return SimplexCochain(ctx.n, p, lambda J: sum(
        (c * values[J] for c, values in scaled), Fraction(0)))


def star_closed_form(ctx: SimplexContext, beta: SimplexForm, p: int, r: int,
                     subset: Sequence[int]) -> SimplexForm:
    """Direct formula for the degree-r stage of the tower at one subset: the
    alternating sum over j of beta contracted with the subset minus its j-th
    vertex, largest vertex first, scaled by (-1)^r / p (p-1) ... (p-r+1).
    Contracting f dx_K with the vertices O is an index pick: (-1)^(sum of
    the positions of O in K) f dx_(K minus O) when O lies in K, else 0."""
    n = ctx.n
    if not 0 <= r <= p:
        raise ValueError("need 0 <= r <= p")
    subset = _index_tuple(subset, n + 1)
    if len(subset) != r + 1:
        raise ValueError("subset size must be r + 1")
    _check_p_form(ctx, beta, p)
    acc: dict[IndexTuple, Poly] = {}
    for indices, f in beta.terms.items():
        for j in range(r + 1):
            omitted = subset[:j] + subset[j + 1:]
            pos = [k for k, i in enumerate(indices) if i in omitted]
            if len(pos) == r:
                rest = tuple(i for i in indices if i not in omitted)
                _accumulate(acc, rest, -f if (j + sum(pos)) % 2 else f)
    return SimplexForm._made(n + 1, acc) * Fraction((-1) ** r, math.perm(p, r))
