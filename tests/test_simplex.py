import itertools
import math
import os
import random
import sys
from fractions import Fraction

import pytest

from conftest import json_digest, sort_sign
from tropmono import simplex
from tropmono.order_map import dolbeault_ladder
from tropmono.poly import Poly, _Terms
from tropmono.randgen import (rand_constant_simplex_form, rand_fraction,
                              rand_hyperplane_point, rand_point,
                              rand_poly_simplex_form)
from tropmono.simplex import (SimplexCochain, SimplexContext, SimplexForm,
                              beta_recursion, integrate_cochain,
                              star_closed_form, tower_top)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench"))

import fixtures  # noqa: E402


def du(nvars, indices, coeff=1):
    return SimplexForm.monomial(nvars, indices, Poly.const(nvars, coeff))


def contract_oracle(form: SimplexForm, vector) -> SimplexForm:
    """Interior product computed directly from the alternating definition."""
    out = SimplexForm.zero(form.nvars)
    for indices, f in form.terms.items():
        for j, idx in enumerate(indices):
            coeff = f * Fraction(vector[idx]) * (-1) ** j
            rest = indices[:j] + indices[j + 1:]
            out = out + SimplexForm(form.nvars, {rest: coeff})
    return out


def test_contract_matches_alternating_oracle():
    rng = random.Random(30)
    for _ in range(150):
        n1 = rng.randint(2, 5)
        deg = rng.randint(1, n1)
        form = rand_poly_simplex_form(rng, n1, deg)
        v = rand_point(rng, n1)
        assert form.contract(v) == contract_oracle(form, v)


def test_contract_twice_vanishes():
    rng = random.Random(31)
    for _ in range(80):
        n1 = rng.randint(2, 5)
        deg = rng.randint(2, n1)
        form = rand_poly_simplex_form(rng, n1, deg)
        v = rand_point(rng, n1)
        assert form.contract(v).contract(v).is_zero()


def test_exterior_derivative_squares_to_zero():
    rng = random.Random(32)
    for _ in range(80):
        n1 = rng.randint(2, 4)
        deg = rng.randint(0, n1 - 2)
        form = rand_poly_simplex_form(rng, n1, deg)
        assert form.exterior_derivative().exterior_derivative().is_zero()


def test_ray_integration_difference_identity():
    # I_Q(a) - I_O(a) = -(1/r) <Q, a> for constant r-forms, raw equality
    rng = random.Random(33)
    origin = lambda n1: [0] * n1
    for n1 in (2, 3, 4, 5):
        for r in range(1, n1 + 1):
            for indices in itertools.combinations(range(n1), r):
                alpha = du(n1, indices)
                for _ in range(5):
                    Q = rand_point(rng, n1)
                    lhs = alpha.ray_integrate(Q) - alpha.ray_integrate(origin(n1))
                    rhs = alpha.contract(Q) * Fraction(-1, r)
                    assert lhs == rhs


def test_ray_integration_of_constant_forms_pointwise():
    # I_P(a) evaluated at x equals (1/r) <x - P, a> for constant a
    rng = random.Random(34)
    for _ in range(100):
        n1 = rng.randint(2, 5)
        r = rng.randint(1, n1)
        alpha = rand_constant_simplex_form(rng, n1, r)
        P = rand_point(rng, n1)
        X = rand_point(rng, n1)
        integrated = alpha.ray_integrate(P)
        direct = alpha.contract([x - p for x, p in zip(X, P)]) * Fraction(1, r)
        for key in set(integrated.terms) | set(direct.terms):
            lhs = integrated.terms.get(key, Poly.zero(n1)).eval_point(X)
            rhs = direct.terms.get(key, Poly.zero(n1)).eval_point(X)
            assert lhs == rhs


def test_homotopy_identity_for_polynomial_forms():
    # d(I_P a) + I_P(d a) = a, raw, for any base point
    rng = random.Random(35)
    for _ in range(80):
        n1 = rng.randint(2, 5)
        deg = rng.randint(1, n1)
        alpha = rand_poly_simplex_form(rng, n1, deg)
        P = rand_point(rng, n1)
        lhs = (alpha.ray_integrate(P).exterior_derivative()
               + alpha.exterior_derivative().ray_integrate(P))
        assert lhs == alpha


def test_primitive_of_closed_form_differentiates_back():
    rng = random.Random(36)
    for _ in range(60):
        n1 = rng.randint(2, 5)
        deg = rng.randint(0, n1 - 1)
        alpha = rand_poly_simplex_form(rng, n1, deg).exterior_derivative()
        if alpha.is_zero():
            continue
        P = rand_hyperplane_point(rng, n1)
        assert alpha.star_integrate(P).exterior_derivative() == alpha



def ray_integrate_by_substitution(form: SimplexForm, base) -> SimplexForm:
    """Ray integration with every coefficient pulled back by polynomial
    substitution, constants included: x -> base + t (x - base) in a ring with
    a trailing t, keep the dt part, integrate t over [0, 1]."""
    n1 = form.nvars
    t = Poly.variable(n1 + 1, n1)
    subs = [Poly.const(n1 + 1, b) + t * (Poly.variable(n1 + 1, i)
                                         - Poly.const(n1 + 1, b))
            for i, b in enumerate(base)]
    out = SimplexForm.zero(n1)
    for indices, f in form.terms.items():
        g = f.eval_poly(subs)
        for _ in range(len(indices) - 1):
            g = g * t
        for k, ik in enumerate(indices):
            dt_part = g * (Poly.variable(n1 + 1, ik) - Poly.const(n1 + 1, base[ik]))
            piece = dt_part.integrate_last_unit() * (-1) ** k
            out = out + SimplexForm(n1, {indices[:k] + indices[k + 1:]: piece})
    return out


def normalize_by_substitution(form: SimplexForm, keep, pivot) -> SimplexForm:
    """Normal form with every coefficient substituted, constants included:
    x_pivot -> 1 - (other kept x), x_j -> 0 off the face, then
    dx_pivot -> -(sum of the other kept dx)."""
    n1 = form.nvars
    others = [j for j in keep if j != pivot]
    subs = [Poly.variable(n1, j) if j in keep else Poly.zero(n1)
            for j in range(n1)]
    subs[pivot] = Poly.const(n1, 1) - sum(
        (Poly.variable(n1, j) for j in others), Poly.zero(n1))
    out = SimplexForm.zero(n1)
    for indices, f in form.terms.items():
        if not set(indices) <= set(keep):
            continue
        f2 = f.eval_poly(subs)
        if pivot not in indices:
            out = out + SimplexForm(n1, {indices: f2})
            continue
        k = indices.index(pivot)
        for j in others:
            if j in indices:
                continue
            swapped = indices[:k] + (j,) + indices[k + 1:]
            sign = -sort_sign(swapped)
            out = out + SimplexForm(n1, {tuple(sorted(swapped)): f2 * sign})
    return out


def test_closed_forms_match_polynomial_substitution():
    # constant coefficients take the closed form in ray_integrate and skip
    # substitution in _normalize; both must be raw-identical to the general
    # polynomial path on constant, polynomial and mixed forms
    rng = random.Random(42)
    for trial in range(300):
        n1 = rng.randint(2, 5)
        deg = rng.randint(1, n1)
        kind = trial % 3
        form = SimplexForm.zero(n1)
        if kind != 1:
            form = form + rand_constant_simplex_form(rng, n1, deg)
        if kind != 0:
            form = form + rand_poly_simplex_form(rng, n1, deg)
        point = rand_point if rng.random() < 0.5 else rand_hyperplane_point
        base = point(rng, n1)
        integrated = form.ray_integrate(base)
        assert integrated == ray_integrate_by_substitution(form, base)
        face = tuple(sorted(rng.sample(range(n1), rng.randint(1, n1))))
        pivot = rng.randrange(n1)
        for value in (form, integrated):
            assert value.canonical(pivot) == normalize_by_substitution(
                value, tuple(range(n1)), pivot)
            assert value.reduce_to_face(face) == normalize_by_substitution(
                value, face, face[0])

def test_star_integrate_requires_hyperplane_base():
    with pytest.raises(ValueError):
        du(3, (0,)).star_integrate([1, 1, 1])


def test_canonical_kills_the_simplex_ideal():
    n1 = 3
    # sum of coordinates minus one
    fn = Poly.affine(n1, [1] * n1, -1)
    assert SimplexForm(n1, {(): fn}).is_zero_on_simplex()
    # sum of the coordinate differentials
    total = SimplexForm(n1, {(i,): Poly.const(n1, 1) for i in range(n1)})
    assert total.is_zero_on_simplex()
    # and their product with anything
    rng = random.Random(37)
    for _ in range(40):
        g = rand_poly_simplex_form(rng, n1, 1)
        wedge_like = SimplexForm(
            n1, {k: v * fn for k, v in g.terms.items()})
        assert wedge_like.is_zero_on_simplex()
        assert (g + wedge_like).equal_on_simplex(g)


def test_canonical_is_idempotent_and_chart_consistent():
    rng = random.Random(38)
    for _ in range(60):
        n1 = rng.randint(2, 4)
        deg = rng.randint(0, n1 - 1)
        form = rand_poly_simplex_form(rng, n1, deg)
        canon = form.canonical()
        assert canon.canonical() == canon
        assert form.equal_on_simplex(canon)
        # normalizing through another pivot must agree on the simplex
        assert form.canonical(pivot=n1 - 1).equal_on_simplex(canon)


def test_equality_reads_the_stored_terms():
    """== and hash compare the stored terms, as for every other container;
    the simplex relation is reached only by name.  dx0 + dx1 + dx2 is
    d(sum(x)), zero on the simplex but not as stored."""
    form = SimplexForm(3, {(i,): Poly.const(3, 1) for i in range(3)})
    zero = SimplexForm.zero(3)
    assert form != zero and not form.is_zero() and form
    assert form.is_zero_on_simplex()
    assert form.equal_on_simplex(zero)
    assert hash(form) == _Terms.__hash__(form)


def test_vertex_and_barycenter():
    ctx = SimplexContext(2)
    assert ctx.barycenter((1,)) == (0, 1, 0)
    assert ctx.barycenter((0, 2)) == (Fraction(1, 2), 0, Fraction(1, 2))
    assert ctx.barycenter((0, 1, 2)) == (Fraction(1, 3),) * 3


def test_coboundary_squares_to_zero():
    rng = random.Random(39)
    ctx = SimplexContext(3)
    for _ in range(20):
        c = SimplexCochain(3, 0, lambda J: rand_poly_simplex_form(rng, 4, 1))
        dd = c.coboundary().coboundary()
        assert all(v.is_zero() for v in dd.values.values())
    with pytest.raises(ValueError):
        SimplexCochain(3, 3, lambda J: 0).coboundary()


def test_cochain_builds_each_subset_once():
    # a cochain makes its own keys, so it cannot miss a subset: fn runs once
    # per subset, in combinations order, and its keys are those tuples
    calls = []

    def fn(J):
        calls.append(J)
        return Fraction(len(calls))

    c = SimplexCochain(4, 2, fn)
    assert calls == list(itertools.combinations(range(5), 3))
    assert list(c.values) == calls
    assert c[[0, 2, 4]] == c[(0, 2, 4)] == c.values[(0, 2, 4)]
    with pytest.raises(ValueError, match="cochain degree out of range"):
        SimplexCochain(2, 3, fn)
    with pytest.raises(ValueError, match="cochain degree out of range"):
        SimplexCochain(2, -1, fn)
    assert len(calls) == 10


# The tower reads each barycenter from its context's memo, ray-integrates
# there without the hyperplane check, and sums each coboundary into one
# accumulator; each fast path is checked against the general one.

def rand_simplex_form(rng, nvars, degree):
    if rng.random() < 0.5:
        return rand_constant_simplex_form(rng, nvars, degree)
    return rand_poly_simplex_form(rng, nvars, degree)


def test_memo_points_are_the_barycenters():
    # contexts of every size side by side, so a memo shared between them
    # hands one of them a point of the wrong length
    contexts = [SimplexContext(n) for n in range(1, 6)]
    for _ in range(2):
        for ctx in contexts:
            n1 = ctx.n + 1
            for size in range(1, n1 + 1):
                for J in itertools.combinations(range(n1), size):
                    point = ctx._point(J)
                    assert point == tuple(Fraction(1, size) if i in J else 0
                                          for i in range(n1))
                    assert sum(point) == 1
                    assert ctx.barycenter(list(J)) is point


def test_integrate_cochain_matches_star_integration():
    rng = random.Random(44)
    for n in range(1, 6):
        ctx = SimplexContext(n)
        for degree in range(n + 1):
            for _ in range(2):
                r = rng.randint(1, n + 1)
                c = SimplexCochain(n, degree,
                                   lambda J: rand_simplex_form(rng, n + 1, r))
                got = integrate_cochain(ctx, c)
                for J, form in c.values.items():
                    assert got[J] == form.star_integrate(ctx.barycenter(J))
    with pytest.raises(ValueError, match="cochain does not live on this simplex"):
        integrate_cochain(SimplexContext(2), SimplexCochain(3, 0, lambda J: du(4, (0,))))


def chained_coboundary(c: SimplexCochain) -> dict:
    """(dc)(J) as a chain of whole-form negations and sums."""
    out = {}
    for J in itertools.combinations(range(c.n + 1), c.degree + 2):
        total = c[J[1:]]
        for j in range(1, len(J)):
            face = c[J[:j] + J[j + 1:]]
            total = total + (-face if j % 2 else face)
        out[J] = total
    return out


def test_coboundary_matches_chained_alternating_sum():
    rng = random.Random(45)
    for n in range(1, 6):
        for degree in range(n):
            for _ in range(3):
                # a small pool of mixed degrees, so faces repeat and cancel
                pool = [rand_simplex_form(rng, n + 1, rng.randint(0, 2))
                        for _ in range(3)]
                c = SimplexCochain(n, degree, lambda J: rng.choice(pool))
                got = c.coboundary()
                want = chained_coboundary(c)
                assert list(got.values) == list(want)
                for J, form in want.items():
                    assert got[J] == form
    with pytest.raises(ValueError, match="coboundary needs forms"):
        SimplexCochain(2, 0, lambda J: Fraction(1)).coboundary()
    with pytest.raises(ValueError, match="coboundary needs forms"):
        SimplexCochain(2, 0, lambda J: du(4, (0,))).coboundary()


def test_tower_frozen_values_on_the_segment():
    ctx = SimplexContext(1)
    chain0 = beta_recursion(ctx, du(2, (0,)), 1)
    assert chain0[1][(0, 1)] == 1
    chain1 = beta_recursion(ctx, du(2, (1,)), 1)
    assert chain1[1][(0, 1)] == -1


def test_tower_frozen_values_on_the_triangle():
    ctx = SimplexContext(2)
    chain = beta_recursion(ctx, du(3, (0,)), 1)
    assert chain[1][(0, 1)] == 1
    assert chain[1][(0, 2)] == 1
    assert chain[1][(1, 2)] == 0
    top = beta_recursion(ctx, du(3, (0, 1)), 2)
    assert top[2][(0, 1, 2)] == Fraction(-1, 2)


def test_tower_agrees_with_direct_contraction_formula():
    rng = random.Random(40)
    for n in (1, 2, 3):
        ctx = SimplexContext(n)
        for p in range(1, n + 1):
            betas = [du(n + 1, idx)
                     for idx in itertools.combinations(range(n + 1), p)]
            betas += [rand_constant_simplex_form(rng, n + 1, p)
                      for _ in range(4)]
            for beta in betas:
                chain = beta_recursion(ctx, beta, p)
                for r in range(p + 1):
                    for I in itertools.combinations(range(n + 1), r + 1):
                        direct = star_closed_form(ctx, beta, p, r, I)
                        if r == p:
                            assert direct.constant_value() == chain[p][I]
                        else:
                            assert chain[r][I].equal_on_simplex(direct)
                            assert chain[r][I].is_constant_on_simplex()


def chained_closed_form(ctx, beta, p, r, subset) -> SimplexForm:
    """The closed form by its definition: for each j, contract beta with the
    vertices of the subset minus its j-th vertex, largest first, then sum
    with alternating signs and scale by (-1)^r / p (p-1) ... (p-r+1)."""
    total = SimplexForm.zero(beta.nvars)
    for j in range(r + 1):
        piece = beta
        for i in reversed(subset[:j] + subset[j + 1:]):
            piece = piece.contract(ctx.barycenter((i,)))
        total = total + (-piece if j % 2 else piece)
    falling = 1
    for k in range(r):
        falling *= p - k
    return total * Fraction((-1) ** r, falling)


def test_closed_form_matches_contraction_chain():
    rng = random.Random(46)
    for n in range(1, 6):
        ctx = SimplexContext(n)
        n1 = n + 1
        for p in range(1, n1 + 1):
            betas = [SimplexForm.zero(n1),
                     rand_constant_simplex_form(rng, n1, p),
                     rand_poly_simplex_form(rng, n1, p),
                     # more terms, so several meet each subset
                     sum((rand_simplex_form(rng, n1, p) for _ in range(4)),
                         SimplexForm.zero(n1))]
            for beta in betas:
                for r in range(p + 1):
                    for I in itertools.combinations(range(n1), r + 1):
                        got = star_closed_form(ctx, beta, p, r, I)
                        assert got == chained_closed_form(ctx, beta, p, r, I)


def test_closed_form_picks_indices_without_points(monkeypatch):
    def refuse(*args):
        raise AssertionError("star_closed_form must not contract or fetch points")
    ctx = SimplexContext(3)
    beta = du(4, (0, 2)) + du(4, (1, 3), 5) + du(4, (0, 1), Fraction(-2, 3))
    want = {I: chained_closed_form(ctx, beta, 2, r, I)
            for r in range(3) for I in itertools.combinations(range(4), r + 1)}
    monkeypatch.setattr(SimplexForm, "contract", refuse)
    monkeypatch.setattr(SimplexContext, "_point", refuse)
    monkeypatch.setattr(SimplexContext, "barycenter", refuse)
    for I, form in want.items():
        assert star_closed_form(ctx, beta, 2, len(I) - 1, I) == form


def test_closed_form_input_validation():
    ctx = SimplexContext(2)
    # a form of the wrong degree is refused whatever its indices
    for beta in (du(3, (2,)), du(3, (0,)), du(3, (0, 1, 2)),
                 du(3, (0, 1)) + du(3, (2,))):
        with pytest.raises(ValueError, match="homogeneous of the stated degree"):
            star_closed_form(ctx, beta, 2, 2, (0, 1, 2))
    with pytest.raises(ValueError, match="does not live on this simplex"):
        star_closed_form(ctx, du(4, (0, 1)), 2, 1, (0, 1))
    with pytest.raises(ValueError, match="need 0 <= r <= p"):
        star_closed_form(ctx, du(3, (0,)), 1, 2, (0, 1, 2))
    with pytest.raises(ValueError, match="subset size must be r \\+ 1"):
        star_closed_form(ctx, du(3, (0,)), 1, 1, (0, 1, 2))
    with pytest.raises(ValueError, match="strictly increasing"):
        star_closed_form(ctx, du(3, (0,)), 1, 1, (1, 0))
    assert star_closed_form(ctx, SimplexForm.zero(3), 2, 2, (0, 1, 2)).is_zero()


def test_restriction_formula_on_faces():
    # beta restricted to a (p+1)-vertex face is the top tower value scaled
    # by (-1)^(p(p+1)/2) p!, in the chart that eliminates the first vertex
    rng = random.Random(41)
    for n in (1, 2, 3):
        ctx = SimplexContext(n)
        for p in range(1, n + 1):
            scale = Fraction((-1) ** (p * (p + 1) // 2))
            for k in range(2, p + 1):
                scale *= k
            betas = [du(n + 1, idx)
                     for idx in itertools.combinations(range(n + 1), p)]
            betas += [rand_constant_simplex_form(rng, n + 1, p)
                      for _ in range(4)]
            for beta in betas:
                chain = beta_recursion(ctx, beta, p)
                for I in itertools.combinations(range(n + 1), p + 1):
                    value = scale * chain[p][I]
                    restricted = beta.reduce_to_face(I)
                    want = du(n + 1, I[1:], value)
                    assert restricted == want.reduce_to_face(I)


def _tower_inputs(rng, n, p):
    """Constant p-forms on the n-simplex: every basis monomial, random
    forms, forms with zero coefficients, the zero form, a form that
    vanishes on the simplex only, and one whose coefficients are constant
    on the simplex only."""
    n1 = n + 1
    keys = list(itertools.combinations(range(n1), p))
    forms = [du(n1, K) for K in keys]
    forms += [rand_constant_simplex_form(rng, n1, p) for _ in range(3)]
    for _ in range(2):
        coeffs = {K: rng.choice([0, 0, rand_fraction(rng)]) for K in keys}
        forms.append(SimplexForm(n1, {K: Poly.const(n1, c)
                                      for K, c in coeffs.items()}))
    forms.append(SimplexForm.zero(n1))
    # d(sum x) ^ dx_L
    L = keys[rng.randrange(len(keys))][1:]
    forms.append(SimplexForm(n1, {
        tuple(sorted((i,) + L)): Poly.const(n1, sort_sign((i,) + L))
        for i in range(n1) if i not in L}))
    # 1 + (sum x - 1) x_i as one coefficient
    shift = Poly.affine(n1, [1] * n1, -1) * Poly.variable(n1, rng.randrange(n1))
    forms.append(rand_constant_simplex_form(rng, n1, p) + SimplexForm(
        n1, {keys[rng.randrange(len(keys))]: shift + Poly.const(n1, 1)}))
    assert forms[-2].is_zero_on_simplex()
    assert not all(f.is_constant() for f in forms[-1].terms.values())
    return forms


def test_tower_top_matches_beta_recursion():
    # one process, several contexts: an index tuple names a different basis
    # tower in each dimension, and each context keeps its own
    rng = random.Random(43)
    for n in (1, 2, 3, 4, 5, 2):
        ctx = SimplexContext(n)
        for p in range(1, n + 1):
            for beta in _tower_inputs(rng, n, p):
                got = tower_top(ctx, beta, p)
                want = beta_recursion(ctx, beta, p)[p]
                assert (got.n, got.degree) == (n, p)
                assert got.values == want.values
                assert all(type(v) is Fraction for v in got.values.values())


def test_beta_recursion_input_validation():
    # tower_top refuses the same inputs with the same messages, in the same
    # order, and keeps no basis tower for them
    ctx = SimplexContext(2)
    varying = SimplexForm.monomial(3, (0,), Poly.variable(3, 1))
    cases = [
        (du(3, (0,)), 0, "need 1 <= p <= n"),
        (du(3, (0,)), 3, "need 1 <= p <= n"),
        (du(4, (0,)), 3, "need 1 <= p <= n"),
        (du(4, (0,)), 1, "form does not live on this simplex"),
        (du(3, (0, 1)), 1, "form must be homogeneous of the stated degree"),
        (varying, 1, "form must have constant coefficients on the simplex"),
    ]
    for beta, p, message in cases:
        for tower in (tower_top, beta_recursion):
            with pytest.raises(ValueError) as info:
                tower(ctx, beta, p)
            assert str(info.value) == message
    assert not ctx._tops


def test_ladder_builds_each_basis_tower_once(monkeypatch):
    calls = []
    real = simplex.beta_recursion

    def counting(ctx, beta, p):
        calls.append(beta)
        return real(ctx, beta, p)

    monkeypatch.setattr(simplex, "beta_recursion", counting)
    cx = fixtures.simplex_skeleton(6, 3)
    n = cx.max_level
    for p in range(1, n + 1):
        pres, _, _ = fixtures.simplicial_presentations(cx, p, random.Random(p))
        calls.clear()
        assert dolbeault_ladder(pres, cx, p).final_check
        assert 0 < len(calls) <= math.comb(n + 1, p)


def test_constant_value_accepts_ideal_shifts():
    n1 = 3
    fn = Poly.affine(n1, [1] * n1, -1)
    form = SimplexForm(n1, {(): Poly.const(n1, 5) + fn * Poly.variable(n1, 0)})
    assert form.is_constant_on_simplex()
    assert form.constant_value() == 5


# SHA-256 of the serialized outputs below, recorded before Poly, Superform
# and SimplexForm shared one sparse-term base; the tower must not move.
PINNED_INTEGRATION_OUTPUTS = (
    "f69ff0a4a48cda4275dbb21f7d8fa3936aa1544da22bb87952c18a99f33e4a35")
PINNED_TOWER_STAGES = (
    "be609f35775b00e188ee183137673a60dba42f0012e438194a72d3dc0e92372c")


def test_integration_outputs_pinned():
    rng = random.Random(1705)
    out = []
    for _ in range(40):
        nvars = rng.randint(2, 4)
        form = rand_poly_simplex_form(rng, nvars, rng.randint(1, nvars - 1))
        base = rand_hyperplane_point(rng, nvars)
        for value in (form.star_integrate(base), form.exterior_derivative(),
                      form.exterior_derivative().star_integrate(base),
                      form.canonical()):
            out.append(value.to_json_obj())
    assert json_digest(out) == PINNED_INTEGRATION_OUTPUTS


def test_tower_stages_pinned():
    rng = random.Random(1706)
    out = []
    for n in (1, 2, 3):
        ctx = SimplexContext(n)
        for p in range(1, n + 1):
            betas = [du(n + 1, idx)
                     for idx in itertools.combinations(range(n + 1), p)]
            betas += [rand_constant_simplex_form(rng, n + 1, p)
                      for _ in range(3)]
            for beta in betas:
                chain = beta_recursion(ctx, beta, p)
                out.append([[chain[r][I].canonical().to_json_obj()
                             for I in sorted(chain[r].values)]
                            for r in range(p)])
                out.append([str(chain[p][I]) for I in sorted(chain[p].values)])
    assert json_digest(out) == PINNED_TOWER_STAGES


# SHA-256 of the raw representatives of every beta_recursion stage (not
# their canonical forms), recorded while ray integration still substituted
# polynomials term by term; the closed form must reproduce them exactly.
PINNED_RAW_TOWER_STAGES = {
    1: "3a5904aa851091c91ba0366bd8cab559d8fe9ecfb5a8dd2e34724c52123665be",
    2: "62f326dea4cbc2975740c376274a75db87d47f72b33acc6b0041b375cf28884d",
    3: "32b7e5c74d366a7d00e3672b92148fb5f81a1584777037d604192e4610379bbf",
    4: "bfdfb0f427591247765382915557bbef20ac25856353d2f4272a1d9e007d452c",
}


@pytest.mark.parametrize("n", sorted(PINNED_RAW_TOWER_STAGES))
def test_raw_tower_stages_pinned(n):
    rng = random.Random(1707 + n)
    ctx = SimplexContext(n)
    out = []
    for p in range(1, n + 1):
        betas = [du(n + 1, idx)
                 for idx in itertools.combinations(range(n + 1), p)]
        betas += [rand_constant_simplex_form(rng, n + 1, p) for _ in range(3)]
        for beta in betas:
            chain = beta_recursion(ctx, beta, p)
            out.append([[chain[r][I].to_json_obj()
                         for I in sorted(chain[r].values)]
                        for r in range(p)])
            out.append([str(chain[p][I]) for I in sorted(chain[p].values)])
    assert json_digest(out) == PINNED_RAW_TOWER_STAGES[n]
