"""The trusted construction route against the validating constructors.

Poly.const, Poly.variable, Poly.affine, eval_poly, AffineMap.pullback, the
random generators and the ladder's top-stratum forms wrap terms they built
themselves without checking them again.  Every such result must equal its
own terms passed through Poly(...), Superform(...) or SimplexForm(...), and
hold only nonzero Fraction coefficients or nonzero Poly coefficients in the
same ring.
"""

import random
from fractions import Fraction

import pytest

from tropmono import order_map
from tropmono.forms import AffineMap, Superform
from tropmono.linalg import QMatrix
from tropmono.library import (cycle_complex,
                              simplicial_presentations_from_tensors,
                              tetrahedron_complex)
from tropmono.poly import Poly
from tropmono.randgen import (rand_affine_map, rand_constant_simplex_form,
                              rand_fraction, rand_poly, rand_poly_simplex_form,
                              rand_superform, rand_superform_mixed)
from tropmono.simplex import (SimplexCochain, SimplexContext, SimplexForm,
                              tower_top)


def revalidated(x):
    """x rebuilt from its terms through its validating constructor."""
    if isinstance(x, Poly):
        return Poly(x.nvars, dict(x.terms))
    return type(x)(x.nvars, {k: revalidated(f) for k, f in x.terms.items()})


def assert_trusted(x, nvars):
    assert x.nvars == nvars
    for f in x.terms.values():
        if isinstance(x, Poly):
            assert type(f) is Fraction and f
        else:
            assert type(f) is Poly and f
            assert_trusted(f, nvars)
    assert x == revalidated(x)


def _scalar(rng):
    """A rational as a Fraction, an int or a string, zero one time in three."""
    c = rand_fraction(rng) if rng.random() < 2 / 3 else Fraction(0)
    return rng.choice([c, str(c), c.numerator if c.denominator == 1 else c])


def test_scalar_constructors_match_the_validating_constructor():
    rng = random.Random(2201)
    for _ in range(300):
        n = rng.randint(0, 5)
        value = _scalar(rng)
        assert_trusted(Poly.const(n, value), n)
        assert Poly.const(n, value) == Poly(n, {(0,) * n: value})
        coeffs = [_scalar(rng) for _ in range(n)]
        constant = _scalar(rng)
        aff = Poly.affine(n, coeffs, constant)
        assert_trusted(aff, n)
        units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
        general = {(0,) * n: constant}
        general.update(zip(units, coeffs))
        assert aff == Poly(n, general)
        if n:
            i = rng.randrange(n)
            assert_trusted(Poly.variable(n, i), n)
            assert Poly.variable(n, i) == Poly(n, {units[i]: 1})


def test_monomials_match_the_validating_constructor():
    rng = random.Random(2202)
    for _ in range(200):
        n = rng.randint(1, 5)
        dpr = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
        dsec = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
        coeff = rand_poly(rng, n) if rng.random() < 0.5 else _scalar(rng)
        poly = coeff if isinstance(coeff, Poly) else Poly(n, {(0,) * n: coeff})
        form = Superform.monomial(n, dpr, dsec, coeff)
        assert_trusted(form, n)
        assert form == Superform(n, {(dpr, dsec): poly})
        face = SimplexForm.monomial(n, dpr, coeff)
        assert_trusted(face, n)
        assert face == SimplexForm(n, {dpr: poly})


def test_random_draws_are_well_formed():
    rng = random.Random(2203)
    for _ in range(300):
        n = rng.randint(1, 6)
        degree = rng.randint(0, n)
        assert_trusted(rand_poly(rng, n, max_degree=rng.randint(0, 3)), n)
        assert_trusted(rand_superform(rng, n, rng.randint(0, n),
                                      rng.randint(0, n)), n)
        assert_trusted(rand_superform_mixed(rng, n, rng.randint(1, 3)), n)
        assert_trusted(rand_constant_simplex_form(rng, n, degree), n)
        assert_trusted(rand_poly_simplex_form(rng, n, degree), n)


def test_made_matches_the_validating_constructor():
    rng = random.Random(2207)
    for case in range(300):
        n = rng.randint(1, 5)
        for cls, draw in ((Poly, lambda: rand_poly(rng, n, rng.randint(0, 3))),
                          (Superform, lambda: rand_superform_mixed(rng, n)),
                          (SimplexForm, lambda: rand_poly_simplex_form(
                              rng, n, rng.randint(0, n)))):
            terms = {} if case % 10 == 0 else dict(draw().terms)
            made = cls._made(n, terms)
            built = cls(n, terms)
            assert type(made) is cls and made.nvars == n
            assert made.terms is terms
            assert made == built
            assert hash(made) == hash(built)
            for name in ("nvars", "terms", "other"):
                with pytest.raises(AttributeError, match="is immutable"):
                    setattr(made, name, built.terms)
                with pytest.raises(AttributeError, match="is immutable"):
                    delattr(made, name)
            assert made + made == built + built
            assert hash(made) == hash(built)


def _matrix():
    m = QMatrix([[1, Fraction(1, 2)], [0, -3]])

    def use():
        assert m.to_json_obj() == [["1", "1/2"], ["0", "-3"]]
        return [m]
    return m, use


def _affine_map():
    # x0 = 2 y0 + 1, x1 = y0 + y1 pulls x1 d'x0 ^ d''x1 back to
    # 2 (y0 + y1) d'y0 ^ (d''y0 + d''y1)
    phi = AffineMap(QMatrix([[2, 0], [1, 1]]), [1, 0])

    def use():
        got = phi.pullback(Superform.monomial(2, (0,), (1,), Poly.variable(2, 1)))
        coeff = 2 * Poly.affine(2, [1, 1], 0)
        assert got == Superform(2, {((0,), (0,)): coeff, ((0,), (1,)): coeff})
        return [phi, phi.matrix, got, coeff]
    return phi, use


def _context():
    ctx = SimplexContext(2)

    def use():
        half = Fraction(1, 2)
        assert ctx.barycenter((0, 2)) == (half, 0, half)
        return [ctx]
    return ctx, use


def _cochain():
    cochain = SimplexCochain(2, 1, lambda J: SimplexForm.monomial(3, J, 1))

    def use():
        form = cochain[(0, 2)]
        assert form == SimplexForm.monomial(3, (0, 2), 1)
        return [cochain, form, *form.terms.values()]
    return cochain, use


@pytest.mark.parametrize("build", [_matrix, _affine_map, _context, _cochain])
def test_value_types_refuse_assignment_and_deletion(build):
    """Every slot, and a name that is not one, can be neither set nor
    deleted, and the value keeps working afterwards.  No value of the seven
    types (these four, and the Poly, Superform and SimplexForm they yield)
    has a __dict__."""
    value, use = build()
    refused = f"{type(value).__name__} is immutable"
    for name in (*type(value).__slots__, "other"):
        with pytest.raises(AttributeError, match=refused):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=refused):
            delattr(value, name)
    for x in use():
        assert not hasattr(x, "__dict__"), type(x).__name__


def _substituted(p, subs, target):
    """p with subs[i] for x_i, through validated constructors and repeated
    products only."""
    out = Poly(target)
    for exps, c in p.terms.items():
        term = Poly(target, {(0,) * target: c})
        for sub, e in zip(subs, exps):
            for _ in range(e):
                term = term * sub
        out = out + term
    return out


def test_eval_poly_matches_repeated_products():
    rng = random.Random(2204)
    for case in range(300):
        n, m = rng.randint(1, 4), rng.randint(0, 3)
        p = rand_poly(rng, n, max_degree=rng.randint(0, 3))
        subs = [Poly(m) if rng.random() < 0.2 else rand_poly(rng, m)
                if m else Poly.const(0, rand_fraction(rng)) for _ in range(n)]
        if case % 3 == 0 and n >= 2:
            # p minus its image under x_i <-> x_j, with x_i and x_j sent to
            # one substitute: every term cancels
            i, j = rng.sample(range(n), 2)
            swapped = {}
            for exps, c in p.terms.items():
                e = list(exps)
                e[i], e[j] = e[j], e[i]
                swapped[tuple(e)] = c
            p = p - Poly(n, swapped)
            subs[j] = subs[i]
            assert p.eval_poly(subs).is_zero()
        got = p.eval_poly(subs)
        assert_trusted(got, m)
        assert got == _substituted(p, subs, m)
        # the cached powers are not shared with the result
        assert p.eval_poly(subs) == got


def _pullback_by_wedges(phi, omega):
    """phi^* omega as f o phi times the wedge of the pulled-back
    differentials d'x_i = sum_j A_ij d'y_j (and d''x_i alike)."""
    n2 = phi.source_dim
    subs = [Poly(n2, {tuple(int(j == i) for j in range(n2)): a
                      for i, a in enumerate(row)} | {(0,) * n2: t})
            for row, t in zip(phi.matrix.data, phi.translation)]
    out = Superform(n2)
    for (dpr, dsec), f in omega.terms.items():
        term = Superform(n2, {((), ()): _substituted(f, subs, n2)})
        for block, index in ((0, dpr), (1, dsec)):
            for i in index:
                term = term.wedge(Superform(n2, {
                    ((j,), ()) if block == 0 else ((), (j,)): Poly(n2, {(0,) * n2: a})
                    for j, a in enumerate(phi.matrix.row(i))}))
        out = out + term
    return out


def test_reused_map_pulls_back_like_a_fresh_one():
    # one map pulls back many forms through its kept minors; a fresh equal
    # map and the wedge of pulled-back differentials must agree with it
    rng = random.Random(2205)
    for case in range(40):
        n = rng.randint(1, 4)
        phi = rand_affine_map(rng, rng.randint(0, n), n,
                              rank_deficient=case % 3 == 0)
        forms = [rand_superform_mixed(rng, n) for _ in range(3)]
        forms += [rand_superform(rng, n, rng.randint(0, n), rng.randint(0, n))
                  for _ in range(3)]
        forms.append(forms[0])
        for omega in forms:
            got = phi.pullback(omega)
            assert_trusted(got, phi.source_dim)
            assert got == AffineMap(phi.matrix, phi.translation).pullback(omega)
            assert got == _pullback_by_wedges(phi, omega)


def test_ladder_top_forms_are_well_formed(monkeypatch):
    # the ladder wraps each top stratum's weighted minors as a form; zero
    # weights and cancelling minors must leave no zero or misordered term
    seen = []

    def recording(ctx, beta, p):
        seen.append((beta, ctx.n + 1))
        return tower_top(ctx, beta, p)

    monkeypatch.setattr(order_map, "tower_top", recording)
    rng = random.Random(2206)
    for cx in (cycle_complex(5), tetrahedron_complex()):
        n_top = cx.max_level
        vertices = range(1, len(cx.components) + 1)
        for p in range(1, n_top + 1):
            for _ in range(4):
                weights = [rng.choice([0, rand_fraction(rng)])
                           for _ in range(rng.randint(1, 3))]
                table = [[{v: rng.randint(-2, 2) for v in vertices}
                          for _ in range(p)] for _ in weights]
                tensors = {z.label: [[[row[v] for v in z.index_set]
                                      for row in sheet] for sheet in table]
                           for z in cx.level(n_top)}
                pres = simplicial_presentations_from_tensors(cx, weights, tensors)
                assert order_map.dolbeault_ladder(pres, cx, p).final_check
    assert len(seen) == 4 * (5 + 2 * 4)
    for beta, nvars in seen:
        assert_trusted(beta, nvars)


def test_public_constructors_still_refuse_bad_input():
    with pytest.raises(ValueError):
        Poly.const(2, "x")
    with pytest.raises(ValueError):
        Poly.const(2, "1e5")
    with pytest.raises(ValueError):
        Poly.affine(2, [1])
    with pytest.raises(ValueError):
        Poly.affine(2, [1, True])
    with pytest.raises(ValueError):
        Poly.variable(2, 2)
    with pytest.raises(ValueError):
        Superform.monomial(2, (0, 0), (), 1)
    with pytest.raises(ValueError):
        Superform.monomial(2, (), (2,), 1)
    with pytest.raises(ValueError):
        SimplexForm.monomial(2, (1, 0), 1)
    # indices and exponents are ints, never truncated through int()
    with pytest.raises(ValueError, match="indices must be ints"):
        SimplexContext(2).barycenter([0, 1.9])
    with pytest.raises(ValueError, match="exponents must be ints"):
        Poly(2, {(1.7, "2"): 1})
    with pytest.raises(ValueError, match="exponents must be ints"):
        Poly(2, {(True, 0): 1})
    with pytest.raises(ValueError, match="indices must be ints"):
        Superform(2, {((0.5,), (True,)): Poly.const(2, 1)})
    with pytest.raises(ValueError, match="indices must be ints"):
        SimplexForm(2, {("1",): Poly.const(2, 1)})
    for bad in (1.5, 1.0, True):
        with pytest.raises(ValueError, match="variable index out of range"):
            Poly.variable(2, bad)
    for bad in (2.0, True):
        with pytest.raises(ValueError, match="need an int n >= 0"):
            SimplexContext(bad)
    # before, True differentiated in x_1 and 1.0 raised TypeError
    for bad in (True, 1.0):
        with pytest.raises(ValueError, match="variable index out of range"):
            Poly.variable(2, 1).derivative(bad)
