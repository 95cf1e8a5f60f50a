import random
from fractions import Fraction

import pytest

from conftest import solve_gauss
from tropmono.poly import Poly
from tropmono.randgen import rand_fraction, rand_poly, rand_point


def test_constructors_and_predicates():
    z = Poly.zero(3)
    assert z.is_zero() and z.is_constant() and z.constant_value() == 0
    c = Poly.const(2, Fraction(3, 4))
    assert c.constant_value() == Fraction(3, 4)
    x1 = Poly.variable(2, 1)
    assert not x1.is_constant()
    aff = Poly.affine(2, [2, -1], 5)
    assert aff.eval_point([1, 1]) == 6
    assert max(sum(exps) for exps in aff.terms) == 1


def test_arithmetic_agrees_with_pointwise_evaluation():
    rng = random.Random(10)
    for _ in range(150):
        n = rng.randint(1, 4)
        p = rand_poly(rng, n, max_degree=3)
        q = rand_poly(rng, n, max_degree=3)
        x = rand_point(rng, n)
        assert (p + q).eval_point(x) == p.eval_point(x) + q.eval_point(x)
        assert (p - q).eval_point(x) == p.eval_point(x) - q.eval_point(x)
        assert (p * q).eval_point(x) == p.eval_point(x) * q.eval_point(x)
        c = rand_fraction(rng)
        assert (p * c).eval_point(x) == c * p.eval_point(x)
        assert (-p).eval_point(x) == -p.eval_point(x)


def test_derivative_frozen_monomials_and_product_rule():
    # d/dx0 (x0^3 x1) = 3 x0^2 x1
    p = Poly(2, {(3, 1): 1})
    assert p.derivative(0) == Poly(2, {(2, 1): 3})
    assert p.derivative(1) == Poly(2, {(3, 0): 1})
    assert Poly.const(2, 5).derivative(0).is_zero()
    rng = random.Random(11)
    for _ in range(80):
        n = rng.randint(1, 3)
        p = rand_poly(rng, n)
        q = rand_poly(rng, n)
        i = rng.randrange(n)
        assert (p * q).derivative(i) == p.derivative(i) * q + p * q.derivative(i)


def test_composition_agrees_with_pointwise_evaluation():
    rng = random.Random(12)
    for _ in range(80):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        p = rand_poly(rng, n)
        subs = [rand_poly(rng, m) for _ in range(n)]
        x = rand_point(rng, m)
        composed = p.eval_poly(subs)
        assert composed.nvars == m
        assert composed.eval_point(x) == p.eval_point([s.eval_point(x) for s in subs])


def test_integrate_last_unit_against_quadrature_oracle():
    # Newton-Cotes style weights solved from the Vandermonde system make an
    # exact oracle for polynomial integration over [0, 1].
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 3)
        p = rand_poly(rng, n, max_degree=3)
        deg = max((sum(exps) for exps in p.terms), default=0)
        nodes = [Fraction(k, deg) if deg else Fraction(0) for k in range(deg + 1)]
        vander = [[node ** k for node in nodes] for k in range(deg + 1)]
        moments = [Fraction(1, k + 1) for k in range(deg + 1)]
        weights = solve_gauss(vander, moments)
        x = rand_point(rng, n - 1)
        direct = p.integrate_last_unit().eval_point(x) if n > 1 else \
            p.integrate_last_unit().constant_value()
        quad = sum(w * p.eval_point(list(x) + [node])
                   for w, node in zip(weights, nodes))
        assert direct == quad


def test_eval_poly_rejects_arity_mismatch():
    p = Poly.variable(2, 0)
    with pytest.raises(ValueError):
        p.eval_poly([Poly.variable(1, 0)])


def test_json_roundtrip_sorted_and_stable():
    p = Poly(2, {(1, 0): Fraction(1, 3), (0, 2): -2})
    obj = p.to_json_obj()
    assert obj == {"0,2": "-2", "1,0": "1/3"}
