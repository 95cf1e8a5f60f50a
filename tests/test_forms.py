import itertools
import random
from fractions import Fraction

import pytest

from conftest import json_digest, sort_sign
from tropmono.forms import AffineMap, Superform
from tropmono.linalg import QMatrix
from tropmono.poly import Poly
from tropmono.randgen import (rand_affine_map, rand_point, rand_poly,
                              rand_superform, rand_superform_mixed)


def monomial(nvars, dpr, dsec, coeff=1):
    return Superform.monomial(nvars, dpr, dsec, Poly.const(nvars, coeff))


def symbol_sequence(dpr, dsec):
    return [("p", i) for i in dpr] + [("s", j) for j in dsec]


def oracle_wedge_sign(key1, key2):
    """Sign of sorting the concatenated odd symbols into block order, or
    None on a repeated symbol.  Independent of the package's shuffles."""
    return sort_sign(symbol_sequence(*key1) + symbol_sequence(*key2))


def test_wedge_matches_symbol_sorting_oracle():
    rng = random.Random(20)
    for _ in range(300):
        n = rng.randint(1, 4)
        k1 = (tuple(sorted(rng.sample(range(n), rng.randint(0, n)))),
              tuple(sorted(rng.sample(range(n), rng.randint(0, n)))))
        k2 = (tuple(sorted(rng.sample(range(n), rng.randint(0, n)))),
              tuple(sorted(rng.sample(range(n), rng.randint(0, n)))))
        a = monomial(n, *k1)
        b = monomial(n, *k2)
        sign = oracle_wedge_sign(k1, k2)
        got = a.wedge(b)
        if sign is None:
            assert got.is_zero()
        else:
            merged = (tuple(sorted(k1[0] + k2[0])), tuple(sorted(k1[1] + k2[1])))
            assert got == monomial(n, *merged, coeff=sign)


def test_wedge_frozen_signs():
    n = 2
    # second-kind symbol past a first-kind symbol picks up the swap sign
    assert monomial(n, (), (0,)).wedge(monomial(n, (1,), ())) \
        == monomial(n, (1,), (0,), -1)
    assert monomial(n, (0,), ()).wedge(monomial(n, (), (0,))) \
        == monomial(n, (0,), (0,))
    assert monomial(n, (0,), ()).wedge(monomial(n, (0,), ())).is_zero()


def test_derivatives_match_front_insertion_oracle():
    rng = random.Random(21)
    for _ in range(200):
        n = rng.randint(1, 4)
        dpr = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
        dsec = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
        f = rand_poly(rng, n)
        omega = Superform.monomial(n, dpr, dsec, f)
        for which in ("p", "s"):
            expect = Superform.zero(n)
            for i in range(n):
                df = f.derivative(i)
                if df.is_zero():
                    continue
                key = ((i,) + dpr, dsec) if which == "p" else (dpr, (i,) + dsec)
                seq = ([("p", i)] if which == "p" else [("s", i)]) \
                    + symbol_sequence(dpr, dsec)
                sign = sort_sign(seq)
                if sign is None:
                    continue
                merged = (tuple(sorted(key[0])), tuple(sorted(key[1])))
                expect = expect + Superform.monomial(n, *merged, df * sign)
            got = omega.d_prime() if which == "p" else omega.d_second()
            assert got == expect


def test_second_derivative_frozen_example():
    # d''(x1 d'x0) = -d'x0 ^ d''x1  (indices 0-based)
    omega = Superform.monomial(2, (0,), (), Poly.variable(2, 1))
    assert omega.d_second() == monomial(2, (0,), (1,), -1)


def test_flip_frozen_and_involution():
    # J acts by the block swap with sign (-1)^(pq)
    w = monomial(3, (0, 1), (2,))
    assert w.flip() == monomial(3, (2,), (0, 1), (-1) ** (2 * 1))
    rng = random.Random(22)
    for _ in range(100):
        n = rng.randint(1, 4)
        a = rand_superform_mixed(rng, n)
        assert a.flip().flip() == a


def test_flip_is_multiplicative_for_wedge():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(1, 4)
        a = rand_superform_mixed(rng, n, pieces=1)
        b = rand_superform_mixed(rng, n, pieces=1)
        assert a.wedge(b).flip() == a.flip().wedge(b.flip())


def test_monodromy_frozen_examples():
    # N(d'x0 ^ d'x1) = d'x0 ^ d''x1 - d'x1 ^ d''x0
    w = monomial(2, (0, 1), ())
    assert w.monodromy() == monomial(2, (0,), (1,)) + monomial(2, (1,), (0,), -1)
    # N^2 = 2! J on the (2,0) piece
    assert w.monodromy().monodromy() == w.flip() * 2
    # converting the only first-kind leg of a mixed term
    v = Superform.monomial(2, (0,), (), Poly.variable(2, 1))
    assert v.monodromy() == Superform.monomial(2, (), (0,), Poly.variable(2, 1))


def test_monodromy_rejects_pure_second_kind():
    with pytest.raises(ValueError):
        monomial(2, (), (0,)).monodromy()
    # the zero form has no offending term
    assert Superform.zero(2).monodromy().is_zero()


def test_graded_piece_and_homogeneity():
    # mixed bidegrees coexist in one value and split back by bidegree
    a = monomial(2, (0,), ()) + monomial(2, (), (1,))
    bidegrees = {(len(i), len(j)) for i, j in a.terms}
    assert bidegrees == {(1, 0), (0, 1)}

    def piece(p, q):
        return Superform(2, {k: f for k, f in a.terms.items()
                             if (len(k[0]), len(k[1])) == (p, q)})
    assert piece(1, 0) == monomial(2, (0,), ())
    assert piece(0, 1) == monomial(2, (), (1,))


def compose(outer: AffineMap, inner: AffineMap) -> AffineMap:
    matrix = outer.matrix @ inner.matrix
    shift = outer.matrix.matvec(inner.translation)
    translation = [a + b for a, b in zip(shift, outer.translation)]
    return AffineMap(matrix, translation)


def test_pullback_frozen_line_example():
    # phi(t) = (2t + 1, t - 1); phi^*(x1 d'x0) = (2t - 2) d't
    phi = AffineMap(QMatrix([[2], [1]], ncols=1), [1, -1])
    omega = Superform.monomial(2, (0,), (), Poly.variable(2, 1))
    want = Superform.monomial(1, (0,), (), Poly.affine(1, [2], -2))
    assert phi.pullback(omega) == want


def test_pullback_respects_composition():
    rng = random.Random(24)
    for _ in range(60):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        k = rng.randint(1, 3)
        phi = rand_affine_map(rng, m, n)
        psi = rand_affine_map(rng, k, m)
        omega = rand_superform_mixed(rng, n)
        assert compose(phi, psi).pullback(omega) == psi.pullback(phi.pullback(omega))


def test_pullback_from_a_point():
    phi = AffineMap(QMatrix.zeros(2, 0), [Fraction(1, 2), 3])
    f = Superform.monomial(2, (), (), Poly.variable(2, 1))
    assert phi.pullback(f) == Superform.monomial(0, (), (), Poly.const(0, 3))
    assert phi.pullback(monomial(2, (0,), ())).is_zero()


def test_pullback_agrees_pointwise_on_functions():
    rng = random.Random(25)
    for _ in range(60):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        phi = rand_affine_map(rng, m, n)
        f = rand_poly(rng, n)
        omega = Superform.monomial(n, (), (), f)
        x = rand_point(rng, m)
        image = [phi.matrix.matvec(x)[i] + phi.translation[i] for i in range(n)]
        pulled = phi.pullback(omega).terms.get(((), ()), Poly.zero(m))
        assert pulled.eval_point(x) == f.eval_point(image)


def test_vanishing_on_affine_span():
    # the second coordinate is frozen on the chart t -> (t, c)
    chart = AffineMap(QMatrix([[1], [0]], ncols=1), [0, 5])
    assert chart.pullback(monomial(2, (1,), ())).is_zero()
    assert chart.pullback(monomial(2, (), (1,))).is_zero()
    assert not chart.pullback(monomial(2, (0,), ())).is_zero()


def test_json_roundtrip_uses_one_based_indices():
    w = Superform.monomial(2, (0,), (1,), Poly.variable(2, 0))
    obj = w.to_json_obj()
    assert obj == [{"dprime": [1], "dsecond": [2], "coeff": {"1,0": "1"}}]
    assert Superform.from_json_obj(2, obj) == w


def test_monomial_rejects_bad_indices():
    with pytest.raises(ValueError):
        Superform.monomial(2, (0, 0), (), Poly.const(2, 1))
    with pytest.raises(ValueError):
        Superform.monomial(2, (2,), (), Poly.const(2, 1))


# SHA-256 of the serialized outputs below, recorded before Poly, Superform
# and SimplexForm shared one sparse-term base; the operators must not move.
PINNED_OPERATOR_OUTPUTS = (
    "2cc00ff7811b5911058e77996d2ebb31032d4adb69e67dcbd1f3091938b82c2e")


def test_operator_outputs_pinned():
    rng = random.Random(1704)
    out = []
    for case in range(60):
        n = rng.randint(1, 4)
        a = rand_superform_mixed(rng, n)
        b = rand_superform_mixed(rng, n, pieces=1)
        p = rng.randint(1, n)
        c = rand_superform(rng, n, p, rng.randint(0, n))
        phi = rand_affine_map(rng, rng.randint(0, 3), n,
                              rank_deficient=(case % 3 == 0))
        scalar = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        for value in (a + b, a - b, -a, a * scalar, a.wedge(b), b.wedge(c),
                      a.d_prime(), a.d_second(), a.flip(), c.monodromy(),
                      phi.pullback(a), phi.pullback(c)):
            out.append(value.to_json_obj())
    assert json_digest(out) == PINNED_OPERATOR_OUTPUTS
