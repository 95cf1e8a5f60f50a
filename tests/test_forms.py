import itertools
import random
from fractions import Fraction

import pytest

from conftest import json_digest, matmul, matvec, sort_sign
from tropmono.forms import AffineMap, Superform
from tropmono.linalg import QMatrix, shuffle_sign
from tropmono.poly import Poly, _accumulate, _Terms
from tropmono.randgen import (rand_affine_map, rand_fraction, rand_point, rand_poly,
                              rand_superform, rand_superform_mixed)
from tropmono.simplex import SimplexForm


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


def hand_wedge(n, left, right):
    """The product of two sums of constant monomials, given as lists of
    (key, coefficient), multiplied out pair by pair with the symbol-sorting
    sign and summed."""
    out = Superform.zero(n)
    for k1, f in left:
        for k2, g in right:
            sign = oracle_wedge_sign(k1, k2)
            if sign is not None:
                merged = (tuple(sorted(k1[0] + k2[0])), tuple(sorted(k1[1] + k2[1])))
                out = out + monomial(n, *merged, sign * f * g)
    return out


def test_wedge_of_sums_matches_hand_products():
    # both sides of graded commutativity and associativity scale alike, so
    # only a product computed another way sees a wedge off by a constant
    rng = random.Random(25)

    def draw(n, count):
        return [((tuple(sorted(rng.sample(range(n), rng.randint(0, n)))),
                  tuple(sorted(rng.sample(range(n), rng.randint(0, n))))),
                 Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)))
                for _ in range(count)]

    multi_term = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        left, right = draw(n, rng.randint(1, 3)), draw(n, rng.randint(1, 2))
        a = sum((monomial(n, *k, c) for k, c in left), Superform.zero(n))
        b = sum((monomial(n, *k, c) for k, c in right), Superform.zero(n))
        want = hand_wedge(n, left, right)
        assert a.wedge(b) == want
        multi_term += len(a.terms) > 1 and not want.is_zero()
    assert multi_term > 50


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


def oracle_derivative(form, block, crossed=None):
    """The general exterior derivative loop: one Poly.derivative(i) per
    variable, dx_i merged into the block of K by shuffle_sign."""
    acc = {}
    for key, f in form.terms.items():
        indices = key if block is None else key[block]
        lead = -1 if crossed is not None and crossed(key) % 2 else 1
        for i in range(form.nvars):
            g = None if i in indices else f.derivative(i)
            if g:
                sign, merged = shuffle_sign((i,), indices)
                if block is not None:
                    merged = key[:block] + (merged,) + key[block + 1:]
                _accumulate(acc, merged, g if lead * sign > 0 else -g)
    return type(form)(form.nvars, acc)


def oracle_monodromy(omega):
    """N through the general shuffle_sign, one d' factor at a time."""
    acc = {}
    for (dpr, dsec), f in omega.terms.items():
        p = len(dpr)
        for k in range(p):
            sh = shuffle_sign((dpr[k],), dsec)
            if sh is None:
                continue
            sign, merged = sh
            if (p - 1 - k) % 2:
                sign = -sign
            _accumulate(acc, (dpr[:k] + dpr[k + 1:], merged),
                        f if sign > 0 else -f)
    return Superform(omega.nvars, acc)


def _rand_subset(rng, n, least=0):
    return tuple(sorted(rng.sample(range(n), rng.randint(least, n))))


def _assert_same_terms(got, want):
    """Equal stored terms, each coefficient a nonzero Poly of nonzero
    Fractions."""
    assert _Terms.__eq__(got, want)
    for f in got.terms.values():
        assert type(f) is Poly and f
        assert all(type(c) is Fraction and c for c in f.terms.values())


def test_derivatives_match_the_per_variable_oracle():
    rng = random.Random(2401)
    seen = {"repeated": 0, "squared": 0}
    for _ in range(400):
        n = rng.randint(1, 6)
        # mixed bidegrees, exponents up to 4
        keys = {(_rand_subset(rng, n), _rand_subset(rng, n))
                for _ in range(rng.randint(1, 3))}
        omega = Superform(n, {key: rand_poly(rng, n, max_degree=4)
                              for key in keys})
        _assert_same_terms(omega.d_prime(), oracle_derivative(omega, 0))
        _assert_same_terms(omega.d_second(),
                           oracle_derivative(omega, 1, lambda key: len(key[0])))
        faces = {_rand_subset(rng, n) for _ in range(rng.randint(1, 3))}
        alpha = SimplexForm(n, {face: rand_poly(rng, n, max_degree=4)
                                for face in faces})
        _assert_same_terms(alpha.exterior_derivative(),
                           oracle_derivative(alpha, None))
        for (dpr, _), f in omega.terms.items():
            for exps in f.terms:
                seen["repeated"] += any(exps[i] for i in dpr)
                seen["squared"] += any(e >= 2 for e in exps)
    # some x_i with dx_i already in K, some exponents of 2 or more
    assert seen["repeated"] > 100 and seen["squared"] > 100


def test_monodromy_matches_the_shuffle_oracle():
    rng = random.Random(2402)
    for _ in range(400):
        n = rng.randint(1, 6)
        keys = {(_rand_subset(rng, n, least=1), _rand_subset(rng, n))
                for _ in range(rng.randint(1, 3))}
        omega = Superform(n, {key: rand_poly(rng, n, max_degree=3)
                              for key in keys})
        _assert_same_terms(omega.monodromy(), oracle_monodromy(omega))


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
    matrix = matmul(outer.matrix, inner.matrix)
    shift = matvec(outer.matrix, inner.translation)
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
    phi = AffineMap(QMatrix([[], []], ncols=0), [Fraction(1, 2), 3])
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
        image = [matvec(phi.matrix, x)[i] + phi.translation[i] for i in range(n)]
        pulled = phi.pullback(omega).terms.get(((), ()), Poly.zero(m))
        assert pulled.eval_point(x) == f.eval_point(image)


def wedge_chain_pullback(phi: AffineMap, omega: Superform) -> Superform:
    """The pullback one factor at a time: f o phi, wedged with the pulled
    back d'x_i and then d''x_k, each a constant 1-form of the source."""
    m = phi.source_dim
    total = Superform.zero(m)
    for (dpr, dsec), f in omega.terms.items():
        value = f.eval_point(phi.translation) if m == 0 else f.eval_poly(
            [Poly.affine(m, phi.matrix.row(i), phi.translation[i])
             for i in range(phi.target_dim)])
        acc = Superform.monomial(m, (), (), value)
        for kind, block in ((0, dpr), (1, dsec)):
            for i in block:
                row = phi.matrix.row(i)
                one_form = Superform(m, {((j,), ()) if kind == 0 else ((), (j,)):
                                         Poly.const(m, row[j]) for j in range(m)})
                acc = acc.wedge(one_form)
        total = total + acc
    return total


def test_pullback_matches_the_wedge_chain():
    rng = random.Random(26)
    seen = set()
    for case in range(400):
        m = case % 5
        n = rng.randint(1, 5)
        phi = rand_affine_map(rng, m, n, rank_deficient=(case % 3 == 0))
        if case % 2:
            omega = rand_superform_mixed(rng, n)
        else:
            omega = rand_superform(rng, n, rng.randint(0, n), rng.randint(0, n))
        got = phi.pullback(omega)
        assert got == wedge_chain_pullback(phi, omega)
        for dpr, dsec in omega.terms:
            seen.add((m, max(len(dpr), len(dsec)) > m,
                      len({(len(i), len(j)) for i, j in omega.terms}) > 1))
    # every source dimension, with blocks longer than it and mixed bidegrees
    assert {(m, True, True) for m in range(4)} <= seen
    assert {(m, False, True) for m in range(5)} <= seen
    # maps into R^0, where only constants live: before, a source of
    # positive dimension raised instead of returning the constant
    rng = random.Random(27)
    for m in range(5):
        phi = rand_affine_map(rng, m, 0)
        c = rand_fraction(rng)
        assert phi.pullback(monomial(0, (), (), c)) == monomial(m, (), (), c)
        assert phi.pullback(Superform.zero(0)) == Superform.zero(m)


# SHA-256 of the serialized pullbacks below, recorded with the wedge-chain
# pullback; blocks of up to six indices reach deep minors.
PINNED_LARGE_PULLBACKS = (
    "70d6b4cd173caa9b6f34576e51e915722c7b9d8edf788e58e441e48c03e1825c")


def test_large_pullbacks_pinned():
    rng = random.Random(1705)
    out = []
    for case in range(24):
        n = rng.randint(5, 6)
        phi = rand_affine_map(rng, rng.randint(0, n), n,
                              rank_deficient=(case % 3 == 0))
        p = rng.randint(1, n)
        for omega in (rand_superform_mixed(rng, n),
                      rand_superform(rng, n, p, rng.randint(0, n))):
            out.append(phi.pullback(omega).to_json_obj())
    assert json_digest(out) == PINNED_LARGE_PULLBACKS


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
