import random
from fractions import Fraction

import pytest

from conftest import json_digest
from tropmono.forms import AffineMap, Superform
from tropmono.linalg import QMatrix
from tropmono.poly import Poly, _accumulate
from tropmono.randgen import (_below, _sample, rand_affine_map,
                              rand_constant_simplex_form, rand_fraction,
                              rand_poly, rand_poly_simplex_form,
                              rand_superform, rand_superform_mixed)


def _draws(seed):
    """Every form-valued draw of one seeded stream, serialized, then the
    state of the stream after them."""
    rng = random.Random(seed)
    n = 1 + seed % 6
    p, q, degree = rng.randint(0, n), rng.randint(0, n), rng.randint(0, n)
    phi = rand_affine_map(rng, rng.randint(0, n), n,
                          rank_deficient=seed % 3 == 0)
    return [
        rand_poly(rng, n, max_degree=rng.randint(0, 3)).to_json_obj(),
        rand_superform(rng, n, p, q).to_json_obj(),
        rand_superform_mixed(rng, n, pieces=rng.randint(1, 3)).to_json_obj(),
        [phi.matrix.to_json_obj(), [str(t) for t in phi.translation]],
        rand_constant_simplex_form(rng, n, degree).to_json_obj(),
        rand_poly_simplex_form(rng, n, degree).to_json_obj(),
        rng.random(),
    ]


# SHA-256 of the draws of seeds 0..2999 (n = 1..6), recorded before the
# generators built their terms without the validating constructors.  The
# benchmark's fixed battery seeds and every pinned battery report rely on
# this stream.
PINNED_DRAWS = (
    "6b4211580c5f840c355a075c886c22651f8d8dbd5b45cf890a15033f7d19b7a4")


def test_draw_stream_pinned():
    assert json_digest([_draws(seed) for seed in range(3000)]) == PINNED_DRAWS


def test_kernel_reproduces_randrange_and_sample():
    # three draws of each per stream; n >= 22 with k = 2..5 takes sample's
    # set branch, every other pair its pool swap
    for n in range(1, 41):
        for k in range(n + 1):
            got, want = random.Random(41 * n + k), random.Random(41 * n + k)
            for _ in range(3):
                assert _below(got.getrandbits, n) == want.randrange(n)
                assert got.getstate() == want.getstate()
                assert _sample(got.getrandbits, n, k) == \
                    want.sample(range(n), k)
                assert got.getstate() == want.getstate()

    def no_word(k):
        # a rejection loop on n < 1 would never end: getrandbits(0) is 0
        raise AssertionError("a refused draw read the stream")

    rng = random.Random(0)
    state = rng.getstate()
    for n in (0, -1):
        for bits in (no_word, rng.getrandbits):
            with pytest.raises(ValueError):
                _below(bits, n)
    for k in (-1, 4):
        with pytest.raises(ValueError):
            _sample(rng.getrandbits, 3, k)
    assert rng.getstate() == state


def oracle_fraction(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def oracle_poly(rng, nvars, max_degree=2):
    """The draws written with randint and randrange, which the generators'
    choice over tables must reproduce value for value and state for state."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(nvars)] += 1
        _accumulate(terms, tuple(exps), oracle_fraction(rng))
    return Poly(nvars, terms)


def oracle_superform(rng, nvars, p, q):
    terms = {}
    for _ in range(rng.randint(1, 2)):
        dpr = tuple(sorted(rng.sample(range(nvars), p)))
        dsec = tuple(sorted(rng.sample(range(nvars), q)))
        _accumulate(terms, (dpr, dsec), oracle_poly(rng, nvars))
    return Superform(nvars, terms)


def oracle_superform_mixed(rng, nvars, pieces=2):
    terms = {}
    for _ in range(pieces):
        p, q = rng.randint(0, nvars), rng.randint(0, nvars)
        for key, f in oracle_superform(rng, nvars, p, q).terms.items():
            _accumulate(terms, key, f)
    return Superform(nvars, terms)


def oracle_affine_map(rng, source, target, rank_deficient=False):
    rows = [[oracle_fraction(rng) for _ in range(source)]
            for _ in range(target)]
    if rank_deficient and target >= 1:
        if target == 1 or rng.random() < 0.25:
            rows[rng.randrange(target)] = [Fraction(0)] * source
        else:
            i, j = rng.sample(range(target), 2)
            mult = oracle_fraction(rng)
            rows[i] = [mult * x for x in rows[j]]
    translation = [oracle_fraction(rng) for _ in range(target)]
    return AffineMap(QMatrix(rows, ncols=source), translation)


def _form_draws(rng, n, p, superform, mixed, affine):
    """A (p, q) form, a mixed form and two maps R^source -> R^n, the second
    with a forced rank drop, drawn in that order through the given
    generators, q and source from the same stream; each as its terms in
    order or its matrix and translation, or ValueError where it refuses."""
    q, source = rng.randint(0, n), rng.randint(0, n)
    out = []
    for draw, args in ((superform, (n, p, q)), (mixed, (n, 1 + n % 3)),
                       (affine, (source, n, False)),
                       (affine, (source, n, True))):
        try:
            x = draw(rng, *args)
        except ValueError:
            out.append(ValueError)
            continue
        out.append((x.matrix, x.translation) if isinstance(x, AffineMap)
                   else list(x.terms.items()))
    return out


def test_table_draws_match_the_randint_draws():
    for seed in range(3000):
        nvars, max_degree = 1 + seed % 8, seed // 8 % 4
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        got = [rand_fraction(got_rng), rand_poly(got_rng, nvars, max_degree),
               rand_fraction(got_rng)]
        want = [oracle_fraction(want_rng),
                oracle_poly(want_rng, nvars, max_degree),
                oracle_fraction(want_rng)]
        assert got == want
        assert list(got[1].terms.items()) == list(want[1].terms.items())
        assert type(got[0]) is type(got[2]) is Fraction
        assert all(type(c) is Fraction for c in got[1].terms.values())
        assert got_rng.getstate() == want_rng.getstate()
        n = seed % 9
        assert _form_draws(got_rng, n, seed % (n + 1), rand_superform,
                           rand_superform_mixed, rand_affine_map) == \
            _form_draws(want_rng, n, seed % (n + 1), oracle_superform,
                        oracle_superform_mixed, oracle_affine_map)
        assert got_rng.getstate() == want_rng.getstate()
    # dpr of 2..5 indices out of 22..30, and the rows of a rank drop, drawn
    # by sample's set branch
    for seed in range(18):
        n, k = 22 + seed % 9, 2 + seed % 4
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        assert _form_draws(got_rng, n, k, rand_superform,
                           rand_superform_mixed, rand_affine_map) == \
            _form_draws(want_rng, n, k, oracle_superform,
                        oracle_superform_mixed, oracle_affine_map)
        assert got_rng.getstate() == want_rng.getstate()


def test_poly_draw_refusals():
    with pytest.raises(ValueError):
        rand_poly(random.Random(0), 3, max_degree=-1)
    # no variables: a constant draw passes, a positive degree draw is refused
    refused = 0
    for seed in range(40):
        try:
            want = oracle_poly(random.Random(seed), 0, max_degree=2)
        except ValueError:
            refused += 1
            with pytest.raises(ValueError):
                rand_poly(random.Random(seed), 0, max_degree=2)
        else:
            assert rand_poly(random.Random(seed), 0, max_degree=2) == want
    assert 0 < refused < 40
