import random
from fractions import Fraction

import pytest

from conftest import json_digest
from tropmono.poly import Poly, _accumulate
from tropmono.randgen import (rand_affine_map, rand_constant_simplex_form,
                              rand_fraction, rand_poly, rand_poly_simplex_form,
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
