import random

from conftest import json_digest
from tropmono.randgen import (rand_affine_map, rand_constant_simplex_form,
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
