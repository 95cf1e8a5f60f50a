"""Seeded random inputs for the property suites.

Everything takes an explicit random.Random so that command line reports are
reproducible byte for byte.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .forms import AffineMap, Superform
from .linalg import QMatrix
from .poly import Poly, _accumulate
from .simplex import SimplexForm


# _FRACTIONS[a + 4][b - 1] is Fraction(a, b) for a in -4..4 and b in 1..3.
# choice(seq) draws seq[_randbelow(len(seq))] and randint(lo, hi) draws
# lo + _randbelow(hi - lo + 1), so choice over a table or a range consumes
# the stream exactly as randint over the same values does.
_FRACTIONS = tuple(tuple(Fraction(a, b) for b in range(1, 4))
                   for a in range(-4, 5))
_TERM_COUNTS = (1, 2, 3)


def rand_fraction(rng: random.Random) -> Fraction:
    return rng.choice(rng.choice(_FRACTIONS))


def rand_poly(rng: random.Random, nvars: int, max_degree: int = 2) -> Poly:
    if max_degree < 0:
        raise ValueError("max_degree must be at least 0")
    choice, degrees, variables = rng.choice, range(max_degree + 1), range(nvars)
    terms: dict = {}
    for _ in range(choice(_TERM_COUNTS)):
        exps = [0] * nvars
        degree = choice(degrees)
        if degree and nvars < 1:
            raise ValueError("no variable to raise to a positive degree")
        for _ in range(degree):
            exps[choice(variables)] += 1
        _accumulate(terms, tuple(exps), choice(choice(_FRACTIONS)))
    return Poly._made(nvars, terms)


def rand_superform(rng: random.Random, nvars: int, p: int, q: int) -> Superform:
    """Homogeneous (p, q) form with one or two random monomials."""
    if p > nvars or q > nvars:
        raise ValueError("block degree exceeds the dimension")
    terms: dict = {}
    for _ in range(rng.randint(1, 2)):
        dpr = tuple(sorted(rng.sample(range(nvars), p)))
        dsec = tuple(sorted(rng.sample(range(nvars), q)))
        _accumulate(terms, (dpr, dsec), rand_poly(rng, nvars))
    return Superform._made(nvars, terms)


def rand_superform_mixed(rng: random.Random, nvars: int,
                         pieces: int = 2) -> Superform:
    terms: dict = {}
    for _ in range(pieces):
        p = rng.randint(0, nvars)
        q = rng.randint(0, nvars)
        for key, f in rand_superform(rng, nvars, p, q).terms.items():
            _accumulate(terms, key, f)
    return Superform._made(nvars, terms)


def rand_affine_map(rng: random.Random, source: int, target: int,
                    rank_deficient: bool = False) -> AffineMap:
    """Random rational affine map; optionally force a rank drop by writing
    one row as a multiple of another (or zeroing it when target is 1)."""
    rows = [[rand_fraction(rng) for _ in range(source)] for _ in range(target)]
    if rank_deficient and target >= 1:
        if target == 1 or rng.random() < 0.25:
            rows[rng.randrange(target)] = [Fraction(0)] * source
        else:
            i, j = rng.sample(range(target), 2)
            mult = rand_fraction(rng)
            rows[i] = [mult * x for x in rows[j]]
    translation = [rand_fraction(rng) for _ in range(target)]
    return AffineMap(QMatrix(rows, ncols=source), translation)


def _rand_simplex_form(rng: random.Random, nvars: int, degree: int,
                      most: int, coeff) -> SimplexForm:
    """Between one and most random monomials of one degree, each with the
    coefficient coeff() drawn after its face."""
    subsets = list(itertools.combinations(range(nvars), degree))
    terms: dict = {}
    for _ in range(rng.randint(1, most)):
        subset = subsets[rng.randrange(len(subsets))]
        _accumulate(terms, subset, coeff())
    return SimplexForm._made(nvars, terms)


def rand_constant_simplex_form(rng: random.Random, nvars: int,
                               degree: int) -> SimplexForm:
    """Constant-coefficient ambient form of one degree."""
    return _rand_simplex_form(rng, nvars, degree, 3,
                              lambda: Poly.const(nvars, rand_fraction(rng)))


def rand_poly_simplex_form(rng: random.Random, nvars: int,
                           degree: int) -> SimplexForm:
    return _rand_simplex_form(rng, nvars, degree, 2,
                              lambda: rand_poly(rng, nvars))


def rand_hyperplane_point(rng: random.Random, nvars: int) -> tuple[Fraction, ...]:
    """Random rational point with coordinate sum 1."""
    raw = [Fraction(rng.randint(-2, 4), rng.randint(1, 3)) for _ in range(nvars)]
    total = sum(raw, Fraction(0))
    raw[-1] += 1 - total
    return tuple(raw)


def rand_point(rng: random.Random, nvars: int) -> tuple[Fraction, ...]:
    return tuple(rand_fraction(rng) for _ in range(nvars))


def rand_int_matrix(rng: random.Random, nrows: int, ncols: int,
                    span: int = 3) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(rng.randint(-span, span) for _ in range(ncols))
                 for _ in range(nrows))
