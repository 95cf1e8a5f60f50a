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
from .poly import Poly
from .simplex import SimplexForm


def rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def rand_poly(rng: random.Random, nvars: int, max_degree: int = 2) -> Poly:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = [0] * nvars
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + rand_fraction(rng)
    return Poly(nvars, terms)


def rand_superform(rng: random.Random, nvars: int, p: int, q: int) -> Superform:
    """Homogeneous (p, q) form with one or two random monomials."""
    if p > nvars or q > nvars:
        raise ValueError("block degree exceeds the dimension")
    total = Superform.zero(nvars)
    for _ in range(rng.randint(1, 2)):
        dpr = tuple(sorted(rng.sample(range(nvars), p)))
        dsec = tuple(sorted(rng.sample(range(nvars), q)))
        total = total + Superform.monomial(
            nvars, dpr, dsec, rand_poly(rng, nvars))
    return total


def rand_superform_mixed(rng: random.Random, nvars: int,
                         pieces: int = 2) -> Superform:
    total = Superform.zero(nvars)
    for _ in range(pieces):
        p = rng.randint(0, nvars)
        q = rng.randint(0, nvars)
        total = total + rand_superform(rng, nvars, p, q)
    return total


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


def rand_constant_simplex_form(rng: random.Random, nvars: int,
                               degree: int) -> SimplexForm:
    """Constant-coefficient ambient form of one degree."""
    subsets = list(itertools.combinations(range(nvars), degree))
    total = SimplexForm.zero(nvars)
    for _ in range(rng.randint(1, 3)):
        subset = subsets[rng.randrange(len(subsets))]
        total = total + SimplexForm.monomial(
            nvars, subset, Poly.const(nvars, rand_fraction(rng)))
    return total


def rand_poly_simplex_form(rng: random.Random, nvars: int,
                           degree: int) -> SimplexForm:
    subsets = list(itertools.combinations(range(nvars), degree))
    total = SimplexForm.zero(nvars)
    for _ in range(rng.randint(1, 2)):
        subset = subsets[rng.randrange(len(subsets))]
        total = total + SimplexForm.monomial(
            nvars, subset, rand_poly(rng, nvars))
    return total


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
