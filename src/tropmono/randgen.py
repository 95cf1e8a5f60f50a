"""Seeded random inputs for the property suites.

Everything takes an explicit random.Random so that command line reports are
reproducible byte for byte.  The superform battery's draws (rand_fraction,
rand_poly, rand_superform, rand_superform_mixed, rand_affine_map) run on one
kernel over the public getrandbits that reproduces random.Random's choice,
randint, randrange and sample(range(n), k) word for word; the kernel and
oracle tests in tests/test_randgen.py pin values and getstate() against them.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import ceil, log

from .forms import AffineMap, Superform
from .linalg import QMatrix
from .poly import Poly, _accumulate
from .simplex import SimplexForm


# _FRACTIONS[a + 4][b - 1] is Fraction(a, b) for a in -4..4 and b in 1..3,
# picked by two kernel draws (a row, then an entry), which consume the
# stream exactly as randint(-4, 4) and randint(1, 3) do.
_FRACTIONS = tuple(tuple(Fraction(a, b) for b in range(1, 4))
                   for a in range(-4, 5))


def _below(bits, n: int) -> int:
    """random.Random._randbelow(n) from bits, the stream's getrandbits:
    k = n.bit_length() bits, drawn again while they read n or more."""
    if n < 1:
        raise ValueError("nothing to draw below 1")
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _sample(bits, n: int, k: int) -> list[int]:
    """random.Random.sample(range(n), k) in selection order, by its own two
    branches: a pool swap when range(n) is no larger than the set it would
    track, else redraws of the values already chosen."""
    if not 0 <= k <= n:
        raise ValueError("sample larger than population or is negative")
    if n > 21 + (4 ** ceil(log(k * 3, 4)) if k > 5 else 0):
        chosen: dict = {}  # a redraw of a chosen value keeps its place
        while len(chosen) < k:
            chosen[_below(bits, n)] = None
        return list(chosen)
    pool, out = list(range(n)), []
    for m in range(n, n - k, -1):
        j = _below(bits, m)
        out.append(pool[j])
        pool[j] = pool[m - 1]
    return out


def rand_fraction(rng: random.Random) -> Fraction:
    return _FRACTIONS[_below(rng.getrandbits, 9)][_below(rng.getrandbits, 3)]


def rand_poly(rng: random.Random, nvars: int, max_degree: int = 2) -> Poly:
    if max_degree < 0:
        raise ValueError("max_degree must be at least 0")
    bits = rng.getrandbits
    terms: dict = {}
    for _ in range(1 + _below(bits, 3)):
        exps = [0] * nvars
        degree = _below(bits, max_degree + 1)
        if degree and nvars < 1:
            raise ValueError("no variable to raise to a positive degree")
        for _ in range(degree):
            exps[_below(bits, nvars)] += 1
        _accumulate(terms, tuple(exps),
                    _FRACTIONS[_below(bits, 9)][_below(bits, 3)])
    return Poly._made(nvars, terms)


def rand_superform(rng: random.Random, nvars: int, p: int, q: int) -> Superform:
    """Homogeneous (p, q) form with one or two random monomials."""
    if p > nvars or q > nvars:
        raise ValueError("block degree exceeds the dimension")
    bits = rng.getrandbits
    terms: dict = {}
    for _ in range(1 + _below(bits, 2)):
        dpr = tuple(sorted(_sample(bits, nvars, p)))
        dsec = tuple(sorted(_sample(bits, nvars, q)))
        _accumulate(terms, (dpr, dsec), rand_poly(rng, nvars))
    return Superform._made(nvars, terms)


def rand_superform_mixed(rng: random.Random, nvars: int,
                         pieces: int = 2) -> Superform:
    terms: dict = {}
    for _ in range(pieces):
        p = _below(rng.getrandbits, nvars + 1)
        q = _below(rng.getrandbits, nvars + 1)
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
            rows[_below(rng.getrandbits, target)] = [Fraction(0)] * source
        else:
            i, j = _sample(rng.getrandbits, target, 2)
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
