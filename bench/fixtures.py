"""Fixture complexes and order data for the benchmark, built through the
public tropmono API.

The library ships only cycles and the tetrahedron, so skeletons and
boundaries of simplices are assembled here from ``Stratum`` and
``SemistableCombinatorics``.  Every generator takes an explicit
``random.Random`` so the same workload seed gives the same files.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from tropmono.dual_complex import (H2Model, SemistableCombinatorics, Stratum,
                                   relabel_components)
from tropmono.library import simplicial_presentations_from_tensors
from tropmono.linalg import QMatrix
from tropmono.order_map import Presentation


def _label(index_set) -> str:
    if len(index_set) == 1:
        return f"Y{index_set[0]}"
    return "Z" + "_".join(map(str, index_set))


def simplex_skeleton(vertices: int, k: int) -> SemistableCombinatorics:
    """k-skeleton of the simplex on components 1..vertices: one stratum per
    vertex subset of size 1..k+1."""
    if not 0 <= k < vertices:
        raise ValueError("need 0 <= k < vertices")
    strata = []
    for size in range(1, k + 2):
        for subset in itertools.combinations(range(1, vertices + 1), size):
            parents = {}
            if size > 1:
                parents = {v: _label(tuple(w for w in subset if w != v))
                           for v in subset}
            strata.append(Stratum(_label(subset), subset, parents))
    return SemistableCombinatorics([f"Y{i}" for i in range(1, vertices + 1)],
                                   strata)


def simplex_boundary(n: int) -> SemistableCombinatorics:
    """Boundary of the n-simplex: the (n-1)-skeleton on n+1 components, a
    sphere of dimension n-1."""
    return simplex_skeleton(n + 1, n - 1)


def shuffled(complex_: SemistableCombinatorics,
             rng: random.Random) -> SemistableCombinatorics:
    """The same complex with its component indices permuted at random;
    labels, listing order and every cohomology dimension are unchanged."""
    m = len(complex_.components)
    images = list(range(1, m + 1))
    rng.shuffle(images)
    return relabel_components(complex_, dict(zip(range(1, m + 1), images)))


def validation_h2(complex_: SemistableCombinatorics) -> H2Model:
    """Rank-2 cycle model whose pushforward/restriction composite cancels:
    two-dimensional components, one-dimensional edges, Gysin vectors (1, 1)
    and restrictions (1, -1), as in ``library.cycle_validation_h2`` but for
    any relabelling of the cycle."""
    dims = {s.label: 2 for s in complex_.level(0)}
    dims.update({s.label: 1 for s in complex_.level(1)})
    gysin = {}
    restrict = {}
    for parent in complex_.level(0):
        for child in complex_.children(parent.label):
            gysin[(parent.label, child.label)] = (Fraction(1), Fraction(1))
            restrict[(parent.label, child.label)] = QMatrix([[1, -1]])
    return H2Model(dims, gysin, restrict)


def cycle_kernel_presentations(m: int, rng: random.Random, weights: int = 2
                               ) -> tuple[list[Presentation], Fraction]:
    """Presentations on the cycle 1..m whose order vector lies in the kernel
    of the unit Gysin pushforward, so that ``ord check --p 1`` passes, and
    the oriented edge value they induce.

    Each edge is recorded from both endpoints.  Symbol l climbs by c_l
    along every edge i -> i+1 from a random per-edge offset, and the
    closing edge (1, m) falls by c_l.  Every edge E_i_(i+1) then carries
    the value sum_l w_l c_l and E_1_m its negative: a multiple of the
    fundamental cycle.
    """
    ws = [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(weights)]
    steps = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(weights)]
    flags: dict[int, dict[tuple[int, int], tuple]] = {i: {} for i in range(1, m + 1)}
    for i in range(1, m + 1):
        j = i % m + 1
        a, b = min(i, j), max(i, j)
        mats_a, mats_b = [], []
        for c in steps:
            low = rng.randint(-4, 4)
            high = low + c if j == b else low - c
            mats_a.append(((high - low,),))
            mats_b.append(((low - high,),))
        flags[a][(a, b)] = tuple(mats_a)
        flags[b][(b, a)] = tuple(mats_b)
    presentations = [Presentation(component=i, weights=tuple(ws), flags=flags[i])
                     for i in range(1, m + 1)]
    return presentations, sum((w * c for w, c in zip(ws, steps)), Fraction(0))


def simplicial_presentations(complex_: SemistableCombinatorics, p: int,
                             rng: random.Random, weights: int = 2):
    """Degree-p presentations on a simplicial complex from one global integer
    per (weight, row, vertex); returns (presentations, weights, table) with
    ``table[l][k][v]`` the integer of weight l, row k at vertex v.

    Every top stratum reads its tensor off the same global table, so faces
    shared by several top strata get one order value.  Independent random
    tensors per top stratum would disagree below the top level and make
    ``dolbeault_ladder`` refuse the data.
    """
    ws = [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(weights)]
    vertices = range(1, len(complex_.components) + 1)
    table = [[{v: rng.randint(-3, 3) for v in vertices} for _ in range(p)]
             for _ in range(weights)]
    tensors = {
        z.label: [[[row[v] for v in z.index_set] for row in sheet]
                  for sheet in table]
        for z in complex_.level(complex_.max_level)
    }
    presentations = simplicial_presentations_from_tensors(complex_, ws, tensors)
    return presentations, ws, table
