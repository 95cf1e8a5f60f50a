"""Bundled stratum complexes and companion models.

These are the small fixtures the command line suite and the tests run
against: a single smooth component, two components meeting once, cycles,
and the boundary of a tetrahedron.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .dual_complex import H2Model, SemistableCombinatorics, Stratum
from .linalg import QMatrix
from .order_map import Presentation


def point_complex() -> SemistableCombinatorics:
    """One smooth component, nothing else."""
    return SemistableCombinatorics(["Y1"], [Stratum("Y1", (1,), {})])


def chain_complex() -> SemistableCombinatorics:
    """Two components meeting in a single stratum."""
    strata = [
        Stratum("Y1", (1,), {}),
        Stratum("Y2", (2,), {}),
        Stratum("Y12", (1, 2), {1: "Y2", 2: "Y1"}),
    ]
    return SemistableCombinatorics(["Y1", "Y2"], strata)


def cycle_complex(m: int) -> SemistableCombinatorics:
    """Cycle of m components, each meeting its two neighbours; m >= 3."""
    if m < 3:
        raise ValueError("a cycle needs at least 3 components")
    strata = [Stratum(f"Y{i}", (i,), {}) for i in range(1, m + 1)]
    for i in range(1, m + 1):
        j = i % m + 1
        a, b = min(i, j), max(i, j)
        strata.append(Stratum(f"E{a}_{b}", (a, b), {a: f"Y{b}", b: f"Y{a}"}))
    return SemistableCombinatorics([f"Y{i}" for i in range(1, m + 1)], strata)


def tetrahedron_complex() -> SemistableCombinatorics:
    """Boundary of the tetrahedron on four components: all six double and
    four triple strata."""
    strata = [Stratum(f"Y{i}", (i,), {}) for i in range(1, 5)]
    for a, b in itertools.combinations(range(1, 5), 2):
        strata.append(Stratum(f"E{a}_{b}", (a, b), {a: f"Y{b}", b: f"Y{a}"}))
    for a, b, c in itertools.combinations(range(1, 5), 3):
        parents = {a: f"E{b}_{c}", b: f"E{a}_{c}", c: f"E{a}_{b}"}
        strata.append(Stratum(f"V{a}_{b}_{c}", (a, b, c), parents))
    return SemistableCombinatorics([f"Y{i}" for i in range(1, 5)], strata)


def cycle_validation_h2(m: int) -> H2Model:
    """Cycle model carrying enough H2 data for the pushforward/pullback
    cancellation check.

    Components get two-dimensional spaces, edges one-dimensional ones.  Each
    edge class sits inside a parent as the vector (1, 1) and each parent
    restricts onto an edge by (1, -1), so every restricted Gysin class
    cancels exactly.  This is the rank-2 shadow of a product of a cycle
    degeneration with a fixed smooth curve (fiber and section class in a
    rotated basis); flipping any single sign breaks the cancellation.
    """
    complex_ = cycle_complex(m)
    dims = {s.label: 2 for s in complex_.level(0)}
    dims.update({s.label: 1 for s in complex_.level(1)})
    gysin = {}
    restrict = {}
    for parent in complex_.level(0):
        for child in complex_.children(parent.label):
            gysin[(parent.label, child.label)] = (Fraction(1), Fraction(1))
            restrict[(parent.label, child.label)] = QMatrix([[1, -1]])
    return H2Model(dims, gysin, restrict)


def all_ones_h2(complex_: SemistableCombinatorics) -> H2Model:
    """Naive model: every stratum one-dimensional, every Gysin vector and
    restriction entry equal to 1.  Useful as a negative control; it is not
    expected to satisfy the cancellation relation."""
    dims = {}
    gysin = {}
    restrict = {}
    for lvl in range(complex_.max_level + 1):
        for s in complex_.level(lvl):
            dims[s.label] = 1
            for child in complex_.children(s.label):
                gysin[(s.label, child.label)] = (Fraction(1),)
                restrict[(s.label, child.label)] = QMatrix([[1]])
    return H2Model(dims, gysin, restrict)


def cycle_orientation_presentations(m: int) -> list[Presentation]:
    """One weight-1 symbol per cycle component with exponent 1 along the wall
    to the cyclically next component."""
    out = []
    for i in range(1, m + 1):
        j = i % m + 1
        out.append(Presentation(component=i, weights=(Fraction(1),),
                                flags={(i, j): (((1,),),)}))
    return out


def cycle_presentations_from_tensor(m: int, weights, columns) -> list[Presentation]:
    """Cycle presentations induced by shared per-edge exponent tensors.

    ``columns[edge][l]`` is a pair (value at the lower vertex, value at the
    higher vertex) for the l-th symbol; the flag matrix of a component is the
    difference column relative to its own vertex.  All components covering an
    edge then describe the same order data, which is what the ladder check
    consumes.
    """
    weights = tuple(Fraction(w) for w in weights)
    flags: dict[int, dict[tuple[int, ...], tuple]] = {i: {} for i in range(1, m + 1)}
    for i in range(1, m + 1):
        j = i % m + 1
        a, b = min(i, j), max(i, j)
        cols = columns[(a, b)]
        if len(cols) != len(weights):
            raise ValueError("one column pair per weight required")
        flag_a = tuple(((col[1] - col[0],),) for col in cols)
        flag_b = tuple(((col[0] - col[1],),) for col in cols)
        flags[a][(a, b)] = flag_a
        flags[b][(b, a)] = flag_b
    return [Presentation(component=i, weights=weights, flags=flags[i])
            for i in range(1, m + 1)]


def simplicial_presentations_from_tensors(complex_: SemistableCombinatorics,
                                          weights, tensors) -> list[Presentation]:
    """Presentations for a simplicial complex induced by one shared exponent
    tensor per top stratum.

    ``tensors[top_label][l][k]`` lists one integer per vertex of the top
    stratum (in increasing component order).  Each component of a top
    stratum receives the full flag rooted at itself, with matrix entries
    a[l][k] = tensor value at the other vertex minus the value at the root,
    so that every covering presentation induces the same form.
    """
    weights = tuple(Fraction(w) for w in weights)
    top = complex_.level(complex_.max_level)
    flags: dict[int, dict[tuple[int, ...], tuple]] = {}
    for z in top:
        tensor = tensors[z.label]
        verts = z.index_set
        for root_pos, root in enumerate(verts):
            rest = verts[:root_pos] + verts[root_pos + 1:]
            mats = []
            for sheet in tensor:
                if len(weights) != len(tensor):
                    raise ValueError("one sheet per weight required")
                rows = []
                for row in sheet:
                    if len(row) != len(verts):
                        raise ValueError("one entry per vertex required")
                    rows.append(tuple(row[verts.index(v)] - row[root_pos]
                                      for v in rest))
                mats.append(tuple(rows))
            flags.setdefault(root, {})[(root,) + rest] = tuple(mats)
    return [Presentation(component=i, weights=weights, flags=flag_map)
            for i, flag_map in sorted(flags.items())]
