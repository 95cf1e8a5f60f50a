"""Bundled stratum complexes and companion models.

These are the small fixtures the command line suite and the tests run
against: a single smooth component, two components meeting once, cycles,
the boundary of a tetrahedron, the 7-vertex torus, the 6-vertex real
projective plane, and the join and the disjoint union of two simplicial
complexes.
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


def _label(index_set) -> str:
    """Y1 for a component, Z1_2, Z1_2_3, ... for the strata above it."""
    return ("Y" if len(index_set) == 1 else "Z") + "_".join(map(str, index_set))


def _simplicial(m: int, faces) -> SemistableCombinatorics:
    """The complex on components 1..m with one stratum per nonempty subset
    of a given face, listed by level, then by index set."""
    closed = {sub for face in faces for size in range(1, len(face) + 1)
              for sub in itertools.combinations(sorted(face), size)}
    strata = [Stratum(_label(s), s, {v: _label(tuple(w for w in s if w != v))
                                     for v in s} if len(s) > 1 else {})
              for s in sorted(closed, key=lambda s: (len(s), s))]
    return SemistableCombinatorics([f"Y{i}" for i in range(1, m + 1)], strata)


def torus_complex() -> SemistableCombinatorics:
    """The 7-vertex torus: triangles {i, i+1, i+3} and {i, i+2, i+3} mod 7,
    on 21 edges; its E2 dimensions are (1, 2, 1)."""
    return _simplicial(7, [{i % 7 + 1, (i + a) % 7 + 1, (i + 3) % 7 + 1}
                           for i in range(7) for a in (1, 2)])


def rp2_complex() -> SemistableCombinatorics:
    """The 6-vertex real projective plane (half an icosahedron): 10
    triangles on 15 edges; over the rationals its E2 dimensions are
    (1, 0, 0)."""
    return _simplicial(6, [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
                           (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6)])


def _faces(complex_: SemistableCombinatorics, shift: int, what: str) -> list[tuple]:
    """The index sets of a complex with one stratum per index set, its
    components numbered from shift + 1; what names the refused construction."""
    if not complex_.index_sets_unique():
        raise ValueError(f"{what} needs one stratum per index set")
    return [tuple(shift + i for i in s.index_set)
            for lvl in range(complex_.max_level + 1) for s in complex_.level(lvl)]


def join(a: SemistableCombinatorics, b: SemistableCombinatorics) -> SemistableCombinatorics:
    """The join of two complexes with one stratum per index set: a stratum
    per union of an index set of a, or none, with one of b, or none, b's
    components numbered after a's."""
    m = len(a.components)
    sets = [[()] + _faces(a, 0, "a join"), [()] + _faces(b, m, "a join")]
    return _simplicial(m + len(b.components), [x + y for x in sets[0] for y in sets[1]])


def disjoint_union(a: SemistableCombinatorics,
                   b: SemistableCombinatorics) -> SemistableCombinatorics:
    """The disjoint union of two complexes with one stratum per index set:
    the strata of a, then those of b, b's components numbered after a's."""
    m = len(a.components)
    return _simplicial(m + len(b.components),
                       _faces(a, 0, "a disjoint union") + _faces(b, m, "a disjoint union"))


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
    pairs = [(w, z.label) for z in complex_.level(1) for w in z.parents.values()]
    return H2Model(dims, dict.fromkeys(pairs, (Fraction(1), Fraction(1))),
                   dict.fromkeys(pairs, QMatrix([[1, -1]])))


def all_ones_h2(complex_: SemistableCombinatorics) -> H2Model:
    """Naive model: every stratum one-dimensional, every Gysin vector and
    restriction entry equal to 1.  Useful as a negative control; it is not
    expected to satisfy the cancellation relation."""
    strata = [s for lvl in range(complex_.max_level + 1) for s in complex_.level(lvl)]
    pairs = [(w, z.label) for z in strata for w in z.parents.values()]
    return H2Model({s.label: 1 for s in strata},
                   dict.fromkeys(pairs, (Fraction(1),)),
                   dict.fromkeys(pairs, QMatrix([[1]])))


def cycle_orientation_presentations(m: int) -> list[Presentation]:
    """One weight-1 symbol per cycle component with exponent 1 along the wall
    to the cyclically next component."""
    out = []
    for i in range(1, m + 1):
        j = i % m + 1
        out.append(Presentation(component=i, weights=(Fraction(1),),
                                flags={(i, j): (((1,),),)}))
    return out


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
