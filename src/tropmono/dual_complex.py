"""Stratum combinatorics of a normal crossing special fiber.

A complex records the components 1..m and, for each level p, the strata cut
out by p+1 of them.  Every stratum points at its p+1 parents one level down
(remove one component from its index set).  On top of the combinatorics an
H2 model assigns each stratum a finite dimension together with Gysin vectors
(child class inside the parent's space) and optional restriction matrices
(parent space to child space).

The alternating-sign rule is the standard one: dropping the j-th smallest
element of an index set costs (-1)^j.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from . import linalg
from .linalg import QMatrix, Vector, as_fraction, rat_str

IndexSet = tuple[int, ...]


@dataclass(frozen=True)
class Stratum:
    label: str
    index_set: IndexSet
    parents: Mapping[int, str]  # removed component -> parent label

    @property
    def level(self) -> int:
        return len(self.index_set) - 1


def removal_sign(index_set: IndexSet, removed: int) -> int:
    """(-1)^j where the removed component is the j-th smallest."""
    j = index_set.index(removed)
    return -1 if j % 2 else 1


class SemistableCombinatorics:
    """Validated stratum poset.  Level 0 bijects with the components; higher
    strata name all their one-step degenerations."""

    def __init__(self, components: Sequence[str], strata: Sequence[Stratum]):
        components = tuple(components)
        if len(set(components)) != len(components):
            raise ValueError("duplicate component names")
        if not components:
            raise ValueError("a complex needs at least one component")
        self.components = components
        m = len(components)
        labels = [s.label for s in strata]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate stratum labels")
        by_level: dict[int, list[Stratum]] = {}
        by_label: dict[str, Stratum] = {}
        # the first stratum listed wins an index set
        self._by_index_set: dict[IndexSet, Stratum] = {}
        for s in strata:
            idx = tuple(s.index_set)
            if any(not 1 <= i <= m for i in idx):
                raise ValueError(f"stratum {s.label}: component index out of range")
            if any(idx[k] >= idx[k + 1] for k in range(len(idx) - 1)):
                raise ValueError(f"stratum {s.label}: index set must be increasing")
            by_level.setdefault(s.level, []).append(s)
            by_label[s.label] = s
            self._by_index_set.setdefault(idx, s)
        level0 = by_level.get(0, [])
        if sorted(s.index_set[0] for s in level0) != list(range(1, m + 1)):
            raise ValueError("level-0 strata must biject with the components")
        levels = sorted(by_level)
        if levels and levels != list(range(levels[-1] + 1)):
            raise ValueError("levels must be contiguous from 0")
        # children in listing order
        self._children: dict[str, list[Stratum]] = {label: [] for label in labels}
        for s in strata:
            if s.level == 0:
                if s.parents:
                    raise ValueError(f"stratum {s.label}: level 0 has no parents")
                continue
            if set(s.parents) != set(s.index_set):
                raise ValueError(f"stratum {s.label}: need one parent per component")
            for removed, parent_label in s.parents.items():
                parent = by_label.get(parent_label)
                if parent is None:
                    raise ValueError(f"stratum {s.label}: unknown parent {parent_label}")
                expected = tuple(i for i in s.index_set if i != removed)
                if parent.index_set != expected:
                    raise ValueError(f"stratum {s.label}: parent {parent_label} "
                                     "has the wrong index set")
                self._children[parent_label].append(s)
        # two-step consistency: removing i then j must meet removing j then i
        for s in strata:
            if s.level < 2:
                continue
            for i, j in itertools.combinations(s.index_set, 2):
                via_i = by_label[by_label[s.parents[i]].parents[j]]
                via_j = by_label[by_label[s.parents[j]].parents[i]]
                if via_i.label != via_j.label:
                    raise ValueError(f"stratum {s.label}: parent squares do not close")
        self._by_level = {lvl: tuple(group) for lvl, group in by_level.items()}
        self._by_label = by_label

    @property
    def max_level(self) -> int:
        return max(self._by_level) if self._by_level else -1

    def level(self, p: int) -> tuple[Stratum, ...]:
        return self._by_level.get(p, ())

    def children(self, label: str) -> list[Stratum]:
        return list(self._children[label])

    def index_sets_unique(self) -> bool:
        return len(self._by_index_set) == len(self._by_label)

    def stratum_by_index_set(self, index_set: Sequence[int]) -> Optional[Stratum]:
        return self._by_index_set.get(tuple(index_set))


class H2Model:
    """Finite-dimensional stand-ins for the degree-2 cohomology of strata."""

    def __init__(self, dims: Mapping[str, int],
                 gysin: Mapping[tuple[str, str], Sequence] = (),
                 restrict: Mapping[tuple[str, str], QMatrix] = ()):
        self.dims = {label: int(d) for label, d in dims.items()}
        if any(d < 0 for d in self.dims.values()):
            raise ValueError("negative dimension")
        self.gysin = {key: tuple(as_fraction(x) for x in vec)
                      for key, vec in dict(gysin).items()}
        for (parent, child), vec in self.gysin.items():
            if len(vec) != self.dim(parent):
                raise ValueError(f"Gysin vector for {child} in {parent} has wrong length")
        self.restrict = dict(restrict)

    def dim(self, label: str) -> int:
        return self.dims.get(label, 0)

    def gysin_vector(self, parent: str, child: str) -> Vector:
        vec = self.gysin.get((parent, child))
        return (Fraction(0),) * self.dim(parent) if vec is None else vec

    def restriction(self, parent: str, child: str) -> QMatrix:
        mat = self.restrict.get((parent, child))
        if mat is None:
            raise ValueError(f"missing restriction data for {parent} -> {child}")
        if (mat.nrows, mat.ncols) != (self.dim(child), self.dim(parent)):
            raise ValueError(f"restriction {parent} -> {child} has wrong shape")
        return mat


def unit_h2(complex_: SemistableCombinatorics, level: int = 0) -> H2Model:
    """One-dimensional spaces with unit Gysin vectors at the given level;
    all other strata get dimension 0.  This matches curve strata inside a
    one-parameter surface degeneration."""
    dims = {s.label: 1 for s in complex_.level(level)}
    gysin = {}
    for parent in complex_.level(level):
        for child in complex_.children(parent.label):
            gysin[(parent.label, child.label)] = (Fraction(1),)
    return H2Model(dims, gysin)


def delta_pullback(complex_: SemistableCombinatorics, p: int) -> QMatrix:
    """Alternating restriction map from level-p to level-(p+1) H^0 spaces:
    rows are level p+1 strata, columns level p, entry (-1)^j when the column
    is the row's parent at its j-th component."""
    rows = complex_.level(p + 1)
    cols = complex_.level(p)
    col_pos = {s.label: k for k, s in enumerate(cols)}
    data = [[0] * len(cols) for _ in rows]
    for r, z in enumerate(rows):
        for removed, parent_label in z.parents.items():
            data[r][col_pos[parent_label]] += removal_sign(z.index_set, removed)
    return QMatrix(data, ncols=len(cols))


def h2_offsets(complex_: SemistableCombinatorics, h2: H2Model, p: int) -> dict[str, int]:
    """Starting row of each level-p stratum inside the stacked H2 space."""
    offsets = {}
    total = 0
    for s in complex_.level(p):
        offsets[s.label] = total
        total += h2.dim(s.label)
    return offsets


def delta_pushforward(complex_: SemistableCombinatorics, h2: H2Model, p: int) -> QMatrix:
    """Gysin map from level-p H^0 into the stacked level-(p-1) H2 spaces.
    The column of a stratum Z places sign(removal) times its Gysin vector in
    each parent's block."""
    if p < 1:
        return QMatrix.zeros(0, len(complex_.level(p)))
    cols = complex_.level(p)
    offsets = h2_offsets(complex_, h2, p - 1)
    nrows = sum(h2.dim(s.label) for s in complex_.level(p - 1))
    data = [[Fraction(0)] * len(cols) for _ in range(nrows)]
    for c, z in enumerate(cols):
        for removed, parent_label in z.parents.items():
            sign = removal_sign(z.index_set, removed)
            vec = h2.gysin_vector(parent_label, z.label)
            base = offsets[parent_label]
            for k, val in enumerate(vec):
                data[base + k][c] += sign * val
    return QMatrix(data, ncols=len(cols))


def h2_pullback(complex_: SemistableCombinatorics, h2: H2Model, p: int) -> QMatrix:
    """Alternating restriction on the H2 level, stacked level-p blocks to
    stacked level-(p+1) blocks.  Needs restriction matrices."""
    src = complex_.level(p)
    dst = complex_.level(p + 1)
    src_off = h2_offsets(complex_, h2, p)
    dst_off = h2_offsets(complex_, h2, p + 1)
    nrows = sum(h2.dim(s.label) for s in dst)
    ncols = sum(h2.dim(s.label) for s in src)
    data = [[Fraction(0)] * ncols for _ in range(nrows)]
    for z in dst:
        dz = h2.dim(z.label)
        if dz == 0:
            continue
        for removed, parent_label in z.parents.items():
            dw = h2.dim(parent_label)
            if dw == 0:
                continue
            sign = removal_sign(z.index_set, removed)
            mat = h2.restriction(parent_label, z.label)
            rb, cb = dst_off[z.label], src_off[parent_label]
            for i in range(dz):
                for j in range(dw):
                    data[rb + i][cb + j] += sign * mat[i, j]
    return QMatrix(data, ncols=ncols)


def relation_composite(complex_: SemistableCombinatorics, h2: H2Model, p: int) -> QMatrix:
    """Restricting after pushing forward plus pushing forward after
    restricting, as maps out of level-p H^0; the relation holds when this is
    zero.  Defined for p >= 1; the p-1 level must carry restriction data
    wherever both its dimension and a child dimension are positive."""
    if p < 1:
        raise ValueError("the relation pairs levels p-1 and p+1; need p >= 1")
    first = h2_pullback(complex_, h2, p - 1) @ delta_pushforward(complex_, h2, p)
    second = delta_pushforward(complex_, h2, p + 1) @ delta_pullback(complex_, p)
    return first + second


@dataclass(frozen=True)
class E2Summary:
    p: int
    dim: int
    kernel: tuple[Vector, ...]
    image: tuple[Vector, ...]
    representatives: tuple[Vector, ...]


def e2_p0(complex_: SemistableCombinatorics, p: int) -> E2Summary:
    """Kernel of the level-p restriction modulo the image from level p-1,
    with deterministic representatives: the image columns, then the kernel
    vectors, pass in order through one echelon, and the first independent
    ones in scan order are kept."""
    ncols = len(complex_.level(p))
    ker = linalg.kernel_basis(delta_pullback(complex_, p))
    echelon = linalg.Echelon(ncols)
    image = ([] if p == 0 else
             [v for v in delta_pullback(complex_, p - 1).transpose().data
              if echelon.add(v)])
    reps = [v for v in ker if echelon.add(v)]
    return E2Summary(p, len(reps), tuple(ker), tuple(image), tuple(reps))


@dataclass(frozen=True)
class CornerMonodromy:
    p: int
    matrix: QMatrix          # coordinates in the representative basis
    domain_dim: int
    codomain_dim: int
    injective: bool
    surjective: bool

    @property
    def isomorphism(self) -> bool:
        return self.injective and self.surjective


def corner_monodromy(complex_: SemistableCombinatorics, h2: H2Model, p: int) -> CornerMonodromy:
    """The identity-induced comparison from the joint kernel of the level-p
    restriction and the Gysin pushforward into the restriction quotient: each
    kernel vector is expressed in the image basis plus quotient
    representatives, and only the representative coordinates survive."""
    corner = linalg.kernel_basis(
        delta_pullback(complex_, p).vstack(delta_pushforward(complex_, h2, p)))
    summary = e2_p0(complex_, p)
    mixed = list(summary.image) + list(summary.representatives)
    cols = QMatrix.from_columns(mixed, nrows=len(complex_.level(p)))
    out_cols = []
    for coords in linalg.solve_many(cols, corner):
        if coords is None:
            raise RuntimeError("corner kernel does not lie in the restriction kernel")
        out_cols.append(coords[len(summary.image):])
    matrix = QMatrix.from_columns(out_cols, nrows=summary.dim)
    r = linalg.rank(matrix)
    return CornerMonodromy(
        p=p,
        matrix=matrix,
        domain_dim=len(corner),
        codomain_dim=summary.dim,
        injective=(r == len(corner)),
        surjective=(r == summary.dim),
    )


def check_vanishing_vector(complex_: SemistableCombinatorics, h2: H2Model, p: int,
                           vector: Sequence) -> tuple[bool, bool]:
    """(pullback vanishes, pushforward vanishes) for a level-p vector."""
    vec = [as_fraction(x) for x in vector]
    pull = delta_pullback(complex_, p).matvec(vec)
    push = delta_pushforward(complex_, h2, p).matvec(vec)
    return (all(x == 0 for x in pull), all(x == 0 for x in push))


def relabel_components(complex_: SemistableCombinatorics,
                       perm: Mapping[int, int]) -> SemistableCombinatorics:
    """Apply a permutation of the component indices; stratum labels and the
    listing order are preserved."""
    new_strata = []
    for lvl in range(complex_.max_level + 1):
        for s in complex_.level(lvl):
            idx = tuple(sorted(perm[i] for i in s.index_set))
            parents = {perm[i]: lbl for i, lbl in s.parents.items()}
            new_strata.append(Stratum(s.label, idx, parents))
    return SemistableCombinatorics(complex_.components, new_strata)


# JSON wire format ---------------------------------------------------------

def complex_to_json(complex_: SemistableCombinatorics,
                    h2: Optional[H2Model] = None) -> dict:
    strata = []
    for lvl in range(complex_.max_level + 1):
        for s in complex_.level(lvl):
            entry = {
                "label": s.label,
                "level": lvl,
                "indexSet": list(s.index_set),
            }
            if lvl > 0:
                entry["parents"] = {str(i): lbl for i, lbl in sorted(s.parents.items())}
            strata.append(entry)
    out = {"components": list(complex_.components), "strata": strata}
    if h2 is not None:
        h2_obj: dict[str, dict] = {}
        for label, d in sorted(h2.dims.items()):
            h2_obj[label] = {"dim": d}
        for (parent, child), vec in sorted(h2.gysin.items()):
            h2_obj.setdefault(parent, {"dim": h2.dim(parent)})
            h2_obj[parent].setdefault("gysin", {})[child] = [rat_str(x) for x in vec]
        for (parent, child), mat in sorted(h2.restrict.items()):
            h2_obj.setdefault(parent, {"dim": h2.dim(parent)})
            h2_obj[parent].setdefault("restrict", {})[child] = mat.to_json_obj()
        out["h2"] = h2_obj
    return out


def complex_from_json(obj: Mapping) -> tuple[SemistableCombinatorics, Optional[H2Model]]:
    components = [str(c) for c in obj["components"]]
    strata = []
    for entry in obj["strata"]:
        label = str(entry["label"])
        index_set = entry["indexSet"]
        # type(...) is int: JSON true/false, floats and strings are refused
        if (not isinstance(index_set, list)
                or any(type(i) is not int for i in index_set)):
            raise ValueError(f"stratum {label}: indexSet must be a list of integers")
        parents = {int(k): str(v) for k, v in entry.get("parents", {}).items()}
        strata.append(Stratum(label, tuple(index_set), parents))
        if "level" in entry:
            if type(entry["level"]) is not int:
                raise ValueError(f"stratum {label}: level must be an integer")
            if entry["level"] != len(index_set) - 1:
                raise ValueError(f"stratum {label}: level disagrees with indexSet")
    complex_ = SemistableCombinatorics(components, strata)
    h2 = None
    if "h2" in obj:
        dims = {}
        gysin = {}
        restrict = {}
        parents_of = {s.label: s.parents.values() for s in strata}
        for label, entry in obj["h2"].items():
            if label not in parents_of:
                raise ValueError(f"h2 {label}: not a stratum")
            if type(entry["dim"]) is not int:
                raise ValueError(f"h2 {label}: dim must be an integer")
            dims[label] = entry["dim"]
            for child in [*entry.get("gysin", {}), *entry.get("restrict", {})]:
                if label not in parents_of.get(child, ()):
                    raise ValueError(f"h2 {label}: {child} is not a child of {label}")
            for child, vec in entry.get("gysin", {}).items():
                gysin[(label, child)] = [as_fraction(x) for x in vec]
            for child, rows in entry.get("restrict", {}).items():
                restrict[(label, child)] = QMatrix(
                    [[as_fraction(x) for x in row] for row in rows],
                    ncols=dims[label])
        h2 = H2Model(dims, gysin, restrict)
    return complex_, h2
