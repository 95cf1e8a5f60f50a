"""Stratum combinatorics of a normal crossing special fiber.

A complex records the components 1..m and, for each level p, the strata cut
out by p+1 of them.  Every stratum points at its p+1 parents one level down
(remove one component from its index set); these are the poset's only
incidence, and children() reads them.  On top of the combinatorics an
H2 model assigns each stratum a finite dimension together with Gysin vectors
(child class inside the parent's space) and optional restriction matrices
(parent space to child space).

The alternating-sign rule is the standard one: dropping the j-th smallest
element of an index set costs (-1)^j.  A map between levels is built by one
walk over the parents of its higher level, as a row map {row index: {column:
nonzero entry}} of the nonzero rows its data backs, so no map allocates by a
declared dimension; a restriction map R_p is kept on the poset, one walk per
command.  Elimination takes these rows as they are, one sparse product
(_product) multiplies row maps into one, and one step (_dense) turns rows
into dense output: representatives, the corner's matrix, witnesses and JSON
blocks.  The second page and the corner read the restriction kernel off its
free columns (_second_page), and the corner hands R_p's echelon to it, so no
kernel vector is eliminated twice and nothing is solved against an augmented
system.  e2_p0 returns the representatives themselves; the second page's
dimension is their number.  e2_dims reads every level's dimension off ranks
instead, one forward pass per restriction map and no representative built.

The file reader takes a field of the exact JSON type inline and hands any
other value to _field, which forms every shape message, only on refusal;
an H2Model reads each distinct literal spelling once.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Optional, Sequence

from . import linalg
from .linalg import QMatrix, Vector, _rational, as_fraction

IndexSet = tuple[int, ...]


@dataclass(frozen=True)
class Stratum:
    label: str
    index_set: IndexSet
    parents: Mapping[int, str]  # removed component -> parent label

    def __post_init__(self):
        """Store the index set as a tuple and the parents as a read-only
        copy, so that a stratum is hashable and the poset it sits in cannot
        change under it."""
        if type(self.index_set) is not tuple:
            try:
                object.__setattr__(self, "index_set", tuple(self.index_set))
            except TypeError:
                raise ValueError(f"stratum {self.label}: indexSet must be a "
                                 "list of integers") from None
        if not isinstance(self.parents, Mapping):
            raise ValueError(f"stratum {self.label}: parents must be an object")
        object.__setattr__(self, "parents", MappingProxyType(dict(self.parents)))

    @classmethod
    def _trusted(cls, label, index_set: tuple, parents: dict) -> Stratum:
        """The stratum the constructor builds, from the file reader's own
        tuple and fresh dict: the dict is wrapped, not copied."""
        s = object.__new__(cls)
        s.__dict__.update(label=label, index_set=index_set,
                          parents=MappingProxyType(parents))
        return s

    def __hash__(self):
        return hash((self.label, self.index_set, frozenset(self.parents.items())))


def removal_sign(index_set: IndexSet, removed: int) -> int:
    """(-1)^j where the removed component is the j-th smallest."""
    j = index_set.index(removed)
    return -1 if j % 2 else 1


class SemistableCombinatorics:
    """Validated stratum poset.  Level 0 bijects with the components; higher
    strata name all their one-step degenerations."""

    def __init__(self, components: Iterable[str], strata: Iterable[Stratum]):
        components, strata = tuple(components), tuple(strata)
        if any(not isinstance(c, str) for c in components):
            raise ValueError("components must be strings")
        if len(set(components)) != len(components):
            raise ValueError("duplicate component names")
        if not components:
            raise ValueError("a complex needs at least one component")
        self.components = components
        m = len(components)
        labels = [s.label for s in strata]
        for pos, label in enumerate(labels):
            if not isinstance(label, str):
                raise ValueError(f"stratum {pos}: label must be a string")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate stratum labels")
        by_level: dict[int, list[Stratum]] = {}
        by_label: dict[str, Stratum] = dict(zip(labels, strata))
        # the first stratum listed wins an index set
        self._by_index_set: dict[IndexSet, Stratum] = {}
        for s in strata:
            # one pass, rules raised in order; type(...) is int refuses bools
            idx, prev = s.index_set, 0
            out_of_range = unsorted = bad_label = False
            for i in idx:
                if type(i) is not int:
                    raise ValueError(f"stratum {s.label}: indexSet must be a "
                                     "list of integers")
                out_of_range = out_of_range or not 1 <= i <= m
                unsorted = unsorted or i <= prev  # i <= 0 is out of range too
                prev = i
            for k, v in s.parents.items():
                if type(k) is not int:
                    raise ValueError(f"stratum {s.label}: parent keys must be integers")
                bad_label = bad_label or not isinstance(v, str)
            if bad_label or out_of_range or unsorted:
                raise ValueError(f"stratum {s.label}: " + (
                    "parent labels must be strings" if bad_label else
                    "component index out of range" if out_of_range else
                    "index set must be increasing"))
            by_level.setdefault(len(idx) - 1, []).append(s)
            self._by_index_set.setdefault(idx, s)
        level0 = by_level.get(0, [])
        if sorted(s.index_set[0] for s in level0) != list(range(1, m + 1)):
            raise ValueError("level-0 strata must biject with the components")
        levels = sorted(by_level)
        if levels and levels != list(range(levels[-1] + 1)):
            raise ValueError("levels must be contiguous from 0")
        for s in strata:
            idx = s.index_set
            if len(idx) == 1:
                if s.parents:
                    raise ValueError(f"stratum {s.label}: level 0 has no parents")
                continue
            if s.parents.keys() != set(idx):
                raise ValueError(f"stratum {s.label}: need one parent per component")
            for removed, parent_label in s.parents.items():
                parent = by_label.get(parent_label)
                if parent is None:
                    raise ValueError(f"stratum {s.label}: unknown parent {parent_label}")
                j = idx.index(removed)
                if parent.index_set != idx[:j] + idx[j + 1:]:
                    raise ValueError(f"stratum {s.label}: parent {parent_label} "
                                     "has the wrong index set")
        # two-step consistency: removing i then j must meet removing j then i
        for s in strata:
            if len(s.index_set) < 3:
                continue
            for i, j in itertools.combinations(s.index_set, 2):
                if by_label[s.parents[i]].parents[j] != by_label[s.parents[j]].parents[i]:
                    raise ValueError(f"stratum {s.label}: parent squares do not close")
        self._by_level = {lvl: tuple(group) for lvl, group in by_level.items()}
        self._by_label = by_label
        self._maps: dict[int, dict[int, dict]] = {}  # see _restriction_rows

    @property
    def max_level(self) -> int:
        return max(self._by_level) if self._by_level else -1

    def level(self, p: int) -> tuple[Stratum, ...]:
        return self._by_level.get(p, ())

    def children(self, label: str) -> list[Stratum]:
        """The strata one level up whose parents name label, in listing order."""
        up = len(self._by_label[label].index_set)
        return [z for z in self.level(up) if label in z.parents.values()]

    def index_sets_unique(self) -> bool:
        return len(self._by_index_set) == len(self._by_label)

    def stratum_by_index_set(self, index_set: Sequence[int]) -> Optional[Stratum]:
        return self._by_index_set.get(tuple(index_set))


class H2Model:
    """Finite-dimensional stand-ins for the degree-2 cohomology of strata.
    Entries are read once, as as_fraction reads them, and kept as ints where
    integral (an integral literal such as "-1" or "6/3" builds no Fraction),
    else Fractions: Gysin vectors as tuples, restriction blocks as (width,
    {column: nonzero} per row).  No `/` may touch an entry: int / int is a float."""

    def __init__(self, dims: Mapping[str, int],
                 gysin: Mapping[tuple[str, str], Sequence] = (),
                 restrict: Mapping[tuple[str, str], QMatrix] = ()):
        """Dimensions must be ints (not bools, not floats); a restriction
        given as rows is read with the parent's dimension as width."""
        self.dims = dims = dict(dims)
        for label, d in dims.items():
            if type(d) is not int or d < 0:
                raise ValueError(f"h2 {label}: dim must be a nonnegative integer")
        spelled: dict[str, object] = {}

        def read(x):
            """x as _rational reads it, each string spelling once per model."""
            if type(x) is not str:
                return _rational(x)
            value = spelled.get(x)
            if value is None:
                value = spelled[x] = _rational(x)
            return value

        self.gysin = {}
        for (parent, child), vec in dict(gysin).items():
            try:
                vec = tuple(map(read, vec))
            except ValueError as exc:
                raise ValueError(f"h2 {parent}: gysin {child}: {exc}") from None
            if len(vec) != dims.get(parent, 0):
                raise ValueError(f"Gysin vector for {child} in {parent} has wrong length")
            self.gysin[parent, child] = vec
        self.restrict: dict[tuple[str, str], tuple[int, tuple[dict, ...]]] = {}
        for (parent, child), mat in dict(restrict).items():
            try:
                self.restrict[parent, child] = _block(mat, dims.get(parent, 0), read)
            except ValueError as exc:
                raise ValueError(f"h2 {parent}: restrict {child}: {exc}") from None

    def dim(self, label: str) -> int:
        return self.dims.get(label, 0)

    def gysin_vector(self, parent: str, child: str) -> tuple:
        return self.gysin.get((parent, child), (0,) * self.dim(parent))

    def _rows(self, parent: str, child: str) -> tuple[dict, ...]:
        """The stored rows of a restriction block, once its shape is checked."""
        ncols, rows = self.restrict.get((parent, child), (0, None))
        if rows is None:
            raise ValueError(f"missing restriction data for {parent} -> {child}")
        if (len(rows), ncols) != (self.dim(child), self.dim(parent)):
            raise ValueError(f"restriction {parent} -> {child} has wrong shape")
        return rows

    def restriction(self, parent: str, child: str) -> QMatrix:
        return _dense(self._rows(parent, child), self.dim(parent))


def _block(mat, ncols: int, read) -> tuple[int, tuple[dict, ...]]:
    """(width, sparse rows) of a restriction block, each entry read by read
    and the rows refused as QMatrix refuses them: a bad entry, then ragged
    rows, then a width not ncols."""
    if isinstance(mat, QMatrix):
        mat, ncols = mat.data, mat.ncols
    rows = [tuple(map(read, row)) for row in mat]
    widths = set(map(len, rows))
    if len(widths) > 1:
        raise ValueError("ragged rows")
    if widths - {ncols}:
        raise ValueError("ncols disagrees with row width")
    return ncols, tuple([{j: x for j, x in enumerate(row) if x} for row in rows])


def unit_h2(complex_: SemistableCombinatorics, level: int = 0) -> H2Model:
    """One-dimensional spaces with unit Gysin vectors at the given level;
    all other strata get dimension 0.  This matches curve strata inside a
    one-parameter surface degeneration."""
    dims = {s.label: 1 for s in complex_.level(level)}
    return H2Model(dims, {(w, z.label): (1,) for z in complex_.level(level + 1)
                          for w in z.parents.values()})


def _restriction_rows(complex_: SemistableCombinatorics, p: int) -> dict[int, dict]:
    """R_p, level p to level p+1: built by one walk on first use and then
    kept on the poset, which cannot change, for its readers to share."""
    rows = complex_._maps.get(p)
    if rows is None:
        col = {s.label: k for k, s in enumerate(complex_.level(p))}
        rows = complex_._maps[p] = {
            r: {col[w]: removal_sign(z.index_set, i) for i, w in z.parents.items()}
            for r, z in enumerate(complex_.level(p + 1))}
    return rows


def _h2_offsets(complex_: SemistableCombinatorics, h2: H2Model,
                p: int) -> tuple[dict[str, int], int]:
    """Where each level-p stratum starts in the stacked H2 space; its size."""
    offsets, total = {}, 0
    for s in complex_.level(p):
        offsets[s.label], total = total, total + h2.dim(s.label)
    return offsets, total


def _gysin_rows(complex_: SemistableCombinatorics, h2: H2Model, p: int) -> dict[int, dict]:
    """The Gysin pushforward from level-p H^0 into the stacked level-(p-1) H2
    spaces, as {row index: row} in row order for the rows that a stored
    Gysin vector backs; every other row is empty, however large the
    declared dimension."""
    offsets, _ = _h2_offsets(complex_, h2, p - 1)
    rows: dict[int, dict] = {}
    for c, z in enumerate(complex_.level(p)):
        for i, w in z.parents.items():
            sign = removal_sign(z.index_set, i)
            for k, val in enumerate(h2.gysin.get((w, z.label), ())):
                if val:
                    rows.setdefault(offsets[w] + k, {})[c] = sign * val
    return dict(sorted(rows.items()))


def _h2_restriction_rows(complex_: SemistableCombinatorics, h2: H2Model,
                         p: int) -> dict[int, dict]:
    """Alternating restriction on the H2 level, stacked level-p blocks to
    stacked level-(p+1) blocks, as {row index: row} for the rows that a
    stored block backs.  Restriction data is required for every pair of
    positive dimensions, zero Gysin vector or not.  Parents go by removed
    component, the order the file lists them in, so a complex and its JSON
    round trip name the same missing or misshapen block."""
    offsets, _ = _h2_offsets(complex_, h2, p)
    starts, _ = _h2_offsets(complex_, h2, p + 1)
    rows: dict[int, dict] = {}
    for z in complex_.level(p + 1):
        dim = h2.dim(z.label)
        parts = [(offsets[w], removal_sign(z.index_set, i), h2._rows(w, z.label))
                 for i, w in sorted(z.parents.items()) if dim and h2.dim(w)]
        for offset, sign, part in parts:
            for k, row in enumerate(part, starts[z.label]):
                if row:
                    rows.setdefault(k, {}).update(
                        (offset + j, sign * v) for j, v in row.items())
    return rows


def _product(pairs) -> dict[int, dict]:
    """The sum of left @ right over the (left, right) pairs of row maps, a
    missing row reading as empty: a row map with the nonzero rows only, read
    at the row indices of every left, touching only nonzero entries."""
    out = {}
    for i in set().union(*(left for left, _ in pairs)):
        acc: dict = {}
        for left, right in pairs:
            for k, a in left.get(i, {}).items():
                for j, b in right.get(k, {}).items():
                    acc[j] = acc.get(j, 0) + a * b
        row = {j: v for j, v in acc.items() if v}
        if row:
            out[i] = row
    return out


def _dense(rows: list[dict], ncols: int) -> QMatrix:
    """Sparse rows as a QMatrix: the one step from rows to dense output."""
    return QMatrix([[row.get(j, 0) for j in range(ncols)] for row in rows],
                   ncols=ncols)


def _witness(pairs, nrows: int, ncols: int) -> Optional[QMatrix]:
    """None when the summed product of the pairs vanishes, else its nrows rows, dense."""
    rows = _product(pairs)
    return _dense([rows.get(i, {}) for i in range(nrows)], ncols) if rows else None


def restriction_square(complex_: SemistableCombinatorics, p: int) -> Optional[QMatrix]:
    """The level-(p+1) restriction after the level-p one, which vanishes on
    every complex: None when it does, else the composite as a witness."""
    return _witness([(_restriction_rows(complex_, p + 1),
                      _restriction_rows(complex_, p))],
                    len(complex_.level(p + 2)), len(complex_.level(p)))


def relation_composite(complex_: SemistableCombinatorics, h2: H2Model,
                       p: int) -> Optional[QMatrix]:
    """Restricting after pushing forward plus pushing forward after
    restricting, as maps out of level-p H^0; the relation holds when this
    vanishes: None when it does, else the composite as a witness.  Defined
    for p >= 1; the p-1 level must carry restriction data wherever both its
    dimension and a child dimension are positive."""
    if p < 1:
        raise ValueError("the relation pairs levels p-1 and p+1; need p >= 1")
    first = (_h2_restriction_rows(complex_, h2, p - 1), _gysin_rows(complex_, h2, p))
    second = (_gysin_rows(complex_, h2, p + 1), _restriction_rows(complex_, p))
    return _witness([first, second], _h2_offsets(complex_, h2, p)[1],
                    len(complex_.level(p)))


def _columns(rows: Iterable[tuple[int, dict]]) -> dict[int, dict]:
    """The nonzero columns of (row index, row) pairs, as a row map."""
    columns: dict[int, dict] = {}
    for i, row in rows:
        for j, v in row.items():
            columns.setdefault(j, {})[i] = v
    return columns


def _second_page(complex_: SemistableCombinatorics, p: int, echelon):
    """(reduced image, representatives) at level p, from the echelon of the
    level-p restriction.  A kernel vector of that restriction is its own
    entries at the free columns F, summed against the kernel basis (one
    vector v_f per f, whose largest column is f), and the image from level
    p-1 lies in that kernel; so the image columns, read at F, are reduced
    once, each row pivoting on its last free column (keys -f), as {-pivot:
    {-f: entry}}.  v_f is kept, in increasing order, when f is no pivot: the
    first independent kernel vectors in scan order after the image."""
    ker = linalg._kernel(echelon, len(complex_.level(p)))
    free = {max(v) for v in ker}
    image = {} if p == 0 else linalg._rref(linalg._echelon(
        {-j: x for j, x in col.items() if j in free}
        for col in _columns(_restriction_rows(complex_, p - 1).items()).values()))
    return image, [v for v in ker if -max(v) not in image]


def e2_dims(complex_: SemistableCombinatorics) -> list[int]:
    """The second page's dimension at every level, n_p - rank R_p - rank
    R_{p-1} by rank-nullity, since the image lies in the kernel (the poset's
    squares close); each rank is the length of one forward pass over the
    kept map, shared by two levels."""
    ranks = [len(linalg._echelon(_restriction_rows(complex_, p).values()))
             for p in range(complex_.max_level + 1)]
    return [len(complex_.level(p)) - r - (ranks[p - 1] if p else 0)
            for p, r in enumerate(ranks)]


def e2_p0(complex_: SemistableCombinatorics, p: int) -> tuple[Vector, ...]:
    """Kernel of the level-p restriction modulo the image from level p-1:
    one dense representative per class, chosen deterministically (see
    _second_page); the page's dimension is their number."""
    _, reps = _second_page(
        complex_, p, linalg._echelon(_restriction_rows(complex_, p).values()))
    return _dense(reps, len(complex_.level(p))).data


@dataclass(frozen=True)
class CornerMonodromy:
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
    restriction and the Gysin pushforward into the restriction quotient.  A
    corner vector u, once checked to lie in the restriction kernel, has its
    coordinates on the representatives at their free columns: its F-entries
    minus u_l times the reduced image row of each image pivot l."""
    restriction = _restriction_rows(complex_, p)
    echelon = linalg._echelon(restriction.values())
    corner = linalg._kernel(linalg._echelon(
        _gysin_rows(complex_, h2, p).values(), echelon), len(complex_.level(p)))
    if _product([(restriction, _columns(enumerate(corner)))]):
        raise RuntimeError("corner kernel does not lie in the restriction kernel")
    image, reps = _second_page(complex_, p, echelon)
    kept = {max(v): k for k, v in enumerate(reps)}
    out_cols = []
    for u in corner:
        coords: dict = {}
        for j, x in u.items():
            if -j in image:
                for f, y in image[-j].items():
                    coords[-f] = coords.get(-f, 0) - x * y
            elif j in kept:
                coords[j] = coords.get(j, 0) + x
        out_cols.append({kept[f]: x for f, x in coords.items() if x})
    r = len(linalg._echelon(out_cols))
    matrix = _columns(enumerate(out_cols))
    return CornerMonodromy(
        matrix=_dense([matrix.get(k, {}) for k in range(len(reps))], len(out_cols)),
        domain_dim=len(corner),
        codomain_dim=len(reps),
        injective=(r == len(corner)),
        surjective=(r == len(reps)),
    )


def check_vanishing_vector(complex_: SemistableCombinatorics, h2: H2Model, p: int,
                           vector: Sequence) -> tuple[bool, bool]:
    """(pullback vanishes, pushforward vanishes) for a level-p vector."""
    column = {i: {0: x} for i, x in enumerate(map(as_fraction, vector)) if x}
    if len(vector) != len(complex_.level(p)):
        raise ValueError("length mismatch")
    return tuple(not _product([(rows, column)])
                 for rows in (_restriction_rows(complex_, p),
                              _gysin_rows(complex_, h2, p)))


def relabel_components(complex_: SemistableCombinatorics,
                       perm: Mapping[int, int]) -> SemistableCombinatorics:
    """Apply a permutation of the component indices; stratum labels and the
    listing order are preserved."""
    indices = set(range(1, len(complex_.components) + 1))
    if set(perm) != indices or set(perm.values()) != indices:
        raise ValueError("perm must be a permutation of the component indices")
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
            h2_obj[parent].setdefault("gysin", {})[child] = [str(x) for x in vec]
        for (parent, child), (ncols, rows) in sorted(h2.restrict.items()):
            h2_obj.setdefault(parent, {"dim": h2.dim(parent)})
            h2_obj[parent].setdefault("restrict", {})[child] = \
                _dense(rows, ncols).to_json_obj()
        out["h2"] = h2_obj
    return out


_REQUIRED = object()
# the noun each shape refusal uses, and the JSON type it names (None: any)
_KINDS = {None: object, "a list": list, "a list of integers": list,
          "an object": dict, "an integer": int}


def _field(obj, key: str, where: str, kind: Optional[str] = None, default=_REQUIRED):
    """obj[key], refused unless obj is an object, the key is present (or has
    a default) and its value is of the kind named; an integer is an int, not
    a bool.  The message is built only when it refuses."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be an object")
    value = obj.get(key, _REQUIRED)
    if value is _REQUIRED:
        if default is _REQUIRED:
            raise ValueError(f"{where}: missing key {key!r}")
        return default
    want = _KINDS[kind]
    if type(value) is want or (want is not int and isinstance(value, want)):
        return value
    raise ValueError(f"{where}: {key} must be {kind}")


def _plain_int(text: str) -> int:
    """A JSON key as an int, in the one spelling str writes: "02", " 2",
    "+2", "0_2" and non-ASCII digits are refused, so no two keys collapse."""
    value = int(text)
    if str(value) != text:
        raise ValueError(f"{text!r} is not a plain decimal integer")
    return value


def complex_from_json(obj: Mapping) -> tuple[SemistableCombinatorics, Optional[H2Model]]:
    """Read the JSON form: objects and lists where complex_to_json writes
    them; the poset checks names and members.  Errors name the location."""
    components = _field(obj, "components", "top level", "a list")
    strata = []
    for pos, entry in enumerate(_field(obj, "strata", "top level", "a list")):
        label = entry.get("label", _REQUIRED) if type(entry) is dict else _REQUIRED
        label = _field(entry, "label", f"stratum {pos}") if label is _REQUIRED else label
        index_set = entry.get("indexSet")
        if type(index_set) is not list:
            index_set = _field(entry, "indexSet", f"stratum {label}", "a list of integers")
        parents = entry.get("parents")
        if type(parents) is not dict:
            parents = _field(entry, "parents", f"stratum {label}", "an object", {})
        try:
            parents = {_plain_int(k): v for k, v in parents.items()}
        except ValueError as exc:
            raise ValueError(f"stratum {label}: parents: {exc}") from None
        strata.append(Stratum._trusted(label, tuple(index_set), parents))
        level = entry.get("level")
        if type(level) is not int:
            level = _field(entry, "level", f"stratum {label}", "an integer", None)
        if level is not None and level != len(index_set) - 1:
            raise ValueError(f"stratum {label}: level disagrees with indexSet")
    complex_ = SemistableCombinatorics(components, strata)
    h2_obj = _field(obj, "h2", "top level", "an object", None)
    if h2_obj is None:
        return complex_, None
    dims = {}
    data: dict[str, dict] = {"gysin": {}, "restrict": {}}
    parents_of = {s.label: s.parents.values() for s in strata}
    for label, entry in h2_obj.items():
        if label not in parents_of:
            raise ValueError(f"h2 {label}: not a stratum")
        dim = entry.get("dim", _REQUIRED) if type(entry) is dict else _REQUIRED
        dims[label] = _field(entry, "dim", f"h2 {label}") if dim is _REQUIRED else dim
        for kind, found in data.items():
            children = entry.get(kind)
            if type(children) is not dict:
                children = _field(entry, kind, f"h2 {label}", "an object", {})
            for child, value in children.items():
                if label not in parents_of.get(child, ()):
                    raise ValueError(f"h2 {label}: {child} is not a child of {label}")
                if not (isinstance(value, list) and (kind == "gysin" or all(
                        isinstance(row, list) for row in value))):
                    raise ValueError(f"h2 {label}: {kind} {child} must be a list")
                found[label, child] = value
    return complex_, H2Model(dims, data["gysin"], data["restrict"])
