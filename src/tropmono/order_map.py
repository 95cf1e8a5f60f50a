"""Order data of piecewise monomial functions along strata.

A presentation lives on one component: rational weights c_1..c_M, and for
each recorded flag (root component followed by the wall components) one
integer matrix per weight, with one row per function of the symbol and one
column per wall.  The order value along a square flag is the weighted sum
of determinants; reordering the flag only changes the value by a signed
permutation factor, which is what lets values from different components be
compared at all.  ord_vector returns the normalized values on one level as
{label: value} in the level's listing order.

The chart-level pullback of such data is a (p,0) form in wall coordinates,
computed through minors.  The ladder at the bottom of the module replays
the Cech-to-simplex descent on a simplicial stratum complex and checks the
closing constant; it reads each candidate form once per face, and those
readings both decide whether candidates agree and give the face values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from . import linalg
from .dual_complex import SemistableCombinatorics, _field, _plain_int
from .forms import _append_row
from .linalg import QMatrix, as_fraction, perm_sign
from .poly import Poly, _accumulate
from .simplex import SimplexContext, SimplexForm, tower_top

Flag = tuple[int, ...]
IntMatrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Presentation:
    """Order data of one symbol family rooted at a component."""
    component: int
    weights: tuple[Fraction, ...]
    flags: Mapping[Flag, tuple[IntMatrix, ...]]

    def __post_init__(self):
        """Validate and freeze.  The component, every flag member and every
        exponent must be an int (not a bool, not a float); errors name the
        flag."""
        if type(self.component) is not int:
            raise ValueError("component must be an integer")
        try:
            weights = tuple(as_fraction(w) for w in self.weights)
        except ValueError as exc:
            raise ValueError(f"weights: {exc}") from None
        if not weights:
            raise ValueError("weights must not be empty")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_degree", None)
        cleaned: dict[Flag, tuple[IntMatrix, ...]] = {}
        for key, mats in dict(self.flags).items():
            try:
                cleaned[tuple(key)] = self._checked(tuple(key), mats)
            except ValueError as exc:
                raise ValueError(f"flag {','.join(map(str, key))}: {exc}") from None
        object.__setattr__(self, "flags", MappingProxyType(cleaned))

    def __hash__(self):
        return hash((self.component, self.weights, tuple(sorted(self.flags.items()))))

    def _checked(self, key: Flag, mats) -> tuple[IntMatrix, ...]:
        """One flag's exponent matrices as tuples, after its checks."""
        try:
            mats = tuple(tuple(tuple(row) for row in mat) for mat in mats)
        except TypeError:
            raise ValueError("expected a list of exponent matrices") from None
        if any(type(i) is not int for i in key):
            raise ValueError("members must be integers")
        if any(type(x) is not int for mat in mats for row in mat for x in row):
            raise ValueError("exponents must be integers")
        if len(key) < 2:
            raise ValueError("a flag needs at least one wall")
        if key[0] != self.component:
            raise ValueError("flag must be rooted at the presentation component")
        if len(set(key)) != len(key):
            raise ValueError("flag entries must be distinct")
        if len(mats) != len(self.weights):
            raise ValueError("one exponent matrix per weight required")
        for mat in mats:
            if self._degree is None:
                object.__setattr__(self, "_degree", len(mat))
            if len(mat) != self._degree:
                raise ValueError("all exponent matrices must have the same "
                                 "number of rows")
            if any(len(row) != len(key) - 1 for row in mat):
                raise ValueError("one matrix column per wall required")
        return mats

    @property
    def degree(self) -> Optional[int]:
        """Number of functions per symbol; None when no flags are recorded."""
        return self._degree

    def ord_value(self, flag: Flag) -> Fraction:
        """Weighted determinant sum along a recorded square flag, the
        definition of a flag's order value: sum of w * det M over the
        weights and the flag's exponent matrices.  Every member must be an
        int (not a bool, a float or a string)."""
        flag = tuple(flag)
        if any(type(i) is not int for i in flag):
            raise ValueError(f"flag {flag!r}: members must be integers")
        mats = self.flags.get(flag)
        if mats is None:
            raise KeyError(f"flag {flag} is not recorded")
        if any(len(mat) != len(flag) - 1 for mat in mats):
            raise ValueError("order value needs as many walls as rows")
        return sum((w * linalg.det(QMatrix(mat, ncols=len(mat)))
                    for w, mat in zip(self.weights, mats)), Fraction(0))

    def to_json_obj(self) -> dict:
        return {
            "component": self.component,
            "weights": [str(w) for w in self.weights],
            "flags": {",".join(str(i) for i in key):
                      [[list(row) for row in mat] for mat in mats]
                      for key, mats in sorted(self.flags.items())},
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping, where: str = "presentation") -> "Presentation":
        """Read the JSON form: weights a list, flags an object keyed by
        comma-separated members.  Errors name ``where``."""
        if not isinstance(obj, dict):
            raise ValueError(f"{where} is not an object")
        flags = _field(obj, "flags", where, "an object", {})
        component = _field(obj, "component", where)
        weights = _field(obj, "weights", where, "a list")
        try:
            keyed = {}
            for key, mats in flags.items():
                keyed[tuple(_plain_int(part) for part in key.split(","))] = mats
        except ValueError as exc:
            raise ValueError(f"{where}: flag {key}: {exc}") from None
        try:
            return cls(component=component, weights=weights, flags=keyed)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None


def presentations_from_json(obj) -> list[Presentation]:
    """Read a presentations file: a list, or an object holding the list under
    "presentations"; errors name entry k ``presentation k``."""
    if isinstance(obj, dict):
        obj = obj.get("presentations")
    if not isinstance(obj, list):
        raise ValueError("expected a list of presentations")
    return [Presentation.from_json_obj(entry, f"presentation {k}")
            for k, entry in enumerate(obj)]


def flag_normalization(flag: Flag) -> tuple[tuple[int, ...], int]:
    """Sorted member set of a flag and the sign carrying its order value to
    the increasing order: the sign of the permutation that sorts the flag."""
    return tuple(sorted(flag)), perm_sign(flag)


def _flags_by_members(presentations: Sequence[Presentation]
                      ) -> dict[tuple[int, ...], list[tuple[Presentation, Flag, int]]]:
    """Every recorded flag under its sorted member set, with the sign of its
    normalization; in presentation order, then flag order."""
    covers: dict[tuple[int, ...], list[tuple[Presentation, Flag, int]]] = {}
    for pres in presentations:
        for flag in pres.flags:
            members, sign = flag_normalization(flag)
            covers.setdefault(members, []).append((pres, flag, sign))
    return covers


def ord_vector(presentations: Sequence[Presentation],
               complex_: SemistableCombinatorics, p: int) -> dict[str, Fraction]:
    """Normalized order values on all level-p strata, {label: value} in the
    level's listing order.

    Every stratum must be covered by at least one recorded flag; when several
    cover it (from the same or different components), their normalized values
    must agree, otherwise the data does not describe one global object and we
    refuse to pick a winner.
    """
    if p < 1:
        raise ValueError("order vectors live on levels >= 1")
    covers = _flags_by_members(presentations)
    values: dict[str, Fraction] = {}
    for s in complex_.level(p):
        found = [sign * pres.ord_value(flag)
                 for pres, flag, sign in covers.get(s.index_set, ())]
        if not found:
            raise ValueError(f"no presentation covers stratum {s.label}")
        if any(v != found[0] for v in found[1:]):
            raise ValueError(f"presentations disagree on stratum {s.label}")
        values[s.label] = found[0]
    return values


def _minors(rows: Sequence[Sequence]) -> dict:
    """{J: det R[:, J]} over the column tuples J of the rows R, nonzero
    minors only: the Cauchy-Binet step of pullback folded over the rows."""
    minors: dict = {(): 1}
    for row in rows:
        minors = _append_row(minors, row)
    return minors


# --- the Cech-to-simplex descent on a simplicial stratum complex ----------


@dataclass(frozen=True)
class LadderResult:
    constant: Fraction
    final_check: bool
    ord_values: Mapping[str, Fraction]
    comparisons: tuple[tuple[str, str, Fraction, Fraction, bool], ...]


def require_simplicial(complex_: SemistableCombinatorics) -> int:
    """A complex qualifies when index sets are globally unique and every
    stratum sits under some top stratum.  Returns the top level.  The faces
    of the tops are what their parents reach, level by level down."""
    n_top = complex_.max_level
    if n_top < 1:
        raise ValueError("need strata beyond level 0")
    if not complex_.index_sets_unique():
        raise ValueError("index sets must determine strata uniquely")
    faces = {z.label for z in complex_.level(n_top)}
    for lvl in range(n_top, 0, -1):
        faces.update(w for s in complex_.level(lvl) if s.label in faces
                     for w in s.parents.values())
    for lvl in range(n_top):
        for s in complex_.level(lvl):
            if s.label not in faces:
                raise ValueError(f"stratum {s.label} is not a face of any "
                                 "top stratum")
    return n_top


def _full_tensor(pres: Presentation, flag: Flag,
                 verts: tuple[int, ...]) -> list[list[list[int]]]:
    """Per weight, a degree x (r+1) exponent block with one column per vertex
    of the top stratum; the root column is zero by the chart normalization."""
    return [[[col[v] for v in verts]
             for col in (dict(zip(flag, (0,) + row)) for row in mat)]
            for mat in pres.flags[flag]]


def dolbeault_ladder(presentations: Sequence[Presentation],
                     complex_: SemistableCombinatorics, p: int) -> LadderResult:
    """Replay the descent from covering data to the order cocycle.

    For every top stratum the covering presentations must induce one common
    constant form on its simplex, that is, read the same on every face's
    edge vectors; the integrate-then-coboundary tower of that form must
    close, face by face, onto those readings, the face order values, scaled
    by (-1)^(p(p+1)/2) / p!.  Each top is read once, in listing order; the
    tops over a face must then derive one order value for it.
    """
    n_top = require_simplicial(complex_)
    if not 1 <= p <= n_top:
        raise ValueError("need 1 <= p <= top level")
    for pres in presentations:
        if pres.degree is not None and pres.degree != p:
            raise ValueError("presentation degree disagrees with p")
    ctx = SimplexContext(n_top)
    nvars = n_top + 1
    covers = _flags_by_members(presentations)
    constant = Fraction((-1) ** (p * (p + 1) // 2), factorial(p))
    found: dict[str, list[Fraction]] = {}  # face label -> values, top by top
    comparisons = []
    for z in complex_.level(n_top):
        # each covering flag's tau read on the simplex: the weighted minors
        # of its rows, {column tuple: coefficient} in the vertex coordinates
        taus = []
        for pres, flag, _ in covers.get(z.index_set, ()):
            acc: dict = {}
            for w, rows in zip(pres.weights,
                               _full_tensor(pres, flag, z.index_set)):
                for cols, minor in _minors(rows).items():
                    _accumulate(acc, cols, w * minor)
            taus.append(acc)
        if not taus:
            raise ValueError(f"no presentation covers stratum {z.label}")
        # tau on the edge vectors c_1 - c_0, ..., c_p - c_0 of a face J (its
        # vertex positions in z): the alternating sum over J's p-subsets
        readings = [{J: sum(((-1) ** j * tau.get(J[:j] + J[j + 1:], 0)
                             for j in range(p + 1)), Fraction(0))
                     for J in itertools.combinations(range(nvars), p + 1)}
                    for tau in taus]
        if any(reading != readings[0] for reading in readings[1:]):
            raise ValueError(f"presentations disagree on stratum {z.label}")
        # clean by construction: increasing column tuples, no zero
        top = tower_top(ctx, SimplexForm._made(nvars, {
            cols: Poly.const(nvars, c) for cols, c in taus[0].items()}), p)
        for subset, value in sorted(top.values.items()):
            face = complex_.stratum_by_index_set(
                tuple(z.index_set[j] for j in subset))
            values = found.setdefault(face.label, [])
            values.append(readings[0][subset])
            expected = constant * values[0]
            comparisons.append((z.label, face.label, value, expected,
                                value == expected))
    ord_values: dict[str, Fraction] = {}
    for s in complex_.level(p):
        values = found[s.label]
        if any(v != values[0] for v in values[1:]):
            raise ValueError(f"inconsistent order data at stratum {s.label}")
        ord_values[s.label] = values[0]
    return LadderResult(constant=constant,
                        final_check=all(ok for *_, ok in comparisons),
                        ord_values=ord_values, comparisons=tuple(comparisons))
