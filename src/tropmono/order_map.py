"""Order data of piecewise monomial functions along strata.

A presentation lives on one component: rational weights c_1..c_M, and for
each recorded flag (root component followed by the wall components) one
integer matrix per weight, with one row per function of the symbol and one
column per wall.  The order value along a square flag is the weighted sum
of determinants; reordering the flag only changes the value by a signed
permutation factor, which is what lets values from different components be
compared at all.

The chart-level pullback of such data is a (p,0) form in wall coordinates,
computed through minors.  The ladder at the bottom of the module replays
the Cech-to-simplex descent on a simplicial stratum complex and checks the
closing constant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Mapping, Optional, Sequence

from . import linalg
from .dual_complex import SemistableCombinatorics
from .forms import Superform
from .linalg import QMatrix, as_fraction, perm_sign
from .poly import Poly
from .simplex import SimplexContext, SimplexForm, beta_recursion

Flag = tuple[int, ...]
IntMatrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Presentation:
    """Order data of one symbol family rooted at a component."""
    component: int
    weights: tuple[Fraction, ...]
    flags: Mapping[Flag, tuple[IntMatrix, ...]]

    def __post_init__(self):
        object.__setattr__(self, "weights",
                           tuple(as_fraction(w) for w in self.weights))
        cleaned: dict[Flag, tuple[IntMatrix, ...]] = {}
        degree: Optional[int] = None
        for key, mats in dict(self.flags).items():
            key = tuple(int(i) for i in key)
            if len(key) < 2:
                raise ValueError("a flag needs at least one wall")
            if key[0] != self.component:
                raise ValueError("flag must be rooted at the presentation component")
            if len(set(key)) != len(key):
                raise ValueError("flag entries must be distinct")
            mats = tuple(tuple(tuple(int(x) for x in row) for row in mat)
                         for mat in mats)
            if len(mats) != len(self.weights):
                raise ValueError("one exponent matrix per weight required")
            walls = len(key) - 1
            for mat in mats:
                if degree is None:
                    degree = len(mat)
                if len(mat) != degree:
                    raise ValueError("all exponent matrices must have the same "
                                     "number of rows")
                if any(len(row) != walls for row in mat):
                    raise ValueError("one matrix column per wall required")
            cleaned[key] = mats
        object.__setattr__(self, "flags", cleaned)
        object.__setattr__(self, "_degree", degree)

    @property
    def degree(self) -> Optional[int]:
        """Number of functions per symbol; None when no flags are recorded."""
        return self._degree

    def ord_value(self, flag: Flag) -> Fraction:
        """Weighted determinant sum along a recorded square flag."""
        flag = tuple(int(i) for i in flag)
        mats = self.flags.get(flag)
        if mats is None:
            raise KeyError(f"flag {flag} is not recorded")
        total = Fraction(0)
        for w, mat in zip(self.weights, mats):
            if len(mat) != len(flag) - 1:
                raise ValueError("order value needs as many walls as rows")
            total += w * linalg.det(QMatrix(mat, ncols=len(mat)))
        return total

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
        """Read the JSON form; the component and every exponent must be JSON
        integers (not true, not floats).  Errors name ``where``."""
        if not isinstance(obj, dict):
            raise TypeError(f"{where} is not an object")
        flags = obj.get("flags", {})
        if not isinstance(flags, dict):
            raise TypeError(f"{where}: flags must be an object")
        if type(obj["component"]) is not int:
            raise ValueError(f"{where}: component must be an integer")
        for key, mats in flags.items():
            if any(type(x) is not int for mat in mats for row in mat for x in row):
                raise ValueError(f"{where}: flag {key}: exponents must be integers")
        return cls(component=obj["component"],
                   weights=tuple(as_fraction(w) for w in obj["weights"]),
                   flags={tuple(int(part) for part in key.split(",")): mats
                          for key, mats in flags.items()})


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


@dataclass(frozen=True)
class OrdVector:
    level: int
    values: Mapping[str, Fraction]

    def as_sequence(self, complex_: SemistableCombinatorics) -> tuple[Fraction, ...]:
        return tuple(self.values[s.label] for s in complex_.level(self.level))


def ord_vector(presentations: Sequence[Presentation],
               complex_: SemistableCombinatorics, p: int) -> OrdVector:
    """Normalized order values on all level-p strata.

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
    return OrdVector(p, values)


def tau_pullback(rows: Sequence[Sequence], ncols: Optional[int] = None) -> Superform:
    """Chart-level pullback of the standard wedge along exponent rows.

    Each row lists the exponents of one function in the wall coordinates;
    the result is the sum over column subsets of minor determinants times
    the corresponding wedge of first-kind differentials.  More rows than
    columns produce the zero form.
    """
    mat = [tuple(as_fraction(x) for x in row) for row in rows]
    if mat:
        width = len(mat[0])
        if any(len(r) != width for r in mat):
            raise ValueError("ragged exponent rows")
        if ncols is not None and ncols != width:
            raise ValueError("ncols disagrees with row width")
        ncols = width
    elif ncols is None:
        raise ValueError("ncols required for an empty exponent matrix")
    p = len(mat)
    terms = {}
    if p == 0:
        terms[((), ())] = Poly.const(ncols, 1)
        return Superform(ncols, terms)
    for subset in itertools.combinations(range(ncols), p):
        minor = QMatrix([[mat[k][j] for j in subset] for k in range(p)],
                        ncols=p)
        value = linalg.det(minor)
        if value:
            terms[(subset, ())] = Poly.const(ncols, value)
    return Superform(ncols, terms)


def presentation_tau(weights: Sequence, matrices: Sequence[Sequence[Sequence]],
                     ncols: int) -> Superform:
    """Weighted sum of chart pullbacks, one exponent matrix per weight."""
    if len(weights) != len(matrices):
        raise ValueError("one matrix per weight required")
    total = Superform.zero(ncols)
    for w, mat in zip(weights, matrices):
        total = total + as_fraction(w) * tau_pullback(mat, ncols)
    return total


# --- the Cech-to-simplex descent on a simplicial stratum complex ----------


@dataclass(frozen=True)
class LadderResult:
    p: int
    constant: Fraction
    final_check: bool
    ord_values: Mapping[str, Fraction]
    comparisons: tuple[tuple[str, str, Fraction, Fraction, bool], ...]


def require_simplicial(complex_: SemistableCombinatorics) -> int:
    """A complex qualifies when index sets are globally unique, every subset
    of a top-level index set is a stratum, and every stratum sits under some
    top stratum.  Returns the top level."""
    n_top = complex_.max_level
    if n_top < 1:
        raise ValueError("need strata beyond level 0")
    if not complex_.index_sets_unique():
        raise ValueError("index sets must determine strata uniquely")
    tops = complex_.level(n_top)
    covered = set()
    for z in tops:
        for size in range(1, n_top + 2):
            for sub in itertools.combinations(z.index_set, size):
                if complex_.stratum_by_index_set(sub) is None:
                    raise ValueError(f"missing stratum for subset {sub} of "
                                     f"{z.label}")
                covered.add(sub)
    for lvl in range(n_top + 1):
        for s in complex_.level(lvl):
            if s.index_set not in covered:
                raise ValueError(f"stratum {s.label} is not a face of any "
                                 "top stratum")
    return n_top


def _full_tensor(pres: Presentation, flag: Flag,
                 verts: tuple[int, ...]) -> list[list[list[int]]]:
    """Per weight, a degree x (r+1) exponent block with one column per vertex
    of the top stratum; the root column is zero by the chart normalization."""
    mats = pres.flags[flag]
    out = []
    for mat in mats:
        block = []
        for row in mat:
            col_of = {flag[0]: 0}
            for wall_pos, v in enumerate(flag[1:]):
                col_of[v] = row[wall_pos]
            block.append([col_of[v] for v in verts])
        out.append(block)
    return out


def _tensor_form(nvars: int, weights: Sequence[Fraction],
                 tensor: Sequence[Sequence[Sequence[int]]]) -> SimplexForm:
    """Constant form induced by an exponent tensor: weighted wedge of the
    rows read as linear forms in the vertex coordinates, that is the
    presentation's tau read on the simplex."""
    tau = presentation_tau(weights, tensor, nvars)
    return SimplexForm(nvars, {dpr: f for (dpr, _), f in tau.terms.items()})


def _derived_ord(weights: Sequence[Fraction],
                 tensor: Sequence[Sequence[Sequence[int]]],
                 positions: Sequence[int]) -> Fraction:
    """Order value of the face spanned by the given vertex positions, read
    off a top-stratum tensor through difference columns."""
    base = positions[0]
    total = Fraction(0)
    for w, block in zip(weights, tensor):
        rows = [[row[j] - row[base] for j in positions[1:]] for row in block]
        total += w * linalg.det(QMatrix(rows, ncols=len(positions) - 1))
    return total


def dolbeault_ladder(presentations: Sequence[Presentation],
                     complex_: SemistableCombinatorics, p: int) -> LadderResult:
    """Replay the descent from covering data to the order cocycle.

    For every top stratum the covering presentations must induce one common
    constant form on its simplex; the integrate-then-coboundary tower of that
    form must close, face by face, onto the derived order values scaled by
    (-1)^(p(p+1)/2) / p!.
    """
    n_top = require_simplicial(complex_)
    if not 1 <= p <= n_top:
        raise ValueError("need 1 <= p <= top level")
    for pres in presentations:
        if pres.degree is not None and pres.degree != p:
            raise ValueError("presentation degree disagrees with p")
    ctx = SimplexContext(n_top)
    nvars = n_top + 1
    tops = complex_.level(n_top)
    covers = _flags_by_members(presentations)
    forms: dict[str, SimplexForm] = {}
    tensors: dict[str, list[tuple[tuple[Fraction, ...], list]]] = {}
    for z in tops:
        candidates = covers.get(z.index_set)
        if not candidates:
            raise ValueError(f"no presentation covers stratum {z.label}")
        entries = []
        built = []
        for pres, flag, _ in candidates:
            tensor = _full_tensor(pres, flag, z.index_set)
            entries.append((pres.weights, tensor))
            built.append(_tensor_form(nvars, pres.weights, tensor))
        for other in built[1:]:
            if not built[0].equal_on_simplex(other):
                raise ValueError(f"presentations disagree on stratum {z.label}")
        forms[z.label] = built[0]
        tensors[z.label] = entries
    ord_values: dict[str, Fraction] = {}
    for s in complex_.level(p):
        found = []
        for z in tops:
            if not set(s.index_set) <= set(z.index_set):
                continue
            positions = [z.index_set.index(v) for v in s.index_set]
            for weights, tensor in tensors[z.label]:
                found.append(_derived_ord(weights, tensor, positions))
        if not found:
            raise ValueError(f"stratum {s.label} is not covered")
        if any(v != found[0] for v in found[1:]):
            raise ValueError(f"inconsistent order data at stratum {s.label}")
        ord_values[s.label] = found[0]
    constant = Fraction((-1) ** (p * (p + 1) // 2), factorial(p))
    comparisons = []
    final = True
    for z in tops:
        chain = beta_recursion(ctx, forms[z.label], p)
        for subset, value in sorted(chain[p].values.items()):
            face = complex_.stratum_by_index_set(
                tuple(z.index_set[j] for j in subset))
            expected = constant * ord_values[face.label]
            ok = value == expected
            final = final and ok
            comparisons.append((z.label, face.label, value, expected, ok))
    return LadderResult(p=p, constant=constant, final_check=final,
                        ord_values=ord_values, comparisons=tuple(comparisons))
