"""Shared independent oracles for the test suite.

These deliberately reimplement small pieces of linear algebra and
combinatorics from scratch so that the package under test is checked
against something other than itself.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction

from tropmono.library import cycle_complex, simplicial_presentations_from_tensors


def json_digest(obj) -> str:
    """SHA-256 of the canonical JSON text of a serialized value; the pinned
    digests in the suite are recorded with this function."""
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def cycle_presentations(m, weights, columns):
    """Presentations on the m-cycle from shared per-edge data, through the
    general simplicial builder.  ``columns[(a, b)][l]`` is the pair (value
    at a, value at b) of the l-th symbol on the edge a < b, so both
    endpoints of every edge describe the same order data."""
    cx = cycle_complex(m)
    tensors = {cx.stratum_by_index_set(edge).label: [[pair] for pair in pairs]
               for edge, pairs in columns.items()}
    return simplicial_presentations_from_tensors(cx, weights, tensors)


def det_cofactor(rows):
    """Determinant by first-row cofactor expansion."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("square matrix required")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        total += (-1) ** j * Fraction(rows[0][j]) * det_cofactor(minor)
    return total


def sort_sign(items):
    """Parity sign of sorting a sequence of distinct comparable items by
    adjacent swaps; None when two items coincide."""
    seq = list(items)
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] == seq[j + 1]:
                return None
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    return sign


def rank_gauss(rows):
    """Row-reduction rank over Fraction, written independently of the
    package's elimination."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    col = 0
    ncols = len(mat[0]) if mat else 0
    while rank < len(mat) and col < ncols:
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        mat[rank] = [x / pv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        col += 1
    return rank


def solve_gauss(rows, rhs):
    """Solve a square nonsingular system exactly; independent of the
    package's solver."""
    n = len(rows)
    mat = [[Fraction(x) for x in row] + [Fraction(rhs[i])]
           for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if mat[r][col] != 0)
        mat[col], mat[pivot] = mat[pivot], mat[col]
        pv = mat[col][col]
        mat[col] = [x / pv for x in mat[col]]
        for r in range(n):
            if r != col and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
    return [mat[i][n] for i in range(n)]


def nerve_cohomology_dims(index_sets):
    """Brute-force cohomology of the abstract complex whose r-cells are the
    given index sets, using only the subsets themselves: coboundary
    (delta c)(K) = sum_j (-1)^j c(K minus j-th member)."""
    by_size: dict[int, list[tuple[int, ...]]] = {}
    for s in index_sets:
        by_size.setdefault(len(s), []).append(tuple(sorted(s)))
    for group in by_size.values():
        group.sort()
    top = max(by_size)
    mats = {}
    for size in range(1, top):
        src = by_size.get(size, [])
        dst = by_size.get(size + 1, [])
        pos = {s: k for k, s in enumerate(src)}
        rows = []
        for K in dst:
            row = [Fraction(0)] * len(src)
            for j in range(len(K)):
                face = K[:j] + K[j + 1:]
                if face in pos:
                    row[pos[face]] += (-1) ** j
            rows.append(row)
        mats[size] = rows
    dims = []
    for size in range(1, top + 1):
        ncells = len(by_size.get(size, []))
        out = mats.get(size, [])
        rank_out = rank_gauss(out) if out and ncells else 0
        ker = ncells - rank_out
        if size == 1:
            dims.append(ker)
            continue
        into = mats.get(size - 1, [])
        rank_in = rank_gauss(into) if into and ncells else 0
        dims.append(ker - rank_in)
    return dims
