"""Shared independent oracles for the test suite.

These deliberately reimplement small pieces of linear algebra and
combinatorics from scratch so that the package under test is checked
against something other than itself.  The few helpers that several test
modules share live here too.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
import shlex
from fractions import Fraction

from tropmono.cli import run
from tropmono.dual_complex import removal_sign
from tropmono.library import cycle_complex, simplicial_presentations_from_tensors
from tropmono.linalg import QMatrix


def json_digest(obj) -> str:
    """SHA-256 of the canonical JSON text of a serialized value; the pinned
    digests in the suite are recorded with this function."""
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


_TSV_UNESCAPES = {"\\": "\\", "t": "\t", "r": "\r", "n": "\n"}


def tsv_field(field: str) -> str:
    """A TSV report field as it was before the report escaped its
    backslashes, tabs, CRs and LFs."""
    return re.sub(r"\\(.)", lambda m: _TSV_UNESCAPES[m.group(1)], field)


def replay(text: str, monkeypatch) -> tuple[int, str]:
    """Rerun a report from its own command line, in the report's format:
    (exit status, report text).  A leading NAME=value is set in the
    environment through monkeypatch."""
    if text.startswith("# command\t"):
        fmt = "tsv"
        command = tsv_field(text[len("# command\t"):text.index("\n")])
    else:
        fmt, command = "json", json.loads(text)["command"]
    words = shlex.split(command)
    while "=" in words[0]:
        name, value = words.pop(0).split("=", 1)
        monkeypatch.setenv(name, value)
    return run(words + ["--format", fmt])


# the values that replace each node of a file in turn
SWEEP_VALUES = [None, True, 1.5, "x", "1/0", [], {}, -1]
DELETE = object()


def single_node_mutations(obj):
    """Copies of obj with one node replaced by each sweep value, or with one
    key deleted, for every node and every key in turn."""
    def walk(node, path):
        yield path
        if isinstance(node, (dict, list)):
            for key in node if isinstance(node, dict) else range(len(node)):
                yield from walk(node[key], path + (key,))
    text = json.dumps(obj)
    for path in list(walk(obj, ())):
        keyed = path and isinstance(path[-1], str)
        for value in SWEEP_VALUES + ([DELETE] if keyed else []):
            if not path:
                yield value
                continue
            out = json.loads(text)
            parent = out
            for key in path[:-1]:
                parent = parent[key]
            if value is DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            yield out


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


def rref_gauss(rows, ncols=None):
    """Reduced row echelon form over Fraction by Gauss-Jordan elimination,
    written independently of the package's elimination: (the nonzero rows,
    their pivot columns)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if ncols is None:
        ncols = len(mat[0]) if mat else 0
    rank = 0
    pivots = []
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        mat[rank] = [x / pv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        pivots.append(col)
        rank += 1
    return mat[:rank], pivots


def rank_gauss(rows):
    """Row-reduction rank over Fraction, written independently of the
    package's elimination."""
    return len(rref_gauss(rows)[1])


def kernel_gauss(rows, ncols):
    """Right kernel basis read off rref_gauss: one vector per free column,
    unit there, in increasing column order."""
    reduced, pivots = rref_gauss(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, c in zip(reduced, pivots):
            v[c] = -row[f]
        basis.append(tuple(v))
    return basis


def solve_rref(rows, ncols, b):
    """The solution of m x = b with free variables 0, or None, read off
    rref_gauss of the augmented matrix."""
    reduced, pivots = rref_gauss([list(row) + [b[i]] for i, row in enumerate(rows)],
                                 ncols + 1)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, c in zip(reduced, pivots):
        x[c] = row[ncols]
    return tuple(x)


def select_by_ranks(sub, vectors):
    """Keep a vector when it raises the rank of everything kept so far (sub
    first), with each rank from rank_gauss: the scan-order rule."""
    kept = [list(v) for v in sub]
    r = rank_gauss(kept)
    chosen = []
    for v in vectors:
        if rank_gauss(kept + [list(v)]) > r:
            chosen.append(tuple(Fraction(x) for x in v))
            kept.append(list(v))
            r += 1
    return chosen


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


# Dense matrix algebra on QMatrix, which the package no longer needs.

def matmul(a, b):
    if a.ncols != b.nrows:
        raise ValueError("shape mismatch")
    return QMatrix([[sum((a[i, k] * b[k, j] for k in range(a.ncols)), Fraction(0))
                     for j in range(b.ncols)] for i in range(a.nrows)],
                   ncols=b.ncols)


def matadd(a, b):
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        raise ValueError("shape mismatch")
    return QMatrix([[x + y for x, y in zip(r, s)] for r, s in zip(a.data, b.data)],
                   ncols=a.ncols)


def matvec(m, v):
    if len(v) != m.ncols:
        raise ValueError("length mismatch")
    return tuple(sum((x * Fraction(y) for x, y in zip(row, v)), Fraction(0))
                 for row in m.data)


def transpose(m):
    return QMatrix([[m[i, j] for i in range(m.nrows)] for j in range(m.ncols)],
                   ncols=m.nrows)


def is_zero(m):
    return all(x == 0 for row in m.data for x in row)


def sparse(v):
    """A dense vector as a {position: nonzero} map."""
    return {j: x for j, x in enumerate(v) if x}


def dense(v, n):
    """A {position: nonzero} map as a dense Fraction tuple of length n."""
    return tuple(Fraction(v.get(j, 0)) for j in range(n))


def sparse_rows(m):
    """The rows of a QMatrix as {column: nonzero} maps."""
    return [sparse(row) for row in m.data]


# The dense general path that the sparse level maps replaced, kept as their
# oracle: each map between levels is a full Fraction matrix.

def dense_pullback(cx, p, sign=removal_sign):
    """Alternating restriction from level p to level p+1: rows are level
    p+1 strata, columns level p, entry (-1)^j when the column is the row's
    parent at its j-th component."""
    rows, cols = cx.level(p + 1), cx.level(p)
    col_pos = {s.label: k for k, s in enumerate(cols)}
    data = [[0] * len(cols) for _ in rows]
    for r, z in enumerate(rows):
        for removed, parent_label in z.parents.items():
            data[r][col_pos[parent_label]] += sign(z.index_set, removed)
    return QMatrix(data, ncols=len(cols))


def h2_offsets(cx, h2, p):
    offsets, total = {}, 0
    for s in cx.level(p):
        offsets[s.label] = total
        total += h2.dim(s.label)
    return offsets, total


def dense_pushforward(cx, h2, p):
    """Gysin map from level-p H^0 into the stacked level-(p-1) H2 spaces:
    the column of a stratum Z places sign(removal) times its Gysin vector in
    each parent's block."""
    cols = cx.level(p)
    if p < 1:
        return QMatrix([], ncols=len(cols))
    offsets, nrows = h2_offsets(cx, h2, p - 1)
    data = [[Fraction(0)] * len(cols) for _ in range(nrows)]
    for c, z in enumerate(cols):
        for removed, parent_label in z.parents.items():
            sign = removal_sign(z.index_set, removed)
            base = offsets[parent_label]
            for k, val in enumerate(h2.gysin_vector(parent_label, z.label)):
                data[base + k][c] += sign * val
    return QMatrix(data, ncols=len(cols))
