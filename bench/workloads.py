"""The three benchmark workloads: fixed op mixes generated from a seed.

Every op is one call to ``tropmono.cli.run(argv)``.  Each op carries an
answer oracle that reads the parsed JSON report.  A mix is a list of
blocks; a block holds ops of similar cost, and the block sizes put the
median and the 90th percentile of op latency inside one block each (see
README.md).  The seed fixes the fixture content and the op order.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional

import fixtures
from tropmono.dual_complex import complex_to_json
from tropmono.library import cycle_complex, tetrahedron_complex

@dataclass(frozen=True)
class Op:
    """One CLI call and its expected answer: the number of report checks
    (None when not fixed) and fields of the report's result."""
    block: str
    argv: tuple[str, ...]
    checks: Optional[int]
    want: tuple[tuple[str, object], ...]


def _op(block: str, argv, checks: Optional[int] = None, **want) -> Op:
    return Op(block, tuple(argv), checks, tuple(want.items()))


def verify(op: Op, code: int, text: str) -> tuple[Optional[str], int]:
    """(why the op's answer is wrong or None, number of report checks)."""
    if code != 0:
        return f"exit status {code}", 0
    report = json.loads(text)
    checks = report["checks"]
    failed = [c["name"] for c in checks if c["status"] != "pass"]
    if failed:
        return f"failed checks {failed[:3]}", len(checks)
    if op.checks is not None and len(checks) != op.checks:
        return f"{len(checks)} checks, expected {op.checks}", len(checks)
    result = report.get("result") or {}
    for key, value in op.want:
        if result.get(key) != value:
            return f"result[{key!r}] is {result.get(key)!r}, expected {value!r}", len(checks)
    return None, len(checks)


def _sphere_dims(top: int) -> dict[str, int]:
    """Cohomology of a (top)-sphere by level, 1 at the bottom and top and 0
    between: the E2 dims of a simplex boundary, and of a cycle for top = 1."""
    return {str(p): int(p in (0, top)) for p in range(top + 1)}


def _det(rows) -> Fraction:
    """Leibniz determinant; the order values here are at most 3 x 3."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


class _Files:
    """Writes fixture JSON under one directory, named in order."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.count = 0

    def write(self, stem: str, obj) -> str:
        self.count += 1
        path = os.path.join(self.workdir, f"{self.count:03d}-{stem}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path


def _presentations_obj(presentations) -> dict:
    return {"presentations": [p.to_json_obj() for p in presentations]}


# --- superform_battery ------------------------------------------------------

# The per-case cost of the battery is heavy tailed (14 ms to 3 s at n = 6,
# set by the random degrees), so a fresh draw of cases per workload seed
# would move the percentiles by more than any bound.  The battery seeds are
# therefore fixed, and the workload seed only orders the ops.  They were
# picked by their cost at the commit that introduced this benchmark so that
# the median and the 90th percentile fall inside blocks of one repeated op,
# and so that one pass takes a few seconds: (block, n, cases, battery seeds,
# repetitions).  The 100 ops put the median at ranks 50-51 in 31-70 and the
# 90th percentile at ranks 90-91 in 86-95.
SUPERFORM_MIX = (
    ("below_median", 6, 1, (608, 609), 15),
    ("median", 4, 2, (414,), 40),
    ("between", 4, 2, (427, 418), 5),
    ("between", 5, 2, (513,), 3),
    ("between", 5, 2, (511,), 2),
    ("p90", 5, 2, (519,), 10),
    ("tail", 4, 2, (410, 428, 405), 1),
    ("tail", 5, 2, (501,), 1),
    ("tail", 6, 1, (603,), 1),
)


def superform_battery(rng: random.Random, files: _Files) -> list[Op]:
    ops = []
    for block, n, cases, seeds, reps in SUPERFORM_MIX:
        for seed in seeds:
            argv = ("check", "superform", "--n", str(n), "--cases", str(cases),
                    "--seed", str(seed))
            ops += [_op(block, argv, 15, n=n, cases=cases, checksRun=15)] * reps
    return ops


# --- tower_ladder -----------------------------------------------------------

def _starprop(n: int, p: int, extra: int, rng: random.Random, block: str) -> Op:
    forms = comb(n + 1, p) + extra
    rows = forms * comb(n + 1, p + 1)
    argv = ("simplex", "starprop", "--n", str(n), "--p", str(p),
            "--random", str(extra), "--seed", str(rng.randrange(10**6)))
    return _op(block, argv, forms + rows, n=n, p=p, forms=forms, faceRows=rows)


def _ladder(complex_, complex_path: str, p: int, rng: random.Random,
            files: _Files, block: str) -> Op:
    """``dolbeault`` on a simplicial complex with consistent random order
    data; the oracle recomputes every order value from the global table."""
    pres, weights, table = fixtures.simplicial_presentations(complex_, p, rng)
    pres_path = files.write(f"pres-p{p}", _presentations_obj(pres))
    want_ord = {}
    for s in complex_.level(p):
        v0, rest = s.index_set[0], s.index_set[1:]
        want_ord[s.label] = str(sum(
            (w * _det([[row[v] - row[v0] for v in rest] for row in sheet])
             for w, sheet in zip(weights, table)), Fraction(0)))
    top = complex_.max_level
    comparisons = len(complex_.level(top)) * comb(top + 1, p + 1)
    argv = ("dolbeault", "--complex", complex_path, "--pres", pres_path,
            "--p", str(p))
    return _op(block, argv, 2, p=p, finalCheck=True, ord=want_ord,
              comparisons=comparisons)


def _ord_check(m: int, rng: random.Random, files: _Files, block: str) -> Op:
    pres, oriented = fixtures.cycle_kernel_presentations(m, rng)
    complex_path = files.write(f"cycle{m}", complex_to_json(cycle_complex(m)))
    pres_path = files.write(f"cycle{m}-pres", _presentations_obj(pres))
    values = {f"E{i}_{i + 1}": str(oriented) for i in range(1, m)}
    values[f"E1_{m}"] = str(-oriented)
    argv = ("ord", "check", "--complex", complex_path, "--pres", pres_path,
            "--p", "1")
    return _op(block, argv, 3, p=1, values=values)


def tower_ladder(rng: random.Random, files: _Files) -> list[Op]:
    # 100 ops of at most about 0.15 s each: the median falls at ranks 50-51
    # among the ladders on the tetrahedron (ranks 21-75), the 90th
    # percentile at ranks 90-91 in the starprop block (ranks 85-94).
    # below the median: order vectors on cycles and tetrahedron ladders at
    # p = 1
    ops = []
    for m in (6, 10, 14, 18, 22):
        ops += [_ord_check(m, rng, files, "ord_check")] * 4
    tet = tetrahedron_complex()
    tet_path = files.write("tetrahedron", complex_to_json(tet))
    for _ in range(3):
        ops += [_ladder(tet, tet_path, 1, rng, files, "ladder_tetrahedron_p1")] * 5

    # the median: tetrahedron ladders at p = 2, eight data sets
    for _ in range(8):
        ops += [_ladder(tet, tet_path, 2, rng, files, "median")] * 5

    # between: the n = 3, p = 1 tower and order vectors on a 30-cycle
    ops += [_starprop(3, 1, 0, rng, "between")] * 4
    ops += [_ord_check(30, rng, files, "between")] * 5

    # the 90th percentile: the n = 4, p = 1 tower on the basis forms alone
    ops += [_starprop(4, 1, 0, rng, "p90")] * 10

    # above it, once each: the n = 3 towers at p = 2 (one random form) and
    # p = 3, and ladders on the skeletons of the 4-simplex
    ops += [_starprop(3, 2, 1, rng, "tail"), _starprop(3, 3, 0, rng, "tail")]
    for k, ps in ((2, (1, 2)), (3, (2, 3))):
        skel = fixtures.simplex_skeleton(5, k)
        skel_path = files.write(f"skeleton-5-{k}", complex_to_json(skel))
        for p in ps:
            ops.append(_ladder(skel, skel_path, p, rng, files, "tail"))
    return ops


# --- dual_complex_e2 --------------------------------------------------------

def _e2(path: str, top: int, block: str) -> Op:
    return _op(block, ("ss", "e2", "--input", path), top, dims=_sphere_dims(top))


def _monodromy(path: str, p: int, e2_dim: int, block: str,
               isomorphism: Optional[bool] = None) -> Op:
    want = {"p": p, "codomainDim": e2_dim}
    if isomorphism is not None:
        want.update(isomorphism=isomorphism, domainDim=e2_dim)
    return _op(block, ("ss", "monodromy", "--input", path, "--p", str(p)), 1, **want)


def _validate(path: str, block: str) -> Op:
    return _op(block, ("ss", "validate", "--input", path), 1, levels=[1])


def _cycle_files(m: int, rng: random.Random, files: _Files) -> tuple[str, str]:
    cx = fixtures.shuffled(cycle_complex(m), rng)
    bare = files.write(f"cycle{m}", complex_to_json(cx))
    with_h2 = files.write(f"cycle{m}-h2", complex_to_json(cx, fixtures.validation_h2(cx)))
    return bare, with_h2


def _boundary_file(n: int, rng: random.Random, files: _Files) -> str:
    cx = fixtures.shuffled(fixtures.simplex_boundary(n), rng)
    return files.write(f"boundary{n}", complex_to_json(cx))


def dual_complex_e2(rng: random.Random, files: _Files) -> list[Op]:
    # 108 ops of at most about 0.15 s each: the median falls at ranks 54-55
    # in the validate block (ranks 31-70), the 90th percentile at ranks
    # 97-98 in the 14-cycle block (ranks 86-103).
    # below the median: E2 and the corner on 6- and 8-cycles, small corners
    # on the boundary of the 5-simplex
    ops = []
    for _ in range(3):
        bare, _ = _cycle_files(6, rng, files)
        ops += [_e2(bare, 1, "small"), _monodromy(bare, 1, 1, "small", isomorphism=True)] * 4
    bare, _ = _cycle_files(8, rng, files)
    ops += [_e2(bare, 1, "small"), _monodromy(bare, 1, 1, "small", isomorphism=True)] * 3
    b5 = _boundary_file(5, rng, files)
    b6 = _boundary_file(6, rng, files)
    ops += [_monodromy(b5, 1, 0, "small"), _monodromy(b5, 4, 1, "small")] * 2

    # the median: dense cancellation products without elimination
    for _ in range(8):
        _, with_h2 = _cycle_files(10, rng, files)
        ops += [_validate(with_h2, "median")] * 5

    # between: E2 and the corner on 12-cycles, corners on the boundary of
    # the 6-simplex
    for _ in range(2):
        bare, _ = _cycle_files(12, rng, files)
        ops += [_e2(bare, 1, "between"),
                _monodromy(bare, 1, 1, "between", isomorphism=True)] * 2
    _, with_h2 = _cycle_files(14, rng, files)
    ops += [_monodromy(b6, 1, 0, "between"), _monodromy(b6, 5, 1, "between"),
            _validate(with_h2, "between")]

    # the 90th percentile: repeated-rank E2 and the corner on three
    # 14-cycles, three times each.  The cost depends on the permutation, so
    # the percentile falls on the middle of several draws; the copies give
    # each op enough executions for its best latency to settle.
    for _ in range(3):
        bare, _ = _cycle_files(14, rng, files)
        ops += [_e2(bare, 1, "p90"), _monodromy(bare, 1, 1, "p90", isomorphism=True)] * 3

    # the tail, once each
    bare, with_h2 = _cycle_files(16, rng, files)
    ops += [_e2(bare, 1, "tail"),
            _validate(with_h2, "tail"),
            _monodromy(b5, 2, 0, "tail"),
            _monodromy(b5, 3, 0, "tail"),
            _e2(b5, 4, "tail")]
    return ops


WORKLOADS = {
    "superform_battery": superform_battery,
    "tower_ladder": tower_ladder,
    "dual_complex_e2": dual_complex_e2,
}


def build(name: str, seed: int, workdir: str) -> list[Op]:
    """Write the workload's fixtures under workdir and return its op mix in
    the seed's order."""
    rng = random.Random(f"{name}:{seed}")
    ops = WORKLOADS[name](rng, _Files(workdir))
    rng.shuffle(ops)
    return ops
