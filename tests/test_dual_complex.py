import copy
import gc
import itertools
import json
import os
import random
import sys
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction
from types import MappingProxyType

import pytest

from conftest import (dense_pullback, dense_pushforward, h2_offsets,
                      is_zero, json_digest, kernel_gauss, matadd, matmul,
                      matvec, nerve_cohomology_dims, rank_gauss,
                      select_by_ranks, single_node_mutations, solve_rref,
                      transpose)
from tropmono import dual_complex, linalg
from tropmono.dual_complex import (H2Model, SemistableCombinatorics, Stratum,
                                   check_vanishing_vector, complex_from_json,
                                   complex_to_json, corner_monodromy, e2_dims,
                                   e2_p0,
                                   relabel_components, relation_composite,
                                   removal_sign, restriction_square, unit_h2)
from tropmono.library import (all_ones_h2, chain_complex, cycle_complex,
                              cycle_validation_h2, disjoint_union, join,
                              point_complex,
                              rp2_complex, tetrahedron_complex, torus_complex)
from tropmono.linalg import QMatrix

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench"))

import fixtures  # noqa: E402


def bundled():
    out = [point_complex(), chain_complex(), tetrahedron_complex()]
    out += [cycle_complex(m) for m in range(3, 8)]
    return out


def index_sets(cx):
    return [s.index_set for lvl in range(cx.max_level + 1) for s in cx.level(lvl)]


def two_points_complex():
    return SemistableCombinatorics(
        ["A", "B"], [Stratum("A", (1,), {}), Stratum("B", (2,), {})])


def test_removal_sign_frozen():
    assert removal_sign((1, 2), 1) == 1
    assert removal_sign((1, 2), 2) == -1
    assert removal_sign((1, 3, 5), 5) == 1
    assert removal_sign((2, 4, 6), 4) == -1


def test_chain_restriction_signs_frozen():
    # value on the double stratum is (value on Y2) - (value on Y1)
    assert dual_complex._restriction_rows(chain_complex(), 0) == {0: {0: -1, 1: 1}}
    mat = dense_pullback(chain_complex(), 0)
    assert (mat.nrows, mat.ncols) == (1, 2)
    assert [mat[0, 0], mat[0, 1]] == [-1, 1]


def test_restriction_squares_to_zero():
    for cx in bundled():
        for p in range(max(cx.max_level - 1, 0)):
            assert restriction_square(cx, p) is None
            assert is_zero(matmul(dense_pullback(cx, p + 1), dense_pullback(cx, p)))


def test_e2_dims_match_brute_force():
    # e2_dims reads ranks only; the representatives and an independent
    # oracle (the nerve's cohomology, or the join formula for joins) must
    # agree with it at every level, middle-level classes included
    rng = random.Random(35)
    torus, rp2 = torus_complex(), rp2_complex()
    cases = [(cx, None) for cx in bundled() + [two_points_complex()]]
    cases += [(fixtures.shuffled(torus, rng), [1, 2, 1]),
              (fixtures.shuffled(rp2, rng), [1, 0, 0]),
              (fixtures.shuffled(join(torus, rp2), rng), join_dims([1, 2, 1], [1, 0, 0])),
              (fixtures.shuffled(join(torus, torus), rng), join_dims([1, 2, 1], [1, 2, 1]))]
    cases += [(fixtures.shuffled(fixtures.simplex_boundary(n), rng), None)
              for n in range(2, 8)]
    cases += [(random_complex(rng), None) for _ in range(100)]
    for cx, want in cases:
        want = want or nerve_cohomology_dims(index_sets(cx))
        assert e2_dims(cx) == rep_counts(cx) == want


def test_e2_dims_frozen():
    assert len(e2_p0(point_complex(), 0)) == 1
    assert [len(e2_p0(chain_complex(), p)) for p in (0, 1)] == [1, 0]
    assert len(e2_p0(two_points_complex(), 0)) == 2
    for m in (3, 5, 7):
        assert [len(e2_p0(cycle_complex(m), p)) for p in (0, 1)] == [1, 1]
    tetra = tetrahedron_complex()
    assert [len(e2_p0(tetra, p)) for p in (0, 1, 2)] == [1, 0, 1]


def test_e2_representatives_live_in_the_kernel():
    for cx in bundled():
        for p in range(cx.max_level + 1):
            got = e2_p0(cx, p)
            kernel, image, reps = dense_e2(cx, p)
            assert got == reps
            assert all(type(x) is Fraction for v in got for x in v)
            pull = dense_pullback(cx, p)
            for vec in got + image:
                assert all(x == 0 for x in matvec(pull, vec))
            assert len(got) == len(kernel) - len(image)


def test_e2_builds_no_dense_kernel_or_image():
    # before, the 600 kernel and 599 image vectors of a 600-cycle's top
    # level were copied into dense tuples: a 6.1 MiB peak, against 0.54 now
    cx = cycle_complex(600)
    tracemalloc.start()
    try:
        reps = e2_p0(cx, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reps) == 1
    assert peak < 2 * 2**20


def test_corner_monodromy_is_iso_on_cycles():
    for m in range(3, 8):
        cx = cycle_complex(m)
        cm = corner_monodromy(cx, unit_h2(cx), 1)
        assert (cm.domain_dim, cm.codomain_dim) == (1, 1)
        assert cm.isomorphism
    cm5 = corner_monodromy(cycle_complex(5), unit_h2(cycle_complex(5)), 1)
    assert cm5.matrix[0, 0] == -5


def test_e2_and_corner_on_a_60_cycle():
    cx = cycle_complex(60)
    assert [len(e2_p0(cx, p)) for p in (0, 1)] == [1, 1]
    comparison = corner_monodromy(cx, unit_h2(cx, level=0), 1)
    assert comparison.isomorphism
    assert comparison.matrix.to_json_obj() == [["-60"]]


def test_corner_monodromy_is_iso_on_torus_join_torus():
    # the second page of torus * torus has dims (1, 0, 0, 4, 4, 1)
    cx = join(torus_complex(), torus_complex())
    for p, dim in ((3, 4), (5, 1)):
        cm = corner_monodromy(cx, unit_h2(cx, level=p - 1), p)
        assert (cm.domain_dim, cm.codomain_dim) == (dim, dim)
        assert cm.isomorphism


def test_stored_rows_stay_near_the_boundary_data(monkeypatch):
    """Every stored row is primitive, so its entries stay near the data: on
    the shuffled 9-simplex boundary's corner at p = 5, from 0/+-1 entries,
    they fit in 16 bits (they reach 10)."""
    widths = []
    push = linalg._push

    def recording(stored, row):
        kept = push(stored, row)
        if kept is not None:
            widths.extend(abs(x).bit_length() for x in stored[-1][2].values())
        return kept

    monkeypatch.setattr(linalg, "_push", recording)
    cx = fixtures.shuffled(fixtures.simplex_boundary(9), random.Random(9))
    assert corner_monodromy(cx, unit_h2(cx, level=4), 5).isomorphism
    assert widths and max(widths) <= 16


def test_corner_monodromy_zero_gysin_is_not_injective():
    for m in (3, 4):
        cx = cycle_complex(m)
        cm = corner_monodromy(
            cx, H2Model({s.label: 1 for s in cx.level(0)}), 1)
        assert cm.domain_dim == m
        assert cm.codomain_dim == 1
        assert not cm.injective
        assert not cm.isomorphism


def test_corner_monodromy_point_complex():
    cx = point_complex()
    cm = corner_monodromy(cx, unit_h2(cx), 0)
    assert (cm.domain_dim, cm.codomain_dim) == (1, 1)
    assert cm.isomorphism
    assert cm.matrix[0, 0] == 1


def test_validation_model_satisfies_the_cancellation():
    for m in range(3, 8):
        cx = cycle_complex(m)
        assert relation_composite(cx, cycle_validation_h2(m), 1) is None


def test_unit_model_passes_trivially():
    # edge spaces are zero dimensional, so the composite lands in nothing
    for m in (3, 5):
        cx = cycle_complex(m)
        assert relation_composite(cx, unit_h2(cx), 1) is None


def flipped_models(m):
    base = cycle_validation_h2(m)
    blocks = {key: base.restriction(*key) for key in base.restrict}
    for key in sorted(base.gysin):
        for slot in range(2):
            gysin = dict(base.gysin)
            vec = list(gysin[key])
            vec[slot] = -vec[slot]
            gysin[key] = tuple(vec)
            yield H2Model(base.dims, gysin, blocks)
    for key in sorted(base.restrict):
        for slot in range(2):
            restrict = dict(blocks)
            row = [restrict[key][0, 0], restrict[key][0, 1]]
            row[slot] = -row[slot]
            restrict[key] = QMatrix([row])
            yield H2Model(base.dims, base.gysin, restrict)


def test_any_single_sign_flip_breaks_the_cancellation():
    for m in (3, 4, 5):
        cx = cycle_complex(m)
        for h2 in flipped_models(m):
            assert relation_composite(cx, h2, 1) is not None


def test_all_ones_model_is_flagged_inconsistent():
    for m in (3, 4, 5):
        cx = cycle_complex(m)
        h2 = all_ones_h2(cx)
        composite = relation_composite(cx, h2, 1)
        assert composite is not None
        for i in range(composite.nrows):
            assert composite[i, i] == 2


def test_validate_relation_needs_adjacent_levels():
    cx = cycle_complex(3)
    with pytest.raises(ValueError):
        relation_composite(cx, cycle_validation_h2(3), 0)


def test_relabeling_components_changes_nothing():
    rng = random.Random(50)
    for cx, h2 in [(cycle_complex(5), cycle_validation_h2(5)),
                   (cycle_complex(4), unit_h2(cycle_complex(4))),
                   (tetrahedron_complex(), None)]:
        m = len(cx.components)
        dims = [len(e2_p0(cx, p)) for p in range(cx.max_level + 1)]
        for _ in range(5):
            images = list(range(1, m + 1))
            rng.shuffle(images)
            perm = dict(zip(range(1, m + 1), images))
            shuffled = relabel_components(cx, perm)
            got = [len(e2_p0(shuffled, p)) for p in range(shuffled.max_level + 1)]
            assert got == dims
            if h2 is not None:
                assert (relation_composite(shuffled, h2, 1) is None) == \
                    (relation_composite(cx, h2, 1) is None)
                before = corner_monodromy(cx, h2, 1)
                after = corner_monodromy(shuffled, h2, 1)
                assert after.isomorphism == before.isomorphism


def test_pushforward_frozen_on_the_chain():
    cx = chain_complex()
    h2 = unit_h2(cx)
    # rows as {row index: row}, only those a stored Gysin vector backs
    assert dual_complex._gysin_rows(cx, h2, 1) == {0: {0: -1}, 1: {0: 1}}
    assert dual_complex._gysin_rows(cx, h2, 0) == {}
    mat = dense_pushforward(cx, h2, 1)
    assert (mat.nrows, mat.ncols) == (2, 1)
    assert [mat[0, 0], mat[1, 0]] == [-1, 1]
    empty = dense_pushforward(cx, h2, 0)
    assert (empty.nrows, empty.ncols) == (0, 2)


# The dense general path that the sparse products and the sparse
# elimination replaced, kept as their oracle: dense_pullback and
# dense_pushforward (conftest) give each map as a full Fraction matrix, the
# composites are QMatrix products, and the second page and the corner come
# from conftest's Gauss-Jordan elimination.

def h2_pullback(cx, h2, p):
    """Alternating restriction on the H2 level, stacked level-p blocks to
    stacked level-(p+1) blocks."""
    src_off, ncols = h2_offsets(cx, h2, p)
    dst_off, nrows = h2_offsets(cx, h2, p + 1)
    data = [[Fraction(0)] * ncols for _ in range(nrows)]
    for z in cx.level(p + 1):
        dz = h2.dim(z.label)
        if dz == 0:
            continue
        for removed, parent_label in sorted(z.parents.items()):
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


def dense_composite(cx, h2, p):
    if p < 1:
        raise ValueError("the relation pairs levels p-1 and p+1; need p >= 1")
    composite = matadd(matmul(h2_pullback(cx, h2, p - 1), dense_pushforward(cx, h2, p)),
                       matmul(dense_pushforward(cx, h2, p + 1), dense_pullback(cx, p)))
    return None if is_zero(composite) else composite


def dense_e2(cx, p):
    """(kernel, image, representatives) of the second page at level p."""
    kernel = kernel_gauss(dense_pullback(cx, p).data, len(cx.level(p)))
    columns = transpose(dense_pullback(cx, p - 1)).data if p else ()
    image = select_by_ranks([], columns)
    return tuple(kernel), tuple(image), tuple(select_by_ranks(image, kernel))


def dense_corner(cx, h2, p, image, reps):
    """(matrix, injective, surjective) of the corner comparison, given the
    image and representatives of the second page."""
    ncols = len(cx.level(p))
    corner = kernel_gauss(dense_pullback(cx, p).data + dense_pushforward(cx, h2, p).data,
                          ncols)
    mixed = transpose(QMatrix(image + reps, ncols=ncols)).data
    coords = [solve_rref(mixed, len(image) + len(reps), v)[len(image):]
              for v in corner]
    matrix = QMatrix([[c[i] for c in coords] for i in range(len(reps))],
                     ncols=len(coords))
    r = rank_gauss(matrix.data)
    return matrix, r == len(corner), r == len(reps)


def outcome(fn, *args):
    """The value of a call, or the type and text of what it raised."""
    try:
        return fn(*args)
    except (KeyError, ValueError) as exc:
        return type(exc), str(exc)


def random_complex(rng):
    """A shuffled cycle, simplex boundary or skeleton, its strata also listed
    in a random order within each level."""
    kind = rng.randrange(3)
    if kind == 0:
        cx = cycle_complex(rng.randint(3, 8))
    elif kind == 1:
        cx = fixtures.simplex_boundary(rng.randint(2, 4))
    else:
        vertices = rng.randint(3, 5)
        cx = fixtures.simplex_skeleton(vertices, rng.randint(1, min(3, vertices - 1)))
    cx = fixtures.shuffled(cx, rng)
    strata = [s for lvl in range(cx.max_level + 1) for s in cx.level(lvl)]
    rng.shuffle(strata)
    return SemistableCombinatorics(cx.components, strata)


RATIONALS = (0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4))
INTEGERS = (0, 0, 1, -1, 2, -3)


def spell(x, k):
    """x as a literal, by k mod 4: canonical ("-3/4"), signed ("+3", "-0"),
    unreduced ("6/3") or with leading zeros ("007")."""
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    digits = f"{abs(num)}/{den}" if den != 1 else f"{abs(num)}"
    return (str(x), ("-" if num <= 0 else "+") + digits, f"{3 * num}/{3 * den}",
            ("-" if num < 0 else "") + "00" + digits)[k % 4]


def random_h2(cx, rng):
    """Dims 0-3 at every level and rational data, some of it zero; a few
    pairs get no restriction, or one of the wrong shape.  Each restriction
    block is given as a QMatrix, as rows of ints or as rows of literals,
    canonical ("1/2", "-3") or not ("+3", "-0", "6/3", "007").  Returns the
    model, each block as the dense QMatrix it was given as, and the blocks
    given as literals."""
    dims = {s.label: rng.randint(0, 3)
            for lvl in range(cx.max_level + 1) for s in cx.level(lvl)}
    gysin, restrict, dense, literals = {}, {}, {}, {}
    for lvl in range(1, cx.max_level + 1):
        for z in cx.level(lvl):
            for parent in z.parents.values():
                dz, dw = dims[z.label], dims[parent]
                if rng.random() < 0.8:
                    gysin[parent, z.label] = [rng.choice(RATIONALS) for _ in range(dw)]
                roll = rng.random()
                if roll < 0.04:
                    continue
                rows = dz + 1 if roll < 0.07 else dz
                form = rng.randrange(3)
                values = INTEGERS if form == 1 else RATIONALS + (-3,)
                block = [[rng.choice(values) for _ in range(dw)] for _ in range(rows)]
                dense[parent, z.label] = QMatrix(block, ncols=dw)
                if form == 2:
                    block = literals[parent, z.label] = [
                        [spell(x, i + j) for j, x in enumerate(row)]
                        for i, row in enumerate(block)]
                restrict[parent, z.label] = dense[parent, z.label] if form == 0 else block
    return H2Model(dims, gysin, restrict), dense, literals


def test_sparse_products_match_the_dense_oracle():
    rng = random.Random(1010)
    seen = {"equal": 0, "nonzero": 0, "missing": 0, "shape": 0, "vectors": 0,
            "image": 0, "iso": 0, "not injective": 0, "not surjective": 0,
            "-0": 0, "spelled": 0, "h2 rows": 0}
    for _ in range(120):
        cx = random_complex(rng)
        h2, blocks, literals = random_h2(cx, rng)
        # stored entries are ints where integral, Fractions otherwise, and a
        # restriction row keeps its nonzero entries only
        sparse = [x for _, rows in h2.restrict.values() for row in rows
                  for x in row.values()]
        assert all(sparse)
        assert all(type(x) is int or (type(x) is Fraction and x.denominator != 1)
                   for x in sparse + [x for vec in h2.gysin.values() for x in vec])
        # whatever the spelling, a block stores what its Fractions store, type
        # for type, and a "-0" is not stored
        assert typed(h2.restrict) == typed(H2Model(h2.dims, restrict=blocks).restrict)
        for key, block in literals.items():
            zeros = [(i, j) for i, row in enumerate(block)
                     for j, x in enumerate(row) if x == "-0"]
            assert not any(j in h2.restrict[key][1][i] for i, j in zeros)
            seen["-0"] += len(zeros)
            seen["spelled"] += sum(x != str(Fraction(x)) for row in block for x in row)
        for (parent, child), mat in blocks.items():
            want = (mat if mat.nrows == h2.dim(child) else
                    (ValueError, f"restriction {parent} -> {child} has wrong shape"))
            assert outcome(h2.restriction, parent, child) == want
        cx_read, h2_read = complex_from_json(complex_to_json(cx, h2))
        for p in range(cx.max_level + 1):
            ncols = len(cx.level(p))
            # every level map is a row map holding only nonzero rows, which
            # made dense at the declared rows is the dense oracle
            restriction = dual_complex._restriction_rows(cx, p)
            assert all(restriction.values())
            assert dense_rows(restriction, len(cx.level(p + 1)), ncols) \
                == dense_pullback(cx, p)
            pushforward = dense_pushforward(cx, h2, p)
            gysin = dual_complex._gysin_rows(cx, h2, p)
            assert list(gysin) == sorted(gysin)  # row order: the cheaper push
            assert all(gysin.values())
            assert dense_rows(gysin, pushforward.nrows, ncols) == pushforward
            src, dst = h2_offsets(cx, h2, p)[1], h2_offsets(cx, h2, p + 1)[1]
            h2_rows = outcome(dual_complex._h2_restriction_rows, cx, h2, p)
            if isinstance(h2_rows, dict):
                assert all(h2_rows.values())
                h2_rows = dense_rows(h2_rows, dst, src)
                seen["h2 rows"] += bool(src and dst)
            assert h2_rows == outcome(h2_pullback, cx, h2, p)
            want = matmul(dense_pullback(cx, p + 1), dense_pullback(cx, p))
            assert restriction_square(cx, p) is None and is_zero(want)
            got = outcome(relation_composite, cx, h2, p)
            assert got == outcome(dense_composite, cx, h2, p)
            # parents are walked by removed component, the order the file
            # lists them in, so the round trip names the same fault
            assert outcome(relation_composite, cx_read, h2_read, p) == got
            if got is None or isinstance(got, QMatrix):
                seen["equal"] += 1
                seen["nonzero"] += got is not None
            elif p:
                seen["missing" if "missing" in got[1] else "shape"] += 1
            kernel, image, reps = dense_e2(cx, p)
            assert e2_p0(cx, p) == reps
            assert len(reps) == len(kernel) - len(image)
            seen["image"] += bool(image)
            corner = corner_monodromy(cx, h2, p)
            assert (corner.matrix, corner.injective, corner.surjective) == \
                dense_corner(cx, h2, p, image, reps)
            seen["iso" if corner.isomorphism else
                 "not injective" if not corner.injective else "not surjective"] += 1
            dense = (dense_pullback(cx, p), dense_pushforward(cx, h2, p))
            for vec in ([rng.choice(RATIONALS) for _ in range(ncols)],
                        [0] * ncols,
                        rng.choice(kernel) if kernel else [1] * ncols,
                        [1] * (ncols + 1)):
                want = outcome(lambda: tuple(all(x == 0 for x in matvec(m, vec))
                                             for m in dense))
                assert outcome(check_vanishing_vector, cx, h2, p, vec) == want
                seen["vectors"] += want in ((True, True), (True, False),
                                            (False, True), (False, False))
    assert seen["equal"] > 100 and seen["nonzero"] > 90
    assert seen["missing"] > 30 and seen["shape"] > 25
    assert seen["vectors"] > 800 and seen["image"] > 150
    assert seen["iso"] > 150 and seen["not injective"] > 25
    assert seen["not surjective"] > 40
    assert seen["-0"] > 100 and seen["spelled"] > 600 and seen["h2 rows"] > 80


# The zoo: complexes with second-page classes at a middle level, whose
# dimensions a test-side oracle reads off the join formula.

def join_dims(a, b):
    """E2 dimensions of the join of complexes with dimensions a and b: the
    reduced Betti numbers of A * B in degree k + 1 are the sums of products
    of those of A in degree i and of B in degree k - i (over a field)."""
    reduced_a, reduced_b = [a[0] - 1, *a[1:]], [b[0] - 1, *b[1:]]
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(reduced_a):
        for j, y in enumerate(reduced_b):
            out[i + j + 1] += x * y
    out[0] += 1
    return out


def rep_counts(cx):
    """The second page's dimensions as e2_p0's representatives count them."""
    return [len(e2_p0(cx, p)) for p in range(cx.max_level + 1)]


def test_zoo_e2_dims_match_the_join_formula():
    rng = random.Random(32)
    torus, rp2 = torus_complex(), rp2_complex()
    for cx, want in ((torus, [1, 2, 1]), (rp2, [1, 0, 0])):
        assert nerve_cohomology_dims(index_sets(cx)) == want
        assert rep_counts(fixtures.shuffled(cx, rng)) == want
    assert join_dims([1, 2, 1], [1, 2, 1]) == [1, 0, 0, 4, 4, 1]
    assert join_dims([2], [2]) == [1, 1]  # two points joined: a 4-cycle
    joined = fixtures.shuffled(join(torus, torus), rng)
    assert [len(joined.level(p)) for p in range(6)] == [14, 91, 322, 637, 588, 196]
    assert rep_counts(joined) == join_dims([1, 2, 1], [1, 2, 1])
    assert rep_counts(join(two_points_complex(), two_points_complex())) == [1, 1]
    assert rep_counts(join(rp2, chain_complex())) == join_dims([1, 0, 0], [1, 0])
    # two components meeting twice: a circle that no index set names
    twice = SemistableCombinatorics(["A", "B"], [
        Stratum("A", (1,), {}), Stratum("B", (2,), {}),
        Stratum("E", (1, 2), {1: "B", 2: "A"}), Stratum("F", (1, 2), {1: "B", 2: "A"})])
    with pytest.raises(ValueError, match="^a join needs one stratum per index set$"):
        join(torus, twice)
    with pytest.raises(ValueError, match="^a disjoint union needs one stratum per index set$"):
        disjoint_union(twice, torus)


def test_disjoint_union_adds_the_e2_dims_level_by_level():
    rng = random.Random(36)
    torus, rp2 = torus_complex(), rp2_complex()
    for a, b, want in ((torus, rp2, [2, 2, 1]), (rp2, torus, [2, 2, 1]),
                       (cycle_complex(4), cycle_complex(5), [2, 2]),
                       (chain_complex(), torus, [2, 2, 1])):
        cx = disjoint_union(a, b)
        m = len(a.components)
        assert len(cx.components) == m + len(b.components)
        assert sorted(index_sets(cx)) == sorted(
            index_sets(a) + [tuple(m + i for i in s) for s in index_sets(b)])
        for member in (cx, fixtures.shuffled(cx, rng)):
            assert e2_dims(member) == rep_counts(member) == want


def rank2_h2(cx, p, rng):
    """Two-dimensional classes at level p-1, one-dimensional ones at level p,
    and a random Gysin vector, now and then zero, for every pair."""
    dims = {s.label: 2 for s in cx.level(p - 1)}
    dims.update({s.label: 1 for s in cx.level(p)})
    return H2Model(dims, {(w, z.label): (rng.choice(RATIONALS), rng.choice(RATIONALS))
                          for z in cx.level(p) for w in z.parents.values()})


def test_zoo_matches_the_scan_order_path():
    rng = random.Random(33)
    seen = Counter()
    complexes = [fixtures.shuffled(cx, rng)
                 for cx in (torus_complex(), rp2_complex()) for _ in range(3)]
    for cx in complexes + [random_complex(rng) for _ in range(20)]:
        for p in range(1, cx.max_level + 1):
            kernel, image, reps = dense_e2(cx, p)
            assert e2_p0(cx, p) == reps
            for h2 in (unit_h2(cx, p - 1), rank2_h2(cx, p, rng)):
                corner = corner_monodromy(cx, h2, p)
                assert (corner.matrix, corner.injective, corner.surjective) == \
                    dense_corner(cx, h2, p, image, reps)
                seen["middle class" if reps and p < cx.max_level else
                     "class" if reps else "none"] += 1
                seen["iso" if corner.isomorphism else "not iso"] += 1
    assert min(seen.values()) >= 5 and len(seen) == 5, seen


def dense_rows(rows, nrows, ncols):
    """A row map as a QMatrix with nrows rows, a missing row reading as zero."""
    return dual_complex._dense([rows.get(i, {}) for i in range(nrows)], ncols)


def typed(restrict):
    """Stored restriction blocks with each entry's type next to its value."""
    return {key: (width, [{j: (type(x), x) for j, x in row.items()} for row in rows])
            for key, (width, rows) in restrict.items()}


def test_restriction_square_witness_matches_the_dense_product(monkeypatch):
    # with every removal sign +1 the squares no longer cancel
    monkeypatch.setattr(dual_complex, "removal_sign", lambda index_set, removed: 1)
    cx = fixtures.simplex_boundary(3)
    for p in range(cx.max_level - 1):
        want = matmul(dense_pullback(cx, p + 1, dual_complex.removal_sign),
                      dense_pullback(cx, p, dual_complex.removal_sign))
        assert not is_zero(want)
        assert restriction_square(cx, p) == want


def test_h2_pullback_frozen_on_the_chain():
    cx = chain_complex()
    mat = h2_pullback(cx, all_ones_h2(cx), 0)
    assert (mat.nrows, mat.ncols) == (1, 2)
    assert [mat[0, 0], mat[0, 1]] == [-1, 1]


def test_check_vanishing_vector_on_the_cycle():
    cx = cycle_complex(4)
    h2 = unit_h2(cx)
    # edge order: E1_2, E2_3, E3_4, E1_4
    assert check_vanishing_vector(cx, h2, 1, (1, 1, 1, -1)) == (True, True)
    assert check_vanishing_vector(cx, h2, 1, (1, 0, 0, 0)) == (True, False)


def test_check_vanishing_vector_matches_the_dense_products():
    # random vectors, vectors with zero entries, and kernel vectors of the
    # pullback, of the pushforward and of both, against the dense products
    rng = random.Random(2525)
    seen = Counter()
    for _ in range(60):
        cx = random_complex(rng)
        h2 = random_h2(cx, rng)[0]
        for p in range(cx.max_level + 1):
            ncols = len(cx.level(p))
            maps = (dense_pullback(cx, p), dense_pushforward(cx, h2, p))
            vectors = [[rng.choice(RATIONALS) for _ in range(ncols)],
                       [rng.choice((0, 0, 0, 1, -2)) for _ in range(ncols)]]
            for rows in ((maps[0],), (maps[1],), maps):
                kernel = kernel_gauss([row for m in rows for row in m.data], ncols)
                if kernel:
                    vectors.append(rng.choice(kernel))
            for vec in vectors:
                want = tuple(all(x == 0 for x in matvec(m, vec)) for m in maps)
                assert check_vanishing_vector(cx, h2, p, vec) == want
                seen[want] += 1
                seen["zero entries"] += 0 in vec and any(vec)
    assert min(seen[want] for want in itertools.product((True, False), repeat=2)) > 30
    assert seen["zero entries"] > 100


def test_json_roundtrip():
    cx = cycle_complex(4)
    h2 = cycle_validation_h2(4)
    obj = complex_to_json(cx, h2)
    json.dumps(obj)  # must be serializable as-is
    cx2, h22 = complex_from_json(obj)
    assert complex_to_json(cx2, h22) == obj
    bare_cx, bare_h2 = complex_from_json(complex_to_json(cx))
    assert bare_h2 is None
    assert complex_to_json(bare_cx) == complex_to_json(cx)


def test_json_level_consistency_is_checked():
    obj = complex_to_json(point_complex())
    obj["strata"][0]["level"] = 1
    with pytest.raises(ValueError):
        complex_from_json(obj)


def read_outcome(obj):
    """What complex_from_json makes of obj, as plain JSON: the message of
    its refusal, or the poset (levels, strata, children, index-set lookups)
    and the h2 model (dims, Gysin vectors, restriction blocks), entries by
    repr so that an int and an integral Fraction differ."""
    try:
        cx, h2 = complex_from_json(obj)
    except ValueError as exc:
        return str(exc)
    levels = [cx.level(lvl) for lvl in range(cx.max_level + 1)]
    strata = [s for level in levels for s in level]
    out = {
        "components": list(cx.components),
        "levels": [[s.label for s in level] for level in levels],
        "strata": [[s.label, list(s.index_set), list(s.parents.items())]
                   for s in strata],
        "children": [[c.label for c in cx.children(s.label)] for s in strata],
        "lookups": [cx.stratum_by_index_set(s.index_set).label for s in strata],
        "unique": cx.index_sets_unique(),
    }
    if h2 is not None:
        out["dims"] = list(h2.dims.items())
        out["gysin"] = [[parent, child, list(map(repr, vec))]
                        for (parent, child), vec in h2.gysin.items()]
        out["restrict"] = [
            [parent, child, ncols, [[[j, repr(x)] for j, x in row.items()]
                                    for row in rows]]
            for (parent, child), (ncols, rows) in h2.restrict.items()]
    return out


# this test's outcomes, recorded by running its code on a checkout of
# d0c9410, the reader before its exact-type fast paths and trusted strata:
# (refused, read) counts and the digests of the refusals' messages and of
# what was read
READER_OUTCOMES = (
    (1607, 120),
    "d62f77a7826342e88ab933289a2538550034f65b6b551bed14a06c515de7cd32",
    "f16b1c579a5dc6991dfc59372672e54cd117733791bae9ff137f42221e0c54eb")


def test_reader_keeps_its_outcomes_on_single_node_mutations():
    """Every single-node mutation of two complex files is refused with the
    message, or read into the poset and model, recorded for the reader
    before its fast paths."""
    refused, read = [], []
    for cx, h2 in ((cycle_complex(3), cycle_validation_h2(3)),
                   (cycle_complex(4), unit_h2(cycle_complex(4)))):
        for mutated in single_node_mutations(complex_to_json(cx, h2)):
            outcome = read_outcome(mutated)
            (refused if isinstance(outcome, str) else read).append(outcome)
    assert ((len(refused), len(read)), json_digest(refused), json_digest(read)) \
        == READER_OUTCOMES


@pytest.mark.parametrize("make", [
    lambda: cycle_complex(3), lambda: cycle_complex(7), tetrahedron_complex,
    lambda: fixtures.shuffled(fixtures.simplex_boundary(3), random.Random(3)),
    lambda: fixtures.shuffled(fixtures.simplex_boundary(4), random.Random(4))],
    ids=["cycle3", "cycle7", "tetrahedron", "boundary3", "boundary4"])
def test_read_strata_equal_the_constructed_ones(make):
    """The reader builds each stratum without the constructor's copy: it
    must equal, and hash as, the stratum the constructor builds from the
    same fields, and the poset must not change when the parsed object does."""
    obj = complex_to_json(make())
    text = json.dumps(obj)
    cx, _ = complex_from_json(obj)
    for lvl in range(cx.max_level + 1):
        for s in cx.level(lvl):
            built = Stratum(s.label, list(s.index_set), dict(s.parents))
            assert s == built and built == s and hash(s) == hash(built)
            assert type(s.index_set) is tuple
            assert type(s.parents) is MappingProxyType
    for entry in obj["strata"]:
        entry["indexSet"].append(0)
        entry["label"] = "moved"
        entry.get("parents", {}).clear()
    assert complex_to_json(cx) == json.loads(text)

def unit_strata(m):
    return [Stratum(f"Y{i}", (i,), {}) for i in range(1, m + 1)]


def test_construction_validation():
    with pytest.raises(ValueError, match="at least one component"):
        SemistableCombinatorics([], [])
    with pytest.raises(ValueError, match="duplicate component"):
        SemistableCombinatorics(["A", "A"], unit_strata(2))
    with pytest.raises(ValueError, match="duplicate stratum"):
        SemistableCombinatorics(["A"], [Stratum("Y1", (1,), {})] * 2)
    with pytest.raises(ValueError, match="out of range"):
        SemistableCombinatorics(["A"], [Stratum("Y1", (2,), {})])
    with pytest.raises(ValueError, match="increasing"):
        SemistableCombinatorics(
            ["A", "B"], unit_strata(2) + [Stratum("E", (2, 1), {})])
    with pytest.raises(ValueError, match="biject"):
        SemistableCombinatorics(["A", "B"], unit_strata(1))
    with pytest.raises(ValueError, match="contiguous"):
        SemistableCombinatorics(
            ["A", "B", "C"],
            unit_strata(3) + [Stratum("V", (1, 2, 3),
                                      {1: "x", 2: "y", 3: "z"})])
    with pytest.raises(ValueError, match="no parents"):
        SemistableCombinatorics(
            ["A"], [Stratum("Y1", (1,), {1: "Y1"})])
    with pytest.raises(ValueError, match="one parent per"):
        SemistableCombinatorics(
            ["A", "B"], unit_strata(2) + [Stratum("E", (1, 2), {1: "Y2"})])
    with pytest.raises(ValueError, match="unknown parent"):
        SemistableCombinatorics(
            ["A", "B"],
            unit_strata(2) + [Stratum("E", (1, 2), {1: "Q", 2: "Y1"})])
    with pytest.raises(ValueError, match="wrong index set"):
        SemistableCombinatorics(
            ["A", "B"],
            unit_strata(2) + [Stratum("E", (1, 2), {1: "Y1", 2: "Y2"})])
    # the poset refuses what the file reader refuses, before anything
    # hashes a name: these were accepted, or raised TypeError, or named an
    # unknown parent
    edge = {1: "Y2", 2: "Y1"}
    refused = [
        ([1], unit_strata(1), "components must be strings"),
        ([["A"]], unit_strata(1), "components must be strings"),
        (["A"], [Stratum(1, (1,), {})], "stratum 0: label must be a string"),
        (["A"], [Stratum(["Y1"], (1,), {})],
         "stratum 0: label must be a string"),
        (["A"], [Stratum("A", (1.0,), {})],
         "stratum A: indexSet must be a list of integers"),
        (["A"], [Stratum("A", (True,), {})],
         "stratum A: indexSet must be a list of integers"),
        (["A", "B"],
         unit_strata(2) + [Stratum("E", (1, 2), {1.0: "Y2", 2: "Y1"})],
         "stratum E: parent keys must be integers"),
        (["A", "B"], unit_strata(2) + [Stratum("E", (1, 2), {**edge, 2: 1})],
         "stratum E: parent labels must be strings"),
    ]
    for components, strata, message in refused:
        with pytest.raises(ValueError) as err:
            SemistableCombinatorics(components, strata)
        assert str(err.value) == message
    # a stratum refuses what it cannot store, with the reader's messages:
    # before, an int index set raised TypeError in the poset and a list of
    # parents raised AttributeError
    for args, message in [
            (("A", 1, {}), "stratum A: indexSet must be a list of integers"),
            (("E", (1, 2), [1, 2]), "stratum E: parents must be an object")]:
        with pytest.raises(ValueError) as err:
            SemistableCombinatorics(["A", "B"], unit_strata(2) + [Stratum(*args)])
        assert str(err.value) == message


@pytest.mark.parametrize("make", [lambda: cycle_complex(3), tetrahedron_complex],
                         ids=["cycle3", "tetrahedron"])
def test_strata_may_come_as_an_iterator(make):
    """The poset walks its strata several times, so a generator must give
    the poset a list gives: before, it was spent after the first walk and
    level 0 was refused."""
    cx = make()
    strata = [s for lvl in range(cx.max_level + 1) for s in cx.level(lvl)]
    listed = SemistableCombinatorics(cx.components, strata)
    streamed = SemistableCombinatorics(iter(cx.components),
                                       (s for s in strata))
    assert streamed.components == listed.components
    assert streamed.max_level == listed.max_level
    for lvl in range(listed.max_level + 1):
        assert streamed.level(lvl) == listed.level(lvl)
    for s in strata:
        assert streamed.children(s.label) == listed.children(s.label)
        assert streamed.stratum_by_index_set(s.index_set) is s
    assert streamed.index_sets_unique() and listed.index_sets_unique()


# the per-stratum rules of the poset, one scan each and in their order: the
# oracle for its single pass, which must raise the first rule broken
STRATUM_RULES = (
    (lambda idx, parents, m: any(type(i) is not int for i in idx),
     "indexSet must be a list of integers"),
    (lambda idx, parents, m: any(type(k) is not int for k in parents),
     "parent keys must be integers"),
    (lambda idx, parents, m: any(not isinstance(v, str) for v in parents.values()),
     "parent labels must be strings"),
    (lambda idx, parents, m: any(not 1 <= i <= m for i in idx),
     "component index out of range"),
    (lambda idx, parents, m: any(a >= b for a, b in zip(idx, idx[1:])),
     "index set must be increasing"),
)


def test_stratum_faults_keep_their_rule_order():
    rng = random.Random(1212)
    rules = [message for _, message in STRATUM_RULES]
    seen = {message: 0 for message in rules}
    several = 0
    for _ in range(1500):
        idx = tuple(rng.choice((1, 2, 3, 4, 2, 3, 0, 5, -1, 2.0, True, "1"))
                    for _ in range(rng.randint(1, 3)))
        parents = {rng.choice((1, 2, 3, 4, 1.0, "2")): rng.choice(("Y1", "Y2", "Y3", 1))
                   for _ in range(rng.randint(0, 3))}
        broken = []
        for rule, message in STRATUM_RULES:
            try:
                if rule(idx, parents, 4):
                    broken.append(message)
            except TypeError:  # an order test on an index that is no int
                pass
        want = broken[0] if broken else None
        try:
            SemistableCombinatorics(["A", "B", "C", "D"],
                                    unit_strata(4) + [Stratum("E", idx, parents)])
            got = None
        except ValueError as exc:
            got = str(exc).removeprefix("stratum E: ")
        if want is None:
            assert got not in rules
        else:
            assert got == want
            seen[want] += 1
            several += len(broken) > 1
    assert min(seen.values()) > 30 and several > 300


def test_strata_are_normalized_hashable_and_frozen():
    # before, hash() raised TypeError, list index sets were refused as "parent
    # B has the wrong index set", and a parents dict changed after the poset
    # was built changed its children and its JSON
    edge = Stratum("AB", (1, 2), {1: "B", 2: "A"})
    assert hash(Stratum("A", (1,), {})) == hash(Stratum("A", [1], {}))
    assert Stratum("AB", [1, 2], {2: "A", 1: "B"}) == edge
    assert hash(Stratum("AB", [1, 2], {2: "A", 1: "B"})) == hash(edge)
    assert len({edge, Stratum("AB", (1, 2), {1: "B", 2: "A"})}) == 1
    with pytest.raises(TypeError):
        edge.parents[1] = "A"
    tuples = SemistableCombinatorics(
        ["A", "B"], [Stratum("A", (1,), {}), Stratum("B", (2,), {}), edge])
    parents = {1: "B", 2: "A"}
    lists = SemistableCombinatorics(
        ["A", "B"],
        [Stratum("A", [1], {}), Stratum("B", [2], {}), Stratum("AB", [1, 2], parents)])
    parents[1] = "A"
    assert complex_to_json(lists) == complex_to_json(tuples)
    assert [s.label for s in lists.children("B")] == ["AB"]
    assert lists.stratum_by_index_set([1, 2]).parents == {1: "B", 2: "A"}


def test_children_are_read_off_the_parents():
    # every stratum's children equal a scan of all strata for the ones whose
    # parents name it, on each level, also where two strata share an index
    # set; the bundled model's Gysin pairs are exactly these incidences
    dup = SemistableCombinatorics(
        ["A", "B"],
        [Stratum("Y1", (1,), {}), Stratum("Y2", (2,), {}),
         Stratum("E", (1, 2), {1: "Y2", 2: "Y1"}),
         Stratum("F", (1, 2), {1: "Y2", 2: "Y1"})])
    relabelled = relabel_components(tetrahedron_complex(), {1: 3, 2: 1, 3: 4, 4: 2})
    for cx in (tetrahedron_complex(), join(torus_complex(), rp2_complex()),
               relabelled, dup):
        strata = [s for lvl in range(cx.max_level + 1) for s in cx.level(lvl)]
        for s in strata:
            assert cx.children(s.label) == [z for z in strata
                                            if s.label in z.parents.values()]
        assert set(all_ones_h2(cx).gysin) == {
            (s.label, z.label) for s in strata for z in cx.children(s.label)}
    assert [z.label for z in dup.children("Y1")] == ["E", "F"]
    with pytest.raises(KeyError):
        dup.children("G")


def test_relabel_components_refuses_a_non_permutation():
    # before, these raised KeyError: 3, were refused for an index set that
    # is not increasing, and were accepted
    cx = cycle_complex(3)
    for perm in ({1: 2, 2: 3}, {1: 1, 2: 1, 3: 3}, {1: 2, 2: 3, 3: 1, 4: 4}):
        with pytest.raises(ValueError) as err:
            relabel_components(cx, perm)
        assert str(err.value) == "perm must be a permutation of the component indices"


def test_parent_squares_must_close():
    # two copies of the same edge and a vertex whose descent paths pick
    # different copies
    strata = unit_strata(4)
    strata += [Stratum("A", (1, 2), {1: "Y2", 2: "Y1"}),
               Stratum("B", (1, 2), {1: "Y2", 2: "Y1"})]
    for a, b in ((1, 3), (1, 4), (2, 3), (2, 4), (3, 4)):
        strata.append(Stratum(f"E{a}_{b}", (a, b), {a: f"Y{b}", b: f"Y{a}"}))
    strata += [
        Stratum("T1", (2, 3, 4), {2: "E3_4", 3: "E2_4", 4: "E2_3"}),
        Stratum("T2", (1, 3, 4), {1: "E3_4", 3: "E1_4", 4: "E1_3"}),
        Stratum("T3", (1, 2, 3), {1: "E2_3", 2: "E1_3", 3: "A"}),
        Stratum("T4", (1, 2, 4), {1: "E2_4", 2: "E1_4", 4: "B"}),
        Stratum("V", (1, 2, 3, 4), {1: "T1", 2: "T2", 3: "T4", 4: "T3"}),
    ]
    with pytest.raises(ValueError, match="squares do not close"):
        SemistableCombinatorics([f"Y{i}" for i in range(1, 5)], strata)


def test_h2_model_validation():
    with pytest.raises(ValueError, match="negative"):
        H2Model({"Y1": -1})
    with pytest.raises(ValueError, match="wrong length"):
        H2Model({"Y1": 2, "E": 1}, {("Y1", "E"): (1,)})
    # before, int() truncated the dim 1.7 to 1
    with pytest.raises(ValueError, match="^h2 Y1: dim must be a nonnegative integer$"):
        H2Model({"Y1": 1.7})
    with pytest.raises(ValueError, match="^h2 Y1: gysin E: cannot interpret"):
        H2Model({"Y1": 1, "E": 1}, {("Y1", "E"): (True,)})
    # rows are read with the parent's dimension as width
    rows = H2Model({"Y1": 2, "E": 1}, restrict={("Y1", "E"): [[1, "1/2"]]})
    assert rows.restriction("Y1", "E") == QMatrix([[1, Fraction(1, 2)]])
    with pytest.raises(ValueError, match="^h2 Y1: restrict E: ncols disagrees"):
        H2Model({"Y1": 2, "E": 1}, restrict={("Y1", "E"): [[1]]})
    # every entry is read before the shape: a bad entry is named first, then
    # ragged rows, then the width
    with pytest.raises(ValueError, match="^h2 Y1: restrict E: ragged rows$"):
        H2Model({"Y1": 2, "E": 2}, restrict={("Y1", "E"): [[1], [1, 2]]})
    with pytest.raises(ValueError, match="^h2 Y1: restrict E: cannot interpret '1/0'"):
        H2Model({"Y1": 2, "E": 2}, restrict={("Y1", "E"): [[1], [1, "1/0"]]})
    with pytest.raises(ValueError, match="^h2 Y1: restrict E: cannot interpret 'x'"):
        H2Model({"Y1": 2, "E": 1}, restrict={("Y1", "E"): [["x"]]})
    h2 = H2Model({"Y1": 2, "E": 1}, {("Y1", "E"): (1, 1)},
                 {("Y1", "E"): QMatrix([[1, 2, 3]])})
    with pytest.raises(ValueError, match="wrong shape"):
        h2.restriction("Y1", "E")
    with pytest.raises(ValueError, match="missing restriction"):
        h2.restriction("Y1", "F")
    assert h2.gysin_vector("Y1", "other") == (Fraction(0), Fraction(0))


def level_consumers(cx, h2):
    """(name, thunk) for every reader of the kept restriction maps at every
    level it is defined at."""
    top = cx.max_level
    calls = [("e2_dims", lambda: e2_dims(cx))]
    for p in range(top + 1):
        vector = [(-1) ** k * (k % 3) for k in range(len(cx.level(p)))]
        calls += [
            (("e2_p0", p), lambda p=p: e2_p0(cx, p)),
            (("vanishing", p), lambda p=p, v=vector: check_vanishing_vector(
                cx, h2, p, v))]
        if p < top:
            calls.append((("square", p), lambda p=p: restriction_square(cx, p)))
        if p >= 1:
            calls += [
                (("relation", p), lambda p=p: relation_composite(cx, h2, p)),
                (("corner", p), lambda p=p: corner_monodromy(cx, h2, p))]
    return calls


def test_kept_maps_are_neither_shared_nor_changed_by_their_readers():
    # every reader runs twice, in two shuffled orders, on one poset; each
    # answer equals the one a fresh poset read from the same JSON gives,
    # and the maps the poset keeps are as the first pass left them
    rng = random.Random(37)
    for cx, h2 in [(torus_complex(), all_ones_h2(torus_complex())),
                   (tetrahedron_complex(), unit_h2(tetrahedron_complex())),
                   (cycle_complex(5), cycle_validation_h2(5))]:
        fresh, fresh_h2 = complex_from_json(complex_to_json(cx, h2))
        want = {name: call() for name, call in level_consumers(fresh, fresh_h2)}

        def run_all():
            calls = level_consumers(cx, h2)
            rng.shuffle(calls)
            for name, call in calls:
                assert call() == want[name], name

        run_all()
        kept = copy.deepcopy(cx._maps)
        run_all()
        assert cx._maps == kept == fresh._maps
        assert sorted(kept) == list(range(cx.max_level + 1))
        # the corner's codomain is the second page, read off R_p alone
        for p in range(1, cx.max_level + 1):
            assert want["corner", p].codomain_dim == len(want["e2_p0", p])


def test_a_poset_frees_its_kept_maps():
    # the maps live on the poset, not in a cache that outlives the command
    cx = join(torus_complex(), rp2_complex())
    e2_dims(cx)
    corner_monodromy(cx, unit_h2(cx, 1), 2)
    assert cx._maps
    ref = weakref.ref(cx)
    del cx
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("member", ["torus2", "torus_rp2", "union"])
def test_relabelled_members_keep_their_second_page(member):
    # the original's maps are kept before any relabelled poset is built, so
    # a relabelled poset that read them would show here
    cx = {"torus2": lambda: join(torus_complex(), torus_complex()),
          "torus_rp2": lambda: join(torus_complex(), rp2_complex()),
          "union": lambda: disjoint_union(torus_complex(), rp2_complex())}[member]()
    levels = range(cx.max_level + 1)

    def page(c):
        """e2_dims, the representative counts, and the corner's shape at
        level 1, where it is quick on every member."""
        corner = corner_monodromy(c, unit_h2(c, 0), 1)
        return (e2_dims(c), [len(e2_p0(c, p)) for p in levels],
                (corner.domain_dim, corner.codomain_dim, corner.isomorphism))

    want = page(cx)
    assert want[0] == want[1]
    rng = random.Random(12)
    m = len(cx.components)
    for _ in range(3):
        images = list(range(1, m + 1))
        rng.shuffle(images)
        assert page(relabel_components(cx, dict(zip(range(1, m + 1), images)))) == want
