import random
from fractions import Fraction

import pytest

from conftest import (dense, det_cofactor, kernel_gauss, matmul, matvec,
                      rank_gauss, select_by_ranks, sort_sign, sparse,
                      sparse_rows, transpose)
from tropmono import linalg
from tropmono.linalg import QMatrix, as_fraction


def rand_matrix(rng, nrows, ncols, span=5):
    return QMatrix([[Fraction(rng.randint(-span, span), rng.randint(1, 3))
                     for _ in range(ncols)] for _ in range(nrows)],
                   ncols=ncols)


def test_perm_sign_matches_inversion_count():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(1, 7)
        perm = list(range(n))
        rng.shuffle(perm)
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        assert linalg.perm_sign(perm) == (-1) ** inversions


# every literal Fraction reads the same way; each refused value is a float,
# a bool, an exponent, padding, a sign in the denominator, a non-ASCII digit,
# a zero denominator or a literal longer than int's digit limit
LITERALS = ("0", "-0", "+7", "-12", "3/4", "-6/8", "+10/5", "007/014",
            "9" * 4000, "-1/" + "3" * 4000)
NUMBERS = (5, -3, 2 ** 70, Fraction(-2, 3))
REFUSED = ("1/0", "0/00", "1e5", "1.5", " 1", "1/", "/2", "1/-2", "\u0662", "",
           "9" * 5000, True, 1.5, None)


def refusal(value):
    return f"cannot interpret {value!r} as a rational number"


def test_as_fraction_reads_literals_and_refuses_the_rest():
    for value in LITERALS:
        assert as_fraction(value) == Fraction(value)
        assert type(as_fraction(value)) is Fraction
    for value in NUMBERS:
        assert as_fraction(value) == Fraction(value)
    for value in REFUSED:
        with pytest.raises(ValueError) as err:
            as_fraction(value)
        assert str(err.value) == refusal(value)


def random_literal(rng):
    """A signed literal with leading zeros, 1 to 40 digits and a denominator
    1-12 or none, or one of the shapes as_fraction refuses."""
    sign = rng.choice(("", "", "+", "-"))
    num = rng.choice(("", "0", "00")) + str(rng.randrange(10 ** rng.randint(1, 40)))
    den = rng.choice(("", "", f"/{rng.randint(1, 12)}", f"/0{rng.randint(1, 12)}"))
    roll = rng.random()
    if roll < 0.15:
        # padding, a separator, a non-ASCII digit, a signed or zero
        # denominator, an exponent or a point
        return sign + num + rng.choice((" ", "_1", "\u0662", "/-3", "/0", "e5", ".5"))
    if roll < 0.25:
        return rng.choice(("", "-", "+", "/", "1/", "/2", " 1", "0x1", "1/0" + den))
    return sign + num + den


def test_rational_reads_as_as_fraction_does_but_integral_as_int():
    read = linalg._rational
    for value in LITERALS + NUMBERS:
        assert read(value) == as_fraction(value)
    for value in REFUSED:
        with pytest.raises(ValueError) as err:
            read(value)
        assert str(err.value) == refusal(value)
    for value, want in (("+10/5", 2), ("-0", 0), ("007", 7), ("-0/7", 0),
                        ("6/3", 2), (Fraction(6, 3), 2), (4, 4), (-2, -2)):
        assert type(read(value)) is int and read(value) == want
    assert type(read("9" * 4000)) is int
    for value in ("3/4", "-6/8", "007/014", "-1/" + "3" * 4000, Fraction(-2, 3)):
        assert type(read(value)) is Fraction
    rng = random.Random(23)
    kinds = {int: 0, Fraction: 0, ValueError: 0}
    for _ in range(2000):
        value = random_literal(rng)
        try:
            want = as_fraction(value)
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                read(value)
            assert str(err.value) == str(exc)
            kinds[ValueError] += 1
            continue
        got = read(value)
        assert got == want
        assert type(got) is (int if want.denominator == 1 else Fraction)
        kinds[type(got)] += 1
    assert min(kinds.values()) > 300, kinds


def test_shuffle_sign_frozen_cases():
    assert linalg.shuffle_sign((1, 3), (2,)) == (-1, (1, 2, 3))
    assert linalg.shuffle_sign((), (4, 7)) == (1, (4, 7))
    assert linalg.shuffle_sign((2,), (2,)) is None
    assert linalg.shuffle_sign((1, 2), ()) == (1, (1, 2))


def test_shuffle_sign_matches_sorting_oracle():
    rng = random.Random(2)
    for _ in range(400):
        pool = list(range(9))
        rng.shuffle(pool)
        a = tuple(sorted(pool[:rng.randint(0, 4)]))
        start = rng.randint(0, 4)
        b = tuple(sorted(pool[start:start + rng.randint(0, 4)]))
        got = linalg.shuffle_sign(a, b)
        want = sort_sign(list(a) + list(b))
        if want is None:
            assert got is None
        else:
            assert got == (want, tuple(sorted(a + b)))


def test_det_frozen_and_oracle():
    assert linalg.det(QMatrix([[1, 2], [3, 4]], ncols=2)) == -2
    assert linalg.det(QMatrix([], ncols=0)) == 1
    assert linalg.det(QMatrix([[7]], ncols=1)) == 7
    rng = random.Random(3)
    for _ in range(120):
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n, n)
        assert linalg.det(m) == det_cofactor([list(r) for r in m.data])


def test_det_of_permutation_matrix_is_its_sign():
    rng = random.Random(4)
    for _ in range(50):
        n = rng.randint(1, 6)
        perm = list(range(n))
        rng.shuffle(perm)
        m = QMatrix([[1 if j == perm[i] else 0 for j in range(n)]
                     for i in range(n)], ncols=n)
        assert linalg.det(m) == linalg.perm_sign(perm)


def test_det_multiplicative_and_transpose_invariant():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = rand_matrix(rng, n, n)
        b = rand_matrix(rng, n, n)
        assert linalg.det(matmul(a, b)) == linalg.det(a) * linalg.det(b)
        assert linalg.det(transpose(a)) == linalg.det(a)


def rref_rank(m):
    """The number of pivot rows in the reduced form of m."""
    return len(linalg._rref(sparse_rows(m)))


def test_rank_matches_independent_elimination():
    rng = random.Random(6)
    for _ in range(80):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_matrix(rng, nr, nc)
        want = rank_gauss([list(r) for r in m.data])
        assert rref_rank(m) == want
        assert len(linalg.kernel_basis(sparse_rows(m), nc)) == nc - want
    assert rref_rank(QMatrix([[0] * 4] * 3)) == 0
    assert rref_rank(QMatrix([[int(i == j) for j in range(5)]
                                 for i in range(5)])) == 5


def test_kernel_frozen_and_property():
    ker = linalg.kernel_basis([{0: 1, 1: 1}, {0: 2, 1: 2}], 2)
    assert len(ker) == 1
    x, y = dense(ker[0], 2)
    assert x + y == 0 and (x, y) != (0, 0)
    rng = random.Random(7)
    for _ in range(60):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_matrix(rng, nr, nc)
        basis = [dense(v, nc) for v in linalg.kernel_basis(sparse_rows(m), nc)]
        assert len(basis) == nc - rank_gauss([list(r) for r in m.data])
        for v in basis:
            assert all(x == 0 for x in matvec(m, v))
        # kernel vectors are linearly independent
        assert rank_gauss([list(v) for v in basis]) == len(basis)


def test_solve_recovers_solutions_and_detects_inconsistency():
    """A kernel vector's coordinates on the kernel basis are its own entries
    at the free columns (the largest column of each basis vector), the
    reading the corner comparison solves by; a vector off the kernel shows
    as a nonzero product."""
    rng = random.Random(8)
    for _ in range(60):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_matrix(rng, nr, nc)
        basis = linalg.kernel_basis(sparse_rows(m), nc)
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in basis]
        u = [sum((c * v.get(j, 0) for c, v in zip(coeffs, basis)), Fraction(0))
             for j in range(nc)]
        assert all(x == 0 for x in matvec(m, u))
        assert [u[max(v)] for v in basis] == coeffs
        if len(basis) < nc:
            pivot = next(j for j in range(nc) if j not in map(max, basis))
            assert any(matvec(m, [int(j == pivot) for j in range(nc)]))
    # x + y = 0 has kernel (-1, 1); the unit (1, 0) leaves it
    assert linalg.kernel_basis([{0: 1, 1: 1}], 2) == [{0: -1, 1: 1}]


def test_rref_reports_pivots():
    # the reduced form of both rows is (0, 1, 1/2): pivot column 1, so the
    # kernel is spanned by the free columns 0 and 2
    ker = linalg.kernel_basis([{1: 2, 2: 1}, {1: 4, 2: 2}], 3)
    assert ker == [{0: 1}, {1: Fraction(-1, 2), 2: 1}]
    # integral entries stay ints, the others are Fractions
    assert [type(v[j]) for v in ker for j in sorted(v)] == [int, Fraction, int]
    assert linalg._rref([{0: 2, 1: 4, 2: 3}]) == {0: {1: 2, 2: Fraction(3, 2)}}
    assert type(linalg._rref([{0: -3, 1: 6}])[0][1]) is int


def units(length):
    return [tuple(Fraction(int(i == j)) for i in range(length)) for j in range(length)]


def free_column_selection(sub, length):
    """The unit vectors at the columns where no row of sub pivots, sub
    reduced with each row pivoting on its last nonzero column (keys -j):
    the rule e2_p0 picks its representatives by, in free coordinates."""
    pivots = linalg._rref({-j: x for j, x in sparse(v).items()} for v in sub)
    return [u for j, u in enumerate(units(length)) if -j not in pivots]


def test_extend_basis_builds_a_transversal():
    sub = [(1, 1, 0, 0), (2, 2, 0, 0)]
    reps = free_column_selection(sub, 4)
    assert len(reps) == 3
    assert rank_gauss([list(v) for v in sub + reps]) == 4
    # deterministic: the first unit is kept, and the second, which sub and
    # the first span, is not
    assert reps == [units(4)[0], units(4)[2], units(4)[3]]


def rand_vectors(rng, count, length):
    """Random rationals with non-unit denominators, zero vectors and
    planted combinations of earlier vectors."""
    out = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.15:
            out.append(tuple(Fraction(0) for _ in range(length)))
        elif kind < 0.5 and out:
            picks = rng.sample(out, rng.randint(1, min(3, len(out))))
            coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                      for _ in picks]
            out.append(tuple(sum((c * v[j] for c, v in zip(coeffs, picks)),
                                 Fraction(0)) for j in range(length)))
        else:
            out.append(tuple(Fraction(rng.choice([0, 0, rng.randint(-5, 5)]),
                                      rng.randint(1, 6))
                             for _ in range(length)))
    return out


def test_extend_basis_matches_repeated_rank_reference():
    rng = random.Random(9)
    for _ in range(150):
        length = rng.randint(1, 6)
        sub = rand_vectors(rng, rng.randint(0, 10), length)
        got = free_column_selection(sub, length)
        assert got == select_by_ranks(sub, units(length))


@pytest.mark.parametrize("call", [
    lambda: linalg.kernel_basis([{0: 1, 5: 1}], 3),
    # a row whose only column is out of range was read as a zero row
    lambda: linalg.kernel_basis([{5: 1}], 3),
    lambda: linalg.kernel_basis([{-1: 1}], 3),
], ids=["kernel-row-and-outside", "kernel-outside-only", "kernel-negative"])
def test_columns_outside_the_matrix_are_refused(call):
    with pytest.raises(ValueError, match="^index out of range$"):
        call()


def test_matrix_shape_errors():
    with pytest.raises(ValueError):
        QMatrix([[1, 2], [3]], ncols=2)
    with pytest.raises(ValueError):
        QMatrix([[1, 2]], ncols=3)


def test_zero_row_matrices_keep_their_width():
    z = QMatrix([], ncols=3)
    assert z.ncols == 3 and z.nrows == 0
    assert matmul(z, QMatrix([[0, 0]] * 3)).ncols == 2
    assert linalg.kernel_basis([], 3) == [{0: 1}, {1: 1}, {2: 1}]


def rand_system(rng):
    """Rows for elimination, square about half the time: either generic
    rationals, or sparse rationals with zero rows and rows planted as
    combinations of earlier ones; sometimes a duplicated row; all in
    shuffled order."""
    nc = rng.randint(1, 6)
    nr = nc if rng.random() < 0.5 else rng.randint(0, 7)
    rows = (list(rand_matrix(rng, nr, nc).data) if rng.random() < 0.4
            else rand_vectors(rng, nr, nc))
    if rows and rng.random() < 0.3:
        rows[rng.randrange(nr)] = rng.choice(rows)
    rng.shuffle(rows)
    return rows, nc


def test_sparse_elimination_matches_the_gauss_oracles():
    rng = random.Random(12)
    seen = {"singular": 0, "regular": 0, "zero row": 0, "duplicate": 0,
            "int": 0, "fraction": 0}
    for _ in range(400):
        rows, nc = rand_system(rng)
        sparse_m = [sparse(r) for r in rows]
        seen["zero row"] += {} in sparse_m
        seen["duplicate"] += len(set(rows)) < len(rows)
        kernel = linalg.kernel_basis(sparse_m, nc)
        assert [dense(v, nc) for v in kernel] == kernel_gauss(rows, nc)
        # the reduced form, not the order of elimination, fixes the basis
        assert linalg.kernel_basis(rng.sample(sparse_m, len(sparse_m)), nc) == kernel
        # an entry is an int where integral, else a Fraction
        entries = [x for v in kernel for x in v.values()]
        assert all(type(x) is int or x.denominator != 1 for x in entries)
        seen["int"] += sum(type(x) is int for x in entries)
        seen["fraction"] += sum(type(x) is not int for x in entries)
        # the pivot rows number the rank
        assert len(linalg._rref(sparse_m)) == rank_gauss(rows)
        if len(rows) == nc:
            want = det_cofactor([list(r) for r in rows])
            assert linalg.det(QMatrix(rows, ncols=nc)) == want
            seen["singular" if want == 0 else "regular"] += 1
    assert min(seen.values()) > 40, seen
