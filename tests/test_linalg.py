import random
from fractions import Fraction

import pytest

from conftest import det_cofactor, rank_gauss, sort_sign
from tropmono import linalg
from tropmono.linalg import QMatrix


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
        assert linalg.det(a @ b) == linalg.det(a) * linalg.det(b)
        assert linalg.det(a.transpose()) == linalg.det(a)


def test_rank_matches_independent_elimination():
    rng = random.Random(6)
    for _ in range(80):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_matrix(rng, nr, nc)
        assert linalg.rank(m) == rank_gauss([list(r) for r in m.data])
    assert linalg.rank(QMatrix.zeros(3, 4)) == 0
    assert linalg.rank(QMatrix.identity(5)) == 5


def test_kernel_frozen_and_property():
    ker = linalg.kernel_basis(QMatrix([[1, 1], [2, 2]], ncols=2))
    assert len(ker) == 1
    x, y = ker[0]
    assert x + y == 0 and (x, y) != (0, 0)
    rng = random.Random(7)
    for _ in range(60):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_matrix(rng, nr, nc)
        basis = linalg.kernel_basis(m)
        assert len(basis) == nc - linalg.rank(m)
        for v in basis:
            assert all(x == 0 for x in m.matvec(v))
        # kernel vectors are linearly independent
        assert rank_gauss([list(v) for v in basis]) == len(basis)


def test_solve_recovers_solutions_and_detects_inconsistency():
    rng = random.Random(8)
    for _ in range(60):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_matrix(rng, nr, nc)
        x0 = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
              for _ in range(nc)]
        b = m.matvec(x0)
        x = linalg.solve(m, b)
        assert x is not None
        assert m.matvec(x) == tuple(b)
    # 0 = 1 has no solution
    assert linalg.solve(QMatrix([[0]], ncols=1), [1]) is None
    assert linalg.solve(QMatrix([[1, 1], [1, 1]], ncols=2), [0, 1]) is None


def test_rref_reports_pivots():
    rows, pivots = linalg.rref(QMatrix([[0, 2, 1], [0, 4, 2]], ncols=3))
    assert pivots == (1,)
    assert rows[0] == (Fraction(0), Fraction(1), Fraction(1, 2))


def test_extend_basis_builds_a_transversal():
    sub = [(1, 0, 0, 0)]
    vecs = [(1, 0, 0, 0), (1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]
    reps = linalg.extend_basis(sub, vecs, 4)
    assert len(reps) == 2
    assert rank_gauss([list(v) for v in sub + reps]) == 3
    # deterministic: first independent candidates win
    assert reps[0] == (Fraction(1), Fraction(1), Fraction(0), Fraction(0))


def extend_basis_by_ranks(sub, vectors):
    """Reference selection: keep a vector when it raises the rank of
    everything kept so far, with each rank from conftest's oracle."""
    kept = [list(v) for v in sub]
    r = rank_gauss(kept)
    chosen = []
    for v in vectors:
        if rank_gauss(kept + [list(v)]) > r:
            chosen.append(tuple(Fraction(x) for x in v))
            kept.append(list(v))
            r += 1
    return chosen


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
        pool = rand_vectors(rng, rng.randint(0, 10), length)
        cut = rng.randint(0, len(pool))
        sub, vectors = pool[:cut], pool[cut:]
        got = linalg.extend_basis(sub, vectors, length)
        assert got == extend_basis_by_ranks(sub, vectors)


def test_echelon_add_reports_rank_increase():
    rng = random.Random(10)
    for _ in range(80):
        length = rng.randint(1, 6)
        echelon = linalg.Echelon(length)
        kept = []
        for v in rand_vectors(rng, rng.randint(1, 10), length):
            raised = rank_gauss(kept + [list(v)]) > rank_gauss(kept)
            assert echelon.add(v) == raised
            if raised:
                kept.append(list(v))
    with pytest.raises(ValueError):
        linalg.Echelon(2).add((1, 2, 3))


def test_solve_many_matches_per_vector_solve():
    rng = random.Random(11)
    for _ in range(60):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_matrix(rng, nr, nc)
        rhs = []
        for _ in range(rng.randint(0, 4)):
            if rng.random() < 0.5:
                x0 = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                      for _ in range(nc)]
                rhs.append(m.matvec(x0))
            else:
                rhs.append(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                 for _ in range(nr)))
        got = linalg.solve_many(m, rhs)
        assert got == [linalg.solve(m, b) for b in rhs]
        for b, x in zip(rhs, got):
            aug = [list(row) + [b[i]] for i, row in enumerate(m.data)]
            consistent = rank_gauss(aug) == rank_gauss([list(r) for r in m.data])
            assert (x is not None) == consistent
            if x is not None:
                assert m.matvec(x) == tuple(b)
    # one consistent and one inconsistent right-hand side in the same call
    m = QMatrix([[1, 1], [1, 1]], ncols=2)
    assert linalg.solve_many(m, [[2, 2], [0, 1]]) == [
        (Fraction(2), Fraction(0)), None]
    with pytest.raises(ValueError):
        linalg.solve_many(m, [[1, 2, 3]])


def test_matrix_shape_errors():
    with pytest.raises(ValueError):
        QMatrix([[1, 2], [3]], ncols=2)
    with pytest.raises(ValueError):
        QMatrix([[1]], ncols=1) @ QMatrix([[1, 2]], ncols=2).transpose().transpose() @ QMatrix([[1, 2]], ncols=2) @ QMatrix([[1, 2]], ncols=2)
    with pytest.raises(ValueError):
        QMatrix([[1]], ncols=1) + QMatrix([[1, 2]], ncols=2)


def test_zero_row_matrices_keep_their_width():
    z = QMatrix.zeros(0, 3)
    assert z.ncols == 3 and z.nrows == 0
    assert (z @ QMatrix.zeros(3, 2)).ncols == 2
    assert linalg.kernel_basis(z) == [
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    ]
