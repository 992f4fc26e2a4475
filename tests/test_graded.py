"""Exact matrices, their action on sparse vectors, supertrace."""

import random
from fractions import Fraction

import pytest

from cyclichodge.graded import (
    SingularMatrixError, identity_matrix, mat_add, mat_apply, mat_inverse,
    mat_mul, mat_sub, supertrace, transpose,
)


def gauss_jordan_inverse(a):
    """The inverse of a by Gauss-Jordan elimination on Fractions with
    partial pivoting, or None when a is singular."""
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


class TestMatrices:
    def test_identity_and_zero(self):
        zero = ((Fraction(0),) * 3,) * 3
        assert mat_sub(identity_matrix(3), identity_matrix(3)) == zero
        assert identity_matrix(1) == ((Fraction(1),),)
        assert mat_mul(identity_matrix(3), identity_matrix(3)) == identity_matrix(3)

    def test_transpose_involution(self):
        m = ((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4)))
        assert transpose(transpose(m)) == m

    def test_inverse_exact(self):
        m = ((Fraction(2), Fraction(1)), (Fraction(7), Fraction(4)))
        inv = mat_inverse(m)
        assert mat_mul(m, inv) == identity_matrix(2)
        assert mat_mul(inv, m) == identity_matrix(2)
        assert inv == ((Fraction(4), Fraction(-1)), (Fraction(-7), Fraction(2)))

    def test_inverse_random(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(1, 5)
            m = tuple(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                            for _ in range(n)) for _ in range(n))
            try:
                inv = mat_inverse(m)
            except SingularMatrixError:
                continue
            assert mat_mul(m, inv) == identity_matrix(n)

    def test_inverse_matches_gauss_jordan(self):
        # int and Fraction entries, many of them zero; a zero corner, so
        # that the first column needs a row swap, and a row that is a
        # multiple of another, so that the matrix is singular.  Whole
        # results are ints
        rng = random.Random(23)
        values = (0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3),
                  Fraction(5, 4), Fraction(6, 3))
        swapped = singular = 0
        for _ in range(400):
            n = rng.randint(1, 6)
            m = [[rng.choice(values) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.3:
                m[0][0] = 0
            if n > 1 and rng.random() < 0.2:
                i, j = rng.sample(range(n), 2)
                c = rng.choice(values)
                m[i] = [c * x for x in m[j]]
            m = tuple(map(tuple, m))
            reference = gauss_jordan_inverse(m)
            if reference is None:
                singular += 1
                with pytest.raises(SingularMatrixError):
                    mat_inverse(m)
                continue
            swapped += m[0][0] == 0
            inv = mat_inverse(m)
            assert inv == reference
            assert all(type(x) is int or (type(x) is Fraction
                                          and x.denominator != 1)
                       for row in inv for x in row)
        assert swapped > 20 and singular > 20, (swapped, singular)

    def test_singular_raises(self):
        m = ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(4)))
        with pytest.raises(SingularMatrixError):
            mat_inverse(m)

    def test_shape_errors(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            mat_mul(((1, 2),), ((1, 2),))
        with pytest.raises(ValueError, match="matrix must be square"):
            mat_inverse(((1, 2),))

    def test_product_matches_row_by_column(self):
        # sparse int and Fraction entries, zero rows and columns,
        # non-square shapes; whole results are ints
        rng = random.Random(17)
        values = (0, 0, 0, 1, -2, 3, Fraction(1, 2), Fraction(-2, 3),
                  Fraction(4, 2))

        def sparse(rows, cols):
            m = [[rng.choice(values) for _ in range(cols)]
                 for _ in range(rows)]
            if rows and rng.random() < 0.3:
                m[rng.randrange(rows)] = [0] * cols
            if cols and rng.random() < 0.3:
                col = rng.randrange(cols)
                for row in m:
                    row[col] = 0
            return tuple(map(tuple, m))

        for _ in range(300):
            # a matrix without rows does not record its width, so the
            # inner dimension is at least 1
            n, k, m = rng.randint(0, 5), rng.randint(1, 5), rng.randint(0, 5)
            a, b = sparse(n, k), sparse(k, m)
            product = mat_mul(a, b)
            assert len(product) == n
            for i in range(n):
                assert len(product[i]) == m
                for j in range(m):
                    x = product[i][j]
                    assert x == sum(a[i][t] * b[t][j] for t in range(k))
                    assert type(x) is int or (type(x) is Fraction
                                               and x.denominator != 1)
            if n:
                with pytest.raises(ValueError, match="shape mismatch"):
                    mat_mul(a, sparse(k + 1, m))

    def test_supertrace(self):
        m = ((Fraction(3), Fraction(0)), (Fraction(0), Fraction(5)))
        assert supertrace(m, [0, 0]) == 8
        assert supertrace(m, [0, 1]) == -2
        assert supertrace(m, [1, 1]) == -8


def random_homogeneous(rng, parities, op_parity):
    """Random matrix with entries only where target/source parities
    differ by op_parity."""
    n = len(parities)
    return tuple(tuple(
        Fraction(rng.randint(-3, 3)) if (parities[i] + parities[j]) % 2 == op_parity
        else Fraction(0)
        for j in range(n)) for i in range(n))


class TestSupertraceCyclicity:
    def test_graded_cyclic(self):
        # str(A B) = (-1)^(pA pB) str(B A) for homogeneous operators
        rng = random.Random(11)
        for trial in range(60):
            n = rng.randint(1, 5)
            parities = [rng.randint(0, 1) for _ in range(n)]
            pa, pb = rng.randint(0, 1), rng.randint(0, 1)
            a = random_homogeneous(rng, parities, pa)
            b = random_homogeneous(rng, parities, pb)
            lhs = supertrace(mat_mul(a, b), parities)
            rhs = supertrace(mat_mul(b, a), parities)
            assert lhs == (-1) ** (pa * pb) * rhs


class TestOperator:
    def test_compose_and_apply(self):
        q = ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)))
        assert mat_mul(q, q) == ((0, 0), (0, 0))
        assert mat_apply(q, {0: Fraction(2)}) == {1: Fraction(2)}
        assert mat_apply(q, {1: Fraction(2)}) == {}

    def test_plus_minus_scale(self):
        a = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(2)))
        assert mat_sub(a, a) == ((0, 0), (0, 0))
        # a + a is a scaled by 2
        assert mat_add(a, a) == ((2, 0), (0, 4))
