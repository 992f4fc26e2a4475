"""Z2-graded linear algebra over exact rationals.

Everything is indexed by a fixed basis 0..dim-1, each index carrying a
parity (0 = even, 1 = odd).  Scalars are exact and int-first: a whole
value is an `int` (ints multiply faster than Fractions) and every other
value a `fractions.Fraction`.  Sums start at 0, `exact` turns a whole
Fraction result back into an int, and every true division goes through
`Fraction` explicitly, since `/` on two ints would give a float; no
floating point enters anywhere in this package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

EVEN = 0
ODD = 1


class SingularMatrixError(ValueError):
    """Raised when an exact inverse is requested of a singular matrix."""


def exact(x):
    """x as an int when it is whole, else unchanged."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


# ---------------------------------------------------------------------------
# exact dense matrices (tuples of rows of int-first values)

def identity_matrix(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_mul(a, b):
    """The product a b, summed over nonzero entries only: each nonzero
    a[i][m] adds its multiples of the nonzero entries of row m of b."""
    if a and len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    width = len(b[0]) if b else 0
    rows = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [0] * width
        for x, terms in zip(row, rows):
            if x:
                for j, y in terms:
                    acc[j] += x * y
        out.append(tuple(map(exact, acc)))
    return tuple(out)


def mat_add(a, b):
    return tuple(tuple(exact(x + y) for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def mat_sub(a, b):
    return tuple(tuple(exact(x - y) for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def mat_apply(mat, coords):
    """mat applied to a sparse coordinate dict {index: value};
    mat[i][j] is the coefficient of e_i in the image of e_j."""
    out = {}
    for j, c in coords.items():
        for i, row in enumerate(mat):
            m = row[j]
            if m != 0:
                out[i] = out.get(i, 0) + m * c
    return {i: exact(c) for i, c in out.items() if c != 0}


def transpose(a):
    return tuple(zip(*a)) if a else ()


def mat_inverse(a):
    """Exact inverse by fraction-free Gauss-Jordan elimination over the
    integers.  Row i of a, times the lcm s_i of its denominators, is row
    i of an integer matrix b, and a^-1 is b^-1 with column j times s_j.
    Each step clears the pivot's column from every other row with a
    nonzero entry there, by a multiple of the pivot row, and divides the
    row by the gcd of its entries; so each row of [b | 1] stays a whole
    multiple of its row in Gauss-Jordan elimination.  The left half ends
    diagonal, and each entry takes one division by its row's diagonal
    entry at the end."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    scales = [lcm(*(x.denominator for x in row)) for row in a]
    aug = [[x.numerator * (s // x.denominator) for x in row]
           + [int(i == j) for j in range(n)]
           for i, (row, s) in enumerate(zip(a, scales))]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular over Q")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        top = aug[col]
        p = top[col]
        for r in range(n):
            f = aug[r][col]
            if f and r != col:
                row = [p * x - f * y for x, y in zip(aug[r], top)]
                g = gcd(*row)
                aug[r] = [x // g for x in row] if g > 1 else row
    return tuple(tuple(exact(Fraction(x * s, row[i]))
                       for x, s in zip(row[n:], scales))
                 for i, row in enumerate(aug))


def supertrace(mat, parities):
    """Trace weighted by (-1)**parity of each diagonal slot."""
    return exact(sum(-mat[i][i] if p else mat[i][i]
                     for i, p in enumerate(parities)))

