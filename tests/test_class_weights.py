"""Class enumeration and |Aut| against the Gaussian-integral weight sums.

By Wick's theorem (Bessis-Itzykson-Zuber, Adv. Appl. Math. 1 (1980)),
log <exp(lam x^3/6 + t x)> over the standard Gaussian, whose moments are
<x^(2k)> = (2k-1)!!, is the sum of lam^V t^L / |Aut| over connected
graphs with V trivalent vertices and L leaves.  So the weights of the
genus-g primary piece with L leaves sum to its lam^V t^L coefficient,
V = 2g - 2 + L.  A source term s x^k / k! adds one special vertex with k
germs; a one-point class with h identity-loop handles has k = m' - 1
germs besides the arrow and the handles, V' = 2g - 2h - m' + L + 1 plain
vertices, and weight (1/12)^h / (2^h h!) times its 1/|Aut| without the
handles.

The oracle uses only `fractions` and `math`: it shares no code with the
enumeration it checks.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest

from cyclichodge.potentials import enumerate_desc, enumerate_sm

MAX_VERTICES, MAX_LEAVES = 10, 18


def moment(k):
    """<x^k> over the standard Gaussian."""
    if k % 2:
        return 0
    return factorial(k) // (2 ** (k // 2) * factorial(k // 2))


def multiply(p, q):
    """Product of series keyed by (lam, t, s) exponents, truncated to the
    window and to s^1."""
    out = {}
    for (a, b, c), x in p.items():
        for (d, e, f), y in q.items():
            key = (a + d, b + e, c + f)
            if key[0] <= MAX_VERTICES and key[1] <= MAX_LEAVES and key[2] <= 1:
                out[key] = out.get(key, 0) + x * y
    return out


@lru_cache(maxsize=None)
def log_gaussian(k):
    """log <exp(lam x^3/6 + t x + s x^k / k!)> on the window; no source
    term when k is None."""
    sources = (0,) if k is None else (0, 1)
    rest = {}
    for a in range(MAX_VERTICES + 1):
        for b in range(MAX_LEAVES + 1):
            for c in sources:
                degree = 3 * a + b + (k if c else 0)
                if (a, b, c) != (0, 0, 0) and moment(degree):
                    rest[a, b, c] = Fraction(
                        moment(degree),
                        6 ** a * factorial(a) * factorial(b)
                        * (factorial(k) if c else 1))
    # log(1 + rest); every term of rest has positive degree
    series, power = {}, {(0, 0, 0): Fraction(1)}
    for j in range(1, MAX_VERTICES + MAX_LEAVES + 2):
        power = multiply(power, rest)
        for key, x in power.items():
            series[key] = series.get(key, 0) + Fraction((-1) ** (j + 1), j) * x
    return series


def primary_weight(g, L):
    return log_gaussian(None).get((2 * g - 2 + L, L, 0), 0)


def descendant_weight(g, n, L):
    total = Fraction(0)
    for h in range(g + 1):
        mprime = n + 3 - 3 * h
        plain = 2 * g - 2 * h - mprime + L + 1
        if mprime >= 1 and plain >= 0:
            total += (Fraction(1, 12) ** h / (2 ** h * factorial(h))
                      * log_gaussian(mprime - 1).get((plain, L, 1), 0))
    return total


PIECES = [(g, n, L) for g in range(3) for n in range(5) for L in range(5)
          if n or 2 * g - 2 + L >= 1] + [(2, 0, 5)]
# primary pieces with V <= 8 at genus 3-5; the leafless ones include
# regular graphs that color refinement cannot split at all
PIECES += [(3, 0, L) for L in range(5)] + [(4, 0, L) for L in range(3)]
PIECES += [(5, 0, 0)]
# genus-0 one-point pieces whose generation splits stars of eight and
# nine E0 cherries around the arrow vertex: vertex groups of 8! and 9!
PIECES += [(0, 5, 16), (0, 6, 18)]


def test_oracle_anchors():
    # theta (1/12) + dumbbell (1/8); the cubic vertex; one handle
    assert primary_weight(2, 0) == Fraction(5, 24)
    assert primary_weight(0, 3) == Fraction(1, 6)
    assert descendant_weight(1, 1, 0) == Fraction(1, 24)
    assert primary_weight(2, 5) == Fraction(1155, 64)
    # the 71 connected cubic multigraphs on 8 vertices (OEIS A005967)
    assert primary_weight(5, 0) == Fraction(565, 128)
    assert len(enumerate_sm(5, 0)) == 71
    assert descendant_weight(0, 5, 16) == Fraction(81719, 368640)
    assert descendant_weight(0, 6, 18) == Fraction(62491, 688128)


@pytest.mark.parametrize("g,n,L", PIECES,
                         ids=[f"g{g}-n{n}-L{L}" for g, n, L in PIECES])
def test_weight_sum_matches_gaussian_integral(g, n, L):
    if n == 0:
        classes, expected = enumerate_sm(g, L), primary_weight(g, L)
    else:
        classes, expected = enumerate_desc(g, n, L), descendant_weight(g, n, L)
    assert sum((c.weight for c in classes), Fraction(0)) == expected
