"""Sparse multivariate polynomials over Q in the doubled variable family T[n,i].

A variable is a pair (n, i): n >= 0 is the arrow level, i >= 1 the slot.
Level-0 variables T[0,i] are the plain couplings; levels n >= 1 appear at
most to low total degree in everything this package produces, so a
monomial is simply the sorted tuple of its variable pairs (with
repetition) and a polynomial is a dict monomial -> coefficient.
Coefficients are int-first, as everywhere in this package (see
`graded`): a whole one is an `int`, any other a `Fraction`.  The public
constructor checks and sorts every monomial and parses every
coefficient; arithmetic builds its results from monomials and
coefficients that are already clean, so it skips both.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .graded import exact

# matched whole and ASCII only: `\d` matches every Unicode decimal digit
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[1-9][0-9]*)?")


def parse_rational(s):
    """Parse 'p' or 'p/q' (q > 0) into a Fraction; reject anything else."""
    # type(s) is int: JSON true/false load as bools, which are ints
    if type(s) is int:
        return Fraction(s)
    if not isinstance(s, str) or not _RATIONAL_RE.fullmatch(s.strip()):
        raise ValueError(f"not a rational literal: {s!r}")
    return Fraction(s.strip())


def format_rational(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _check_var(var):
    n, i = var
    if not (isinstance(n, int) and isinstance(i, int) and n >= 0 and i >= 1):
        raise ValueError(f"bad variable {var!r}: need level >= 0, slot >= 1")
    return (n, i)


def _normalize_mono(mono):
    return tuple(sorted(_check_var(v) for v in mono))


class Poly:
    """Immutable-by-convention sparse polynomial with exact coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # two input monomials may sort to the same one: their
        # coefficients add up, and a sum that cancels is dropped
        clean = {}
        for mono, coeff in (terms or {}).items():
            mono = _normalize_mono(mono)
            clean[mono] = clean.get(mono, 0) + Fraction(coeff)
        self.terms = {m: exact(c) for m, c in clean.items() if c}

    @classmethod
    def _clean(cls, terms):
        """A polynomial holding `terms` itself: sorted, checked monomials
        with nonzero int-first coefficients."""
        poly = cls.__new__(cls)
        poly.terms = terms
        return poly

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, c):
        return cls({(): Fraction(c)})

    @classmethod
    def var(cls, n, i):
        return cls({((n, i),): Fraction(1)})

    @classmethod
    def monomial(cls, vars_, coeff=1):
        return cls({tuple(vars_): Fraction(coeff)})

    # -- ring structure -----------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        out = dict(self.terms)
        for mono, c in other.terms.items():
            total = out.get(mono, 0) + c
            if total:
                out[mono] = exact(total)
            else:
                del out[mono]
        return Poly._clean(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly._clean({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Poly()
            return Poly._clean({m: exact(other * v)
                                for m, v in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(sorted(m1 + m2))
                out[m] = out.get(m, 0) + c1 * c2
        return Poly._clean({m: exact(c) for m, c in out.items() if c})

    __rmul__ = __mul__

    # -- calculus and slicing -------------------------------------------

    def partial(self, var):
        """Exact partial derivative with respect to T[var]."""
        var = _check_var(tuple(var))
        out = {}
        for mono, c in self.terms.items():
            k = mono.count(var)
            if k == 0:
                continue
            rest = list(mono)
            rest.remove(var)
            # monomials holding var differ after one is removed
            out[tuple(rest)] = exact(k * c)
        return Poly._clean(out)

    def coefficient(self, mono):
        return self.terms.get(_normalize_mono(mono), 0)

    def constant_term(self):
        return self.terms.get((), 0)

    def truncate(self, total_degree=None, arrow_degree=None, max_level=None):
        """Drop monomials exceeding the given bounds (None = no bound)."""
        out = {}
        for mono, c in self.terms.items():
            if total_degree is not None and len(mono) > total_degree:
                continue
            if arrow_degree is not None and sum(1 for n, _ in mono if n >= 1) > arrow_degree:
                continue
            if max_level is not None and any(n > max_level for n, _ in mono):
                continue
            out[mono] = c
        return Poly._clean(out)

    def arrow_part(self, k):
        """Sub-sum of monomials with exactly k factors of level >= 1."""
        return Poly._clean({m: c for m, c in self.terms.items()
                            if sum(1 for n, _ in m if n >= 1) == k})

    def level_zero_degree_part(self, k):
        """Sub-sum of monomials with exactly k level-0 factors."""
        return Poly._clean({m: c for m, c in self.terms.items()
                            if sum(1 for n, _ in m if n == 0) == k})

    def substitute_zero(self, pred):
        """Kill every monomial containing a variable for which pred(n, i)."""
        return Poly._clean({m: c for m, c in self.terms.items()
                            if not any(pred(n, i) for n, i in m)})

    def leading_witness(self):
        """(monomial, coefficient) of the lexicographically first term, or None."""
        if not self.terms:
            return None
        mono = min(self.terms)
        return mono, self.terms[mono]

    # -- serialization --------------------------------------------------

    def to_text(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms):
            c = self.terms[mono]
            factors = []
            seen = {}
            for v in mono:
                seen[v] = seen.get(v, 0) + 1
            for (n, i), k in sorted(seen.items()):
                tok = f"T_{{{n},{i}}}"
                factors.append(tok if k == 1 else f"{tok}^{k}")
            body = "*".join(factors)
            ac = format_rational(abs(c))
            if not body:
                piece = ac
            elif ac == "1":
                piece = body
            else:
                piece = f"{ac}*{body}"
            if not parts:
                parts.append(piece if c > 0 else f"-{piece}")
            else:
                parts.append(f"+ {piece}" if c > 0 else f"- {piece}")
        return " ".join(parts)

    def to_json_obj(self):
        terms = []
        for mono in sorted(self.terms):
            terms.append({"vars": [[n, i] for n, i in mono],
                          "coeff": format_rational(self.terms[mono])})
        return {"terms": terms}

    def __repr__(self):
        return f"Poly({self.to_text()})"
