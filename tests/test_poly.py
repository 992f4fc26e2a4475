"""Polynomial ring over Q in the doubled couplings T[n,i]."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cyclichodge.poly import Poly, format_rational, parse_rational


class TestRationals:
    def test_parse(self):
        assert parse_rational("3") == 3
        assert parse_rational("-3") == -3
        assert parse_rational("+7/2") == Fraction(7, 2)
        assert parse_rational(5) == 5

    @pytest.mark.parametrize("bad", ["1.5", "1e3", "", "3/0", "3/-2",
                                     " 1 / 2 ", "a", None, 1.5, True, False,
                                     # non-ASCII digits: Arabic-Indic one
                                     # and three
                                     "\u0661", "1/2\u0663"])
    def test_rejects_non_rationals(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_format_round_trip(self):
        for s in ("0", "5", "-5", "7/3", "-7/3"):
            assert format_rational(parse_rational(s)) == s


def T(n, i):
    return Poly.var(n, i)


def int_first(p):
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in p.terms.values())


class TestIntFirst:
    def test_whole_coefficients_stay_int(self):
        half = T(0, 1) * Fraction(1, 2)
        p = (half + half) * T(0, 2) - Fraction(3, 2) * T(1, 1)
        q = p * p * Fraction(2, 3) + p
        results = [p, q, -q, q * 2, Fraction(4, 2) * q, q - p,
                   q.partial((0, 1)), q.partial((1, 1)),
                   q.truncate(total_degree=2), q.arrow_part(1),
                   q.level_zero_degree_part(2),
                   q.substitute_zero(lambda n, i: n == 1),
                   Poly({((0, 1),): Fraction(6, 3), (): "1/2"})]
        for r in results:
            assert int_first(r), r
        assert type(p.coefficient([(0, 1), (0, 2)])) is int
        assert type(q.constant_term()) is int
        assert (half + half).terms == {((0, 1),): 1}


class TestRing:
    def test_zero_and_const(self):
        assert Poly.zero().is_zero()
        assert Poly.const(0).is_zero()
        assert not Poly.const(3).is_zero()
        assert Poly.const(3).constant_term() == 3

    def test_arithmetic(self):
        p = (T(0, 1) + T(0, 2)) * (T(0, 1) - T(0, 2))
        q = T(0, 1) * T(0, 1) - T(0, 2) * T(0, 2)
        assert p == q
        assert p - q == Poly.zero()

    def test_scalar_ops(self):
        p = T(0, 1) * Fraction(1, 2) + 1
        assert p.coefficient([(0, 1)]) == Fraction(1, 2)
        assert p.constant_term() == 1
        assert (2 * p - p - p).is_zero()

    def test_monomial_normalization(self):
        a = Poly.monomial([(1, 1), (0, 2), (0, 1)], 5)
        b = Poly.monomial([(0, 1), (0, 2), (1, 1)], 5)
        assert a == b
        assert a.coefficient([(1, 1), (0, 1), (0, 2)]) == 5

    def test_monomials_sorting_alike_add_up(self):
        # both keys sort to T_{0,1}*T_{0,2}: the constructor sums their
        # coefficients rather than keeping the last one
        p = Poly({((0, 1), (0, 2)): 1, ((0, 2), (0, 1)): 1})
        assert p.to_text() == "2*T_{0,1}*T_{0,2}"
        assert p == 2 * T(0, 1) * T(0, 2)
        mixed = Poly({((0, 2), (0, 1)): "1/2", ((0, 1), (0, 2)): "1/2",
                      ((0, 1),): 3})
        assert mixed.terms == {((0, 1), (0, 2)): 1, ((0, 1),): 3}
        assert int_first(mixed)

    def test_monomials_sorting_alike_may_cancel(self):
        p = Poly({((0, 1), (0, 2)): 1, ((0, 2), (0, 1)): -1, ((1, 1),): 2})
        assert p.terms == {((1, 1),): 2}
        assert Poly({((0, 1), (0, 2)): 1, ((0, 2), (0, 1)): -1}).is_zero()

    def test_rejects_bad_variables(self):
        with pytest.raises(ValueError):
            Poly.var(-1, 1)
        with pytest.raises(ValueError):
            Poly.var(0, 0)

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(1, 2),
                              st.integers(-3, 3)), max_size=5))
    def test_add_commutes(self, triples):
        p = Poly.zero()
        q = Poly.zero()
        for n, i, c in triples:
            p = p + T(n, i) * c
        for n, i, c in reversed(triples):
            q = q + T(n, i) * c
        assert p == q


class TestCalculus:
    def test_partial(self):
        p = T(0, 1) * T(0, 1) * T(0, 2) * Fraction(1, 2)
        assert p.partial((0, 1)) == T(0, 1) * T(0, 2)
        assert p.partial((0, 2)) == T(0, 1) * T(0, 1) * Fraction(1, 2)
        assert p.partial((1, 1)).is_zero()

    def test_partial_power_rule(self):
        p = Poly.monomial([(0, 1)] * 4, 1)
        assert p.partial((0, 1)) == Poly.monomial([(0, 1)] * 3, 4)

    def test_partials_commute(self):
        p = (T(0, 1) + T(1, 1) * T(0, 2)) * (T(0, 2) + T(2, 1))
        ab = p.partial((0, 2)).partial((1, 1))
        ba = p.partial((1, 1)).partial((0, 2))
        assert ab == ba


class TestSlicing:
    def setup_method(self):
        self.p = (Poly.const(7)
                  + T(0, 1)
                  + T(0, 1) * T(0, 2)
                  + T(1, 1) * T(0, 1)
                  + T(2, 1) * T(1, 1)
                  + T(3, 1))

    def test_truncate_total_degree(self):
        t = self.p.truncate(total_degree=1)
        assert t == Poly.const(7) + T(0, 1) + T(3, 1)

    def test_truncate_arrow_degree(self):
        t = self.p.truncate(arrow_degree=1)
        assert t == self.p - T(2, 1) * T(1, 1)
        assert t.coefficient([(2, 1), (1, 1)]) == 0
        assert t.coefficient([(1, 1), (0, 1)]) == 1

    def test_truncate_max_level(self):
        t = self.p.truncate(max_level=1)
        assert t == Poly.const(7) + T(0, 1) + T(0, 1) * T(0, 2) + T(1, 1) * T(0, 1)

    def test_arrow_part(self):
        assert self.p.arrow_part(0) == Poly.const(7) + T(0, 1) + T(0, 1) * T(0, 2)
        assert self.p.arrow_part(2) == T(2, 1) * T(1, 1)

    def test_level_zero_degree_part(self):
        assert self.p.level_zero_degree_part(2) == T(0, 1) * T(0, 2)
        assert self.p.level_zero_degree_part(0) == Poly.const(7) + T(2, 1) * T(1, 1) + T(3, 1)

    def test_substitute_zero(self):
        t = self.p.substitute_zero(lambda n, i: n >= 2)
        assert t == Poly.const(7) + T(0, 1) + T(0, 1) * T(0, 2) + T(1, 1) * T(0, 1)

    def test_leading_witness(self):
        mono, coeff = (T(1, 1) * T(0, 2) * 5 + T(2, 1)).leading_witness()
        assert mono == ((0, 2), (1, 1))
        assert coeff == 5
        assert Poly.zero().leading_witness() is None


class TestSerialization:
    def test_to_text(self):
        p = Poly.monomial([(0, 1)] * 3, Fraction(1, 6))
        assert p.to_text() == "1/6*T_{0,1}^3"
        assert Poly.zero().to_text() == "0"
        q = T(1, 2) - Poly.const(1)
        assert q.to_text() == "-1 + T_{1,2}"

    def test_to_json_obj(self):
        p = (T(4, 2) * T(0, 3) + T(0, 1) * T(0, 1) * Fraction(-3, 7)
             + Poly.const(2))
        assert p.to_json_obj() == {"terms": [
            {"vars": [], "coeff": "2"},
            {"vars": [[0, 1], [0, 1]], "coeff": "-3/7"},
            {"vars": [[0, 3], [4, 2]], "coeff": "1"}]}
        assert Poly.zero().to_json_obj() == {"terms": []}

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 3),
                              st.fractions(max_denominator=9)), max_size=6))
    def test_to_json_obj_random(self, triples):
        # each monomial once, ascending, as [level, slot] int pairs with
        # its exact coefficient as a string: no float anywhere
        p = Poly.zero()
        for n, i, c in triples:
            p = p + T(n, i) * T(n, i) * c + T(n, i)
        terms = p.to_json_obj()["terms"]
        monos = [tuple(map(tuple, t["vars"])) for t in terms]
        assert monos == sorted(set(monos))
        assert all(type(x) is int for mono in monos for var in mono for x in var)
        assert all(type(t["coeff"]) is str for t in terms)
        assert {mono: parse_rational(t["coeff"])
                for mono, t in zip(monos, terms)} == p.terms
