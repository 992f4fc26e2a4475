"""Identity battery: clean passes, perturbed potentials, report shapes."""

from fractions import Fraction

import pytest

from cyclichodge.poly import Poly, parse_rational
from cyclichodge.potentials import PotentialTable
from cyclichodge.relations import (
    MAX_LEAF_BUDGET, BudgetError, RELATIONS, check_const_relation,
    check_dilaton, check_string, check_trr0, check_trr1, check_trr2,
    check_wdvv, run_battery, run_check,
)
from conftest import PerturbedTable


def T(n, i):
    return Poly.var(n, i)


BATTERY_SIZE = 2 + 2 * 3 + 3 * 3


class TestCleanBattery:
    def assert_green(self, results):
        for r in results:
            assert r.ok, r.summary_line()
        assert len(results) == BATTERY_SIZE
        assert [r.relation for r in results[:2]] == ["wdvv", "const"]

    def test_trivial(self, trivial):
        results = run_battery(trivial, 4, 3)
        self.assert_green(results)
        assert results[1].details["constant"] == Fraction(1)
        dil1 = next(r for r in results
                    if r.relation == "dilaton" and r.params["genus"] == 1)
        assert dil1.details["str_pi0"] == Fraction(1)

    def test_dual2(self, dual2):
        results = run_battery(dual2, 4, 3)
        self.assert_green(results)
        assert results[1].details["constant"] == Fraction(0)
        dil1 = next(r for r in results
                    if r.relation == "dilaton" and r.params["genus"] == 1)
        assert dil1.details["str_pi0"] == Fraction(2)

    def test_scaled_pairing(self, scaled2):
        # integral(x) = 3 separates the pairing from its inverse in
        # every place one of them appears
        self.assert_green(run_battery(scaled2, 4, 3))

    def test_block_algebra(self, block6):
        # odd directions live in the handle windows and the Koszul signs
        self.assert_green(run_battery(block6, 3, 2))


class TestInjectedFailures:
    """Each relation must notice a perturbation of the one potential it
    constrains.  The reports are pinned exactly: the witness, the failing
    slices and, for the recursions, the term breakdown of the witness
    slice."""

    def assert_report(self, res, witness, failing):
        assert not res.ok
        assert "FAIL" in res.summary_line()
        label, mono, coeff = witness
        assert res.witness == (label, mono, Fraction(coeff))
        assert [k for k, r in res.residuals.items() if not r.is_zero()] == \
            failing

    def test_wdvv(self, dual2):
        # residual picks up d3(1,1,1) d3(2,2,2) - d3(1,2,2) d3(1,1,2)
        table = PerturbedTable(dual2, 0, 0, T(0, 1) * T(0, 2) * T(0, 2))
        res = check_wdvv(dual2, 0, table=table)
        self.assert_report(res, ("a=1,b=1,c=2,d=2", (), -2),
                           ["a=1,b=1,c=2,d=2", "a=1,b=2,c=1,d=2",
                            "a=2,b=1,c=2,d=1", "a=2,b=2,c=1,d=1"])

    def test_const(self, dual2):
        table = PerturbedTable(dual2, 0, 0,
                               T(0, 1) * T(0, 1) * T(0, 2) * T(0, 2))
        res = check_const_relation(dual2, 2, table=table)
        self.assert_report(res, ("all", ((0, 1),), 32), ["all"])

    def test_string(self, dual2):
        table = PerturbedTable(dual2, 1, 1, T(1, 1) * T(0, 1))
        res = check_string(dual2, 1, 1, table=table)
        self.assert_report(res, ("level=1", ((1, 1),), 1), ["level=1"])

    def test_dilaton(self, dual2):
        table = PerturbedTable(dual2, 1, 1, T(1, 1) * T(0, 1) * T(0, 1))
        res = check_dilaton(dual2, 1, 2, table=table)
        self.assert_report(res, ("all", ((0, 1), (0, 1)), 1), ["all"])

    def test_trr0(self, dual2):
        table = PerturbedTable(dual2, 0, 2,
                               T(2, 1) * T(0, 1) * T(0, 1) * T(0, 1))
        res = check_trr0(dual2, 1, 1, table=table)
        self.assert_report(res, ("a=1,b=1,c=1", ((0, 1),), 6),
                           ["a=1,b=1,c=1"])

    def test_trr1(self, dual2):
        table = PerturbedTable(dual2, 1, 2, T(2, 1) * T(0, 1))
        res = check_trr1(dual2, 1, 1, table=table)
        self.assert_report(res, ("a=1", ((0, 1),), 1), ["a=1"])
        assert res.details["term_constants"]["a=1"] == ["0"] * 3

    def test_trr2(self, dual2):
        table = PerturbedTable(dual2, 2, 2, T(2, 1) * T(0, 1))
        res = check_trr2(dual2, 0, 1, table=table)
        self.assert_report(res, ("a=1", ((0, 1),), 1), ["a=1"])
        assert res.details["term_constants"]["a=1"] == ["0"] * 9

    def test_clean_rerun_still_green(self, dual2):
        # perturbed tables never leak into fresh ones
        assert check_wdvv(dual2, 0).ok


class DoubledClass(PotentialTable):
    """A potential table in which the one class of the (g, n, ell) piece
    whose graph has these edges counts twice."""

    def __init__(self, alg, key, edges):
        super().__init__(alg)
        self.key, self.edges = key, edges

    def classes(self, g, n, ell):
        out = super().classes(g, n, ell)
        if (g, n, ell) != self.key:
            return out
        assert [cls.graph.edges for cls in out].count(self.edges) == 1
        return [cls._replace(weight=2 * cls.weight)
                if cls.graph.edges == self.edges else cls for cls in out]


DUMBBELL = ((0, 0, "GG"), (0, 1, "GG"), (1, 1, "GG"))
# the checks that fail when one GG class of the level-1 F_2 counts twice
LEVEL1_GENUS2 = [("string", {"genus": 2, "max_level": 4}),
                 ("dilaton", {"genus": 2}), ("trr2", {"n": 0}),
                 ("trr2", {"n": 1})]


class TestGGClassMutations:
    """On loop8 and cubic6 a nonzero GG cycle enters the potentials, so
    the battery must notice one such class counted twice.  Doubling every
    GG cycle of loop8 at once passes: the cycle sum alone solves the
    homogeneous part of the genus-1 relations, which are linear in F_1."""

    @pytest.mark.parametrize("name,key,edges,failing", [
        pytest.param("loop8", (1, 0, 1), ((0, 0, "GG"),), [
            ("string", {"genus": 1, "max_level": 4}),
            ("dilaton", {"genus": 1}), ("trr1", {"n": 0}),
            ("trr1", {"n": 1})], id="loop8-one-vertex-loop"),
        pytest.param("loop8", (1, 0, 2), ((0, 1, "GG"),) * 2, [
            ("string", {"genus": 1, "max_level": 4}),
            ("dilaton", {"genus": 1}), ("trr1", {"n": 0})],
            id="loop8-double-edge"),
        pytest.param("loop8", (1, 1, 1), ((0, 0, "GG"),), [
            ("string", {"genus": 1, "max_level": 4}),
            ("dilaton", {"genus": 1}), ("trr1", {"n": 0})],
            id="loop8-level1-loop"),
        pytest.param("cubic6", (2, 0, 0), ((0, 1, "GG"),) * 3,
                     [("dilaton", {"genus": 2})], id="cubic6-theta"),
        pytest.param("cubic6", (2, 0, 0), DUMBBELL,
                     [("dilaton", {"genus": 2})], id="cubic6-dumbbell"),
        pytest.param("cubic6", (2, 1, 0), ((0, 1, "GG"),) * 3,
                     LEVEL1_GENUS2, id="cubic6-level1-theta"),
        pytest.param("cubic6", (2, 1, 0), DUMBBELL,
                     LEVEL1_GENUS2, id="cubic6-level1-dumbbell")])
    def test_one_doubled_class_fails(self, request, name, key, edges,
                                     failing):
        alg = request.getfixturevalue(name)
        assert all(r.ok for r in run_battery(alg, 2, 2))
        results = run_battery(alg, 2, 2, table=DoubledClass(alg, key, edges))
        assert [(r.relation, r.params) for r in results if not r.ok] \
            == failing


class TestDispatchAndGuards:
    def test_run_check_routes(self, trivial):
        assert run_check(trivial, "wdvv", 2).ok
        assert run_check(trivial, "string", 2, genus=0).ok
        assert run_check(trivial, "trr1", 1, n=1).ok

    def test_run_check_rejects(self, trivial):
        with pytest.raises(ValueError):
            run_check(trivial, "string", 2)
        with pytest.raises(ValueError):
            run_check(trivial, "trr0", 2)
        with pytest.raises(ValueError):
            run_check(trivial, "frobnicate", 2)

    def test_budget_guard(self, dual2):
        with pytest.raises(BudgetError):
            check_wdvv(dual2, MAX_LEAF_BUDGET - 2)
        # BudgetError is a ValueError so callers may catch broadly
        assert issubclass(BudgetError, ValueError)

    def test_negative_degree(self, dual2):
        # an empty window would be a vacuous pass: nothing was compared
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            check_wdvv(dual2, -1)
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            run_battery(dual2, -1, 2)

    def test_registry(self):
        assert set(RELATIONS) == {"wdvv", "const", "string", "dilaton",
                                  "trr0", "trr1", "trr2"}


class TestReports:
    def test_pass_json(self, trivial):
        res = check_dilaton(trivial, 1, 2)
        obj = res.to_json_obj()
        assert obj["ok"] is True
        assert obj["residuals"] == {}
        assert obj["details"]["str_pi0"] == "1"
        assert "witness" not in obj
        assert "pass" in res.summary_line()

    def test_fail_json(self, dual2):
        table = PerturbedTable(dual2, 1, 2, T(2, 1) * T(0, 1))
        res = check_trr1(dual2, 1, 1, table=table)
        obj = res.to_json_obj()
        assert obj["ok"] is False
        assert obj["residuals"]
        wit = obj["witness"]
        assert set(wit) == {"slice", "monomial", "coeff"}
        parse_rational(wit["coeff"])
        assert all(len(pair) == 2 for pair in wit["monomial"])

    def test_trr2_term_breakdown(self, trivial):
        res = check_trr2(trivial, 1, 0)
        assert res.ok
        consts = res.details["term_constants"]["a=1"]
        assert len(consts) == 9
        terms = [parse_rational(c) for c in consts]
        # the eight summands reproduce the left side in degree 0
        assert sum(terms[:8], Fraction(0)) == terms[8]
