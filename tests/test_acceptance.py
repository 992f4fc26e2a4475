"""Acceptance gate: one criterion per test, exact arithmetic throughout.

Each test prints a single pass/FAIL line so the suite output doubles as
the acceptance report.
"""

import os
import random
from contextlib import contextmanager
from fractions import Fraction

from cyclichodge.algebra import check_axioms, parse_algebra
from cyclichodge.contract import evaluate_graph, oracle_evaluate, random_plan
from cyclichodge.poly import Poly, parse_rational
from cyclichodge.potentials import (
    PotentialTable, enumerate_desc, enumerate_sm, kdv_coefficient,
)
from cyclichodge.relations import check_trr1, check_trr2, run_battery
from conftest import random_connected_graph, relabel
from test_algebra import mutations


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num} [{label}]: FAIL")
        raise
    print(f"criterion {num} [{label}]: pass")


def test_criterion_1_one_point_series(trivial):
    with criterion(1, "one-point series vs closed form, g<=2"):
        table = PotentialTable(trivial)
        for g in range(3):
            for m in range(7):
                pot = table.potential(g, m, 6)
                expect = Poly.zero()
                for k in range(7):
                    coeff = kdv_coefficient(g, m, k)
                    if coeff:
                        vars_ = [(0, 1)] * k + ([] if m == 0 else [(m, 1)])
                        expect = expect + Poly.monomial(vars_, coeff)
                assert pot == expect, (g, m)
        f01 = table.potential(0, 1, 3)
        assert f01.coefficient(((0, 1), (0, 1), (0, 1), (1, 1))) == \
            Fraction(1, 6)
        f11 = table.potential(1, 1, 0)
        assert f11.coefficient(((1, 1),)) == Fraction(1, 24)
        f24 = table.potential(2, 4, 0)
        assert f24.coefficient(((4, 1),)) == Fraction(1, 1152)


def test_criterion_2_automorphism_weights():
    with criterion(2, "automorphism weights of the anchor classes"):
        vacuum2 = enumerate_sm(2, 0)
        assert sorted(c.weight for c in vacuum2) == \
            [Fraction(1, 12), Fraction(1, 8)]
        cubic = enumerate_sm(0, 3)
        assert len(cubic) == 1 and cubic[0].weight == Fraction(1, 6)
        handle = enumerate_desc(1, 1, 0)
        assert len(handle) == 1 and handle[0].weight == Fraction(1, 24)


def test_criterion_3_recursion_constants(trivial):
    with criterion(3, "constant terms of the genus 1 and 2 recursions"):
        res1 = check_trr1(trivial, 0, 0)
        assert res1.ok
        t1, t2, lhs = (parse_rational(c)
                       for c in res1.details["term_constants"]["a=1"])
        assert lhs == t1 + t2 == Fraction(1, 24)
        assert t2 == Fraction(1, 12) * Fraction(1, 2)
        res2 = check_trr2(trivial, 2, 0)
        assert res2.ok
        consts = [parse_rational(c)
                  for c in res2.details["term_constants"]["a=1"]]
        terms, lhs = consts[:8], consts[8]
        assert terms[5] == -Fraction(1, 120) * Fraction(1, 48)
        assert terms[7] == Fraction(1, 120) * Fraction(1, 8)
        assert sum(terms, Fraction(0)) == lhs == Fraction(1, 8 * 12 ** 2)


def test_criterion_4_equation_suite(trivial, dual2, scaled2):
    with criterion(4, "full identity battery at degree 5 / 3"):
        for alg in (trivial, dual2, scaled2):
            for res in run_battery(alg, 5, 3):
                assert res.ok, (alg.name, res.summary_line())
                for residual in res.residuals.values():
                    assert residual.is_zero()


def test_criterion_5_property_suites(trivial, dual2, exterior2, block6,
                                     block8):
    with criterion(5, "plan independence, oracle, mutations, relabeling"):
        algs = (trivial, dual2, exterior2, block6, block8)
        rng = random.Random(20260814)
        for idx in range(100):
            alg = algs[idx % len(algs)]
            couplings = not any(alg.parity[i] for i in alg.h0)
            graph = random_connected_graph(rng, alg.dim, couplings=couplings)
            ref = evaluate_graph(alg, graph)
            for _ in range(5):
                plan = random_plan(graph, rng)
                assert evaluate_graph(alg, graph, plan) == ref, repr(graph)
            assert oracle_evaluate(alg, graph) == ref, repr(graph)

        pool = []
        for name in ("trivial", "dual2", "exterior2", "block6"):
            pool.extend(mutations(name))
        assert len(pool) >= 50
        for label, obj in rng.sample(pool, 50):
            try:
                alg = parse_algebra(obj)
            except ValueError:
                continue
            assert not check_axioms(alg).ok, label

        checked = 0
        while checked < 200:
            graph = random_connected_graph(rng, 6)
            base = graph.canonical_form()
            for _ in range(4):
                perm = list(range(graph.n_vertices))
                rng.shuffle(perm)
                assert relabel(graph, perm).canonical_form() == base
                checked += 1


def test_criterion_6_scope_statement():
    with criterion(6, "scope statement in the README"):
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        with open(readme) as fh:
            text = fh.read()
        assert "enter only through the differential identities" in text
