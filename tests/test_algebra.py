"""Algebra loading, axiom battery, derived operators, mutation coverage."""

import copy
import json
from fractions import Fraction

import pytest

from cyclichodge.algebra import (
    AlgebraError, DegeneracyError, FormatError, check_axioms, derive_ops,
    load_algebra, parse_algebra,
)
from cyclichodge.builtin import BUILTIN_NAMES, load_builtin
from cyclichodge.graded import identity_matrix, mat_add, mat_apply
from conftest import SCALED2_OBJ


ALL_CHECKS = (
    "unit-parity", "unit-multiplication", "product-parity",
    "supercommutativity", "associativity", "integral-parity",
    "pairing-nondegenerate", "q-parity", "gminus-parity", "q-squared",
    "gminus-squared", "q-gminus-anticommutator", "q-kills-h0",
    "gminus-kills-h0", "block-structure", "q-leibniz", "gminus-seven-term",
    "one-twelfth", "q-integral-adjoint", "gminus-integral-adjoint",
    "gplus-squared", "gplus-gminus-anticommutator", "gplus-integral-adjoint",
    "pi4-idempotent", "hodge-pairing-orthogonal",
)


class TestBuiltins:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_every_builtin_passes_every_axiom(self, name):
        report = check_axioms(load_builtin(name))
        assert report.ok, [c.name for c in report.failures]
        assert tuple(c.name for c in report.checks) == ALL_CHECKS

    def test_unknown_builtin(self):
        with pytest.raises(KeyError):
            load_builtin("nope")

    def test_scaled_variant_passes(self, scaled2):
        assert check_axioms(scaled2).ok

    def test_report_serialization(self, dual2):
        obj = check_axioms(dual2).to_json_obj()
        assert obj["ok"] is True
        assert len(obj["checks"]) == len(ALL_CHECKS)
        lines = check_axioms(dual2).summary_lines()
        assert all(line.startswith("pass") for line in lines)


class TestAlgebraOps:
    def test_products_and_integral(self, exterior2):
        # basis: 1, theta1, theta2, theta1 theta2
        t1t2 = exterior2.multiply(exterior2.basis_vector(1),
                                  exterior2.basis_vector(2))
        assert t1t2 == {3: Fraction(1)}
        t2t1 = exterior2.multiply(exterior2.basis_vector(2),
                                  exterior2.basis_vector(1))
        assert t2t1 == {3: Fraction(-1)}
        assert exterior2.integrate(t1t2) == 1
        assert exterior2.integrate_basis_word([1, 2]) == 1
        assert exterior2.integrate_basis_word([2, 1]) == -1
        assert exterior2.integrate_basis_word([1, 1]) == 0

    def test_left_mult_by_unit(self, block6):
        ident = block6.left_mult_matrix(block6.basis_vector(block6.unit))
        assert all(ident[i][j] == (1 if i == j else 0)
                   for i in range(block6.dim) for j in range(block6.dim))

    def test_gram_symmetry(self, block8):
        g = block8.gram()
        for i in range(block8.dim):
            for j in range(block8.dim):
                s = -1 if block8.parity[i] and block8.parity[j] else 1
                assert g[i][j] == s * g[j][i]

    def test_json_round_trip(self, block6):
        again = parse_algebra(block6.to_json_obj(), name=block6.name)
        assert again == block6

    def test_load_from_file(self, tmp_path, dual2):
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(dual2.to_json_obj()))
        assert load_algebra(path) == dual2

    def test_load_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(FormatError):
            load_algebra(path)


class TestDerivedOps:
    def test_gplus_blockwise(self, block6):
        der = derive_ops(block6)
        gp = der.gplus
        # block is (e, Qe, G-e, QG-e) = basis 2, 3, 4, 5 (0-based)
        assert mat_apply(gp, {3: Fraction(1)}) == {2: Fraction(1)}
        assert mat_apply(gp, {5: Fraction(1)}) == {4: Fraction(1)}
        assert mat_apply(gp, {2: Fraction(1)}) == {}
        assert mat_apply(gp, {4: Fraction(1)}) == {}
        for i in block6.h0:
            assert mat_apply(gp, {i: Fraction(1)}) == {}

    def test_pi_split(self, block6):
        der = derive_ops(block6)
        assert mat_add(der.pi0, der.pi4) == identity_matrix(block6.dim)
        # pi0 restricted: identity on H_0, zero on the block
        for i in block6.h0:
            assert mat_apply(der.pi0, {i: Fraction(1)}) == {i: Fraction(1)}
        for (a, b, c, d) in block6.blocks:
            for i in (a, b, c, d):
                assert mat_apply(der.pi0, {i: Fraction(1)}) == {}
                assert mat_apply(der.pi4, {i: Fraction(1)}) == {i: Fraction(1)}

    def test_eta_and_inverse(self, dual2, scaled2):
        der = derive_ops(dual2)
        assert der.eta == ((0, 1), (1, 0))
        assert der.eta_inv == ((0, 1), (1, 0))
        der_s = derive_ops(scaled2)
        assert der_s.eta == ((0, 3), (3, 0))
        assert der_s.eta_inv == ((0, Fraction(1, 3)), (Fraction(1, 3), 0))

    def test_supertrace_pi0(self, trivial, dual2, block6, block8):
        assert derive_ops(trivial).supertrace_pi0() == 1
        assert derive_ops(dual2).supertrace_pi0() == 2
        assert derive_ops(block6).supertrace_pi0() == 2
        # block8 keeps 1, theta2, x theta1, x theta1 theta2: two of each parity
        assert derive_ops(block8).supertrace_pi0() == 0

    def test_degenerate_pairing_raises(self):
        obj = copy.deepcopy(SCALED2_OBJ)
        obj["integral"] = ["0", "0"]
        alg = parse_algebra(obj, name="degenerate")
        report = check_axioms(alg)
        assert not report.ok
        assert "pairing-nondegenerate" in [c.name for c in report.failures]
        with pytest.raises(DegeneracyError):
            derive_ops(alg).gram_inv


BAD_FORMATS = [
    ("not-a-dict", [], FormatError),
    ({}, [], FormatError),
    ({"dim": 0, "parity": [], "unit": 1, "product": [], "integral": [],
      "hodge": {"H0": [], "blocks": []}}, [], FormatError),
    ({"dim": 1, "parity": [2], "unit": 1, "product": [[1, 1, 1, "1"]],
      "integral": ["1"], "hodge": {"H0": [1], "blocks": []}}, [], FormatError),
    ({"dim": 1, "parity": [0], "unit": 2, "product": [[1, 1, 1, "1"]],
      "integral": ["1"], "hodge": {"H0": [1], "blocks": []}}, [], FormatError),
    ({"dim": 1, "parity": [0], "unit": 1, "product": [[1, 1, 2, "1"]],
      "integral": ["1"], "hodge": {"H0": [1], "blocks": []}}, [], FormatError),
    ({"dim": 1, "parity": [0], "unit": 1,
      "product": [[1, 1, 1, "1"], [1, 1, 1, "2"]],
      "integral": ["1"], "hodge": {"H0": [1], "blocks": []}}, [], FormatError),
    ({"dim": 1, "parity": [0], "unit": 1, "product": [[1, 1, 1, "0.5"]],
      "integral": ["1"], "hodge": {"H0": [1], "blocks": []}}, [], FormatError),
    ({"dim": 1, "parity": [0], "unit": 1, "product": [[1, 1, 1, "1"]],
      "integral": ["1", "1"], "hodge": {"H0": [1], "blocks": []}}, [], FormatError),
    ({"dim": 1, "parity": [0], "unit": 1, "product": [[1, 1, 1, "1"]],
      "integral": ["1"], "hodge": {"H0": [], "blocks": []}}, [], FormatError),
    ({"dim": 1, "parity": [0], "unit": 1, "product": [[1, 1, 1, "1"]],
      "integral": ["1"], "hodge": {"H0": [1, 1], "blocks": []}}, [], FormatError),
    ({"dim": 5, "parity": [0, 0, 1, 0, 1], "unit": 1,
      "product": [[1, 1, 1, "1"]], "integral": ["1", "0", "0", "0", "0"],
      "hodge": {"H0": [1, 2], "blocks": [[3, 4, 5]]}}, [], FormatError),
    ({"dim": 1, "parity": [0], "unit": 1, "product": [[1, 1, 1, "1"]],
      "Q": [[1, 1, "1"], [1, 1, "1"]],
      "integral": ["1"], "hodge": {"H0": [1], "blocks": []}}, [], FormatError),
]


class TestFormatErrors:
    @pytest.mark.parametrize("obj, _, exc", BAD_FORMATS)
    def test_rejected(self, obj, _, exc):
        with pytest.raises(exc):
            parse_algebra(obj)


def mutations(name):
    """Yield (label, mutated json object) pairs, each of which parses but
    must fail at least one axiom."""
    base = load_builtin(name).to_json_obj()
    dim = base["dim"]
    unit = base["unit"]

    def fresh():
        return copy.deepcopy(base)

    # a nonzero entry of an odd operator between equal parities, or any
    # entry at all on an all-even algebra, breaks the parity check; on
    # odd slots it breaks kills-h0/block/adjointness instead
    for op in ("Q", "Gminus"):
        for i in range(1, dim + 1):
            for j in range(1, dim + 1):
                obj = fresh()
                ent = [e for e in obj.get(op, []) if e[0] != i or e[1] != j]
                before = len(obj.get(op, []))
                ent.append([i, j, "2"] if len(ent) < before else [i, j, "1"])
                obj[op] = ent
                yield f"{name}:{op}[{i},{j}]", obj

    # unit row: make 1 * e_j come out wrong
    for j in range(1, dim + 1):
        obj = fresh()
        prod = [e for e in obj["product"] if e[0] != unit or e[1] != j]
        k = 1 + (j % dim)
        prod.append([unit, j, k, "5"])
        obj["product"] = prod
        yield f"{name}:unit-row[{j}]", obj

    # kill the integral entirely: gram goes singular
    obj = fresh()
    obj["integral"] = ["0"] * dim
    yield f"{name}:zero-integral", obj

    # flip the parity of the unit
    obj = fresh()
    obj["parity"] = list(obj["parity"])
    obj["parity"][unit - 1] = 1
    yield f"{name}:odd-unit", obj


@pytest.mark.parametrize("name", ["trivial", "dual2", "exterior2", "block6"])
def test_mutations_all_caught(name):
    count = 0
    for label, obj in mutations(name):
        alg = parse_algebra(obj, name=label)
        report = check_axioms(alg)
        assert not report.ok, f"mutation not caught: {label}"
        count += 1
    assert count >= 2 * load_builtin(name).dim ** 2


class TestTargetedMutations:
    """Named axiom -> minimal mutation that must trip exactly it."""

    def failing(self, obj):
        return [c.name for c in check_axioms(parse_algebra(obj)).failures]

    def test_block_order_swap(self, block6):
        obj = block6.to_json_obj()
        obj["hodge"]["blocks"] = [[3, 5, 4, 6]]
        assert "block-structure" in self.failing(obj)

    def test_scaled_block_generator(self, block6):
        obj = block6.to_json_obj()
        obj["Q"] = [[4, 3, "2"], [6, 5, "1"]]
        assert "block-structure" in self.failing(obj)

    def test_q_on_h0(self, block6):
        obj = block6.to_json_obj()
        obj["Q"] = obj["Q"] + [[3, 2, "1"]]
        assert "q-kills-h0" in self.failing(obj)

    def test_odd_square_nonzero(self, block6):
        obj = block6.to_json_obj()
        obj["product"] = obj["product"] + [[3, 3, 2, "1"]]
        assert "supercommutativity" in self.failing(obj)

    def test_integral_on_odd(self, dual2):
        obj = dual2.to_json_obj()
        obj["parity"] = [0, 1]
        assert "integral-parity" in self.failing(obj)

    def test_square_root_of_unit_is_valid(self, dual2):
        # x*x = 1 turns dual2 into Q[x]/(x^2 - 1), still a valid algebra
        obj = dual2.to_json_obj()
        obj["product"] = obj["product"] + [[2, 2, 1, "1"]]
        assert check_axioms(parse_algebra(obj)).ok

    def test_one_sided_product(self, block6):
        obj = block6.to_json_obj()
        obj["product"] = obj["product"] + [[2, 3, 6, "1"]]
        assert "supercommutativity" in self.failing(obj)

    def test_broken_associativity(self, block6):
        # t*t = G_-(e): symmetric and parity-clean, but (t t) b != t (t b)
        obj = block6.to_json_obj()
        obj["product"] = obj["product"] + [[2, 2, 5, "1"]]
        assert "associativity" in self.failing(obj)

    def test_leibniz_breaker(self, block8):
        # redirect Q(theta1) from x to x theta1 theta2 (both even):
        # parity still consistent, block-structure breaks and so does
        # Leibniz on (theta1, theta2)
        obj = block8.to_json_obj()
        obj["Q"] = [[8, 3, "1"], [6, 7, "1"]]
        failing = self.failing(obj)
        assert "q-leibniz" in failing or "block-structure" in failing

    def test_sign_flip_on_gminus(self, block8):
        # +x theta2 instead of -x theta2 breaks the anticommutator with Q
        obj = block8.to_json_obj()
        obj["Gminus"] = [[7, 3, "1"], [6, 2, "1"]]
        failing = self.failing(obj)
        assert "q-gminus-anticommutator" in failing
        assert "gminus-integral-adjoint" in failing

    def test_seven_term_and_one_twelfth_are_checked(self, block8):
        # a unit component in G_-(theta2) breaks the second-order relation
        # and the supertrace normalization, not just the linear checks
        obj = block8.to_json_obj()
        obj["Gminus"] = obj["Gminus"] + [[1, 4, "1"]]
        failing = self.failing(obj)
        assert "gminus-seven-term" in failing
        assert "one-twelfth" in failing
