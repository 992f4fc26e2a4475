"""Algebra loading, axiom battery, derived operators, mutation coverage."""

import copy
import json
from fractions import Fraction

import pytest

from cyclichodge.algebra import (
    DegeneracyError, FormatError, check_axioms, derive_ops, load_algebra,
    parse_algebra,
)
from cyclichodge.builtin import BUILTIN_NAMES, load_builtin
from cyclichodge.graded import identity_matrix, mat_add, mat_apply
from conftest import SCALED2_OBJ, builtin_json


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

    def test_gram_symmetry(self, block8):
        g = block8.gram()
        for i in range(block8.dim):
            for j in range(block8.dim):
                s = -1 if block8.parity[i] and block8.parity[j] else 1
                assert g[i][j] == s * g[j][i]

    def test_load_from_file(self, tmp_path, dual2):
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(builtin_json("dual2")))
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
    ("not-a-dict", FormatError),
    ({}, FormatError),
    ({"dim": 0, "parity": [], "unit": 1, "product": [], "integral": [],
      "hodge": {"H0": [], "blocks": []}}, FormatError),
    ({"dim": 1, "parity": [2], "unit": 1, "product": [[1, 1, 1, "1"]],
      "integral": ["1"], "hodge": {"H0": [1], "blocks": []}}, FormatError),
    ({"dim": 1, "parity": [0], "unit": 2, "product": [[1, 1, 1, "1"]],
      "integral": ["1"], "hodge": {"H0": [1], "blocks": []}}, FormatError),
    ({"dim": 1, "parity": [0], "unit": 1, "product": [[1, 1, 2, "1"]],
      "integral": ["1"], "hodge": {"H0": [1], "blocks": []}}, FormatError),
    ({"dim": 1, "parity": [0], "unit": 1,
      "product": [[1, 1, 1, "1"], [1, 1, 1, "2"]],
      "integral": ["1"], "hodge": {"H0": [1], "blocks": []}}, FormatError),
    ({"dim": 1, "parity": [0], "unit": 1, "product": [[1, 1, 1, "0.5"]],
      "integral": ["1"], "hodge": {"H0": [1], "blocks": []}}, FormatError),
    ({"dim": 1, "parity": [0], "unit": 1, "product": [[1, 1, 1, "1"]],
      "integral": ["1", "1"], "hodge": {"H0": [1], "blocks": []}}, FormatError),
    ({"dim": 1, "parity": [0], "unit": 1, "product": [[1, 1, 1, "1"]],
      "integral": ["1"], "hodge": {"H0": [], "blocks": []}}, FormatError),
    ({"dim": 1, "parity": [0], "unit": 1, "product": [[1, 1, 1, "1"]],
      "integral": ["1"], "hodge": {"H0": [1, 1], "blocks": []}}, FormatError),
    ({"dim": 5, "parity": [0, 0, 1, 0, 1], "unit": 1,
      "product": [[1, 1, 1, "1"]], "integral": ["1", "0", "0", "0", "0"],
      "hodge": {"H0": [1, 2], "blocks": [[3, 4, 5]]}}, FormatError),
    ({"dim": 1, "parity": [0], "unit": 1, "product": [[1, 1, 1, "1"]],
      "Q": [[1, 1, "1"], [1, 1, "1"]],
      "integral": ["1"], "hodge": {"H0": [1], "blocks": []}}, FormatError),
]


class TestFormatErrors:
    @pytest.mark.parametrize("obj, exc", BAD_FORMATS)
    def test_rejected(self, obj, exc):
        with pytest.raises(exc):
            parse_algebra(obj)

    @pytest.mark.parametrize("key, row", [("product", "[i, j, k, coeff]"),
                                          ("Q", "[i, j, coeff]"),
                                          ("Gminus", "[i, j, coeff]")],
                             ids=["product", "Q", "Gminus"])
    def test_rows_not_a_list(self, key, row):
        with pytest.raises(FormatError) as info:
            parse_algebra(dict(SCALED2_OBJ, **{key: 5}))
        assert str(info.value) == f"{key} must be a list of {row} entries"


def mutations(name):
    """Yield (label, mutated json object) pairs, each of which parses but
    must fail at least one axiom."""
    base = builtin_json(name)
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


# One single-entry mutation per check that can fail, with the full report
# it gives: each failing check's 1-based witness and detail, every other
# check passing.  gplus-squared has none: G_+ is built from the blocks
# (Qe -> e, QG_-e -> G_-e), so G_+^2 = 0 by construction and no algebra
# that parses can fail it.
PINNED_REPORTS = [
    ("unit-parity", "dual2", "parity", [1, 0], {
        "unit-parity": ((1,), "unit vector must be even"),
        "product-parity": ((1, 1, 1), "product entry breaks parity"),
        "supercommutativity": ((1, 1), "e_i e_j != (-1)^(pi pj) e_j e_i"),
    }),
    ("unit-multiplication", "trivial", "product", [1, 1, 1, "1/2"], {
        "unit-multiplication": ((1, 1), "1 * e != e"),
    }),
    ("product-parity", "exterior2", "product", [2, 3, 2, "1"], {
        "product-parity": ((2, 3, 2), "product entry breaks parity"),
        "supercommutativity": ((2, 3), "e_i e_j != (-1)^(pi pj) e_j e_i"),
        "associativity": ((2, 3, 3), "(ab)c != a(bc)"),
    }),
    ("supercommutativity", "exterior2", "product", [2, 2, 4, "5"], {
        "supercommutativity": ((2, 2), "e_i e_j != (-1)^(pi pj) e_j e_i"),
    }),
    ("associativity", "exterior2", "product", [4, 4, 4, "-1"], {
        "associativity": ((2, 3, 4), "(ab)c != a(bc)"),
    }),
    ("integral-parity", "dual2", "parity", [0, 1], {
        "integral-parity": ((2,), "integral of an odd vector must vanish"),
    }),
    ("pairing-nondegenerate", "trivial", "integral", ["0"], {
        "pairing-nondegenerate": ((), "gram matrix is singular"),
    }),
    ("q-parity", "dual2", "Q", [2, 1, "1"], {
        "q-parity": ((2, 1), "Q entry does not flip parity"),
        "q-kills-h0": ((2, 1), "Q must vanish on H_0"),
        "q-leibniz": ((1, 1), "Q(ab) != Q(a)b + (-1)^pa a Q(b)"),
        "q-integral-adjoint": ((1, 1), "Q is not integral-adjoint"),
    }),
    ("gminus-parity", "block6", "Gminus", [5, 4, "2"], {
        "gminus-parity": ((5, 4), "G_- entry does not flip parity"),
        "q-gminus-anticommutator": ((5, 3), "QG_- + G_-Q does not vanish"),
    }),
    ("q-squared", "block6", "Q", [2, 6, "-1"], {
        "q-squared": ((2, 5), "Q^2 has a nonzero entry"),
        "q-gminus-anticommutator": ((2, 4), "QG_- + G_-Q does not vanish"),
        "q-integral-adjoint": ((1, 6), "Q is not integral-adjoint"),
    }),
    ("gminus-squared", "block6", "Gminus", [2, 6, "-1"], {
        "gminus-squared": ((2, 4), "G_-^2 has a nonzero entry"),
        "q-gminus-anticommutator": ((2, 5), "QG_- + G_-Q does not vanish"),
        "gminus-integral-adjoint": ((1, 6), "G_- is not integral-adjoint"),
    }),
    ("q-gminus-anticommutator", "block8", "Gminus", [6, 2, "1"], {
        "q-gminus-anticommutator": ((6, 3), "QG_- + G_-Q does not vanish"),
        "gminus-integral-adjoint": ((2, 3), "G_- is not integral-adjoint"),
        "gplus-gminus-anticommutator": ((7, 2), "G_-G_+ + G_+G_- does not vanish"),
    }),
    ("q-kills-h0", "exterior2", "Q", [4, 3, "5"], {
        "q-kills-h0": ((4, 3), "Q must vanish on H_0"),
        "q-integral-adjoint": ((1, 3), "Q is not integral-adjoint"),
    }),
    ("gminus-kills-h0", "exterior2", "Gminus", [4, 3, "1"], {
        "gminus-kills-h0": ((4, 3), "G_- must vanish on H_0"),
        "gminus-integral-adjoint": ((1, 3), "G_- is not integral-adjoint"),
    }),
    ("block-structure", "block6", "Q", [2, 3, "1/2"], {
        "block-structure": ((3, 4), "Q e != (Q e) generator of the block"),
        "q-integral-adjoint": ((1, 3), "Q is not integral-adjoint"),
    }),
    ("q-leibniz", "exterior2", "Q", [2, 1, "2"], {
        "q-kills-h0": ((2, 1), "Q must vanish on H_0"),
        "q-leibniz": ((1, 1), "Q(ab) != Q(a)b + (-1)^pa a Q(b)"),
        "q-integral-adjoint": ((1, 3), "Q is not integral-adjoint"),
    }),
    ("gminus-seven-term", "block6", "product", [5, 5, 1, "-1"], {
        "associativity": ((2, 5, 5), "(ab)c != a(bc)"),
        "gminus-seven-term": ((3, 5, 2), "seven-term relation fails"),
    }),
    ("one-twelfth", "block8", "Gminus", [1, 4, "1/3"], {
        "gminus-kills-h0": ((1, 4), "G_- must vanish on H_0"),
        "gminus-seven-term": ((2, 3, 4), "seven-term relation fails"),
        "one-twelfth": ((4,), "str(G_- a*) = 1/3 but (1/12) str(G_-(a)*) = 0"),
        "gminus-integral-adjoint": ((4, 8), "G_- is not integral-adjoint"),
    }),
    ("q-integral-adjoint", "block6", "integral", ["0", "1", "0", "0", "0", "2"], {
        "integral-parity": ((6,), "integral of an odd vector must vanish"),
        "q-integral-adjoint": ((1, 5), "Q is not integral-adjoint"),
        "gminus-integral-adjoint": ((1, 4), "G_- is not integral-adjoint"),
        "hodge-pairing-orthogonal": ((1, 6), "H_0 and H_4 are not gram-orthogonal"),
    }),
    ("gminus-integral-adjoint", "block6", "integral", ["0", "1", "0", "0", "1/2", "1"], {
        "integral-parity": ((6,), "integral of an odd vector must vanish"),
        "q-integral-adjoint": ((1, 5), "Q is not integral-adjoint"),
        "gminus-integral-adjoint": ((1, 3), "G_- is not integral-adjoint"),
        "gplus-integral-adjoint": ((1, 6), "G_+ is not integral-adjoint"),
        "hodge-pairing-orthogonal": ((1, 5), "H_0 and H_4 are not gram-orthogonal"),
    }),
    ("gplus-gminus-anticommutator", "block6", "Gminus", [6, 5, "2"], {
        "gminus-squared": ((6, 3), "G_-^2 has a nonzero entry"),
        "gminus-integral-adjoint": ((3, 5), "G_- is not integral-adjoint"),
        "gplus-gminus-anticommutator": ((5, 5), "G_-G_+ + G_+G_- does not vanish"),
    }),
    ("gplus-integral-adjoint", "block6", "product", [5, 5, 2, "5"], {
        "gminus-integral-adjoint": ((3, 5), "G_- is not integral-adjoint"),
        "gplus-integral-adjoint": ((5, 6), "G_+ is not integral-adjoint"),
    }),
    ("pi4-idempotent", "block6", "Q", [6, 4, "-1"], {
        "q-squared": ((6, 3), "Q^2 has a nonzero entry"),
        "q-leibniz": ((3, 4), "Q(ab) != Q(a)b + (-1)^pa a Q(b)"),
        "q-integral-adjoint": ((3, 4), "Q is not integral-adjoint"),
        "pi4-idempotent": ((), "Pi_4 is not idempotent"),
    }),
    ("hodge-pairing-orthogonal", "block6", "integral", ["0", "1", "0", "5", "0", "0"], {
        "q-integral-adjoint": ((1, 3), "Q is not integral-adjoint"),
        "hodge-pairing-orthogonal": ((1, 4), "H_0 and H_4 are not gram-orthogonal"),
    }),
]


def mutate(name, key, value):
    """The builtin's JSON with one product, Q or Gminus entry set (any
    entry at the same indices dropped) or its parity or integral list
    replaced."""
    obj = builtin_json(name)
    if key in ("product", "Q", "Gminus"):
        n = len(value) - 1
        obj[key] = [e for e in obj[key] if e[:n] != value[:n]] + [value]
    else:
        obj[key] = value
    return obj


def test_pinned_reports_cover_every_check():
    assert ({target for target, *_ in PINNED_REPORTS}
            == set(ALL_CHECKS) - {"gplus-squared"})


@pytest.mark.parametrize("target, name, key, value, failures", PINNED_REPORTS,
                         ids=[target for target, *_ in PINNED_REPORTS])
def test_exact_report(target, name, key, value, failures):
    report = check_axioms(parse_algebra(mutate(name, key, value)))
    assert target in failures
    assert report.to_json_obj() == {"ok": False, "checks": [
        {"name": check, "passed": check not in failures,
         "witness": list(failures.get(check, ((), ""))[0]),
         "detail": failures.get(check, ((), ""))[1]}
        for check in ALL_CHECKS]}


class TestTargetedMutations:
    """Named axiom -> minimal mutation that must trip exactly it."""

    def failing(self, obj):
        return [c.name for c in check_axioms(parse_algebra(obj)).failures]

    def test_block_order_swap(self):
        obj = builtin_json("block6")
        obj["hodge"]["blocks"] = [[3, 5, 4, 6]]
        assert "block-structure" in self.failing(obj)

    def test_scaled_block_generator(self):
        obj = builtin_json("block6")
        obj["Q"] = [[4, 3, "2"], [6, 5, "1"]]
        assert "block-structure" in self.failing(obj)

    def test_q_on_h0(self):
        obj = builtin_json("block6")
        obj["Q"] = obj["Q"] + [[3, 2, "1"]]
        assert "q-kills-h0" in self.failing(obj)

    def test_odd_square_nonzero(self):
        obj = builtin_json("block6")
        obj["product"] = obj["product"] + [[3, 3, 2, "1"]]
        assert "supercommutativity" in self.failing(obj)

    def test_integral_on_odd(self):
        obj = builtin_json("dual2")
        obj["parity"] = [0, 1]
        assert "integral-parity" in self.failing(obj)

    def test_square_root_of_unit_is_valid(self):
        # x*x = 1 turns dual2 into Q[x]/(x^2 - 1), still a valid algebra
        obj = builtin_json("dual2")
        obj["product"] = obj["product"] + [[2, 2, 1, "1"]]
        assert check_axioms(parse_algebra(obj)).ok

    def test_one_sided_product(self):
        obj = builtin_json("block6")
        obj["product"] = obj["product"] + [[2, 3, 6, "1"]]
        assert "supercommutativity" in self.failing(obj)

    def test_broken_associativity(self):
        # t*t = G_-(e): symmetric and parity-clean, but (t t) b != t (t b)
        obj = builtin_json("block6")
        obj["product"] = obj["product"] + [[2, 2, 5, "1"]]
        assert "associativity" in self.failing(obj)

    def test_leibniz_breaker(self):
        # redirect Q(theta1) from x to x theta1 theta2 (both even):
        # parity still consistent, block-structure breaks and so does
        # Leibniz on (theta1, theta2)
        obj = builtin_json("block8")
        obj["Q"] = [[8, 3, "1"], [6, 7, "1"]]
        failing = self.failing(obj)
        assert "q-leibniz" in failing or "block-structure" in failing

    def test_sign_flip_on_gminus(self):
        # +x theta2 instead of -x theta2 breaks the anticommutator with Q
        obj = builtin_json("block8")
        obj["Gminus"] = [[7, 3, "1"], [6, 2, "1"]]
        failing = self.failing(obj)
        assert "q-gminus-anticommutator" in failing
        assert "gminus-integral-adjoint" in failing

    def test_seven_term_and_one_twelfth_are_checked(self):
        # a unit component in G_-(theta2) breaks the second-order relation
        # and the supertrace normalization, not just the linear checks
        obj = builtin_json("block8")
        obj["Gminus"] = obj["Gminus"] + [[1, 4, "1"]]
        failing = self.failing(obj)
        assert "gminus-seven-term" in failing
        assert "one-twelfth" in failing
