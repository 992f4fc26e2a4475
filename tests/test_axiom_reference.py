"""The axiom battery against a reference that checks one basis pair or
triple at a time.

`reference_report` restates each of the 25 axioms as the formula in the
`cyclichodge.algebra` docstring, evaluated on basis vectors with its own
product, operator action, integral and dense matrix product.  It shares
no code with `check_axioms`, which sums the triple checks over nonzero
structure constants and multiplies matrices over nonzero entries; the
two must give the same report, witnesses and details included, on every
mutation of every builtin and on seeded random perturbations.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from cyclichodge.algebra import check_axioms, parse_algebra
from cyclichodge.builtin import BUILTIN_NAMES
from conftest import builtin_json
from test_algebra import mutations


def reference_report(alg):
    """The `AxiomReport.to_json_obj()` that `check_axioms(alg)` must give,
    each check reporting the first failing witness in the order of its
    loop below."""
    n, par, unit = alg.dim, alg.parity, alg.unit
    basis = range(n)
    pairs = list(product(basis, repeat=2))
    triples = list(product(basis, repeat=3))

    def sign(p):
        return -1 if p % 2 else 1

    def e(i):
        return {i: 1}

    def clean(v):
        return {k: c for k, c in v.items() if c}

    def mul(u, v):
        out = {}
        for i, a in u.items():
            for j, b in v.items():
                for k, c in alg.product[i][j]:
                    out[k] = out.get(k, 0) + a * b * c
        return clean(out)

    def combo(*terms):
        out = {}
        for c, v in terms:
            for k, x in v.items():
                out[k] = out.get(k, 0) + c * x
        return clean(out)

    def apply(mat, v):
        return combo(*((c, {i: mat[i][j] for i in basis})
                       for j, c in v.items()))

    def integ(v):
        return sum(c * alg.integral[k] for k, c in v.items())

    def matmul(a, b):
        return [[sum(a[i][m] * b[m][j] for m in basis) for j in basis]
                for i in basis]

    def nonsingular(mat):
        rows = [[Fraction(x) for x in row] for row in mat]
        for col in basis:
            pivot = next((r for r in range(col, n) if rows[r][col]), None)
            if pivot is None:
                return False
            rows[col], rows[pivot] = rows[pivot], rows[col]
            for r in range(col + 1, n):
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
        return True

    def rational(x):
        x = Fraction(x)
        return (str(x.numerator) if x.denominator == 1
                else f"{x.numerator}/{x.denominator}")

    Q = lambda v: apply(alg.q, v)
    G = lambda v: apply(alg.gminus, v)
    gplus = [[0] * n for _ in basis]
    for a, b, c, d in alg.blocks:
        gplus[a][b] = gplus[c][d] = 1
    GP = lambda v: apply(gplus, v)
    pi4 = [[x + y for x, y in zip(r, s)] for r, s in
           zip(matmul(alg.q, gplus), matmul(gplus, alg.q))]
    gram = [[integ(mul(e(i), e(j))) for j in basis] for i in basis]
    h4 = [i for block in alg.blocks for i in block]

    def nonzero(mat, detail, cells=pairs):
        return (((i, j), detail) for i, j in cells if mat[i][j])

    def anticommutator(a, b):
        return [[x + y for x, y in zip(r, s)]
                for r, s in zip(matmul(a, b), matmul(b, a))]

    # products of at most two basis vectors, made once: e_i e_j,
    # G(e_i e_j), G(e_i) e_j, e_i G(e_j) and G(e_i)
    g_basis = [G(e(i)) for i in basis]
    ab = [[mul(e(i), e(j)) for j in basis] for i in basis]
    g_ab = [[G(v) for v in row] for row in ab]
    ga_b = [[mul(g_basis[i], e(j)) for j in basis] for i in basis]
    a_gb = [[mul(e(i), g_basis[j]) for j in basis] for i in basis]

    def seven_term(i, j, k):
        a, b, c = e(i), e(j), e(k)
        sa = sign(par[i])
        return combo(
            (1, G(mul(ab[i][j], c))), (-1, mul(g_ab[i][j], c)),
            (-sign(par[j] * (par[i] + 1)), mul(b, g_ab[i][k])),
            (-sa, mul(a, g_ab[j][k])), (1, mul(ga_b[i][j], c)),
            (sa, mul(a_gb[i][j], c)),
            (sign(par[i] + par[j]), mul(ab[i][j], g_basis[k])))

    def supertrace(f):
        return sum(sign(par[j]) * f(e(j)).get(j, 0) for j in basis)

    def one_twelfth():
        for i in basis:
            lhs = supertrace(lambda x: G(mul(e(i), x)))
            rhs = Fraction(supertrace(lambda x: mul(G(e(i)), x)), 12)
            if lhs != rhs:
                yield ((i,), f"str(G_- a*) = {rational(lhs)} but "
                             f"(1/12) str(G_-(a)*) = {rational(rhs)}")

    def adjoint(op, label, flip):
        return (((i, j), f"{label} is not integral-adjoint") for i, j in pairs
                if integ(mul(op(e(i)), e(j)))
                != sign(par[i] + flip) * integ(mul(e(i), op(e(j)))))

    same_parity = [(i, j) for i, j in pairs if par[i] == par[j]]
    on_h0 = [(i, j) for j in alg.h0 for i in basis]
    table = (
        ("unit-parity", (((unit,), "unit vector must be even")
                         for p in [par[unit]] if p)),
        ("unit-multiplication", (
            (w, d) for i in basis
            for w, d, x, y in (((unit, i), "1 * e != e", e(unit), e(i)),
                               ((i, unit), "e * 1 != e", e(i), e(unit)))
            if mul(x, y) != e(i))),
        ("product-parity", (((i, j, k), "product entry breaks parity")
                            for i, j in pairs for k, _ in alg.product[i][j]
                            if (par[i] + par[j] + par[k]) % 2)),
        ("supercommutativity", (
            ((i, j), "e_i e_j != (-1)^(pi pj) e_j e_i")
            for i, j in pairs if i <= j
            and combo((1, ab[i][j]), (-sign(par[i] * par[j]), ab[j][i])))),
        ("associativity", (((i, j, k), "(ab)c != a(bc)")
                           for i, j, k in triples
                           if mul(ab[i][j], e(k)) != mul(e(i), ab[j][k]))),
        ("integral-parity", (((i,), "integral of an odd vector must vanish")
                             for i in basis if par[i] and alg.integral[i])),
        ("pairing-nondegenerate", (((), "gram matrix is singular")
                                   for ok in [nonsingular(gram)] if not ok)),
        ("q-parity", nonzero(alg.q, "Q entry does not flip parity",
                             same_parity)),
        ("gminus-parity", nonzero(alg.gminus, "G_- entry does not flip parity",
                                  same_parity)),
        ("q-squared", nonzero(matmul(alg.q, alg.q),
                              "Q^2 has a nonzero entry")),
        ("gminus-squared", nonzero(matmul(alg.gminus, alg.gminus),
                                   "G_-^2 has a nonzero entry")),
        ("q-gminus-anticommutator", nonzero(anticommutator(alg.q, alg.gminus),
                                            "QG_- + G_-Q does not vanish")),
        ("q-kills-h0", nonzero(alg.q, "Q must vanish on H_0", on_h0)),
        ("gminus-kills-h0", nonzero(alg.gminus, "G_- must vanish on H_0",
                                    on_h0)),
        ("block-structure", (
            ((x, y), f"{s} != ({s}) generator of the block")
            for a, b, c, d in alg.blocks
            for op, x, y, s in ((Q, a, b, "Q e"), (G, a, c, "G_- e"),
                                (Q, c, d, "Q G_- e"))
            if op(e(x)) != e(y))),
        ("q-leibniz", (((i, j), "Q(ab) != Q(a)b + (-1)^pa a Q(b)")
                       for i, j in pairs
                       if combo((1, Q(ab[i][j])),
                                (-1, mul(Q(e(i)), e(j))),
                                (-sign(par[i]), mul(e(i), Q(e(j))))))),
        ("gminus-seven-term", (((i, j, k), "seven-term relation fails")
                               for i, j, k in triples if seven_term(i, j, k))),
        ("one-twelfth", one_twelfth()),
        ("q-integral-adjoint", adjoint(Q, "Q", 1)),
        ("gminus-integral-adjoint", adjoint(G, "G_-", 0)),
        ("gplus-squared", nonzero(matmul(gplus, gplus),
                                  "G_+^2 has a nonzero entry")),
        ("gplus-gminus-anticommutator", nonzero(
            anticommutator(gplus, alg.gminus),
            "G_-G_+ + G_+G_- does not vanish")),
        ("gplus-integral-adjoint", adjoint(GP, "G_+", 0)),
        ("pi4-idempotent", (((), "Pi_4 is not idempotent")
                            for sq in [matmul(pi4, pi4)] if sq != pi4)),
        ("hodge-pairing-orthogonal", (
            ((i, j), "H_0 and H_4 are not gram-orthogonal")
            for i in alg.h0 for j in h4 if gram[i][j] or gram[j][i])),
    )
    checks = []
    for name, failures in table:
        witness, detail = next(iter(failures), (None, ""))
        checks.append({"name": name, "passed": witness is None,
                       "witness": [i + 1 for i in witness or ()],
                       "detail": detail})
    return {"ok": all(c["passed"] for c in checks), "checks": checks}


# the checks whose failures the battery sums over nonzero structure
# constants or reads off operator products
SUMMED = ("associativity", "gminus-seven-term", "q-leibniz", "one-twelfth",
          "q-integral-adjoint", "gminus-integral-adjoint",
          "gplus-integral-adjoint")

COEFFS = ("1", "-1", "2", "-3", "1/2", "-2/3", "0")


def perturb(rng):
    """(label, json object) of a random builtin with 1-3 random edits:
    a product coefficient, an added product row, a Q or Gminus entry,
    an integral entry or a parity."""
    name = rng.choice(BUILTIN_NAMES)
    obj = builtin_json(name)
    dim = obj["dim"]
    edits = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("coeff", "row", "Q", "Gminus", "integral",
                           "parity"))
        coeff = rng.choice(COEFFS)
        if kind == "coeff":
            row = rng.choice(obj["product"])
            row[3] = coeff
        elif kind == "row":
            key = [rng.randint(1, dim) for _ in range(3)]
            obj["product"] = [r for r in obj["product"]
                              if r[:3] != key] + [key + [coeff]]
        elif kind in ("Q", "Gminus"):
            i, j = rng.randint(1, dim), rng.randint(1, dim)
            obj[kind] = [r for r in obj.get(kind, [])
                         if r[:2] != [i, j]] + [[i, j, coeff]]
        elif kind == "integral":
            obj["integral"][rng.randrange(dim)] = coeff
        else:
            i = rng.randrange(dim)
            obj["parity"][i] ^= 1
        edits.append(kind)
    return f"{name}:{'+'.join(edits)}", obj


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_mutations_match_reference(name):
    for label, obj in mutations(name):
        alg = parse_algebra(obj, name=label)
        assert check_axioms(alg).to_json_obj() == reference_report(alg), label


def test_perturbations_match_reference():
    rng = random.Random(2026)
    failing = Counter()
    for _ in range(320):
        label, obj = perturb(rng)
        alg = parse_algebra(obj, name=label)
        report = check_axioms(alg).to_json_obj()
        assert report == reference_report(alg), label
        failing.update(c["name"] for c in report["checks"]
                       if not c["passed"])
    # each summed check fails in at least an eighth of the cases, so
    # the agreement is not one on passing checks only
    assert all(failing[name] >= 40 for name in SUMMED), failing
