"""Finite-dimensional cyclic Hodge algebras over Q.

A cyclic Hodge algebra is a supercommutative unital algebra H with two
odd operators Q (a derivation) and G_- (a second-order operator), an
even integral, and a splitting H = H_0 (+) H_4 where Q and G_- kill H_0
and H_4 decomposes into 4-dimensional blocks spanned by
e, Q e, G_- e, Q G_- e.  From that splitting one derives G_+, the
projections Pi_0 / Pi_4, and the pairings used by the contraction
engine.  This module loads such algebras from JSON, computes the derived
operators, and runs the axiom battery with witnesses.

Axioms are data: `check_axioms` runs one table of 25 named checks, each
yielding its failures in a fixed order, and reports the first.  For
basis vectors a, b, c of parities p_a, p_b, p_c, with s_x = (-1)^p_x,
int the integral, str the supertrace and G = G_-, the checks are, in
order:
  unit-parity                  the unit 1 is even
  unit-multiplication          1 a = a 1 = a
  product-parity               a b has parity p_a + p_b
  supercommutativity           a b = (-1)^(p_a p_b) b a
  associativity                (a b) c = a (b c)
  integral-parity              int(a) = 0 for odd a
  pairing-nondegenerate        the gram matrix int(e_i e_j) is invertible
  q-parity, gminus-parity      Q and G change parity
  q-squared, gminus-squared    Q^2 = 0, G^2 = 0
  q-gminus-anticommutator      Q G + G Q = 0
  q-kills-h0, gminus-kills-h0  Q = G = 0 on H_0
  block-structure              each block is (e, Q e, G e, Q G e)
  q-leibniz                    Q(a b) = Q(a) b + s_a a Q(b)
  gminus-seven-term            G(a b c) = G(a b) c + s_b^(p_a + 1) b G(a c)
                                 + s_a a G(b c) - G(a) b c - s_a a G(b) c
                                 - s_a s_b a b G(c)
  one-twelfth                  str(x -> G(a x)) = str(x -> G(a) x) / 12
  q-integral-adjoint           int(Q(a) b) = -s_a int(a Q(b))
  gminus-integral-adjoint      int(G(a) b) = s_a int(a G(b))
  gplus-squared                G_+^2 = 0
  gplus-gminus-anticommutator  G G_+ + G_+ G = 0
  gplus-integral-adjoint       int(G_+(a) b) = s_a int(a G_+(b))
  pi4-idempotent               Pi_4^2 = Pi_4
  hodge-pairing-orthogonal     int(a b) = int(b a) = 0 for a in H_0, b in H_4
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import product

from .graded import (EVEN, ODD, SingularMatrixError, exact, identity_matrix,
                     mat_add, mat_apply, mat_inverse, mat_mul, mat_sub,
                     supertrace)
from .poly import format_rational, parse_rational


class AlgebraError(ValueError):
    pass


class FormatError(AlgebraError):
    """The input file does not match the documented JSON layout."""


class DegeneracyError(AlgebraError):
    """The scalar product (or its restriction to H_0) is singular."""


@dataclass(frozen=True)
class CHAlgebra:
    """Immutable algebra data.  All indices are 0-based internally, and
    every value is int-first (see `graded`).

    product[i][j] lists the nonzero terms (k, c) of e_i * e_j = sum c e_k,
    ascending in k;
    q[i][j] (resp. gminus[i][j]) is the coefficient of e_i in the image
    of e_j; integral[i] is the integral of e_i.  h0 lists the basis
    indices spanning H_0 and blocks the 4-tuples (e, Qe, G-e, QG-e).

    Data derived from the algebra (its operators, the contraction
    tensors) is kept with the object that first asks for it, through
    `memo`; an equal algebra built separately derives its own.
    """

    dim: int
    parity: tuple
    unit: int
    product: tuple
    q: tuple
    gminus: tuple
    integral: tuple
    h0: tuple
    blocks: tuple
    name: str = field(default="", compare=False)
    _memo: dict = field(default_factory=dict, init=False, compare=False,
                        repr=False)

    def memo(self, key, build):
        """build(), called on the first request for key and kept with
        this object.  Every caller gets the same value, so nothing may
        mutate it; a build that raises keeps nothing."""
        memo = self._memo
        if key not in memo:
            memo[key] = build()
        return memo[key]

    # -- basic operations ------------------------------------------------

    def multiply(self, u, v):
        """Product of two sparse coordinate vectors, walking the product
        terms of each e_i * e_j."""
        out = {}
        for i, ci in u.items():
            row = self.product[i]
            for j, cj in v.items():
                c = ci * cj
                for k, m in row[j]:
                    out[k] = out.get(k, 0) + c * m
        return {k: c for k, c in out.items() if c}

    def integrate(self, u):
        integral = self.integral
        return exact(sum(c * integral[i] for i, c in u.items()))

    def integrate_basis_word(self, word):
        """Integral of e_{i1} * ... * e_{in}, multiplied left to right."""
        if not word:
            return self.integral[self.unit]
        vec = self.basis_vector(word[0])
        for i in word[1:]:
            vec = self.multiply(vec, self.basis_vector(i))
            if not vec:
                return 0
        return self.integrate(vec)

    def gram(self):
        """Matrix of the scalar product (e_i, e_j) = integral(e_i e_j)."""
        e = self.basis_vector
        return tuple(tuple(self.integrate(self.multiply(e(i), e(j)))
                           for j in range(self.dim))
                     for i in range(self.dim))

    def basis_vector(self, i):
        return {i: 1}


def parse_algebra(obj, name=""):
    """Build a CHAlgebra from the documented JSON object layout."""
    if not isinstance(obj, dict):
        raise FormatError("algebra JSON must be an object")
    try:
        dim = obj["dim"]
        parity = obj["parity"]
        unit = obj["unit"]
        product_entries = obj["product"]
        q_entries = obj.get("Q", [])
        g_entries = obj.get("Gminus", [])
        integral = obj["integral"]
        hodge = obj["hodge"]
    except KeyError as exc:
        raise FormatError(f"missing required key {exc}") from None

    # type(x) is int: JSON true/false load as bools, which are ints
    if type(dim) is not int or dim < 1:
        raise FormatError("dim must be a positive integer")
    if (not isinstance(parity, list) or len(parity) != dim
            or any(type(p) is not int or p not in (0, 1) for p in parity)):
        raise FormatError("parity must be a list of dim values in {0,1}")
    if type(unit) is not int or not 1 <= unit <= dim:
        raise FormatError("unit must be a 1-based basis index")

    def check_index(i, what):
        if type(i) is not int or not 1 <= i <= dim:
            raise FormatError(f"{what}: index {i!r} out of range 1..{dim}")
        return i - 1

    def read_rows(entries, what, width):
        """{0-based index tuple: coefficient} of [index.., coeff] rows,
        each with `width` indices."""
        if not isinstance(entries, list):
            raise FormatError(f"{what} must be a list of "
                              f"[{', '.join('ijk'[:width])}, coeff] entries")
        rows = {}
        for ent in entries:
            if not isinstance(ent, list) or len(ent) != width + 1:
                raise FormatError(f"bad {what} entry {ent!r}")
            key = tuple(check_index(i, what) for i in ent[:width])
            if key in rows:
                raise FormatError(f"duplicate {what} entry for "
                                  f"({','.join(map(str, ent[:width]))})")
            try:
                rows[key] = exact(parse_rational(ent[width]))
            except ValueError as exc:
                raise FormatError(str(exc)) from None
        return rows

    def matrix(rows):
        mat = [[0] * dim for _ in range(dim)]
        for (i, j), c in rows.items():
            mat[i][j] = c
        return tuple(tuple(row) for row in mat)

    products = read_rows(product_entries, "product", 3)
    q = read_rows(q_entries, "Q", 2)
    gm = read_rows(g_entries, "Gminus", 2)

    if not isinstance(integral, list) or len(integral) != dim:
        raise FormatError("integral must be a list of dim rationals")
    try:
        integ = tuple(exact(parse_rational(c)) for c in integral)
    except ValueError as exc:
        raise FormatError(str(exc)) from None

    if (not isinstance(hodge, dict) or not isinstance(hodge.get("H0"), list)
            or not isinstance(hodge.get("blocks"), list)):
        raise FormatError("hodge must be an object with lists H0 and blocks")
    h0 = tuple(check_index(i, "H0") for i in hodge["H0"])
    blocks = []
    for blk in hodge["blocks"]:
        if not isinstance(blk, list) or len(blk) != 4:
            raise FormatError(f"each block must list 4 basis indices, got {blk!r}")
        blocks.append(tuple(check_index(i, "block") for i in blk))
    covered = list(h0) + [i for b in blocks for i in b]
    if sorted(covered) != list(range(dim)):
        raise FormatError("H0 and the blocks must partition the basis")

    # the dim^2 layouts are built only once every check has passed
    terms = [[[] for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), c in sorted(products.items()):
        if c:
            terms[i][j].append((k, c))
    return CHAlgebra(
        dim=dim,
        parity=tuple(parity),
        unit=unit - 1,
        product=tuple(tuple(map(tuple, plane)) for plane in terms),
        q=matrix(q),
        gminus=matrix(gm),
        integral=integ,
        h0=h0,
        blocks=tuple(blocks),
        name=name or obj.get("name", ""),
    )


def load_algebra(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON: {exc}") from None
        except RecursionError:
            raise FormatError("invalid JSON: nested too deeply") from None
    return parse_algebra(obj, name=os.path.splitext(os.path.basename(str(path)))[0])


# ---------------------------------------------------------------------------
# derived operators


class DerivedOps:
    """Operators and pairings determined by the algebra data.

    gplus, pi4 and pi0 are matrices in the layout of `CHAlgebra.q`.
    gplus is defined blockwise (zero on H_0; on each block e, Qe, G-e,
    QG-e it sends Qe -> e and QG-e -> G-e); pi4 = Q gplus + gplus Q and
    pi0 = Id - pi4.  The inverse pairings are computed on demand and
    raise DegeneracyError when singular.
    """

    def __init__(self, alg):
        self.parity = alg.parity
        dim = alg.dim
        gp = [[0] * dim for _ in range(dim)]
        for (a, b, c, d) in alg.blocks:
            gp[a][b] = 1
            gp[c][d] = 1
        self.gplus = tuple(tuple(row) for row in gp)
        self.pi4 = mat_add(mat_mul(alg.q, self.gplus), mat_mul(self.gplus, alg.q))
        self.pi0 = mat_sub(identity_matrix(dim), self.pi4)
        self.gram = alg.gram()
        self.eta = tuple(tuple(self.gram[a][b] for b in alg.h0) for a in alg.h0)
        self._gram_inv = None
        self._eta_inv = None

    @property
    def gram_inv(self):
        if self._gram_inv is None:
            try:
                self._gram_inv = mat_inverse(self.gram)
            except SingularMatrixError:
                raise DegeneracyError("scalar product is degenerate") from None
        return self._gram_inv

    @property
    def eta_inv(self):
        if self._eta_inv is None:
            try:
                self._eta_inv = mat_inverse(self.eta)
            except SingularMatrixError:
                raise DegeneracyError(
                    "pairing restricted to H_0 is degenerate") from None
        return self._eta_inv

    def supertrace_pi0(self):
        return supertrace(self.pi0, self.parity)


def derive_ops(alg):
    """The algebra's DerivedOps, built once per algebra object."""
    return alg.memo("ops", lambda: DerivedOps(alg))


# ---------------------------------------------------------------------------
# axiom battery


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    witness: tuple = ()
    detail: str = ""


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    @property
    def failures(self):
        return tuple(c for c in self.checks if not c.passed)

    def to_json_obj(self):
        return {
            "ok": self.ok,
            "checks": [{"name": c.name, "passed": c.passed,
                        "witness": list(c.witness), "detail": c.detail}
                       for c in self.checks],
        }

    def summary_lines(self):
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            extra = ""
            if not c.passed:
                extra = f"  witness={tuple(c.witness)}"
                if c.detail:
                    extra += f"  {c.detail}"
            lines.append(f"{status}  {c.name}{extra}")
        return lines


def check_axioms(alg):
    """Run every axiom and derived-consistency check; never raises.

    Each table entry is (name, failures): failures yields (0-based
    witness, detail) in a fixed order, and the first one is reported."""
    par, unit, der = alg.parity, alg.unit, derive_ops(alg)
    basis = range(alg.dim)
    pairs = list(product(basis, repeat=2))
    triples = list(product(basis, repeat=3))
    e, mul, integ = alg.basis_vector, alg.multiply, alg.integrate
    Q, G, GP = (partial(mat_apply, m) for m in (alg.q, alg.gminus, der.gplus))

    def combo(*terms):
        """The sparse vector sum of c * v over the (c, v) in terms."""
        out = {}
        for c, v in terms:
            for k, x in v.items():
                out[k] = out.get(k, 0) + c * x
        return {k: x for k, x in out.items() if x}

    def nonzero(mat, detail, cells=pairs):
        return (((i, j), detail) for i, j in cells if mat[i][j])

    def anticommutator(a, b):
        return mat_add(mat_mul(a, b), mat_mul(b, a))

    def invertible():
        try:
            der.gram_inv
        except DegeneracyError:
            return False
        return True

    # the products of at most two basis vectors that the checks over
    # pairs and triples share, made once per battery: e_i e_j, and for
    # the seven-term relation G(e_i e_j), G(e_i) e_j, e_i G(e_j), G(e_i)
    g_basis = [G(e(i)) for i in basis]
    ab = [[mul(e(i), e(j)) for j in basis] for i in basis]
    g_ab = [[G(v) for v in row] for row in ab]
    ga_b = [[mul(g_basis[i], e(j)) for j in basis] for i in basis]
    a_gb = [[mul(e(i), g_basis[j]) for j in basis] for i in basis]

    def seven_term_defect(i, j, k):
        a, b, c = e(i), e(j), e(k)
        sa = (-1) ** par[i]
        return combo(
            (1, G(mul(ab[i][j], c))), (-1, mul(g_ab[i][j], c)),
            (-(-1) ** (par[j] * (par[i] + 1)), mul(b, g_ab[i][k])),
            (-sa, mul(a, g_ab[j][k])), (1, mul(ga_b[i][j], c)),
            (sa, mul(a_gb[i][j], c)),
            ((-1) ** (par[i] + par[j]), mul(ab[i][j], g_basis[k])))

    def supertrace_of(f):
        """Supertrace of the linear map f, read off basis vectors."""
        return sum((-1) ** par[j] * f(e(j)).get(j, 0) for j in basis)

    def adjoint(op, label, flip):
        # int(op(a) b) = (-1)^(p_a + flip) int(a op(b))
        return (((i, j), f"{label} is not integral-adjoint") for i, j in pairs
                if integ(mul(op(e(i)), e(j)))
                != (-1) ** (par[i] + flip) * integ(mul(e(i), op(e(j)))))

    same_parity = [(i, j) for i, j in pairs if par[i] == par[j]]
    on_h0 = [(i, j) for j in alg.h0 for i in basis]
    h4 = [i for block in alg.blocks for i in block]
    table = (
        ("unit-parity", (((unit,), "unit vector must be even")
                         for p in [par[unit]] if p != EVEN)),
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
            and combo((1, ab[i][j]),
                      (-(-1) ** (par[i] * par[j]), ab[j][i])))),
        ("associativity", (((i, j, k), "(ab)c != a(bc)") for i, j, k in triples
                           if mul(ab[i][j], e(k)) != mul(e(i), ab[j][k]))),
        ("integral-parity", (((i,), "integral of an odd vector must vanish")
                             for i in basis
                             if par[i] == ODD and alg.integral[i])),
        ("pairing-nondegenerate", (((), "gram matrix is singular")
                                   for ok in [invertible()] if not ok)),
        ("q-parity", nonzero(alg.q, "Q entry does not flip parity",
                             same_parity)),
        ("gminus-parity", nonzero(alg.gminus, "G_- entry does not flip parity",
                                  same_parity)),
        ("q-squared", nonzero(mat_mul(alg.q, alg.q),
                              "Q^2 has a nonzero entry")),
        ("gminus-squared", nonzero(mat_mul(alg.gminus, alg.gminus),
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
                                (-(-1) ** par[i], mul(e(i), Q(e(j))))))),
        ("gminus-seven-term", (((i, j, k), "seven-term relation fails")
                               for i, j, k in triples
                               if seven_term_defect(i, j, k))),
        ("one-twelfth", (
            ((i,), f"str(G_- a*) = {format_rational(lhs)} but "
                   f"(1/12) str(G_-(a)*) = {format_rational(rhs)}")
            for i in basis
            for lhs, rhs in [(supertrace_of(lambda x: G(mul(e(i), x))),
                              Fraction(supertrace_of(partial(mul, G(e(i)))),
                                       12))]
            if lhs != rhs)),
        ("q-integral-adjoint", adjoint(Q, "Q", 1)),
        ("gminus-integral-adjoint", adjoint(G, "G_-", 0)),
        ("gplus-squared", nonzero(mat_mul(der.gplus, der.gplus),
                                  "G_+^2 has a nonzero entry")),
        ("gplus-gminus-anticommutator", nonzero(
            anticommutator(der.gplus, alg.gminus),
            "G_-G_+ + G_+G_- does not vanish")),
        ("gplus-integral-adjoint", adjoint(GP, "G_+", 0)),
        ("pi4-idempotent", (((), "Pi_4 is not idempotent")
                            for sq in [mat_mul(der.pi4, der.pi4)]
                            if sq != der.pi4)),
        ("hodge-pairing-orthogonal", (
            ((i, j), "H_0 and H_4 are not gram-orthogonal")
            for i in alg.h0 for j in h4 if der.gram[i][j] or der.gram[j][i])),
    )
    checks = []
    for name, failures in table:
        witness, detail = next(iter(failures), (None, ""))
        checks.append(AxiomCheck(name, witness is None,
                                 tuple(i + 1 for i in witness or ()), detail))
    return AxiomReport(tuple(checks))
