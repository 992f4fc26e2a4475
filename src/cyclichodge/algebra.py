"""Finite-dimensional cyclic Hodge algebras over Q.

A cyclic Hodge algebra is a supercommutative unital algebra H with two
odd operators Q (a derivation) and G_- (a second-order operator), an
even integral, and a splitting H = H_0 (+) H_4 where Q and G_- kill H_0
and H_4 decomposes into 4-dimensional blocks spanned by
e, Q e, G_- e, Q G_- e.  From that splitting one derives G_+, the
projections Pi_0 / Pi_4, and the pairings used by the contraction
engine.  This module loads such algebras from JSON, computes the derived
operators, and runs the complete axiom battery with witnesses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .graded import (EVEN, ODD, SingularMatrixError, identity_matrix,
                     mat_add, mat_apply, mat_inverse, mat_mul, mat_sub,
                     supertrace, vec_add, vec_scale)
from .poly import format_rational, parse_rational


class AlgebraError(ValueError):
    pass


class FormatError(AlgebraError):
    """The input file does not match the documented JSON layout."""


class DegeneracyError(AlgebraError):
    """The scalar product (or its restriction to H_0) is singular."""


@dataclass(frozen=True)
class CHAlgebra:
    """Immutable algebra data.  All indices are 0-based internally.

    product[i][j][k] is the coefficient of e_k in e_i * e_j;
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

    def basis_product(self, i, j):
        """Sparse product e_i * e_j as {index: coefficient}."""
        row = self.product[i][j]
        return {k: c for k, c in enumerate(row) if c != 0}

    def multiply(self, u, v):
        """Product of two sparse coordinate vectors."""
        out = {}
        for i, ci in u.items():
            if ci == 0:
                continue
            for j, cj in v.items():
                c = ci * cj
                if c == 0:
                    continue
                for k, m in enumerate(self.product[i][j]):
                    if m != 0:
                        out[k] = out.get(k, Fraction(0)) + c * m
        return {k: c for k, c in out.items() if c != 0}

    def multiply_basis_right(self, u, j):
        """u * e_j for a sparse vector u."""
        out = {}
        for i, ci in u.items():
            for k, m in enumerate(self.product[i][j]):
                if m != 0:
                    out[k] = out.get(k, Fraction(0)) + ci * m
        return {k: c for k, c in out.items() if c != 0}

    def integrate(self, u):
        total = Fraction(0)
        for i, c in u.items():
            total += c * self.integral[i]
        return total

    def integrate_basis_word(self, word):
        """Integral of e_{i1} * ... * e_{in}, multiplied left to right."""
        if not word:
            return self.integral[self.unit]
        vec = {word[0]: Fraction(1)}
        for i in word[1:]:
            vec = self.multiply_basis_right(vec, i)
            if not vec:
                return Fraction(0)
        return self.integrate(vec)

    def left_mult_matrix(self, u):
        """Matrix of v -> u * v for a sparse vector u."""
        mat = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for i, ci in u.items():
            for j in range(self.dim):
                for k, m in enumerate(self.product[i][j]):
                    if m != 0:
                        mat[k][j] += ci * m
        return tuple(tuple(row) for row in mat)

    def gram(self):
        """Matrix of the scalar product (e_i, e_j) = integral(e_i e_j)."""
        return tuple(tuple(self.integrate(self.basis_product(i, j))
                           for j in range(self.dim))
                     for i in range(self.dim))

    def basis_vector(self, i):
        return {i: Fraction(1)}

    # -- serialization -----------------------------------------------------

    def to_json_obj(self):
        prod = []
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    c = self.product[i][j][k]
                    if c != 0:
                        prod.append([i + 1, j + 1, k + 1, format_rational(c)])

        def op_entries(mat):
            ents = []
            for i in range(self.dim):
                for j in range(self.dim):
                    if mat[i][j] != 0:
                        ents.append([i + 1, j + 1, format_rational(mat[i][j])])
            return ents

        obj = {
            "dim": self.dim,
            "parity": list(self.parity),
            "unit": self.unit + 1,
            "product": prod,
            "Q": op_entries(self.q),
            "Gminus": op_entries(self.gminus),
            "integral": [format_rational(c) for c in self.integral],
            "hodge": {"H0": [i + 1 for i in self.h0],
                      "blocks": [[i + 1 for i in b] for b in self.blocks]},
        }
        if self.name:
            obj["name"] = self.name
        return obj


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

    prod = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    seen = set()
    if not isinstance(product_entries, list):
        raise FormatError("product must be a list of [i, j, k, coeff] entries")
    for ent in product_entries:
        if not isinstance(ent, list) or len(ent) != 4:
            raise FormatError(f"bad product entry {ent!r}")
        i = check_index(ent[0], "product")
        j = check_index(ent[1], "product")
        k = check_index(ent[2], "product")
        if (i, j, k) in seen:
            raise FormatError(f"duplicate product entry for ({ent[0]},{ent[1]},{ent[2]})")
        seen.add((i, j, k))
        try:
            prod[i][j][k] = parse_rational(ent[3])
        except ValueError as exc:
            raise FormatError(str(exc)) from None

    def parse_op(entries, what):
        mat = [[Fraction(0)] * dim for _ in range(dim)]
        seen_ij = set()
        if not isinstance(entries, list):
            raise FormatError(f"{what} must be a list of [i, j, coeff] entries")
        for ent in entries:
            if not isinstance(ent, list) or len(ent) != 3:
                raise FormatError(f"bad {what} entry {ent!r}")
            i = check_index(ent[0], what)
            j = check_index(ent[1], what)
            if (i, j) in seen_ij:
                raise FormatError(f"duplicate {what} entry for ({ent[0]},{ent[1]})")
            seen_ij.add((i, j))
            try:
                mat[i][j] = parse_rational(ent[2])
            except ValueError as exc:
                raise FormatError(str(exc)) from None
        return tuple(tuple(row) for row in mat)

    q = parse_op(q_entries, "Q")
    gm = parse_op(g_entries, "Gminus")

    if not isinstance(integral, list) or len(integral) != dim:
        raise FormatError("integral must be a list of dim rationals")
    try:
        integ = tuple(parse_rational(c) for c in integral)
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

    return CHAlgebra(
        dim=dim,
        parity=tuple(parity),
        unit=unit - 1,
        product=tuple(tuple(tuple(row) for row in plane) for plane in prod),
        q=q,
        gminus=gm,
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
    import os
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
        gp = [[Fraction(0)] * dim for _ in range(dim)]
        for (a, b, c, d) in alg.blocks:
            gp[a][b] = Fraction(1)
            gp[c][d] = Fraction(1)
        self.gplus = tuple(tuple(row) for row in gp)
        self.pi4 = mat_add(mat_mul(alg.q, self.gplus), mat_mul(self.gplus, alg.q))
        ident = identity_matrix(dim)
        self.pi0 = mat_sub(ident, self.pi4)
        assert mat_add(self.pi0, self.pi4) == ident
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


def _first_failure(gen):
    """gen yields (witness, detail) for failures; None means all passed."""
    for witness, detail in gen:
        return False, witness, detail
    return True, (), ""


def check_axioms(alg):
    """Run every axiom and derived-consistency check; never raises."""
    dim = alg.dim
    par = alg.parity
    checks = []

    def add(name, gen):
        passed, witness, detail = _first_failure(gen)
        checks.append(AxiomCheck(name, passed, witness, detail))

    def unit_parity():
        if par[alg.unit] != EVEN:
            yield (alg.unit + 1,), "unit vector must be even"

    def unit_mult():
        one = alg.basis_vector(alg.unit)
        for i in range(dim):
            e = alg.basis_vector(i)
            if alg.multiply(one, e) != e:
                yield (alg.unit + 1, i + 1), "1 * e != e"
                return
            if alg.multiply(e, one) != e:
                yield (i + 1, alg.unit + 1), "e * 1 != e"
                return

    def product_parity():
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    if alg.product[i][j][k] != 0 and (par[i] + par[j]) % 2 != par[k]:
                        yield (i + 1, j + 1, k + 1), "product entry breaks parity"
                        return

    def supercomm():
        for i in range(dim):
            for j in range(i, dim):
                sign = -1 if par[i] and par[j] else 1
                lhs = alg.basis_product(i, j)
                rhs = vec_scale(sign, alg.basis_product(j, i))
                if lhs != rhs:
                    yield (i + 1, j + 1), "e_i e_j != (-1)^(pi pj) e_j e_i"
                    return

    def assoc():
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    lhs = alg.multiply_basis_right(alg.basis_product(i, j), k)
                    rhs = alg.multiply(alg.basis_vector(i), alg.basis_product(j, k))
                    if lhs != rhs:
                        yield (i + 1, j + 1, k + 1), "(ab)c != a(bc)"
                        return

    def integral_parity():
        for i in range(dim):
            if par[i] == ODD and alg.integral[i] != 0:
                yield (i + 1,), "integral of an odd vector must vanish"
                return

    def pairing_nondeg():
        try:
            mat_inverse(alg.gram())
        except SingularMatrixError:
            yield (), "gram matrix is singular"

    def op_parity(mat, opname):
        def gen():
            for i in range(dim):
                for j in range(dim):
                    if mat[i][j] != 0 and (par[i] + par[j]) % 2 != 1:
                        yield (i + 1, j + 1), f"{opname} entry does not flip parity"
                        return
        return gen

    def op_square_zero(mat, opname):
        def gen():
            sq = mat_mul(mat, mat)
            for i in range(dim):
                for j in range(dim):
                    if sq[i][j] != 0:
                        yield (i + 1, j + 1), f"{opname}^2 has a nonzero entry"
                        return
        return gen

    def anticommute(mat_a, mat_b, label):
        def gen():
            ab, ba = mat_mul(mat_a, mat_b), mat_mul(mat_b, mat_a)
            for i in range(dim):
                for j in range(dim):
                    if ab[i][j] + ba[i][j] != 0:
                        yield (i + 1, j + 1), f"{label} does not vanish"
                        return
        return gen

    def kills_h0(mat, opname):
        def gen():
            for j in alg.h0:
                for i in range(dim):
                    if mat[i][j] != 0:
                        yield (i + 1, j + 1), f"{opname} must vanish on H_0"
                        return
        return gen

    def block_structure():
        for (a, b, c, d) in alg.blocks:
            if mat_apply(alg.q, alg.basis_vector(a)) != alg.basis_vector(b):
                yield (a + 1, b + 1), "Q e != (Q e) generator of the block"
                return
            if mat_apply(alg.gminus, alg.basis_vector(a)) != alg.basis_vector(c):
                yield (a + 1, c + 1), "G_- e != (G_- e) generator of the block"
                return
            if mat_apply(alg.q, alg.basis_vector(c)) != alg.basis_vector(d):
                yield (c + 1, d + 1), "Q G_- e != (Q G_- e) generator of the block"
                return

    def leibniz():
        def qv(vec):
            return mat_apply(alg.q, vec)

        for i in range(dim):
            for j in range(dim):
                lhs = qv(alg.basis_product(i, j))
                rhs = vec_add(
                    alg.multiply(qv(alg.basis_vector(i)), alg.basis_vector(j)),
                    vec_scale(-1 if par[i] else 1,
                              alg.multiply(alg.basis_vector(i),
                                           qv(alg.basis_vector(j)))))
                if lhs != rhs:
                    yield (i + 1, j + 1), "Q(ab) != Q(a)b + (-1)^pa a Q(b)"
                    return

    def seven_term():
        def gv(vec):
            return mat_apply(alg.gminus, vec)

        for i in range(dim):
            a = alg.basis_vector(i)
            ga = gv(a)
            for j in range(dim):
                b = alg.basis_vector(j)
                ab = alg.basis_product(i, j)
                gab = gv(ab)
                gb = gv(b)
                for k in range(dim):
                    c = alg.basis_vector(k)
                    abc = alg.multiply_basis_right(ab, k)
                    lhs = gv(abc)
                    ac = alg.basis_product(i, k)
                    bc = alg.basis_product(j, k)
                    s_a = -1 if par[i] else 1
                    s_b_a1 = -1 if par[j] and not par[i] else 1
                    s_ab = -1 if (par[i] + par[j]) % 2 else 1
                    rhs = alg.multiply_basis_right(gab, k)
                    rhs = vec_add(rhs, vec_scale(s_b_a1, alg.multiply(b, gv(ac))))
                    rhs = vec_add(rhs, vec_scale(s_a, alg.multiply(a, gv(bc))))
                    rhs = vec_add(rhs, vec_scale(-1, alg.multiply_basis_right(
                        alg.multiply(ga, b), k)))
                    rhs = vec_add(rhs, vec_scale(-s_a, alg.multiply_basis_right(
                        alg.multiply(a, gb), k)))
                    rhs = vec_add(rhs, vec_scale(-s_ab, alg.multiply(ab, gv(c))))
                    if lhs != rhs:
                        yield (i + 1, j + 1, k + 1), "seven-term relation fails"
                        return

    def one_twelfth():
        gm = alg.gminus
        for i in range(dim):
            la = alg.left_mult_matrix(alg.basis_vector(i))
            lhs = supertrace(mat_mul(gm, la), par)
            lga = alg.left_mult_matrix(mat_apply(gm, alg.basis_vector(i)))
            rhs = Fraction(1, 12) * supertrace(lga, par)
            if lhs != rhs:
                yield (i + 1,), (f"str(G_- a*) = {format_rational(lhs)} but "
                                 f"(1/12) str(G_-(a)*) = {format_rational(rhs)}")
                return

    def op_adjoint(mat, opname, sign_flip):
        # integral(op(a) b) = s(a) integral(a op(b)), s(a) = (-1)^(pa+flip)
        def gen():
            for i in range(dim):
                oa = mat_apply(mat, alg.basis_vector(i))
                sign = (-1) ** ((par[i] + sign_flip) % 2)
                for j in range(dim):
                    lhs = alg.integrate(alg.multiply_basis_right(oa, j))
                    rhs = sign * alg.integrate(
                        alg.multiply(alg.basis_vector(i),
                                     mat_apply(mat, alg.basis_vector(j))))
                    if lhs != rhs:
                        yield (i + 1, j + 1), f"{opname} is not integral-adjoint"
                        return
        return gen

    add("unit-parity", unit_parity())
    add("unit-multiplication", unit_mult())
    add("product-parity", product_parity())
    add("supercommutativity", supercomm())
    add("associativity", assoc())
    add("integral-parity", integral_parity())
    add("pairing-nondegenerate", pairing_nondeg())
    add("q-parity", op_parity(alg.q, "Q")())
    add("gminus-parity", op_parity(alg.gminus, "G_-")())
    add("q-squared", op_square_zero(alg.q, "Q")())
    add("gminus-squared", op_square_zero(alg.gminus, "G_-")())
    add("q-gminus-anticommutator", anticommute(alg.q, alg.gminus, "QG_- + G_-Q")())
    add("q-kills-h0", kills_h0(alg.q, "Q")())
    add("gminus-kills-h0", kills_h0(alg.gminus, "G_-")())
    add("block-structure", block_structure())
    add("q-leibniz", leibniz())
    add("gminus-seven-term", seven_term())
    add("one-twelfth", one_twelfth())
    add("q-integral-adjoint", op_adjoint(alg.q, "Q", 1)())
    add("gminus-integral-adjoint", op_adjoint(alg.gminus, "G_-", 0)())

    der = derive_ops(alg)
    add("gplus-squared", op_square_zero(der.gplus, "G_+")())
    add("gplus-gminus-anticommutator",
        anticommute(der.gplus, alg.gminus, "G_-G_+ + G_+G_-")())
    add("gplus-integral-adjoint", op_adjoint(der.gplus, "G_+", 0)())

    def pi4_idempotent():
        sq = mat_mul(der.pi4, der.pi4)
        if sq != der.pi4:
            yield (), "Pi_4 is not idempotent"

    def hodge_orthogonal():
        block_idx = [i for b in alg.blocks for i in b]
        for i in alg.h0:
            for j in block_idx:
                if der.gram[i][j] != 0 or der.gram[j][i] != 0:
                    yield (i + 1, j + 1), "H_0 and H_4 are not gram-orthogonal"
                    return

    add("pi4-idempotent", pi4_idempotent())
    add("hodge-pairing-orthogonal", hodge_orthogonal())

    return AxiomReport(tuple(checks))
