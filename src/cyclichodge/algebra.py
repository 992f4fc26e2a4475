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
yielding its failures in a fixed order, and reports the first.  Its cost
follows the nonzero structure constants: a check over triples
(associativity, the seven-term relation) sums each term over the nonzero
entries of a table of basis products, and its witness is the least
failing triple (i, j, k); matrix products walk nonzero entries.  For
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

import json
import os
from collections import namedtuple
from fractions import Fraction
from itertools import product
from operator import attrgetter

from .graded import (EVEN, ODD, SingularMatrixError, exact, identity_matrix,
                     mat_add, mat_apply, mat_inverse, mat_mul, mat_sub,
                     supertrace, transpose)
from .poly import format_rational, parse_rational


class AlgebraError(ValueError):
    pass


class FormatError(AlgebraError):
    """The input file does not match the documented JSON layout."""


class DegeneracyError(AlgebraError):
    """The scalar product (or its restriction to H_0) is singular."""


# the fields an algebra is compared, hashed and printed by, in order
_FIELDS = ("dim", "parity", "unit", "product", "q", "gminus", "integral",
           "h0", "blocks")
_data = attrgetter(*_FIELDS)


class CHAlgebra:
    """Immutable-by-convention algebra data.  All indices are 0-based
    internally, and every value is int-first (see `graded`).

    product[i][j] lists the nonzero terms (k, c) of e_i * e_j = sum c e_k,
    ascending in k;
    q[i][j] (resp. gminus[i][j]) is the coefficient of e_i in the image
    of e_j; integral[i] is the integral of e_i.  h0 lists the basis
    indices spanning H_0 and blocks the 4-tuples (e, Qe, G-e, QG-e).

    Data derived from the algebra (its operators, its axiom report, the
    contraction tensors) is kept with the object that first asks for it,
    through `memo`; an equal algebra built separately derives its own.
    Two algebras are equal when their data is, whatever their names.
    """

    __slots__ = _FIELDS + ("name", "_memo")

    def __init__(self, dim, parity, unit, product, q, gminus, integral, h0,
                 blocks, name=""):
        self.dim = dim
        self.parity = parity
        self.unit = unit
        self.product = product
        self.q = q
        self.gminus = gminus
        self.integral = integral
        self.h0 = h0
        self.blocks = blocks
        self.name = name
        self._memo = {}

    def __repr__(self):
        fields = ", ".join(f"{field}={getattr(self, field)!r}"
                           for field in _FIELDS + ("name",))
        return f"CHAlgebra({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _data(self) == _data(other)

    def __hash__(self):
        return hash(_data(self))

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
        """Matrix of the scalar product (e_i, e_j) = integral(e_i e_j),
        read off the product terms."""
        integral = self.integral
        return tuple(tuple(exact(sum(c * integral[k] for k, c in terms))
                           for terms in row)
                     for row in self.product)

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


AxiomCheck = namedtuple("AxiomCheck", "name passed witness detail",
                        defaults=((), ""))


class AxiomReport(namedtuple("AxiomReport", "checks")):
    __slots__ = ()

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
    """The axiom report of the algebra, made once per algebra object and
    kept with it (`CHAlgebra.memo`); never raises."""
    return alg.memo("axioms", lambda: _axiom_report(alg))


def _axiom_report(alg):
    """Run every axiom and derived-consistency check.

    Each table entry is (name, failures): failures yields (0-based
    witness, detail) in a fixed order, and the first one is reported.

    The products of at most two basis vectors are made once: e_i e_j
    from the product rows, and for Q and G_- the images op(e_i),
    op(e_i e_j), op(e_i) e_j and e_i op(e_j).  The checks over pairs read
    these tables.  Each term of a check over triples is one table entry
    times one basis product, so its defect is a sum over the nonzero
    entries of the two (`least_triple`), and the witness is the least
    triple (i, j, k) whose defect is nonzero: the first a loop over the
    triples in order would meet.  The integral-adjoint checks compare
    op^T Gram with Gram op."""
    n, par, unit, der = alg.dim, alg.parity, alg.unit, derive_ops(alg)
    basis = range(n)
    pairs = list(product(basis, repeat=2))
    sgn = [(-1) ** p for p in par]

    def combo(*terms):
        """The sparse vector sum of c * v over the (c, v) in terms."""
        out = {}
        for c, v in terms:
            for k, x in v.items():
                out[k] = out.get(k, 0) + c * x
        return {k: x for k, x in out.items() if x}

    def lin(v, vectors):
        """The sparse vector sum of c * vectors[m] over the entries of v."""
        out = {}
        for m, c in v.items():
            for k, x in vectors[m].items():
                out[k] = out.get(k, 0) + c * x
        return {k: x for k, x in out.items() if x}

    def least_triple(*terms):
        """The least 0-based triple (i, j, k) at which the summed terms
        are a nonzero vector, or None.  A term (sign, x, "pq", y, "rs")
        is the sum over m of sign(p, q) x[p][q][m] * y[r][s], where p, q
        and the index of y other than m name slots of (i, j, k).
        Coordinate l at (i, j, k) is kept under the key
        ((i n + j) n + k) n + l, so the least nonzero key gives the
        least failing triple."""
        weight = {"i": n ** 3, "j": n ** 2, "k": n}
        acc = {}
        get = acc.get
        for sign, x, (s1, s2), y, (r, s) in terms:
            # offsets[m]: (key offset of coordinate l at the free slot, y
            # coefficient) over the nonzero entries of y with m in place
            w = weight[s if r == "m" else r]
            rows = y if r == "m" else list(zip(*y))
            offsets = [[(free * w + l, d) for free, v in enumerate(row)
                        for l, d in v.items()] for row in rows]
            w1, w2 = weight[s1], weight[s2]
            for p, q in pairs:
                v = x[p][q]
                sp = sign(p, q) if v else 0
                if not sp:
                    continue
                base = p * w1 + q * w2
                for m, c in v.items():
                    c *= sp
                    for off, d in offsets[m]:
                        acc[base + off] = get(base + off, 0) + c * d
        key = min((key for key, c in acc.items() if c), default=None)
        if key is not None:
            return key // n ** 3, key // n ** 2 % n, key // n % n

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

    ab = [[dict(terms) for terms in row] for row in alg.product]
    ab_columns = list(zip(*ab))

    def op_tables(mat):
        """op(e_i), and per pair op(e_i e_j), op(e_i) e_j, e_i op(e_j)."""
        img = [mat_apply(mat, {i: 1}) for i in basis]
        return (img, [[lin(v, img) for v in row] for row in ab],
                [[lin(img[i], ab_columns[j]) for j in basis] for i in basis],
                [[lin(img[j], ab[i]) for j in basis] for i in basis])

    q_img, q_ab, qa_b, a_qb = op_tables(alg.q)
    g_img, g_ab, ga_b, a_gb = op_tables(alg.gminus)
    # s_i e_i e_j, for the terms whose sign follows their free slot
    sab = [[{k: sgn[i] * c for k, c in v.items()} for v in row]
           for i, row in enumerate(ab)]

    def plus(p, q):
        return 1

    def minus(p, q):
        return -1

    # (ab)c - a(bc)
    associativity = least_triple((plus, ab, "ij", ab, "mk"),
                                 (minus, ab, "jk", ab, "im"))
    # G(abc) - G(ab)c - s_b^(p_a + 1) b G(ac) - s_a a G(bc) + G(a)bc
    # + s_a a G(b) c + s_a s_b ab G(c), the b G(ac) term split by the
    # parity of a
    seven_term = least_triple(
        (plus, ab, "ij", g_ab, "mk"),
        (minus, g_ab, "ij", ab, "mk"),
        (lambda i, k: -par[i], g_ab, "ik", ab, "jm"),
        (lambda i, k: par[i] - 1, g_ab, "ik", sab, "jm"),
        (minus, g_ab, "jk", sab, "im"),
        (plus, ga_b, "ij", ab, "mk"),
        (lambda i, j: sgn[i], a_gb, "ij", ab, "mk"),
        (lambda i, j: sgn[i] * sgn[j], ab, "ij", a_gb, "mk"))

    def adjoint(op, label, flip):
        # int(op(a) b) = (-1)^(p_a + flip) int(a op(b)), entrywise
        # op^T Gram = (-1)^(p_i + flip) Gram op
        left = mat_mul(transpose(op), der.gram)
        right = mat_mul(der.gram, op)
        return (((i, j), f"{label} is not integral-adjoint") for i, j in pairs
                if left[i][j] != (-1) ** (par[i] + flip) * right[i][j])

    same_parity = [(i, j) for i, j in pairs if par[i] == par[j]]
    on_h0 = [(i, j) for j in alg.h0 for i in basis]
    h4 = [i for block in alg.blocks for i in block]
    table = (
        ("unit-parity", (((unit,), "unit vector must be even")
                         for p in [par[unit]] if p != EVEN)),
        ("unit-multiplication", (
            (w, d) for i in basis
            for w, d, v in (((unit, i), "1 * e != e", ab[unit][i]),
                            ((i, unit), "e * 1 != e", ab[i][unit]))
            if v != {i: 1})),
        ("product-parity", (((i, j, k), "product entry breaks parity")
                            for i, j in pairs for k, _ in alg.product[i][j]
                            if (par[i] + par[j] + par[k]) % 2)),
        ("supercommutativity", (
            ((i, j), "e_i e_j != (-1)^(pi pj) e_j e_i")
            for i, j in pairs if i <= j
            and combo((1, ab[i][j]),
                      (-(-1) ** (par[i] * par[j]), ab[j][i])))),
        ("associativity", ((w, "(ab)c != a(bc)") for w in [associativity]
                           if w is not None)),
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
            for img, x, y, s in ((q_img, a, b, "Q e"), (g_img, a, c, "G_- e"),
                                 (q_img, c, d, "Q G_- e"))
            if img[x] != {y: 1})),
        ("q-leibniz", (((i, j), "Q(ab) != Q(a)b + (-1)^pa a Q(b)")
                       for i, j in pairs
                       if combo((1, q_ab[i][j]), (-1, qa_b[i][j]),
                                (-sgn[i], a_qb[i][j])))),
        ("gminus-seven-term", ((w, "seven-term relation fails")
                               for w in [seven_term] if w is not None)),
        ("one-twelfth", (
            ((i,), f"str(G_- a*) = {format_rational(lhs)} but "
                   f"(1/12) str(G_-(a)*) = {format_rational(rhs)}")
            for i in basis
            for lhs, rhs in [(sum(sgn[j] * g_ab[i][j].get(j, 0)
                                  for j in basis),
                              Fraction(sum(sgn[j] * ga_b[i][j].get(j, 0)
                                           for j in basis), 12))]
            if lhs != rhs)),
        ("q-integral-adjoint", adjoint(alg.q, "Q", 1)),
        ("gminus-integral-adjoint", adjoint(alg.gminus, "G_-", 0)),
        ("gplus-squared", nonzero(mat_mul(der.gplus, der.gplus),
                                  "G_+^2 has a nonzero entry")),
        ("gplus-gminus-anticommutator", nonzero(
            anticommutator(der.gplus, alg.gminus),
            "G_-G_+ + G_+G_- does not vanish")),
        ("gplus-integral-adjoint", adjoint(der.gplus, "G_+", 0)),
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
