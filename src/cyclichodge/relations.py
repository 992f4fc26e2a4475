"""Differential identities of the potentials, checked as exact
polynomial statements over Q on the monomials of level-0 degree <=
`degree` (at most one arrow factor where arrows appear): a zero residual
is a proof on that window, a nonzero one a genuine counterexample.

Identities are data.  A side is a list of terms (coefficient, factors,
pairs); a coefficient is an int, a Fraction or a literal such as "7/10".
A factor is F(g, n, *derivs), a derivative of F_{g,n} along (level,
index) entries (a bare index is level 0), or a coupling T(level, index).
A pair (i, j) sums two index names against eta^{-1}, the inverse pairing
on H_0; (i, j, ETA) sums against eta, (i, j, SUM) plainly.  Other
indices are slots 1..s or free names a, b, c, d, one residual slice per
value.  Leaf budgets are derived: F_{g,n} is truncated at budget
degree + (its level-0 derivatives) - (level-0 couplings in the term),
maximized over its uses in a check.  The potential table keeps each
truncation and each derivative of it (`PotentialTable.derivative`), so
the checks of a battery over one table fetch each once.

Writing F_{g,n;...} for derivatives of F_{g,n} (a bare index at level 0)
and summing repeated i, j, k, l against eta^{-1}:
  wdvv     F_{abi} F_{jcd} = F_{aci} F_{jbd}, for F = F_{0,0}
  const    F_{ikl} F_{jmp} (m, p paired too) is a constant, reported
  string   sum_{m<=M} F_{g,m;1} = sum_{n<M} T[n+1,i] F_{g,n;(n,i)} (i summed
           plainly) + [g=0] eta_{ij} T[0,i] T[0,j] / 2, for M = degree + 2
  dilaton  F_{g,1;(1,1)} = T[0,i] F_{g,0;i} (plainly) + (2g-2) F_{g,0}
           + [g=1] str(Pi_0) / 24
  trr0     F_{0,n+1;(n+1,a)bc} = F_{0,n;(n,a)i} F_{0,0;jbc}
  trr1     F_{1,n+1;(n+1,a)} = F_{0,n;(n,a)i} F_{1,0;j} + F_{0,n;(n,a)ij} / 24
  trr2     eight terms with the coefficients 1, 1, -1, 7/10, 1/10, -1/240,
           13/240, 1/960, written out in check_trr2
"""

from collections import namedtuple
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import mul

from .algebra import derive_ops
from .poly import Poly, format_rational
from .potentials import PotentialTable

MAX_LEAF_BUDGET = 18
ETA, SUM = "eta", "sum"  # pair forms besides the default eta^{-1}
IJ, KL = ("i", "j"), ("k", "l")

Derivative = namedtuple("Derivative", "g n derivs")
T = namedtuple("T", "level index")


def F(g, n, *derivs):
    """The derivative of F_{g,n} along derivs; a bare index is level 0."""
    return Derivative(g, n, tuple(d if isinstance(d, tuple) else (0, d)
                                  for d in derivs))


class BudgetError(ValueError):
    """The requested degree needs an infeasibly large graph enumeration."""


class Residual:
    """Outcome of one identity check.

    residuals maps a slice label to the (truncated) difference of the
    two sides on that slice; ok means every slice vanished.
    """

    def __init__(self, relation, degree, params, ok, residuals, witness=None,
                 details=None):
        self.relation = relation
        self.degree = degree
        self.params = params
        self.ok = ok
        self.residuals = residuals
        self.witness = witness
        self.details = {} if details is None else details

    def to_json_obj(self):
        obj = {
            "relation": self.relation,
            "degree": self.degree,
            "params": dict(self.params),
            "ok": self.ok,
            "residuals": {label: r.to_json_obj()
                          for label, r in self.residuals.items() if not r.is_zero()},
        }
        if self.witness is not None:
            label, mono, coeff = self.witness
            obj["witness"] = {"slice": label,
                              "monomial": [[n, i] for n, i in mono],
                              "coeff": format_rational(coeff)}
        if self.details:
            det = {}
            for k, v in self.details.items():
                det[k] = (format_rational(v) if isinstance(v, (int, Fraction))
                          else v)
            obj["details"] = det
        return obj

    def summary_line(self):
        status = "pass" if self.ok else "FAIL"
        params = " ".join(f"{k}={v}" for k, v in self.params.items())
        line = f"{status}  {self.relation}"
        if params:
            line += f" [{params}]"
        line += f" @ degree {self.degree}"
        if not self.ok and self.witness is not None:
            label, mono, coeff = self.witness
            mono_txt = Poly.monomial(mono, 1).to_text()
            line += f"  witness: slice {label}, {mono_txt} -> {format_rational(coeff)}"
        return line


def _finish(relation, degree, params, residuals, details=None):
    witness = None
    for label, r in residuals.items():
        if not r.is_zero():
            mono, coeff = r.leading_witness()
            witness = (label, mono, coeff)
            break
    return Residual(relation=relation, degree=degree, params=params,
                    ok=witness is None, residuals=residuals,
                    witness=witness, details=details)


def _evaluate(alg, table, degree, free, sides):
    """[(slice label, [[term value, ...] per side])] per value of the
    free names; each derivative is read from the table's memo."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    budgets = {}
    for _, factors, _ in (term for side in sides for term in side):
        saved = sum(1 for f in factors if isinstance(f, T) and f.level == 0)
        for f in factors:
            if isinstance(f, Derivative):
                need = degree - saved + sum(lvl == 0 for lvl, _ in f.derivs)
                budgets[f.g, f.n] = max(need, budgets.get((f.g, f.n), need))
    largest = max(budgets.values(), default=0)
    if largest > MAX_LEAF_BUDGET:
        raise BudgetError(f"degree {degree} requires a leaf budget of "
                          f"{largest} > {MAX_LEAF_BUDGET}; lower the degree")
    table = table if table is not None else PotentialTable(alg)
    der = derive_ops(alg)
    s = len(alg.h0)
    entries = {form: [(i + 1, j + 1, c) for i, row in enumerate(mat)
                      for j, c in enumerate(row) if c]
               for form, mat in ((None, der.eta_inv), (ETA, der.eta))}
    entries[SUM] = [(i, i, 1) for i in range(1, s + 1)]

    def value(f, env):
        if isinstance(f, T):
            return Poly.var(f.level, env.get(f.index, f.index))
        return table.derivative(f.g, f.n, budgets[f.g, f.n], tuple(sorted(
            (lvl, env.get(i, i)) for lvl, i in f.derivs)))

    def term_value(coeff, factors, pairs, env):
        total = Poly.zero()
        for combo in product(*(entries[p[2] if len(p) > 2 else None]
                               for p in pairs)):
            bound = dict(env)
            for (i, j, *_), (x, y, _) in zip(pairs, combo):
                bound[i], bound[j] = x, y
            # the first zero factor settles the product
            parts = []
            for f in factors:
                parts.append(value(f, bound))
                if not parts[-1]:
                    break
            else:
                weight = reduce(mul, (c for _, _, c in combo), Fraction(coeff))
                total = total + reduce(mul, parts, weight)
        return total

    envs = [dict(zip(free, slots))
            for slots in product(range(1, s + 1), repeat=len(free))]
    return [(",".join(f"{k}={v}" for k, v in env.items()) or "all",
             [[term_value(*t, env) for t in side] for side in sides])
            for env in envs]


def _difference(left, right):
    return sum(left, Poly.zero()) - sum(right, Poly.zero())


def _check(relation, alg, table, degree, params, free, lhs, rhs,
           details=None, breakdown=False):
    """Residual lhs - rhs per slice; a breakdown reports the constant
    term of each rhs term and then of the lhs, per slice."""
    residuals, constants = {}, {}
    for label, sides in _evaluate(alg, table, degree, free, (lhs, rhs)):
        residuals[label] = _difference(*sides).truncate(total_degree=degree)
        if breakdown:
            constants[label] = [format_rational(t.constant_term())
                                for t in sides[1] + sides[0]]
    if breakdown:
        details = {"term_constants": constants}
    return _finish(relation, degree, params, residuals, details)


def check_wdvv(alg, degree, table=None):
    """Associativity identity for the genus-0 primary potential."""
    def side(b, c):
        return [(1, [F(0, 0, "a", b, "i"), F(0, 0, "j", c, "d")], [IJ])]
    return _check("wdvv", alg, table, degree, {}, "abcd",
                  side("b", "c"), side("c", "b"))


def check_const_relation(alg, degree, table=None):
    """Full double contraction of the genus-0 third derivatives; must be
    a constant.  The constant itself is reported, not constrained."""
    term = (1, [F(0, 0, "i", "k", "l"), F(0, 0, "j", "m", "p")],
            [IJ, KL, ("m", "p")])
    ((_, ((lhs,),)),) = _evaluate(alg, table, degree, "", ([term],))
    const = lhs.constant_term()
    return _finish("const", degree, {},
                   {"all": (lhs - const).truncate(total_degree=degree)},
                   details={"constant": const})


def check_string(alg, genus, degree, table=None):
    """Unit-direction derivative identity, compared per arrow level up
    to degree + 2 with at most one arrow factor."""
    M = degree + 2
    lhs = [(1, [F(genus, m, 1)], []) for m in range(M + 1)]
    rhs = [(1, [T(n + 1, "i"), F(genus, n, (n, "j"))], [("i", "j", SUM)])
           for n in range(M)]
    rhs.append(("1/2" if genus == 0 else 0, [T(0, "i"), T(0, "j")],
                [("i", "j", ETA)]))
    ((_, sides),) = _evaluate(alg, table, degree, "", (lhs, rhs))
    diff = _difference(*sides).truncate(total_degree=degree, arrow_degree=1,
                                        max_level=M)
    residuals = {f"level={m}": diff.arrow_part(1).substitute_zero(
        lambda n, i, m=m: n >= 1 and n != m) for m in range(1, M + 1)}
    residuals["level=0"] = diff.arrow_part(0)
    return _finish("string", degree, {"genus": genus, "max_level": M},
                   residuals)


def check_dilaton(alg, genus, degree, table=None):
    str_pi0 = derive_ops(alg).supertrace_pi0()
    rhs = [(1, [T(0, "i"), F(genus, 0, "j")], [("i", "j", SUM)]),
           (2 * genus - 2, [F(genus, 0)], []),
           (Fraction(str_pi0, 24) if genus == 1 else 0, [], [])]
    return _check("dilaton", alg, table, degree, {"genus": genus}, "",
                  [(1, [F(genus, 1, (1, 1))], [])], rhs,
                  details={"str_pi0": str_pi0})


def check_trr0(alg, n, degree, table=None):
    """Genus-0 recursion lowering the arrow level by one."""
    return _check("trr0", alg, table, degree, {"n": n}, "abc",
                  [(1, [F(0, n + 1, (n + 1, "a"), "b", "c")], [])],
                  [(1, [F(0, n, (n, "a"), "i"), F(0, 0, "j", "b", "c")], [IJ])])


def check_trr1(alg, n, degree, table=None):
    """Genus-1 recursion; the 1/24 term is the self-contracted pair."""
    rhs = [(1, [F(0, n, (n, "a"), "i"), F(1, 0, "j")], [IJ]),
           ("1/24", [F(0, n, (n, "a"), "i", "j")], [IJ])]
    return _check("trr1", alg, table, degree, {"n": n}, "a",
                  [(1, [F(1, n + 1, (n + 1, "a"))], [])], rhs, breakdown=True)


def check_trr2(alg, n, degree, table=None):
    """Genus-2 recursion lowering the arrow level by two."""
    a = (n, "a")
    rhs = [
        (1, [F(0, n + 1, (n + 1, "a"), "i"), F(2, 0, "j")], [IJ]),
        (1, [F(0, n, a, "i"), F(2, 1, (1, "j"))], [IJ]),
        (-1, [F(0, n, a, "k"), F(0, 0, "l", "i"), F(2, 0, "j")], [KL, IJ]),
        ("7/10", [F(0, n, a, "k", "i"), F(1, 0, "l"), F(1, 0, "j")], [KL, IJ]),
        ("1/10", [F(0, n, a, "i", "k"), F(1, 0, "j", "l")], [IJ, KL]),
        ("-1/240", [F(1, n, a, "i"), F(0, 0, "j", "k", "l")], [IJ, KL]),
        ("13/240", [F(0, n, a, "k", "l", "i"), F(1, 0, "j")], [KL, IJ]),
        ("1/960", [F(0, n, a, "i", "j", "k", "l")], [IJ, KL]),
    ]
    return _check("trr2", alg, table, degree, {"n": n}, "a",
                  [(1, [F(2, n + 2, (n + 2, "a"))], [])], rhs, breakdown=True)


# each check by name, with the one parameter it takes besides the degree
RELATIONS = {
    "wdvv": (None, check_wdvv),
    "const": (None, check_const_relation),
    "string": ("genus", check_string),
    "dilaton": ("genus", check_dilaton),
    "trr0": ("n", check_trr0),
    "trr1": ("n", check_trr1),
    "trr2": ("n", check_trr2),
}
_NEEDS = {"genus": "a genus", "n": "an arrow level n"}


def run_check(alg, relation, degree, genus=None, n=None, table=None):
    """Dispatch a single named check with the parameter it takes, if any;
    a missing parameter, or one it does not take, is an error."""
    if relation not in RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    takes, fn = RELATIONS[relation]
    given = {"genus": genus, "n": n}
    for name, value in given.items():
        if value is not None and name != takes:
            raise ValueError(f"{relation} takes no {name}")
    if takes is None:
        return fn(alg, degree, table=table)
    if given[takes] is None:
        raise ValueError(f"{relation} needs {_NEEDS[takes]}")
    return fn(alg, given[takes], degree, table=table)


def run_battery(alg, degree_genus0, degree_higher, table=None):
    """The full battery: WDVV and the constant relation at the genus-0
    degree; string/dilaton per genus and the recursions per level at the
    higher-genus degree."""
    if table is None:
        table = PotentialTable(alg)
    out = [check(alg, degree_genus0, table=table)
           for check in (check_wdvv, check_const_relation)]
    out += [check(alg, g, degree_higher, table=table)
            for g in (0, 1, 2) for check in (check_string, check_dilaton)]
    out += [check(alg, n, degree_higher, table=table) for n in (0, 1, 2)
            for check in (check_trr0, check_trr1, check_trr2)]
    return out
