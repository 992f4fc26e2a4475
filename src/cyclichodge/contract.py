"""Exact contraction of marked graphs over a cyclic Hodge algebra.

The value of a graph is a polynomial in the couplings T[n,i].  It is
the full tensor contraction of: one n-form (a1,..,an) -> integral of
a1*...*an per vertex (arguments in germ order), one bivector per edge,
and one vector per leaf.  Bivectors realize the operator named by the
edge mark through the scalar product: [A] is the unique bivector whose
contraction with (., x) on the first leg returns A(x).

Signs: with everything Z2-graded, the terms of the contraction acquire
the Koszul sign of the permutation taking the source word (edge factors
in edge order, first leg first, then leaf factors in leaf order, i.e.
plain half-edge order) to the target word (germs in plan order).  On a
chosen set of edges whose removal makes the graph a tree - one per
independent cycle - the operator is twisted by J: a -> (-1)^parity(a) a;
the result does not depend on the choice.

`evaluate_graph` eliminates half-edge variables one at a time over
sparse factor tables, greedily taking the variable whose merged factor
is cheapest (`_cheapest` walks each factor once per step) in one chain
of joins whose last join sums it out, and returns zero as soon as a
factor, built or summed out, is empty.  It carries the
Koszul sign as one flip factor over parity bits per inverted half-edge
pair, built only where both half-edges can carry an odd index; a
half-edge that can only be even flips nothing.

Its constant tensors are built on first use and kept with the algebra
object (`CHAlgebra.memo`), each holding its exact values, int-first (see
`graded`): one bivector table per (edge mark, twist), one leaf table per
leaf mark, and one vertex table per tuple of germ supports, which only
contraction builds.  A germ's support is the ascending basis indices its
edge slot or leaf table can carry, read off those tables; it also tells
which half-edges can be odd.  One fold builds the vertex table over the
supports: it multiplies basis vectors left to right, drops zero partial
products and yields each word with a nonzero integral.  Contraction
takes each vertex's table over its germs' supports in plan order.

The move rule of class generation (`live_vertex`) builds no table.
It asks whether some word over the supports of some marks integrates
nonzero, which holds exactly when the integral is nonzero on the span
of those words.  That span is kept as a row-reduced basis of at most
dim rows, built one slot at a time from the span one slot shorter, so
its cost grows with the arity rather than exponentially; each prefix's
span and each answer are kept in the memo too.

`oracle_evaluate` recomputes the same value by brute enumeration of all
nonzero edge/leaf terms with signs from an explicit bubble sort.  It
builds its own bivectors from `bivector` and `mark_matrix` on every call,
integrates each word with `CHAlgebra.integrate_basis_word` and uses none
of the kept tables, so agreement checks those as well as the elimination
bookkeeping.
"""

from collections import namedtuple
from fractions import Fraction
from functools import reduce
from itertools import product
from math import gcd, prod
from operator import itemgetter

from .algebra import derive_ops
from .graded import identity_matrix, mat_mul, transpose
from .graphs import EDGE_MARKS, leaf_basis_index, leaf_level
from .poly import Poly


# vertex_order: traversal order of vertices; germ_order[v]: the germ
# sequence of vertex v (indexed by vertex id, not by position);
# sign_edges: edge indices carrying the J twist
EvalPlan = namedtuple("EvalPlan", "vertex_order germ_order sign_edges")


def make_plan(graph):
    """Default plan: the graph's traversal (DFS from vertex 0 along
    increasing edge ids) as the vertex order; its tree edges untwisted,
    every other edge (loops included) twisted."""
    if not graph.is_connected():
        raise ValueError("plans exist for connected graphs only")
    order, tree = graph.traversal()
    return EvalPlan(
        vertex_order=order,
        germ_order=graph.germs(),
        sign_edges=frozenset(range(graph.n_edges)).difference(tree),
    )


def validate_plan(graph, plan):
    if sorted(plan.vertex_order) != list(range(graph.n_vertices)):
        raise ValueError("plan vertex order must be a permutation of the vertices")
    if len(plan.germ_order) != graph.n_vertices:
        raise ValueError("plan needs a germ order for every vertex")
    for v, germs in enumerate(graph.germs()):
        if tuple(sorted(plan.germ_order[v])) != germs:
            raise ValueError(f"germ order of vertex {v + 1} does not match the graph")
    if not all(0 <= k < graph.n_edges for k in plan.sign_edges):
        raise ValueError("sign edge index out of range")
    untwisted = [k for k in range(graph.n_edges) if k not in plan.sign_edges]
    merges = len(_forest_edges(graph, untwisted))
    if merges != len(untwisted):
        raise ValueError("untwisted edges must not close a cycle")
    if merges != graph.n_vertices - 1:
        raise ValueError("untwisted edges must form a spanning tree")


def _forest_edges(graph, edge_ids):
    """The edges of edge_ids, taken in order, that join two components of
    the edges taken before them (union-find)."""
    parent = list(range(graph.n_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    forest = []
    for k in edge_ids:
        u, v, _ = graph.edges[k]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            forest.append(k)
    return forest


def random_plan(graph, rng):
    """Uniform-ish random valid plan; rng is a random.Random."""
    if not graph.is_connected():
        raise ValueError("plans exist for connected graphs only")
    vertex_order = list(range(graph.n_vertices))
    rng.shuffle(vertex_order)
    germ_order = []
    for germs in graph.germs():
        germs = list(germs)
        rng.shuffle(germs)
        germ_order.append(tuple(germs))
    edge_ids = list(range(graph.n_edges))
    rng.shuffle(edge_ids)
    tree = set(_forest_edges(graph, edge_ids))
    return EvalPlan(tuple(vertex_order), tuple(germ_order),
                    frozenset(k for k in range(graph.n_edges) if k not in tree))


# ---------------------------------------------------------------------------
# primitive tensors


def mark_matrix(alg, mark):
    """Matrix of the operator named by an edge mark."""
    der = derive_ops(alg)
    if mark in ("ID", "IDLOOP"):
        return identity_matrix(alg.dim)
    if mark == "GG":
        return mat_mul(alg.gminus, der.gplus)
    if mark == "PI0":
        return der.pi0
    if mark == "QGP":
        return mat_mul(alg.q, der.gplus)
    if mark == "GPQ":
        return mat_mul(der.gplus, alg.q)
    if mark == "GP":
        return der.gplus
    if mark == "GM":
        return alg.gminus
    raise ValueError(f"unknown edge mark {mark!r}")


def bivector(alg, mat, twist):
    """Sparse bivector {(i, j): c} of the operator with matrix `mat`,
    optionally twisted by J.  Defining property: sum_i c[i][j] (e_i, x)
    equals the e_j-coordinate of the operator applied to x."""
    der = derive_ops(alg)
    if twist:
        mat = tuple(tuple(-x if alg.parity[i] else x for x in row)
                    for i, row in enumerate(mat))
    c = transpose(mat_mul(mat, der.gram_inv))
    return {(i, j): c[i][j]
            for i in range(alg.dim) for j in range(alg.dim) if c[i][j] != 0}


def leaf_vector(alg, mark):
    """Sparse vector {i: value}; values are Poly for coupling leaves."""
    lvl = leaf_level(mark)
    if lvl is not None:
        if any(alg.parity[i] for i in alg.h0):
            raise ValueError("coupling leaves need a purely even H_0; "
                             "odd couplings would not commute")
        return {idx: Poly.var(lvl, s + 1) for s, idx in enumerate(alg.h0)}
    if mark == "UNIT":
        return {alg.unit: 1}
    i = leaf_basis_index(mark)
    if i is None:
        raise ValueError(f"unknown leaf mark {mark!r}")
    if i >= alg.dim:
        raise ValueError(f"leaf {mark} out of range for dimension {alg.dim}")
    return {i: 1}


def _fold(alg, supports):
    """Yield (key, integral(e_key[0] * .. * e_key[-1])) for each key with
    key[s] in supports[s] and a nonzero integral, in the order of the
    supports, multiplying left to right and dropping zero partial
    products."""

    def extensions(key, vec):
        for i in supports[len(key)]:
            nv = alg.basis_vector(i) if vec is None \
                else alg.multiply(vec, alg.basis_vector(i))
            if nv:
                yield key + (i,), nv

    # depth first over partial keys, one generator of extensions per slot
    stack = [iter([((), None)])]
    while stack:
        for key, vec in stack[-1]:
            if len(key) < len(supports):
                stack.append(extensions(key, vec))
                break
            value = alg.integrate(alg.basis_vector(alg.unit) if vec is None
                                  else vec)
            if value:
                yield key, value
        else:
            stack.pop()


def _edge_tensor(alg, mark, twist):
    return alg.memo(("edge", mark, twist),
                    lambda: bivector(alg, mark_matrix(alg, mark), twist))


def _leaf_tensor(alg, mark):
    # a bad mark raises on every call
    return alg.memo(("leaf", mark), lambda: {
        (i,): val for i, val in leaf_vector(alg, mark).items()})


def _vertex_tensor(alg, supports):
    """Sparse table {(i_1,..,i_n): integral(e_i1 * .. * e_in)} over the
    keys with i_s in supports[s], a tuple of ascending basis indices per
    germ slot."""
    return alg.memo(("vertex", supports), lambda: dict(_fold(alg, supports)))


def _support(alg, mark):
    """The ascending basis indices a germ with this mark can carry: those
    on either leg of its edge table, or in its leaf table."""
    def build():
        table = (_edge_tensor(alg, mark, False) if mark in EDGE_MARKS
                 else _leaf_tensor(alg, mark))
        return tuple(sorted({i for key in table for i in key}))
    return alg.memo(("support", mark), build)


def _reduce(basis, vec):
    """vec reduced by an echelon basis {pivot: row}, each row zero below
    its pivot: empty, or with its least index no pivot.  Integer rows
    stay integer: a step scales vec by the row's pivot entry and divides
    out the common factor."""
    while vec:
        p = min(vec)
        row = basis.get(p)
        if row is None:
            return vec
        a, b = row[p], vec[p]
        keys = vec.keys() | row.keys()
        vec = {k: a * vec.get(k, 0) - b * row.get(k, 0) for k in keys}
        vec = {k: x for k, x in vec.items() if x}
        if all(type(x) is int for x in vec.values()):
            g = gcd(*vec.values())
            if g > 1:
                vec = {k: x // g for k, x in vec.items()}
    return vec


def _span(alg, supports):
    """An echelon basis {pivot: row} of the span of the words e_k1 .. e_kn
    with k_s in supports[s], built one slot at a time from the span of
    the words one slot shorter, each prefix's basis kept in the memo."""
    def build():
        if not supports:
            return {alg.unit: {alg.unit: 1}}
        basis = {}
        for row in _span(alg, supports[:-1]).values():
            for i in supports[-1]:
                vec = _reduce(basis, alg.multiply(row, {i: 1}))
                if vec:
                    basis[min(vec)] = vec
        return basis
    return alg.memo(("span", supports), build)


def live_vertex(alg, marks):
    """Whether a vertex whose germs carry these marks can be nonzero:
    whether some word e_k1 .. e_kn, each k_s in its germ's support,
    integrates nonzero.  The integral is linear, so that holds exactly
    when it is nonzero on the span of those words: on some basis row of
    the span one slot shorter times some e_i of the last support.  The
    product is graded-commutative, so one order of the germs serves, and
    sorted marks share their prefixes' spans.  Each answer is kept in
    the memo."""
    marks = tuple(sorted(marks))

    def search():
        supports = tuple(_support(alg, mark) for mark in marks)
        if not supports:
            return bool(alg.integral[alg.unit])
        return any(alg.integrate(alg.multiply(row, {i: 1}))
                   for row in _span(alg, supports[:-1]).values()
                   for i in supports[-1])
    return alg.memo(("live", marks), search)


# ---------------------------------------------------------------------------
# engine


def _picker(positions):
    """Function taking a key tuple to the tuple of its entries at
    `positions`."""
    if not positions:
        return lambda key: ()
    if len(positions) == 1:
        (p,) = positions
        return lambda key: (key[p],)
    return itemgetter(*positions)


def _join(f1, f2, var=None):
    """The product of two factors; `var`, if given, is left out of the
    output keys, so it is summed out as the product accumulates."""
    vars1, t1 = f1
    vars2, t2 = f2
    pos2 = {v: i for i, v in enumerate(vars2)}
    shared1 = [i for i, v in enumerate(vars1) if v in pos2]
    shared2 = [pos2[vars1[i]] for i in shared1]
    # an output key gathers its entries from key1 + key2, in sorted
    # variable order
    where = {v: len(vars1) + i for i, v in enumerate(vars2)}
    where.update((v, i) for i, v in enumerate(vars1))
    where.pop(var, None)
    out_vars = tuple(sorted(where))
    gather = _picker([where[v] for v in out_vars])
    key1_shared, key2_shared = _picker(shared1), _picker(shared2)
    index2 = {}
    for key2, val2 in t2.items():
        index2.setdefault(key2_shared(key2), []).append((key2, val2))
    out = {}
    for key1, val1 in t1.items():
        for key2, val2 in index2.get(key1_shared(key1), ()):
            key = gather(key1 + key2)
            term = val1 * val2
            out[key] = out[key] + term if key in out else term
    return (out_vars, {k: v for k, v in out.items() if v})


def _cheapest(factors, dim, nhe):
    """The variable whose merged factor has the fewest cells, the least
    one on a tie, or None when no factor has a variable left; a
    half-edge variable ranges over dim values, a parity bit (>= nhe)
    over 2.

    A variable's scope is its widest factor plus the variables of its
    other factors outside that one.  Walking the factors widest first,
    each variable meets its widest factor first, so one pass finds it,
    and the set of a wide factor's variables is built at most once per
    step rather than once for each of its variables."""
    order = sorted((vars_ for vars_, _ in factors), key=len, reverse=True)
    widest, extra = {}, {}
    for n, vars_ in enumerate(order):
        for v in vars_:
            if v in widest:
                extra.setdefault(v, set()).update(vars_)
            else:
                widest[v] = n
    if not widest:
        return None

    def cells(variables):
        bits = sum(w >= nhe for w in variables)
        return dim ** (len(variables) - bits) * 2 ** bits

    wide = {}

    def cost(v):
        n = widest[v]
        if n not in wide:
            wide[n] = cells(order[n]), set(order[n])
        total, inside = wide[n]
        total //= dim if v < nhe else 2
        outside = extra[v] - inside if v in extra else None
        return total * cells(outside) if outside else total

    return min(widest, key=lambda v: (cost(v), v))


def _build_factors(alg, graph, plan):
    """The factor tables of the contraction, vertex factors first, and
    per half-edge the ascending basis indices its edge or leaf table puts
    there (none where that table is empty).  When an edge or leaf table
    is empty the contraction is zero, and no vertex table is looked up
    (the first lookup of one builds it)."""
    factors = [((2 * k, 2 * k + 1),
                _edge_tensor(alg, mark, k in plan.sign_edges))
               for k, (_, _, mark) in enumerate(graph.edges)]
    factors += [((2 * graph.n_edges + j,), _leaf_tensor(alg, mark))
                for j, (_, mark) in enumerate(graph.leaves)]
    supports = [()] * graph.n_half_edges
    for vars_, table in factors:
        for h, column in zip(vars_, zip(*table)):
            supports[h] = tuple(sorted(set(column)))
    if not all(table for _, table in factors):
        return factors, supports
    germ_lists = [tuple(plan.germ_order[v]) for v in plan.vertex_order]
    return [(germs, _vertex_tensor(alg, tuple(supports[h] for h in germs)))
            for germs in germ_lists] + factors, supports


def _target_positions(graph, plan):
    target = [h for v in plan.vertex_order for h in plan.germ_order[v]]
    return {h: p for p, h in enumerate(target)}


_FLIP = {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): -1}


def _sign_factors(alg, graph, plan, supports):
    """The Koszul flip factors of a contraction over parity bits: one
    (nhe + h, nhe + h2) factor, -1 when both bits are set, per inverted
    half-edge pair (h, h2) at which an odd index can sit.

    Half-edge h can be odd only if its support (`_build_factors`) holds
    an odd index.  A half-edge that can only be even has bit 0, so every
    flip factor it would touch is identically 1 and none is built.
    """
    par = alg.parity
    odd = [h for h, support in enumerate(supports)
           if any(par[i] for i in support)]
    tpos = _target_positions(graph, plan)
    nhe = graph.n_half_edges
    return [((nhe + h, nhe + h2), _FLIP)
            for a, h in enumerate(odd) for h2 in odd[a + 1:]
            if tpos[h] > tpos[h2]]


def evaluate_graph(alg, graph, plan=None):
    """Value of a connected marked graph as a Poly in the couplings; a
    plan given by the caller is validated first."""
    if not graph.is_connected():
        raise ValueError("evaluation is defined for connected graphs")
    if plan is None:
        plan = make_plan(graph)
    else:
        validate_plan(graph, plan)
    nhe = graph.n_half_edges
    factors, supports = _build_factors(alg, graph, plan)
    if not all(table for _, table in factors):
        # an empty table (a GG edge over an algebra with no 4-blocks)
        # makes every term zero
        return Poly.zero()
    # Koszul signs through parity bits: each flip factor acts on the bit
    # variables nhe + h of two half-edges that can both carry an odd
    # index, and each bit in play is tied to the parity of its
    # half-edge's index.  Bit variables have domain 2, so the
    # elimination tables stay small where dense (index, index) sign
    # factors would blow up.
    signs = _sign_factors(alg, graph, plan, supports)
    factors += signs
    if signs:
        tie = {(i, p): 1 for i, p in enumerate(alg.parity)}
        for b in sorted({b for vars_, _ in signs for b in vars_}):
            factors.append(((b - nhe, b), tie))
    while True:
        # greedy: eliminate the variable whose merged factor is cheapest,
        # the least one on a tie
        best = _cheapest(factors, alg.dim, nhe)
        if best is None:
            break
        involved = [f for f in factors if best in f[0]]
        factors = [f for f in factors if best not in f[0]]
        # one join chain, whose last join sums `best` out; a lone factor
        # is joined with the factor of the empty product
        head = involved[:-1] or [((), {(): 1})]
        summed = _join(reduce(_join, head), involved[-1], best)
        if not summed[1]:
            # one factor is zero everywhere, so is the contraction
            return Poly.zero()
        factors.append(summed)
    result = prod(table.get((), 0) for _, table in factors)
    return result if isinstance(result, Poly) else Poly.const(result)


def oracle_evaluate(alg, graph, plan=None):
    """Same value as evaluate_graph by exhaustive term enumeration.

    Meant for cross-checking on small graphs; cost is the product of the
    nonzero term counts of all edge bivectors and leaf vectors.
    """
    if not graph.is_connected():
        raise ValueError("evaluation is defined for connected graphs")
    if plan is None:
        plan = make_plan(graph)
    validate_plan(graph, plan)
    tpos = _target_positions(graph, plan)
    nhe = graph.n_half_edges
    par = alg.parity

    edge_terms = []
    for k, (_, _, mark) in enumerate(graph.edges):
        biv = bivector(alg, mark_matrix(alg, mark), k in plan.sign_edges)
        edge_terms.append([(i, j, c) for (i, j), c in sorted(biv.items())])
    leaf_terms = []
    for (_, mark) in graph.leaves:
        vec = leaf_vector(alg, mark)
        leaf_terms.append(sorted(vec.items()))

    total = Poly.zero()
    for combo in product(*edge_terms, *leaf_terms):
        assign = {}
        coeff = Poly.const(1)
        for k in range(graph.n_edges):
            i, j, c = combo[k]
            assign[2 * k] = i
            assign[2 * k + 1] = j
            coeff = coeff * c
        for jdx in range(graph.n_leaves):
            i, val = combo[graph.n_edges + jdx]
            assign[2 * graph.n_edges + jdx] = i
            coeff = coeff * val
        # Koszul sign: bubble the source word into target order, flipping
        # the sign whenever two odd symbols swap.
        cur = list(range(nhe))
        sign = 1
        changed = True
        while changed:
            changed = False
            for t in range(nhe - 1):
                if tpos[cur[t]] > tpos[cur[t + 1]]:
                    if par[assign[cur[t]]] and par[assign[cur[t + 1]]]:
                        sign = -sign
                    cur[t], cur[t + 1] = cur[t + 1], cur[t]
                    changed = True
        val = Fraction(sign)
        for v in plan.vertex_order:
            word = [assign[h] for h in plan.germ_order[v]]
            val *= alg.integrate_basis_word(word)
            if val == 0:
                break
        if val != 0:
            total = total + coeff * val
    return total
