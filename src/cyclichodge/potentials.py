"""Genus-expanded potentials as weighted sums of marked graphs.

The primary (no-arrow) genus-g sum runs over connected trivalent graphs
with GG edges and E0 leaves, weighted 1/|Aut|.  The level-n one-point
sum runs over graphs with one special vertex carrying the E<n> arrow
leaf and g' IDLOOP handles (every other vertex trivalent, every other
edge GG, every other leaf E0), weighted (1/12)^g' / |Aut|; with m'
non-handle germs at the special vertex, n = 3 g' - 3 + m'.

Leaf counts organize the sums: a class with exactly l E0 leaves
contributes monomials with exactly l level-0 factors, so the potential
truncated to l <= L is exact in every monomial it keeps.

Both sums grow their classes from a rose, one vertex 0 carrying g - g'
GG loops, the g' handles, the arrow (one-point sum only) and all E0
leaves, by V - 1 splits.  A split moves an unordered pair of GG
half-edges or E0 leaves off vertex 0 onto a new vertex w joined to
vertex 0 by a GG edge.  It keeps the graph connected and its genus and
leaves w trivalent, so vertex 0 ends with exactly its required germs;
contracting a GG edge between vertex 0 and a plain vertex undoes it.
Classes are stored as canonical representatives: contraction cost
depends on the labeling (one sign factor per inverted pair of
half-edges that can both be odd), so it must not follow generation.

A graph is split once per orbit of such pairs under its vertex
automorphisms, and every one of them fixes vertex 0: a graph that is
split has every vertex but 0 trivalent, since each split makes w
trivalent and later splits move germs off vertex 0 only, while vertex 0
carries the arrow or, still holding the germs that later splits move
off, has degree 4 or more.  Each germ is named by its far end: the
neighbour of a GG edge, vertex 0 for a GG loop end, none for a leaf.
Two pairs share an orbit when an automorphism maps the far ends of one
onto those of the other and either both or neither are the two ends of
one loop; `MarkedGraph.orbits` reads this from the automorphisms that
generate the group.  The vertex map then lifts to a half-edge
automorphism taking one pair to the other, since parallel GG edges, GG
loops, the ends of a loop and the E0 leaves at a vertex can each be
permuted freely; so the two children are isomorphic, and keeping one
loses no class.

Each class is built once, by canonical augmentation (McKay, J.
Algorithms 26 (1998)): a child is kept only if its new edge {0, w} is
canonical, and no graph is deduplicated.  There are two rules:
- Rooted steps: every step of a one-point sum, and every step of a
  primary sum but the last.  The child's vertex 0 has degree >= 4 or
  carries the arrow, so every automorphism fixes it.  The edges a split
  can have made are the non-loop GG edges at vertex 0.  The child is
  kept iff w is in the automorphism orbit of the canonical such
  neighbour.
- The last step of a primary sum.  The child is trivalent, so vertex 0
  is like any other, and any non-loop GG edge can be the one made last.
  The child is kept iff {0, w} is in the automorphism orbit of the
  canonical non-loop GG edge.  Here a pair and its complement give the
  same graph with 0 and w swapped, so the split takes one pair per
  orbit of {pair, complement}.
The canonical edge has the greatest local invariant (its multiplicity,
and the leaves and loops at its ends), and among ties the ends first in
the canonical ordering; both are isomorphism-invariant, and only a tie
takes the canonical-form search.

Each layer then holds one graph per class, by induction.  Complete:
contracting a class's canonical edge gives a graph of the previous
layer's class; that layer's graph has a split in the same orbit, and
its child is the class with the new edge canonical, so it is kept.
Duplicate-free: an isomorphism between two kept children maps canonical
edges to canonical edges, so after an automorphism it takes new edge to
new edge.  It then restricts to an isomorphism between their parents,
one graph of the previous layer, taking one pair to the other or, if it
swaps 0 and w, to its complement.  The split took one pair of that
orbit, so the two children are one graph.

Every split is an allowed move, tested before its child is built
(`_move`).  Vertex 0's IDLOOP ends and its arrow never move, and a split
takes k of its GG germs and 2 - k of its E0 leaves (k = 0, 1 or 2) and
gives one GG germ back, making a vertex w that carries GG and the two
germs taken and keeps them for good.  So a state is the fixed marks, the
two counts and the splits left.  A move is allowed when vertex 0 holds
its germs, its w is live and the state after it can end live: some
sequence of allowed moves, one per split left, ends at a live vertex 0
(`_reach`).  A rose is built only if its state can end live.  Given an
algebra, a vertex is live when some word over its germs' supports
integrates nonzero (`contract.live_vertex`: a GG half-edge carries the
indices on either leg of the GG edge table, an E<k> leaf those of H_0),
and the answers are memoised with the algebra (`CHAlgebra.memo`).
Without one every vertex is live, and a state can end live when vertex
0 has more GG germs and E0 leaves than splits left, each split taking
two and giving one back; this drops the one-handle rose of a genus-2
level-1 sum, whose vertex 0 would end with the arrow and the handle.

The rule keeps every class whose vertices are all live, hence every
nonzero class, and the argument above holds under it: contracting a
kept class's canonical edge gives a graph whose state is on the way to
the class, so its state can end live and, by induction, it is in the
previous layer; the split that restores the class makes one of the
class's vertices and leaves a state that ends at the class, so it is an
allowed move.  Over an algebra with no 4-blocks the GG table is empty,
so only a rose with no GG loop that needs no split is kept.

In a primary sum, the canonical look-ahead drops a child whose last
split, still to come, cannot make a canonical edge.  An edge between two vertices other than 0 is final: later splits move
germs off vertex 0 only, so its multiplicity, the leaves and loops at
its ends and hence its local invariant never change.  Vertex 0's E0
leaves and GG loops never grow, so the last split's new edge {0, w} has
at most the greatest invariant over every four-germ vertex 0 with at
most those counts and each pairing of its germs (`_last_bound`).  A
child with a final edge of strictly greater invariant has no class
below it, so it is dropped, while every graph on the way to a class has
it below; a tie is kept, since it can still win on the canonical
ordering.
"""

from collections import namedtuple
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import factorial

from .algebra import AlgebraError, check_axioms
from .contract import evaluate_graph, live_vertex
from .graphs import (MarkedGraph, is_valid_descendant_graph,
                     is_valid_smooth_graph)
from .poly import Poly


# one isomorphism class in a potential sum: its MarkedGraph, its weight
# (a Fraction), |Aut| and its number of handles
WeightedGraphClass = namedtuple("WeightedGraphClass",
                                "graph weight aut_order handles")


# ---------------------------------------------------------------------------
# class generation: split a one-vertex rose


def _split(graph, alg, fixed, left):
    """One graph for each orbit of unordered pairs of GG half-edges or E0
    leaves at vertex 0 whose move the rule allows (`_move`, with `left`
    splits after this one), moved off vertex 0 onto a new vertex w joined
    to vertex 0 by GG.  A pair is named by the far ends of its germs and
    whether they are the two ends of a loop, and its orbit is that name's
    orbit under the graph's automorphisms, which all fix vertex 0.  The
    last split of a primary sum (no fixed marks, none left) makes the
    child trivalent, and a pair and its complement give the same class,
    so there is one graph for each orbit of {pair, complement}."""
    w = graph.n_vertices
    # a germ is (table, entry, end): table 0 holds edges (GG germs), table
    # 1 leaves (E0); end is the vertex at the germ's far end (0 for a
    # loop), -1 for a leaf
    germs = [(0, e, edge[1 - slot])
             for e, edge in enumerate(graph.edges)
             if edge[2] == "GG" for slot in (0, 1) if edge[slot] == 0]
    gg = len(germs)
    germs += [(1, j, -1) for j, leaf in enumerate(graph.leaves)
              if leaf == (0, "E0")]
    # whether a pair of k GG germs may move
    allowed = [_move(alg, fixed, gg, len(germs) - gg, left, k)
               for k in range(3)]

    def name(pair):
        # the far ends, and whether the germs are the two ends of a loop
        return (tuple(sorted(end for (*_, end) in pair)),
                pair[0][:2] == pair[1][:2])

    def image(p, key):
        ends, loop = key
        return tuple(sorted(p[end] if end >= 0 else end for end in ends)), loop

    # rest names what a pair is taken with: itself, or its complement
    pairs = list(combinations(germs, 2))
    names = rest = [name(pair) for pair in pairs]
    if not fixed and not left:
        # each {pair, complement} once: the pairs holding the first germ,
        # whose complements are the last three pairs in reverse order
        pairs, rest = pairs[:3], names[:2:-1]
    # a pair's orbit id, the lesser of its own and the one it is taken with
    ids = graph.orbits(names + rest, image)
    taken = set()
    for pair, (_, loop), orbit in zip(pairs, names,
                                      map(min, ids, ids[len(names):])):
        if orbit in taken or not allowed[2 - pair[0][0] - pair[1][0]]:
            continue
        taken.add(orbit)
        # the parent's tuples with the pair's ends at w: an edge keeps
        # its far end, which is less than w, or is a loop at w
        edges, leaves = list(graph.edges), list(graph.leaves)
        for table, entry, end in pair:
            if table:
                leaves[entry] = (w, "E0")
            else:
                edges[entry] = (w, w, "GG") if loop else (end, w, "GG")
        edges.append((0, w, "GG"))
        yield MarkedGraph._checked(w + 1, tuple(edges), tuple(leaves))


def _local(graph):
    """Vertex 0's counts of leaves and loops, and each non-loop edge's
    local invariant, keyed by its ends: its multiplicity, and the counts
    of leaves and loops at its ends, least first."""
    V = graph.n_vertices
    leaves, loops = [0] * V, [0] * V
    parallel = {}
    for (u, v, _) in graph.edges:
        if u == v:
            loops[u] += 1
        else:
            parallel[u, v] = parallel.get((u, v), 0) + 1
    for (v, _) in graph.leaves:
        leaves[v] += 1
    local = list(zip(leaves, loops))
    return local[0], {(u, v): (count, sorted((local[u], local[v])))
                      for (u, v), count in parallel.items()}


def _canonical(graph, rooted):
    """Whether the split that made the last vertex w made a canonical
    edge: whether {0, w} is in the automorphism orbit of the canonical
    one among the edges whose contraction undoes a split.

    Those are the non-loop edges (all GG) at vertex 0 on a rooted step,
    or all of them after the last split of a primary sum.  The canonical
    one has the greatest local invariant, and among ties the ends first
    in the canonical ordering; so only a tie takes the canonical-form
    search.  A rose, made by no split, is canonical.
    """
    V = graph.n_vertices
    if V == 1:
        return True
    _, invariant = _local(graph)
    if rooted:
        invariant = {edge: inv for edge, inv in invariant.items()
                     if edge[0] == 0}
    w = V - 1
    best = max(invariant.values())
    if invariant[0, w] != best:
        return False
    ties = [edge for edge, inv in invariant.items() if inv == best]
    if len(ties) == 1:
        return True
    position = {v: i for i, v in enumerate(graph.canonical_ordering())}
    canonical = min(ties, key=lambda edge: sorted(position[v] for v in edge))
    a, b = graph.orbits([canonical, (0, w)],
                        lambda p, edge: tuple(sorted(map(p.__getitem__, edge))))
    return a == b


@cache
def _last_bound(leaves, loops):
    """The greatest local invariant that the last split of a primary sum
    can give its new edge {0, w} when vertex 0 has `leaves` E0 leaves and
    `loops` GG loops, at most four and two: the greatest over every
    four-germ vertex 0 with at most that many of each, its other germs
    non-loop GG, and over each pairing of its germs into the two moved
    to w and the two kept."""
    best = ()
    for k in range(loops + 1):
        for e in range(min(leaves, 4 - 2 * k) + 1):
            # a germ is the number of its loop, "E0" for a leaf or None
            # for a non-loop GG germ
            germs = [i // 2 for i in range(2 * k)] + ["E0"] * e
            germs += [None] * (4 - len(germs))
            for j in (1, 2, 3):
                moved = (germs[0], germs[j])
                kept = [x for i, x in enumerate(germs) if i not in (0, j)]
                ends = [(side.count("E0"),
                         sum(side.count(i) == 2 for i in range(k)))
                        for side in (moved, kept)]
                split = sum(moved.count(i) == 1 for i in range(k))
                best = max(best, (1 + split, sorted(ends)))
    return best


def _may_win(graph):
    """Whether the last split of a primary sum, still to come, can make a
    canonical edge: whether no edge away from vertex 0, final already,
    has a local invariant greater than `_last_bound` of vertex 0's
    counts."""
    (leaves, loops), invariant = _local(graph)
    # four germs hold at most four leaves and two loops
    bound = _last_bound(min(leaves, 4), min(loops, 2))
    return all(inv <= bound for (u, _), inv in invariant.items() if u)


def _move(alg, fixed, gg, e0, left, k):
    """Whether a split may take k GG germs and 2 - k E0 leaves (k = 0, 1
    or 2) off vertex 0, which carries the marks `fixed` that no split
    moves, gg GG germs and e0 E0 leaves, with `left` splits after it:
    whether vertex 0 holds them, the new vertex, which carries GG and the
    two germs taken, is live, and vertex 0, given one GG germ back, can
    still end live (`_reach`).  Without an algebra every vertex is live,
    and this is the split count."""
    if gg < k or e0 < 2 - k:
        return False
    after = (fixed, gg + 1 - k, e0 - 2 + k, left)
    if alg is None:
        return _reach(alg, *after)
    return alg.memo(("move", k) + after, lambda: live_vertex(
        alg, ("GG",) * (k + 1) + ("E0",) * (2 - k)) and _reach(alg, *after))


def _reach(alg, fixed, gg, e0, left):
    """Whether vertex 0, carrying the marks `fixed`, gg GG germs and e0 E0
    leaves, can end live after `left` more splits, each an allowed move
    (`_move`); with none left, whether it is live.  Without an algebra
    every vertex is live, and the counts answer: each split takes two
    germs and gives one back, so vertex 0 needs more germs than splits
    left."""
    if alg is None:
        return not left or gg + e0 > left
    if not left:
        return live_vertex(alg, fixed + ("GG",) * gg + ("E0",) * e0)
    return any(_move(alg, fixed, gg, e0, left - 1, k) for k in range(3))


def _children(layer, alg, fixed, left):
    """The children of the layer's canonical graphs by the moves allowed
    with `left` splits after them, and in a primary sum (no fixed marks)
    before its last split, only those whose last edge can still be
    canonical.  A generator function, so each layer binds its own `left`
    when it is called."""
    for graph in layer:
        if _canonical(graph, True):
            for child in _split(graph, alg, fixed, left):
                if fixed or not left or _may_win(child):
                    yield child


def _classes(roses, valid, alg):
    """The weighted classes grown from each (rose, the marks at vertex 0
    that no split moves, number of splits), as canonical representatives
    in canonical-form order; given an algebra, only those whose vertices
    are all live over it."""
    found = {}
    for rose, fixed, splits in roses:
        # a graph takes the canonical test only when it is split or
        # finished, after the look-ahead, which is cheaper than the
        # search of a tie
        layer = [rose]
        for left in reversed(range(splits)):
            layer = _children(layer, alg, fixed, left)
        # a finished graph's last step is rooted when it carries the arrow
        for graph in layer:
            if _canonical(graph, bool(fixed)):
                key = graph.canonical_form()
                assert key not in found, graph
                found[key] = graph
    classes = []
    for key in sorted(found):
        graph = found[key].canonical_graph()
        ok, why = valid(graph)
        assert ok, why
        handles = sum(m == "IDLOOP" for (_, _, m) in graph.edges)
        aut = found[key].automorphism_order()
        classes.append(WeightedGraphClass(
            graph, Fraction(1, 12) ** handles / aut, aut, handles))
    return classes


def enumerate_sm(g, L, alg=None):
    """Classes of the genus-g primary sum with exactly L leaves; given an
    algebra, only those whose vertices are all live there."""
    if g < 0 or L < 0:
        raise ValueError("genus and leaf count must be nonnegative")
    V = 2 * g - 2 + L
    if V < 1 or not _reach(alg, (), 2 * g, L, V - 1):
        return []
    rose = MarkedGraph(1, [(0, 0, "GG")] * g, [(0, "E0")] * L)
    return _classes([(rose, (), V - 1)],
                    lambda graph: is_valid_smooth_graph(graph, g), alg)


def enumerate_desc(g, n, L, alg=None):
    """Classes of the genus-g level-n one-point sum with exactly L E0
    leaves (n >= 1); given an algebra, only those whose vertices are all
    live there."""
    if g < 0 or L < 0:
        raise ValueError("genus and leaf count must be nonnegative")
    if n < 1:
        raise ValueError("arrow level must be >= 1; level 0 is the primary sum")
    roses = []
    for handles in range(g + 1):
        mprime = n + 3 - 3 * handles
        V = 2 * g - 2 * handles - mprime + L + 2
        fixed = (f"E{n}",) + ("IDLOOP",) * (2 * handles)
        if mprime < 1 or V < 1 or not _reach(
                alg, fixed, 2 * (g - handles), L, V - 1):
            continue
        rose = MarkedGraph(1, [(0, 0, "GG")] * (g - handles)
                           + [(0, 0, "IDLOOP")] * handles,
                           [(0, f"E{n}")] + [(0, "E0")] * L)
        roses.append((rose, fixed, V - 1))
    return _classes(roses,
                    lambda graph: is_valid_descendant_graph(graph, g, n), alg)


# ---------------------------------------------------------------------------
# assembly


class PotentialTable:
    """Caches potential pieces (exact leaf count) for one algebra, and the
    truncated potentials and derivatives the identity checks ask for.

    Requires an algebra passing every axiom with purely even H_0.  With
    prune=False the class lists are the full ones, every vertex live.
    """

    def __init__(self, alg, prune=True):
        report = check_axioms(alg)
        if not report.ok:
            names = ", ".join(c.name for c in report.failures)
            raise AlgebraError(
                f"potentials need an algebra passing all axioms; failing: {names}")
        if any(alg.parity[i] for i in alg.h0):
            raise AlgebraError("potentials need a purely even H_0: "
                               "couplings are commuting variables")
        self.alg = alg
        self.prune = bool(prune)
        self._pieces = {}
        self._classes = {}
        self._derived = {}

    def classes(self, g, n, ell):
        key = (g, n, ell)
        if key not in self._classes:
            alg = self.alg if self.prune else None
            if n == 0:
                self._classes[key] = enumerate_sm(g, ell, alg)
            else:
                self._classes[key] = enumerate_desc(g, n, ell, alg)
        return self._classes[key]

    def piece(self, g, n, ell):
        key = (g, n, ell)
        if key not in self._pieces:
            total = Poly.zero()
            for cls in self.classes(g, n, ell):
                total = total + evaluate_graph(self.alg, cls.graph) * cls.weight
            self._pieces[key] = total
        return self._pieces[key]

    def potential(self, g, n, max_leaves):
        """Sum of the pieces with at most max_leaves E0 leaves: exact in
        every monomial of level-0 degree <= max_leaves."""
        if g < 0 or n < 0 or max_leaves < 0:
            raise ValueError("genus, level and leaf budget must be nonnegative")
        total = Poly.zero()
        for ell in range(max_leaves + 1):
            total = total + self.piece(g, n, ell)
        return total

    def derivative(self, g, n, max_leaves, mono):
        """The potential's derivative along `mono`, an ascending tuple of
        variables; it and each derivative on the way to it are kept."""
        key = (g, n, max_leaves, mono)
        if key not in self._derived:
            self._derived[key] = (
                self.derivative(g, n, max_leaves, mono[:-1]).partial(mono[-1])
                if mono else self.potential(g, n, max_leaves))
        return self._derived[key]


# ---------------------------------------------------------------------------
# closed form over the trivial algebra


def kdv_coefficient(g, m, k):
    """Coefficient of T[m,1]*T[0,1]^k (m >= 1) or of T[0,1]^k (m = 0) in
    the genus-g potential over the trivial algebra.

    The nonzero values are 1/6 at (0, 0, 3); 1/(m+2)! at (0, m, m+2) for
    m >= 1; and 1/(g! 24^g k!) at (g, 3g-2+k, k) for g >= 1.
    """
    if g < 0 or m < 0 or k < 0:
        raise ValueError("arguments must be nonnegative")
    if g == 0:
        if m == 0:
            return Fraction(1, 6) if k == 3 else Fraction(0)
        return Fraction(1, factorial(m + 2)) if k == m + 2 else Fraction(0)
    if m == 0:
        return Fraction(0)
    if m == 3 * g - 2 + k:
        return Fraction(1, factorial(g) * 24 ** g * factorial(k))
    return Fraction(0)


__all__ = ["WeightedGraphClass", "enumerate_sm", "enumerate_desc",
           "PotentialTable", "kdv_coefficient"]
