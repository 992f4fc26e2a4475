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

Over an algebra with no 4-blocks every GG bivector vanishes, so only
classes without GG edges can contribute; enumeration skips the rest up
front unless pruning is disabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .algebra import AlgebraError, check_axioms
from .contract import evaluate_graph
from .graphs import (MarkedGraph, is_valid_descendant_graph,
                     is_valid_smooth_graph)
from .poly import Poly


@dataclass(frozen=True)
class WeightedGraphClass:
    """One isomorphism class in a potential sum."""

    graph: MarkedGraph
    weight: Fraction
    aut_order: int
    handles: int


# ---------------------------------------------------------------------------
# multigraph backbone enumeration


def _multigraphs(degrees):
    """All loops/multi-edge structures on labeled vertices realizing the
    degree sequence (a loop eats 2 from its vertex).  Returns a list of
    (loops, edges) with loops[v] a count and edges a dict (u, v) -> mult
    for u < v."""
    V = len(degrees)
    out = []

    def place(v, res, loops, edges):
        if v == V:
            out.append((tuple(loops), dict(edges)))
            return
        d = res[v]
        for nl in range(d // 2 + 1):
            rem = d - 2 * nl

            def spread(w, left, acc):
                if left == 0:
                    new_res = list(res)
                    new_res[v] = 0
                    for ww, c in acc:
                        new_res[ww] -= c
                    new_edges = dict(edges)
                    for ww, c in acc:
                        if c:
                            new_edges[(v, ww)] = c
                    place(v + 1, new_res, loops + [nl], new_edges)
                    return
                if w == V:
                    return
                for c in range(min(left, res[w]), -1, -1):
                    spread(w + 1, left - c, acc + [(w, c)])

            spread(v + 1, rem, [])

    place(0, list(degrees), [], {})
    return out


def _compositions(total, bounds):
    """All tuples c with sum(c) = total and 0 <= c[i] <= bounds[i]."""
    out = []

    def rec(i, left, acc):
        if i == len(bounds):
            if left == 0:
                out.append(tuple(acc))
            return
        hi = min(left, bounds[i])
        for c in range(hi, -1, -1):
            rec(i + 1, left - c, acc + [c])

    rec(0, total, [])
    return out


def _dedup(graphs):
    seen = {}
    for graph in graphs:
        key = graph.canonical_form()
        if key not in seen:
            seen[key] = graph
    return [seen[k] for k in sorted(seen)]


def enumerate_sm(g, L, _no_gg=False):
    """Classes of the genus-g primary sum with exactly L leaves."""
    if g < 0 or L < 0:
        raise ValueError("genus and leaf count must be nonnegative")
    V = 2 * g - 2 + L
    if V < 1:
        return []
    E = V + g - 1
    if _no_gg and E > 0:
        return []
    candidates = []
    for leaf_counts in _compositions(L, [3] * V):
        degrees = [3 - c for c in leaf_counts]
        if any(d < 0 for d in degrees):
            continue
        if sum(degrees) != 2 * E:
            continue
        for loops, edges in _multigraphs(degrees):
            edge_list = []
            for v, nl in enumerate(loops):
                edge_list.extend([(v, v, "GG")] * nl)
            for (u, w), c in edges.items():
                edge_list.extend([(u, w, "GG")] * c)
            leaves = [(v, "E0") for v in range(V) for _ in range(leaf_counts[v])]
            graph = MarkedGraph(V, edge_list, leaves)
            if not graph.is_connected():
                continue
            candidates.append(graph)
    classes = []
    for graph in _dedup(candidates):
        ok, why = is_valid_smooth_graph(graph, g)
        assert ok, why
        aut = graph.automorphism_order()
        classes.append(WeightedGraphClass(graph, Fraction(1, aut), aut, 0))
    return classes


def enumerate_desc(g, n, L, _no_gg=False):
    """Classes of the genus-g level-n one-point sum with exactly L E0
    leaves (n >= 1)."""
    if g < 0 or L < 0:
        raise ValueError("genus and leaf count must be nonnegative")
    if n < 1:
        raise ValueError("arrow level must be >= 1; level 0 is the primary sum")
    candidates = []
    for handles in range(g + 1):
        mprime = n + 3 - 3 * handles
        if mprime < 1:
            continue
        V = 2 * g - 2 * handles - mprime + L + 2
        if V < 1:
            continue
        E_gg = V + (g - handles) - 1
        if E_gg < 0:
            continue
        if _no_gg and E_gg > 0:
            continue
        # distribute the E0 leaves: a0 at the special vertex 0 (capped by
        # its m' - 1 non-arrow germs), 0..3 at each plain vertex
        for leaf_counts in _compositions(L, [mprime - 1] + [3] * (V - 1)):
            degrees = [mprime - 1 - leaf_counts[0]]
            degrees += [3 - leaf_counts[v] for v in range(1, V)]
            if any(d < 0 for d in degrees):
                continue
            if sum(degrees) != 2 * E_gg:
                continue
            for loops, edges in _multigraphs(degrees):
                edge_list = [(0, 0, "IDLOOP")] * handles
                for v, nl in enumerate(loops):
                    edge_list.extend([(v, v, "GG")] * nl)
                for (u, w), c in edges.items():
                    edge_list.extend([(u, w, "GG")] * c)
                leaves = [(0, f"E{n}")]
                leaves += [(v, "E0") for v in range(V)
                           for _ in range(leaf_counts[v])]
                graph = MarkedGraph(V, edge_list, leaves)
                if not graph.is_connected():
                    continue
                candidates.append(graph)
    classes = []
    for graph in _dedup(candidates):
        ok, why = is_valid_descendant_graph(graph, g, n)
        assert ok, why
        handles = sum(1 for (_, _, m) in graph.edges if m == "IDLOOP")
        aut = graph.automorphism_order()
        weight = Fraction(1, 12) ** handles / aut
        classes.append(WeightedGraphClass(graph, weight, aut, handles))
    return classes


# ---------------------------------------------------------------------------
# assembly


class PotentialTable:
    """Caches potential pieces (exact leaf count) for one algebra.

    Requires an algebra passing every axiom with purely even H_0.
    """

    def __init__(self, alg, prune_empty_h4=True):
        report = check_axioms(alg)
        if not report.ok:
            names = ", ".join(c.name for c in report.failures)
            raise AlgebraError(
                f"potentials need an algebra passing all axioms; failing: {names}")
        if any(alg.parity[i] for i in alg.h0):
            raise AlgebraError("potentials need a purely even H_0: "
                               "couplings are commuting variables")
        self.alg = alg
        self.prune = bool(prune_empty_h4) and not alg.blocks
        self._pieces = {}
        self._classes = {}

    def classes(self, g, n, ell):
        key = (g, n, ell)
        if key not in self._classes:
            if n == 0:
                self._classes[key] = enumerate_sm(g, ell, _no_gg=self.prune)
            else:
                self._classes[key] = enumerate_desc(g, n, ell, _no_gg=self.prune)
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


__all__ = [
    "WeightedGraphClass", "enumerate_sm", "enumerate_desc",
    "PotentialTable", "kdv_coefficient",
]
