"""Marked multigraphs: the combinatorial side of the contraction engine.

A graph has numbered vertices, marked edges (loops and parallel edges
allowed) and marked leaves.  Edge marks name the bivector placed on the
edge; leaf marks name the vector placed on the leaf:

  edge marks   GG (G_- G_+), IDLOOP (identity on a loop, the handle
               carrying the 1/12-weight), ID (identity), PI0, QGP (Q G_+),
               GPQ (G_+ Q), GP, GM
  leaf marks   E<k>  the level-k coupling vector sum_i e_i T[k,i]
               UNIT  the algebra unit
               B<i>  the i-th basis vector (1-based), for pinning tests

Vertices are 0-based internally and 1-based in JSON.  Edge k owns
half-edges 2k (at the lower-numbered endpoint) and 2k+1; leaf j owns
half-edge 2*n_edges + j.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from math import factorial

EDGE_MARKS = ("GG", "IDLOOP", "ID", "PI0", "QGP", "GPQ", "GP", "GM")

# matched whole (fullmatch) and ASCII only: `$` also matches before a
# trailing newline, and `\d` matches every Unicode decimal digit
_LEAF_RE = re.compile(r"E(?:0|[1-9][0-9]*)|UNIT|B[1-9][0-9]*")


def leaf_level(mark):
    """Arrow level of an E<k> leaf mark, else None."""
    if mark.startswith("E"):
        return int(mark[1:])
    return None


def leaf_basis_index(mark):
    """0-based basis index of a B<i> leaf mark, else None."""
    if mark.startswith("B"):
        return int(mark[1:]) - 1
    return None


class MarkedGraph:
    """Immutable-by-convention marked multigraph.

    Immutability backs three caches, each derived once and kept with the
    graph: the germ lists, the depth-first traversal and the search for
    the canonical form.
    """

    __slots__ = ("n_vertices", "edges", "leaves", "_germs", "_traversal",
                 "_sweep")

    def __init__(self, n_vertices, edges, leaves=()):
        # type(x) is int: True and False are ints too
        if type(n_vertices) is not int or n_vertices < 1:
            raise ValueError("need at least one vertex")
        norm_edges = []
        for (u, v, mark) in edges:
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise ValueError(f"edge endpoint out of range: {(u, v, mark)}")
            if mark not in EDGE_MARKS:
                raise ValueError(f"unknown edge mark {mark!r}")
            if mark == "IDLOOP" and u != v:
                raise ValueError("IDLOOP must be a loop")
            norm_edges.append((min(u, v), max(u, v), mark))
        norm_leaves = []
        for (v, mark) in leaves:
            if not 0 <= v < n_vertices:
                raise ValueError(f"leaf vertex out of range: {(v, mark)}")
            if not _LEAF_RE.fullmatch(mark):
                raise ValueError(f"unknown leaf mark {mark!r}")
            norm_leaves.append((v, mark))
        self._set(n_vertices, tuple(norm_edges), tuple(norm_leaves))

    @classmethod
    def _checked(cls, n_vertices, edges, leaves):
        """A graph from tuples that already pass the constructor's checks
        and are normalised (each edge's lesser end first): a split child
        built from its parent, or the search's representative."""
        graph = cls.__new__(cls)
        graph._set(n_vertices, edges, leaves)
        return graph

    def _set(self, n_vertices, edges, leaves):
        self.n_vertices = n_vertices
        self.edges = edges
        self.leaves = leaves
        self._germs = self._traversal = self._sweep = None

    # -- half-edge geometry ------------------------------------------------

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def n_leaves(self):
        return len(self.leaves)

    @property
    def n_half_edges(self):
        return 2 * self.n_edges + self.n_leaves

    def germs(self):
        """Per vertex, the half-edges at it, ascending (both halves of a
        loop included)."""
        if self._germs is None:
            at = [[] for _ in range(self.n_vertices)]
            for k, (u, v, _) in enumerate(self.edges):
                at[u].append(2 * k)
                at[v].append(2 * k + 1)
            for j, (v, _) in enumerate(self.leaves):
                at[v].append(2 * self.n_edges + j)
            self._germs = tuple(tuple(hs) for hs in at)
        return self._germs

    def degree(self, v):
        return len(self.germs()[v])

    def mark(self, h):
        """The mark of half-edge h: its edge's, or its leaf's."""
        if h < 2 * self.n_edges:
            return self.edges[h // 2][2]
        return self.leaves[h - 2 * self.n_edges][1]

    def vertex_profile(self, v):
        """(own_handles, other_germs): IDLOOP count and remaining degree."""
        own = sum(1 for (a, b, mark) in self.edges
                  if a == b == v and mark == "IDLOOP")
        return own, self.degree(v) - 2 * own

    # -- global invariants --------------------------------------------------

    def traversal(self):
        """Depth-first traversal from vertex 0 along increasing edge ids:
        the vertices in the order reached and, for each after the first,
        the id of the edge that reached it.  It reaches every vertex
        exactly when the graph is connected; a graph with fewer than
        V - 1 edges cannot be, and is not walked (so a huge vertex count
        builds no list per vertex)."""
        if self._traversal is None:
            order, tree, seen = [0], [], {0}
            if self.n_edges >= self.n_vertices - 1:
                edges, germs = self.edges, self.germs()
                n_ends = 2 * self.n_edges
                # per vertex on the current path, the rest of its germs
                stack = [iter(germs[0])]
                while stack:
                    for h in stack[-1]:
                        if h >= n_ends:
                            continue  # a leaf's germ
                        w = edges[h // 2][1 - h % 2]
                        if w not in seen:
                            seen.add(w)
                            order.append(w)
                            tree.append(h // 2)
                            stack.append(iter(germs[w]))
                            break
                    else:
                        stack.pop()
            self._traversal = tuple(order), tuple(tree)
        return self._traversal

    def is_connected(self):
        return len(self.traversal()[0]) == self.n_vertices

    def genus(self):
        """First Betti number; defined for connected graphs only."""
        if not self.is_connected():
            raise ValueError("genus is defined for connected graphs")
        return self.n_edges - self.n_vertices + 1

    # -- isomorphism ---------------------------------------------------------

    def _least_encoding(self):
        """One search of the individualization-refinement tree (McKay,
        Congr. Numer. 30 (1981)), kept with this graph.

        The root is the color-refined partition of the vertices.  Each
        vertex of a node's first cell of two or more makes a child: it
        takes a rank of its own, before the rest of its cell, and the
        partition is refined.  A leaf, every cell one vertex, is an
        ordering, and an isomorphism maps leaves to leaves.  The search
        keeps the least encoding of a leaf, the first leaf reaching it
        (the canonical representative's vertex i is its i-th vertex) and
        the first leaf of all.

        A later leaf with the first leaf's encoding gives a vertex
        automorphism, position i of the first leaf to position i of this
        one.  It fixes the vertices individualized above the node where
        the two paths part and maps the first path's child there onto this
        leaf's ancestor, so it maps the subtree searched first onto that
        child's, and the search under that child ends.  At a node of the
        first path, the first child and the children that found an
        automorphism are the orbit of the first child's vertex under the
        automorphisms fixing the vertices individualized above it; the
        group's order is the product of these orbit sizes (orbit-
        stabilizer), and the automorphisms found generate the group.  The
        search keeps them and the order, not the group.
        """
        if self._sweep is None:
            self._sweep = self._sweep_orderings()
        return self._sweep

    def _sweep_orderings(self):
        V = self.n_vertices
        leaf_marks = [[] for _ in range(V)]
        loop_marks = [[] for _ in range(V)]
        adjacent = [[] for _ in range(V)]
        for (v, mark) in self.leaves:
            leaf_marks[v].append(mark)
        for (u, v, mark) in self.edges:
            if u == v:
                loop_marks[u].append(mark)
            else:
                adjacent[u].append((mark, v))
                adjacent[v].append((mark, u))
        leaf_marks = [tuple(sorted(marks)) for marks in leaf_marks]
        loop_marks = [tuple(sorted(marks)) for marks in loop_marks]
        # the first leaf's encoding and ranks, and the least leaf's
        first = best = least = None
        automorphisms, order = [], 1

        def search(ranks, cells):
            # depth first, least vertex first; a node has two or more
            # children, so no search that ends meets the recursion limit.
            # True when an automorphism ends the search under this node
            nonlocal first, best, least, order
            if cells == V:
                # the leaf marks by position are the root cells', so
                # leaves differ in their edges only
                encoding = sorted(
                    (ranks[u], ranks[v], m) if ranks[u] < ranks[v]
                    else (ranks[v], ranks[u], m) for (u, v, m) in self.edges)
                if first is None:
                    first = best, least = encoding, ranks
                elif encoding == first[0]:
                    at = sorted(range(V), key=ranks.__getitem__)
                    automorphisms.append(tuple(at[r] for r in first[1]))
                    return True
                elif encoding < best:
                    best, least = encoding, ranks
                return False
            on_first_path = first is None
            sizes = Counter(ranks)
            r = min(x for x, size in sizes.items() if size > 1)
            found = 0
            for v in [u for u in range(V) if ranks[u] == r]:
                child = [x + (x >= r) for x in ranks]
                child[v] = r
                found += search(*_refined(child, cells + 1, adjacent))
                if found and not on_first_path:
                    return True
            order *= 1 + found
            return False

        search(*_refined(*_compress(list(zip(leaf_marks, loop_marks))),
                         adjacent))
        ordering = tuple(sorted(range(V), key=least.__getitem__))
        encoding = (V, tuple((leaf_marks[v],) for v in ordering), tuple(best))
        return encoding, ordering, tuple(automorphisms), order

    def canonical_form(self):
        """Isomorphism-invariant string key (same key iff same marked graph
        up to renaming vertices and reordering edges/leaves)."""
        return repr(self._least_encoding()[0])

    def canonical_graph(self):
        """The isomorphism class's canonical representative: vertices in
        the order of the least encoding, edges and leaves sorted."""
        n_vertices, verts, edges = self._least_encoding()[0]
        # the encoding holds this graph's marks, each edge lesser end
        # first, so the representative passes every check already
        return MarkedGraph._checked(
            n_vertices, edges,
            tuple((v, m) for v, (marks,) in enumerate(verts) for m in marks))

    def canonical_ordering(self):
        """The vertices in the order of the canonical representative: its
        vertex i is the i-th."""
        return self._least_encoding()[1]

    def orbits(self, keys, image):
        """An orbit id per key under the vertex automorphisms: two keys
        get the same id exactly when they share an orbit.  `image(p, key)`
        is the key that the vertex permutation p (renaming vertex v to
        p[v]) maps key to.  One breadth-first pass applies the
        automorphisms the search found, which generate the group, so it
        also reaches images that are not among the keys."""
        generators, ids = self._least_encoding()[2], {}
        for key in keys:
            if key not in ids:
                ids[key], queue = len(ids), [key]
                for x in queue:
                    for y in {image(p, x) for p in generators} - ids.keys():
                        ids[y] = ids[key]
                        queue.append(y)
        return [ids[key] for key in keys]

    def automorphism_order(self):
        """Order of the automorphism group acting on half-edges.

        The vertex permutations preserving the marked structure (counted
        by the canonical-form search), times the stabilizer lifts: k! for
        k parallel equal-mark edges, 2^l l! for l equal-mark loops at a
        vertex, k! for k equal-mark leaves at a vertex.
        """
        (_, verts, edges), _, _, order = self._least_encoding()
        lifts = 1
        for (u, v, _), c in Counter(edges).items():
            lifts *= factorial(c) * (2 ** c if u == v else 1)
        for (marks,) in verts:
            for c in Counter(marks).values():
                lifts *= factorial(c)
        return order * lifts

    # -- serialization --------------------------------------------------------

    def to_json_obj(self):
        return {"vertices": self.n_vertices,
                "edges": [[u + 1, v + 1, m] for (u, v, m) in self.edges],
                "leaves": [[v + 1, m] for (v, m) in self.leaves]}

    @classmethod
    def from_json_obj(cls, obj):
        if not isinstance(obj, dict) or "vertices" not in obj:
            raise ValueError("graph JSON must be an object with a 'vertices' count")
        nv = obj["vertices"]
        # type(x) is int: JSON true/false load as bools, which are ints
        if type(nv) is not int or nv < 1:
            raise ValueError("'vertices' must be a positive integer")
        edge_ents, leaf_ents = obj.get("edges", []), obj.get("leaves", [])
        if not isinstance(edge_ents, list) or not isinstance(leaf_ents, list):
            raise ValueError("'edges' and 'leaves' must be lists")
        edges = []
        for ent in edge_ents:
            if not _is_entry(ent, 3):
                raise ValueError(f"bad edge entry {ent!r}")
            edges.append((ent[0] - 1, ent[1] - 1, ent[2]))
        leaves = []
        for ent in leaf_ents:
            if not _is_entry(ent, 2):
                raise ValueError(f"bad leaf entry {ent!r}")
            leaves.append((ent[0] - 1, ent[1]))
        return cls(nv, edges, leaves)

    def __repr__(self):
        return (f"MarkedGraph({self.n_vertices}, edges={list(self.edges)}, "
                f"leaves={list(self.leaves)})")

    def __eq__(self, other):
        return (isinstance(other, MarkedGraph)
                and self.n_vertices == other.n_vertices
                and self.edges == other.edges
                and self.leaves == other.leaves)

    def __hash__(self):
        return hash((self.n_vertices, self.edges, self.leaves))


def _compress(sig):
    """Each signature's rank among the distinct ones, and their number."""
    order = {s: i for i, s in enumerate(sorted(set(sig)))}
    return [order[s] for s in sig], len(order)


def _refined(ranks, cells, adjacent):
    """1-dimensional color refinement of an ordered partition: each
    vertex's rank (the place of its cell) and the number of cells.

    Ranks are comparable across isomorphic graphs: each round sorts the
    (previous rank, neighborhood multiset) signatures and renumbers, and
    the signatures are built only from marks and previous ranks.  A
    round only splits cells, keeping their order, so one that leaves the
    cell count alone changes no rank: the refinement stops there, or
    once every cell is one vertex.  `adjacent[v]` lists the (mark,
    endpoint) of each non-loop edge at v.
    """
    V = len(ranks)
    while cells < V:
        sig = [(ranks[v], tuple(sorted((mark, ranks[x])
                                       for (mark, x) in adjacent[v])))
               for v in range(V)]
        new_ranks, new_cells = _compress(sig)
        if new_cells == cells:
            break
        ranks, cells = new_ranks, new_cells
    return ranks, cells


def _is_entry(ent, width):
    """A JSON [vertex, ..., mark] entry: int (not bool) vertex indices
    and a string mark."""
    return (isinstance(ent, list) and len(ent) == width
            and all(type(i) is int for i in ent[:-1])
            and isinstance(ent[-1], str))


def load_graph(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON: {exc}") from None
        except RecursionError:
            raise ValueError("invalid JSON: nested too deeply") from None
    return MarkedGraph.from_json_obj(obj)


# ---------------------------------------------------------------------------
# validity of the graphs appearing in the potential sums


def is_valid_smooth_graph(graph, genus):
    """Contributors to the genus-g primary potential: connected, genus g,
    trivalent, all edges GG, all leaves level-0."""
    if not graph.is_connected():
        return False, "not connected"
    if graph.genus() != genus:
        return False, f"genus is {graph.genus()}, expected {genus}"
    for (_, _, m) in graph.edges:
        if m != "GG":
            return False, f"edge mark {m} not allowed in the primary sum"
    for (_, m) in graph.leaves:
        if m != "E0":
            return False, f"leaf mark {m} not allowed in the primary sum"
    for v, at in enumerate(graph.germs()):
        if len(at) != 3:
            return False, f"vertex {v + 1} has degree {len(at)}"
    return True, ""


def is_valid_descendant_graph(graph, genus, n):
    """Contributors to the genus-g level-n one-point potential.

    Exactly one arrow leaf E<n> (n >= 1) sits at a special vertex that
    also carries all IDLOOP handles; with g' handles and m' remaining
    germs there, n = 3 g' - 3 + m'.  Every other vertex is a plain
    trivalent one, every other edge is GG, every other leaf is E0.
    """
    if n < 1:
        return False, "arrow level must be >= 1"
    if not graph.is_connected():
        return False, "not connected"
    if graph.genus() != genus:
        return False, f"genus is {graph.genus()}, expected {genus}"
    arrows = [(v, m) for (v, m) in graph.leaves if m not in ("E0",)]
    if len(arrows) != 1:
        return False, "need exactly one non-E0 leaf"
    v0, arrow_mark = arrows[0]
    if leaf_level(arrow_mark) != n:
        return False, f"arrow leaf is {arrow_mark}, expected E{n}"
    for (a, b, m) in graph.edges:
        if m == "IDLOOP":
            if a != v0:
                return False, "IDLOOP away from the arrow vertex"
        elif m != "GG":
            return False, f"edge mark {m} not allowed"
    gprime, mprime = graph.vertex_profile(v0)
    if n != 3 * gprime - 3 + mprime:
        return False, (f"arrow vertex has handles={gprime}, germs={mprime}, "
                       f"which encodes level {3 * gprime - 3 + mprime}, not {n}")
    for v, at in enumerate(graph.germs()):
        if v != v0 and len(at) != 3:
            return False, f"vertex {v + 1} has degree {len(at)}"
    return True, ""
