"""Marked multigraphs: invariants, isomorphism keys, automorphism counts."""

import itertools
import json
import random
from math import factorial

import pytest

from cyclichodge.graphs import (
    MarkedGraph, is_valid_descendant_graph, is_valid_smooth_graph,
    leaf_basis_index, leaf_level,
)
from cyclichodge.potentials import enumerate_sm
from conftest import random_connected_graph, relabel


def brute_vertex_automorphisms(graph):
    """The vertex permutations mapping the marked edges and leaves onto
    themselves, by direct enumeration."""
    found = []
    for perm in itertools.permutations(range(graph.n_vertices)):
        mapped = sorted((min(perm[u], perm[v]), max(perm[u], perm[v]), m)
                        for (u, v, m) in graph.edges)
        if mapped != sorted(graph.edges):
            continue
        if sorted((perm[v], m) for (v, m) in graph.leaves) != sorted(graph.leaves):
            continue
        found.append(perm)
    return found


def lifts(graph):
    """Edge/leaf bijections fixing endpoints and marks, counted directly."""
    count = 1
    pair_marks = {}
    for (u, v, m) in graph.edges:
        pair_marks.setdefault((u, v), []).append(m)
    for (u, v), marks in pair_marks.items():
        for m in set(marks):
            c = marks.count(m)
            count *= (2 ** c if u == v else 1)
            for t in range(2, c + 1):
                count *= t
    leaf_marks = {}
    for (v, m) in graph.leaves:
        leaf_marks.setdefault(v, []).append(m)
    for v, marks in leaf_marks.items():
        for m in set(marks):
            c = marks.count(m)
            for t in range(2, c + 1):
                count *= t
    return count


def cherry_star(k):
    """A centre carrying E1, joined by GG to k cherries of two E0 leaves."""
    return MarkedGraph(
        k + 1, [(0, c, "GG") for c in range(1, k + 1)],
        [(0, "E1")] + [(c, "E0") for c in range(1, k + 1) for _ in "ab"])


def partition(keys, ids):
    """The blocks of keys with equal ids."""
    blocks = {}
    for key, i in zip(keys, ids):
        blocks.setdefault(i, set()).add(key)
    return {frozenset(block) for block in blocks.values()}


def assert_orbits_match(graph, group):
    """`graph.orbits` against a group given as its list of vertex
    permutations: the automorphisms the search found generate exactly
    the group, and the vertex and vertex-pair orbits are the group's."""
    members = set(group)

    def compose(p, q):
        # p after q; the generated group must stay inside `group`
        product = tuple(p[v] for v in q)
        assert product in members, (graph, p, q)
        return product

    assert len(set(graph.orbits(group, compose))) == 1, graph
    vertices = range(graph.n_vertices)
    pairs = list(itertools.combinations(vertices, 2))
    for keys, image in ((vertices, lambda p, v: p[v]),
                        (pairs, lambda p, e: tuple(sorted((p[e[0]], p[e[1]]))))):
        brute = {frozenset(image(p, key) for p in group) for key in keys}
        assert partition(keys, graph.orbits(keys, image)) == brute, graph


def brute_automorphisms(graph):
    """Half-edge count by direct enumeration: vertex permutations times
    independently checked edge/leaf bijections fixing endpoints and marks."""
    return len(brute_vertex_automorphisms(graph)) * lifts(graph)


class TestBasics:
    def test_leaf_mark_parsing(self):
        assert leaf_level("E0") == 0
        assert leaf_level("E12") == 12
        assert leaf_level("UNIT") is None
        assert leaf_basis_index("B3") == 2
        assert leaf_basis_index("E1") is None

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            MarkedGraph(0, [])
        with pytest.raises(ValueError):
            MarkedGraph(1, [(0, 1, "GG")])
        with pytest.raises(ValueError):
            MarkedGraph(1, [(0, 0, "XX")])
        with pytest.raises(ValueError):
            MarkedGraph(2, [(0, 1, "IDLOOP")])
        with pytest.raises(ValueError):
            MarkedGraph(1, [], [(0, "E")])
        with pytest.raises(ValueError):
            MarkedGraph(1, [], [(0, "B0")])
        with pytest.raises(ValueError):
            MarkedGraph(1, [], [(1, "E0")])
        # a leaf mark matches whole, in ASCII digits: `$` also matched
        # before a trailing newline, and `\d` an Arabic-Indic three
        for mark in ("E0\n", "UNIT\n", "B1\u0663", "E\u0661", "E1 "):
            with pytest.raises(ValueError):
                MarkedGraph(1, [], [(0, mark)])

    @pytest.mark.parametrize("count", [True, False])
    def test_rejects_bool_vertex_count(self, count):
        # bools are ints, but no vertex count: from_json_obj rejects JSON
        # true and false the same way
        with pytest.raises(ValueError):
            MarkedGraph(count, [], [(0, "E0")])

    def test_half_edge_geometry(self):
        g = MarkedGraph(2, [(0, 1, "GG"), (1, 1, "GG")], [(0, "E0")])
        assert g.n_half_edges == 5
        assert g.germs() == ((0, 4), (1, 2, 3))
        assert g.degree(1) == 3

    def test_genus(self):
        theta = MarkedGraph(2, [(0, 1, "GG")] * 3)
        assert theta.genus() == 2
        disconnected = MarkedGraph(2, [])
        assert not disconnected.is_connected()
        with pytest.raises(ValueError):
            disconnected.genus()

    def test_vertex_profile(self):
        g = MarkedGraph(1, [(0, 0, "IDLOOP"), (0, 0, "GG")], [(0, "E1")])
        assert g.vertex_profile(0) == (1, 3)

    def test_json_round_trip(self):
        g = MarkedGraph(2, [(0, 1, "GG"), (0, 0, "IDLOOP")],
                        [(1, "E2"), (0, "UNIT")])
        obj = json.loads(json.dumps(g.to_json_obj()))
        assert MarkedGraph.from_json_obj(obj) == g

    def test_json_shape_errors(self):
        with pytest.raises(ValueError):
            MarkedGraph.from_json_obj({"edges": []})
        with pytest.raises(ValueError):
            MarkedGraph.from_json_obj({"vertices": 1, "edges": [[1, 1]]})
        with pytest.raises(ValueError):
            MarkedGraph.from_json_obj({"vertices": 1, "leaves": [[1]]})


class TestCanonicalForm:
    def test_invariant_under_relabeling(self):
        rng = random.Random(31)
        for _ in range(60):
            g = random_connected_graph(rng, 3)
            key = g.canonical_form()
            for _ in range(4):
                perm = list(range(g.n_vertices))
                rng.shuffle(perm)
                edges = list(relabel(g, perm).edges)
                leaves = list(relabel(g, perm).leaves)
                rng.shuffle(edges)
                rng.shuffle(leaves)
                h = MarkedGraph(g.n_vertices, edges, leaves)
                assert h.canonical_form() == key

    def test_separates_marks(self):
        a = MarkedGraph(2, [(0, 1, "GG")], [(0, "E0")])
        b = MarkedGraph(2, [(0, 1, "ID")], [(0, "E0")])
        c = MarkedGraph(2, [(0, 1, "GG")], [(1, "E0")])
        assert a.canonical_form() != b.canonical_form()
        assert a.canonical_form() == c.canonical_form()

    def test_separates_leaf_placement(self):
        # both leaves on one vertex vs split across the two
        a = MarkedGraph(2, [(0, 1, "GG")], [(0, "E0"), (0, "E0")])
        b = MarkedGraph(2, [(0, 1, "GG")], [(0, "E0"), (1, "E0")])
        assert a.canonical_form() != b.canonical_form()


class TestAutomorphisms:
    def test_weight_anchors(self):
        # single trivalent vertex with three leaves: 3! leaf lifts
        v1 = MarkedGraph(1, [], [(0, "E0")] * 3)
        assert v1.automorphism_order() == 6
        # theta graph: 2 vertex swap x 3! parallel edges
        theta = MarkedGraph(2, [(0, 1, "GG")] * 3)
        assert theta.automorphism_order() == 12
        # dumbbell: 2 loops x (2 each) x vertex swap
        dumbbell = MarkedGraph(2, [(0, 0, "GG"), (1, 1, "GG"), (0, 1, "GG")])
        assert dumbbell.automorphism_order() == 8
        # single vertex, two loops: 2^2 x 2!
        twoloop = MarkedGraph(1, [(0, 0, "GG"), (0, 0, "GG")])
        assert twoloop.automorphism_order() == 8
        # handle vertex: IDLOOP and GG loop do not mix
        mixed = MarkedGraph(1, [(0, 0, "IDLOOP"), (0, 0, "GG")], [(0, "E1")])
        assert mixed.automorphism_order() == 4

    def test_matches_brute_force(self):
        rng = random.Random(47)
        checked = 0
        for _ in range(80):
            g = random_connected_graph(rng, 2, max_vertices=3)
            if g.n_vertices > 3:
                continue
            assert g.automorphism_order() == brute_automorphisms(g), repr(g)
            checked += 1
        assert checked >= 60

    def test_orbits_match_brute_force(self):
        # symmetric classes in random labelings, their canonical
        # representatives and random graphs
        rng = random.Random(53)
        graphs = []
        for L in range(3):
            for cls in enumerate_sm(2, L):
                perm = list(range(cls.graph.n_vertices))
                rng.shuffle(perm)
                graphs.append(relabel(cls.graph, perm))
        graphs += [random_connected_graph(rng, 2, max_vertices=4)
                   for _ in range(40)]
        # twins: a centre carrying E1, with five E0 cherries
        graphs.append(cherry_star(5))
        graphs += [g.canonical_graph() for g in graphs]
        for g in graphs:
            assert_orbits_match(g, brute_vertex_automorphisms(g))
            assert g.automorphism_order() == brute_automorphisms(g), g
        assert max(len(brute_vertex_automorphisms(g)) for g in graphs) >= 4

    def test_cycle_refinement_cannot_split(self):
        # color refinement leaves the 12 vertices of a GG cycle with one
        # E0 leaf each in one cell; the search tree individualizes one
        # vertex and then one of its neighbours, and each child of those
        # two nodes after the first ends at its first leaf, an image of
        # the first leaf: 13 leaves, not the 12! orderings of that cell
        n = 12
        cycle = MarkedGraph(n, [(v, (v + 1) % n, "GG") for v in range(n)],
                            [(v, "E0") for v in range(n)])
        assert cycle.automorphism_order() == 24
        dihedral = [tuple((s * v + r) % n for v in range(n))
                    for r in range(n) for s in (1, -1)]
        assert_orbits_match(cycle, dihedral)
        key, rep = cycle.canonical_form(), cycle.canonical_graph()
        rng = random.Random(59)
        for _ in range(20):
            perm = list(range(n))
            rng.shuffle(perm)
            relabeled = relabel(cycle, perm)
            assert relabeled.canonical_form() == key
            assert relabeled.canonical_graph() == rep

    def test_cherry_stars(self):
        # k cherries on a centre carrying E1: the k! permutations of the
        # cherries, times a swap of the two E0 leaves of each; the search
        # visits 1 + k(k-1)/2 leaves, not k!
        for k in range(2, 11):
            assert cherry_star(k).automorphism_order() == (
                factorial(k) * 2 ** k)


class TestValidity:
    def test_smooth(self):
        theta = MarkedGraph(2, [(0, 1, "GG")] * 3)
        ok, why = is_valid_smooth_graph(theta, 2)
        assert ok, why
        ok, _ = is_valid_smooth_graph(theta, 1)
        assert not ok
        bad_mark = MarkedGraph(2, [(0, 1, "GG"), (0, 1, "GG"), (0, 1, "ID")])
        assert not is_valid_smooth_graph(bad_mark, 2)[0]
        # a GG loop with one leaf is trivalent: the L=1 genus-1 class
        loop_leaf = MarkedGraph(1, [(0, 0, "GG")], [(0, "E0")])
        assert is_valid_smooth_graph(loop_leaf, 1)[0]
        bad_degree = MarkedGraph(1, [(0, 0, "GG")])
        assert not is_valid_smooth_graph(bad_degree, 1)[0]
        bad_leaf = MarkedGraph(1, [], [(0, "E0"), (0, "E0"), (0, "E1")])
        assert not is_valid_smooth_graph(bad_leaf, 0)[0]
        apart = MarkedGraph(2, [], [(0, "E0")] * 3 + [(1, "E0")] * 3)
        assert is_valid_smooth_graph(apart, 0) == (False, "not connected")

    def test_descendant(self):
        # genus 1 via one handle: vertex with IDLOOP, arrow E1
        h = MarkedGraph(1, [(0, 0, "IDLOOP")], [(0, "E1")])
        ok, why = is_valid_descendant_graph(h, 1, 1)
        assert ok, why
        # no handles: the GG loop supplies the genus, the vertex carries
        # arrow + loop + one E0 (m' = 4 encodes level 0 - 3 + 4 = 1)
        loop = MarkedGraph(1, [(0, 0, "GG")], [(0, "E1"), (0, "E0")])
        ok, why = is_valid_descendant_graph(loop, 1, 1)
        assert ok, why
        # without the E0 the vertex encodes level 0, which is not a
        # descendant sum at all
        assert not is_valid_descendant_graph(
            MarkedGraph(1, [(0, 0, "GG")], [(0, "E1")]), 1, 1)[0]
        # wrong level encoding: handles=1 and m'=1 encodes level 1, not 2
        ok, _ = is_valid_descendant_graph(h, 1, 2)
        assert not ok
        # two arrows
        two = MarkedGraph(1, [(0, 0, "IDLOOP")], [(0, "E1"), (0, "E1")])
        assert not is_valid_descendant_graph(two, 1, 1)[0]
        # IDLOOP away from the arrow vertex
        away = MarkedGraph(2, [(1, 1, "IDLOOP"), (0, 1, "GG")],
                           [(0, "E1"), (0, "E0"), (1, "E0")])
        assert not is_valid_descendant_graph(away, 1, 1)[0]
        # n = 0 is never a descendant sum
        assert not is_valid_descendant_graph(h, 1, 0)[0]
        apart = MarkedGraph(2, [(0, 0, "IDLOOP")], [(0, "E1")])
        assert is_valid_descendant_graph(apart, 1, 1) == (False, "not connected")
        assert is_valid_descendant_graph(h, 2, 1) == (
            False, "genus is 1, expected 2")
        id_edge = MarkedGraph(2, [(0, 0, "IDLOOP"), (0, 1, "ID")],
                              [(0, "E1"), (1, "E0"), (1, "E0")])
        assert is_valid_descendant_graph(id_edge, 1, 1) == (
            False, "edge mark ID not allowed")
        # handles=1 and m'=2 encode level 2; vertex 2 is not trivalent
        plain = MarkedGraph(2, [(0, 0, "IDLOOP"), (0, 1, "GG")],
                            [(0, "E2"), (1, "E0")])
        assert is_valid_descendant_graph(plain, 1, 2) == (
            False, "vertex 2 has degree 2")
