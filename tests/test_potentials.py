"""Potential assembly: enumeration anchors, closed forms, windows."""

import random
from fractions import Fraction

import pytest

from cyclichodge.algebra import AlgebraError, parse_algebra
from cyclichodge.graphs import MarkedGraph
from cyclichodge.poly import Poly
from cyclichodge.potentials import (
    PotentialTable, enumerate_desc, enumerate_sm, kdv_coefficient,
)
from conftest import DUAL2_OBJ, PerturbedTable, relabel


def T(n, i):
    return Poly.var(n, i)


def pw(p, k):
    out = Poly.const(1)
    for _ in range(k):
        out = out * p
    return out


def fact(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


class TestSmoothEnumeration:
    def test_three_leaf_vertex(self):
        classes = enumerate_sm(0, 3)
        assert len(classes) == 1
        (cls,) = classes
        assert cls.weight == Fraction(1, 6)
        assert cls.aut_order == 6
        assert cls.handles == 0

    def test_four_leaf_propagator(self):
        # two trivalent vertices joined by one GG edge, two leaves each
        classes = enumerate_sm(0, 4)
        assert len(classes) == 1
        assert classes[0].aut_order == 8
        assert len(classes[0].graph.edges) == 1

    def test_genus_one_tadpole(self):
        classes = enumerate_sm(1, 1)
        assert len(classes) == 1
        assert classes[0].weight == Fraction(1, 2)

    def test_genus_two_vacuum(self):
        # the theta graph and the dumbbell
        classes = enumerate_sm(2, 0)
        assert sorted(c.aut_order for c in classes) == [8, 12]
        assert all(len(c.graph.edges) == 3 for c in classes)

    def test_empty_windows(self):
        assert enumerate_sm(0, 2) == []
        assert enumerate_sm(1, 0) == []

    def test_pruning_drops_gg_classes_only(self, trivial, dual2):
        # with no 4-blocks the GG table is empty, so the support rule
        # keeps exactly the roses with no GG loop that need no split
        for alg in (trivial, dual2):
            assert len(enumerate_sm(0, 3, alg)) == 1
            assert enumerate_sm(0, 4, alg) == []
            assert enumerate_sm(1, 1, alg) == []
            assert enumerate_sm(2, 0, alg) == []
            assert [c.handles for c in enumerate_desc(1, 1, 0, alg)] == [1]
            assert [c.handles for c in enumerate_desc(1, 2, 1, alg)] == [1]
            assert enumerate_desc(1, 1, 1, alg) == []
        with pytest.raises(ValueError):
            enumerate_sm(-1, 0)


class TestDescendantEnumeration:
    def test_single_handle(self):
        classes = enumerate_desc(1, 1, 0)
        assert len(classes) == 1
        (cls,) = classes
        assert cls.weight == Fraction(1, 24)
        assert cls.handles == 1
        assert cls.graph.leaves == ((0, "E1"),)

    def test_double_handle(self):
        # two IDLOOPs at the arrow vertex: (1/12)^2 / 8
        classes = enumerate_desc(2, 4, 0)
        assert len(classes) == 1
        assert classes[0].weight == Fraction(1, 1152)
        assert classes[0].handles == 2

    def test_mixed_levels(self):
        # at level 1 with one E0 leaf the handle branch disconnects (the
        # special vertex has no free germ), leaving the GG-tadpole class
        classes = enumerate_desc(1, 1, 1)
        assert len(classes) == 1
        assert classes[0].handles == 0
        marks = sorted(m for (_, m) in classes[0].graph.leaves)
        assert marks == ["E0", "E1"]
        # with spare leaves a plain vertex can hang off the handle class
        deeper = enumerate_desc(1, 2, 2)
        assert {c.handles for c in deeper} == {0, 1}

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError):
            enumerate_desc(0, 0, 3)

    def test_negative_genus_rejected(self):
        with pytest.raises(ValueError, match="leaf count must be nonnegative"):
            enumerate_desc(-1, 1, 0)

    def test_classes_are_canonical_representatives(self):
        # any relabeling of a stored class graph canonicalises back to it
        rng = random.Random(3)
        classes = enumerate_desc(2, 1, 3)
        assert len(classes) == 78
        for cls in classes:
            graph = cls.graph
            perm = list(range(graph.n_vertices))
            rng.shuffle(perm)
            edges = list(relabel(graph, perm).edges)
            leaves = list(relabel(graph, perm).leaves)
            rng.shuffle(edges)
            rng.shuffle(leaves)
            shuffled = MarkedGraph(graph.n_vertices, edges, leaves)
            assert shuffled.canonical_graph() == graph


class TestTrivialClosedForm:
    def test_kdv_guard(self):
        with pytest.raises(ValueError):
            kdv_coefficient(-1, 0, 0)
        assert kdv_coefficient(0, 0, 3) == Fraction(1, 6)
        assert kdv_coefficient(0, 4, 6) == Fraction(1, 720)
        assert kdv_coefficient(2, 4, 0) == Fraction(1, 1152)
        assert kdv_coefficient(1, 2, 1) == Fraction(1, 24)
        assert kdv_coefficient(1, 1, 3) == Fraction(0)

    def test_pipeline_matches_closed_form(self, trivial):
        kmax = 6
        table = PotentialTable(trivial)
        for g in range(3):
            for m in range(7):
                pot = table.potential(g, m, kmax)
                for k in range(kmax + 1):
                    if m == 0:
                        mono = tuple(sorted([(0, 1)] * k))
                    else:
                        mono = tuple(sorted([(m, 1)] + [(0, 1)] * k))
                    got = pot.terms.get(mono, Fraction(0))
                    assert got == kdv_coefficient(g, m, k), (g, m, k)
                assert len(pot.terms) <= 1


class TestDualClosedForms:
    def test_genus_zero_primary(self, dual2):
        # only the three-leaf vertex survives: every propagator class
        # carries the vanishing GG bivector
        pot = PotentialTable(dual2).potential(0, 0, 6)
        assert pot == T(0, 2) * pw(T(0, 1), 2) * Fraction(1, 2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_genus_zero_descendants(self, dual2, n):
        pot = PotentialTable(dual2).potential(0, n, n + 2)
        expect = (T(n, 1) * pw(T(0, 1), n + 1) * T(0, 2) * (n + 2)
                  + T(n, 2) * pw(T(0, 1), n + 2)) * Fraction(1, fact(n + 2))
        assert pot == expect

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_genus_one_descendants(self, dual2, n):
        pot = PotentialTable(dual2).potential(1, n, n)
        expect = T(n, 1) * pw(T(0, 1), n - 1) * Fraction(1, 12 * fact(n - 1))
        assert pot == expect

    def test_genus_two_vanishes(self, dual2):
        # each handle window needs the non-unit direction, and its
        # square is zero
        table = PotentialTable(dual2)
        for n in range(6):
            assert table.potential(2, n, 5).is_zero()


class TestBlockAlgebra:
    def test_cubic_term(self, block6):
        pot = PotentialTable(block6).potential(0, 0, 3)
        assert pot == T(0, 1) * T(0, 1) * T(0, 2) * Fraction(1, 2)

    def test_gg_classes_contribute_nothing(self, block6):
        # the GG bivector is e5 (x) e5 alone, and no vertex entry puts e5
        # beside only H_0 or e5 indices: the support rule drops the
        # two-vertex tree that the full list keeps, and its value is zero
        pruned = PotentialTable(block6)
        full = PotentialTable(block6, prune=False)
        assert len(pruned.classes(0, 0, 4)) == 0
        assert len(full.classes(0, 0, 4)) == 1
        assert pruned.piece(0, 0, 4).is_zero()
        assert full.piece(0, 0, 4).is_zero()

    def test_handle_window(self, block6):
        # weight 1/24 times the supertrace window 2 T[1,1]
        pot = PotentialTable(block6).potential(1, 1, 1)
        assert pot == T(1, 1) * Fraction(1, 12)


class TestTableBehavior:
    def test_rejects_failing_algebra(self):
        bad = dict(DUAL2_OBJ, integral=["1", "0"])
        with pytest.raises(AlgebraError):
            PotentialTable(parse_algebra(bad))

    def test_rejects_odd_couplings(self, exterior2, block8):
        with pytest.raises(AlgebraError):
            PotentialTable(exterior2)
        with pytest.raises(AlgebraError):
            PotentialTable(block8)

    def test_piece_is_leaf_homogeneous(self, dual2):
        table = PotentialTable(dual2)
        seen = 0
        for (g, n) in [(0, 0), (0, 1), (1, 2)]:
            for ell in range(6):
                piece = table.piece(g, n, ell)
                assert piece.level_zero_degree_part(ell) == piece, (g, n, ell)
                if not piece.is_zero():
                    seen += 1
        assert seen >= 3

    def test_potential_sums_pieces(self, dual2):
        table = PotentialTable(dual2)
        total = table.potential(0, 0, 5)
        sums = Poly.zero()
        for ell in range(6):
            sums = sums + table.piece(0, 0, ell)
        assert total == sums
        with pytest.raises(ValueError):
            table.potential(0, 0, -1)

    def test_inject_is_local(self, dual2):
        clean = PotentialTable(dual2)
        delta = pw(T(0, 1), 3) * Fraction(5) + pw(T(0, 1), 9)
        table = PerturbedTable(dual2, 0, 0, delta)
        assert table.potential(0, 0, 4) == \
            clean.potential(0, 0, 4) + pw(T(0, 1), 3) * Fraction(5)
        assert table.potential(1, 0, 4) == clean.potential(1, 0, 4)

    @pytest.mark.parametrize("g,n,L", [(0, 0, 5), (1, 1, 3), (0, 2, 4)])
    def test_prune_is_transparent(self, dual2, g, n, L):
        pruned = PotentialTable(dual2)
        full = PotentialTable(dual2, prune=False)
        assert pruned.potential(g, n, L) == full.potential(g, n, L)
