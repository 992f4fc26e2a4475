"""The support rule of class generation: it drops only zero graphs, and
it keeps the nonzero GG classes, on which the engine agrees with the
oracle.

Dropped graphs are evaluated by `oracle_evaluate` where they have at most
nine half-edges and by `evaluate_graph` elsewhere, over the oracle grid
g <= 2, n <= 4, L <= 4 of `tests/test_class_weights.py`.  There is one
vertex table per tuple of germ supports, contraction's alone; each is
checked against the full table and against `integrate_basis_word`.  The
rule's test, `live_vertex`, spans the words over the supports instead,
and must answer as the table does.  Its look-ahead reads the splits left
at each layer, which the genus <= 2 lists barely exercise, so cubic6's
potentials above genus 2 are checked too.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

import pytest

from cyclichodge import contract, potentials
from cyclichodge.algebra import parse_algebra
from cyclichodge.builtin import BUILTIN_NAMES, load_builtin
from cyclichodge.contract import (bivector, evaluate_graph, leaf_vector,
                                  live_vertex, mark_matrix, oracle_evaluate)
from cyclichodge.poly import Poly
from cyclichodge.potentials import PotentialTable, enumerate_desc, enumerate_sm
from cyclichodge.relations import run_battery, run_check

from conftest import builtin_json, without_look_aheads

GRID = [(g, n, L) for g in range(3) for n in range(5) for L in range(5)
        if n or 2 * g - 2 + L >= 1]
# the builtins whose H_0 is purely even, so that coupling leaves and
# potentials are defined over them
EVEN_H0 = ("trivial", "dual2", "block6", "live8", "loop8", "cubic6")


def value(alg, graph):
    if graph.n_half_edges <= 9:
        return oracle_evaluate(alg, graph)
    return evaluate_graph(alg, graph)


def classes(g, n, L, alg=None):
    if n == 0:
        return enumerate_sm(g, L, alg)
    return enumerate_desc(g, n, L, alg)


@pytest.mark.parametrize("name,dropped_children", [
    pytest.param("block6", 2927, id="block6"),
    pytest.param("dual2", 2927, id="dual2"),
    pytest.param("live8", 2562, id="live8"),
    pytest.param("loop8", 1944, id="loop8"),
    pytest.param("cubic6", 1348, id="cubic6")])
def test_dropped_graphs_are_zero(request, monkeypatch, name,
                                 dropped_children):
    alg = request.getfixturevalue(name)
    dropped = []
    twin = parse_algebra(builtin_json(name), name=name)
    split = potentials._split

    def recording(graph, rule_alg, *args):
        # every child of every graph of the full lists whose new vertex
        # the rule finds zero, also those whose parent it drops too; a
        # child dropped because vertex 0 cannot end live may be nonzero
        # itself, so the rule's reachability is off here, over an equal
        # algebra that keeps these answers in a memo of its own
        children = list(split(graph, rule_alg, *args))
        if rule_alg is None:
            with monkeypatch.context() as patch:
                patch.setattr(potentials, "_reach", lambda *state: True)
                live = list(split(graph, twin, *args))
            dropped.extend(child for child in children if child not in live)
        return children

    monkeypatch.setattr(potentials, "_split", recording)
    # the look-aheads drop children with no class below them before they
    # are split; without them the full lists split more graphs, and the
    # rule's drops among their children are checked too
    without_look_aheads(monkeypatch)
    unkept = []
    kept = nonzero = 0
    for g, n, L in GRID:
        pruned = classes(g, n, L, alg)
        values = {cls.graph: evaluate_graph(alg, cls.graph) for cls in pruned}
        pruned_piece = full_piece = Poly.zero()
        for cls in pruned:
            pruned_piece = pruned_piece + values[cls.graph] * cls.weight
        for cls in classes(g, n, L):
            if cls.graph in values:
                full_piece = full_piece + values[cls.graph] * cls.weight
            else:
                # dropped at a split or at the finished vertex 0
                unkept.append(cls.graph)
        assert pruned_piece == full_piece, (g, n, L)
        kept += len(pruned)
        nonzero += not full_piece.is_zero()
    # a graph's value depends only on its class: evaluate each class once
    zeros = {graph.canonical_form(): graph for graph in dropped + unkept}
    for graph in zeros.values():
        assert value(alg, graph).is_zero(), graph
    assert len(dropped) == dropped_children
    assert kept and nonzero


@pytest.mark.parametrize("name,nonzero", [
    pytest.param("live8", 2, id="live8"),
    pytest.param("loop8", 11, id="loop8"),
    pytest.param("cubic6", 10, id="cubic6")])
def test_engine_matches_oracle_on_gg_classes(request, name, nonzero):
    # the kept classes with a GG edge and at most ten half-edges, over
    # the grid: live8's nonzero ones are trees, loop8's and cubic6's
    # carry a GG cycle
    alg = request.getfixturevalue(name)
    found = 0
    for g, n, L in GRID:
        for cls in classes(g, n, L, alg):
            graph = cls.graph
            if graph.n_half_edges > 10 or all(
                    mark != "GG" for _, _, mark in graph.edges):
                continue
            ref = oracle_evaluate(alg, graph)
            assert evaluate_graph(alg, graph) == ref, graph
            found += not ref.is_zero()
    assert found == nonzero


def test_live8_keeps_its_gg_tree(live8):
    table = PotentialTable(live8)
    T01, T02, T03, T04 = (Poly.var(0, i) for i in range(1, 5))
    assert table.potential(0, 0, 4) == (
        T01 * T01 * T02 * Fraction(1, 2) + T01 * T03 * T04
        + T03 * T03 * T03 * T03 * Fraction(1, 8))
    (tree,) = table.classes(0, 0, 4)
    assert tree.graph.edges == ((0, 1, "GG"),)
    assert tree.weight == Fraction(1, 8)


def test_vertex_tables_keyed_by_supports(monkeypatch):
    # the vertex memo is contraction's alone: class generation builds no
    # vertex table.  Every key is a tuple of germ supports, each the
    # ascending indices that an edge table puts on one leg or on either,
    # or a leaf table carries, and a battery builds each key's table once
    alg = load_builtin("block6")
    built = []
    fold = contract._fold

    def counted(alg, supports):
        built.append(supports)
        return fold(alg, supports)

    monkeypatch.setattr(contract, "_fold", counted)
    lists = PotentialTable(alg)
    assert sum(len(lists.classes(g, n, L)) for g, n, L in GRID) > 0
    assert not built
    assert not any(key[:1] == ("vertex",) for key in alg._memo)
    assert all(r.ok for r in run_battery(alg, 2, 2, table=lists))
    keys = {key[1] for key in alg._memo if key[:1] == ("vertex",)}
    assert keys and len(built) == len(set(built)) and set(built) == keys
    slots = set()
    for key, table in alg._memo.items():
        if key[0] == "edge":
            slots.update(tuple(sorted({k[leg] for k in table}))
                         for leg in (0, 1))
            slots.add(tuple(sorted({i for k in table for i in k})))
        elif key[0] == "leaf":
            slots.add(tuple(sorted(i for (i,) in table)))
    assert all(type(slot) is tuple and slot in slots
               for supports in keys for slot in supports), keys - slots
    run_battery(alg, 2, 2)
    assert len(built) == len(keys)


@pytest.mark.parametrize("name",
                         ["block6", "dual2", "live8", "loop8", "cubic6"])
def test_one_fold_builds_tables_and_rule(request, name):
    # the vertex tables come from one fold and must hold exactly the
    # words that integrate_basis_word, the oracle's fold, finds; the
    # support rule must answer as the full table does
    alg = request.getfixturevalue(name)
    marks = ("GG", "E0", "E1", "IDLOOP")
    support = {m: {i for key in bivector(alg, mark_matrix(alg, m), False)
                   for i in key} for m in ("GG", "IDLOOP")}
    support.update((m, set(leaf_vector(alg, m))) for m in ("E0", "E1"))
    answers = set()
    for arity in range(6):
        # the full table is the one over every index in every slot
        table = contract._vertex_tensor(alg, (tuple(range(alg.dim)),) * arity)
        assert all(len(key) == arity for key in table)
        if arity <= 4:
            for key, value in table.items():
                assert value == alg.integrate_basis_word(key), key
        if arity <= 3:
            for word in product(range(alg.dim), repeat=arity):
                if word not in table:
                    assert alg.integrate_basis_word(word) == 0, word
        # only which marks can sit at each slot of a key matters
        patterns = {tuple(sorted(tuple(m for m in marks if i in support[m])
                                 for i in key)) for key in table}
        for germs in combinations_with_replacement(marks, arity):
            fits = any(all(m in slot for m, slot in zip(order, pattern))
                       for pattern in patterns
                       for order in set(permutations(germs)))
            assert live_vertex(alg, germs) == fits, germs
            answers.add(fits)
    assert answers == {True, False}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_tables_over_random_supports(name):
    # the table over some supports is the full table restricted to them:
    # it holds exactly the words over the supports that
    # integrate_basis_word finds nonzero
    alg = load_builtin(name)
    rng = random.Random(name)
    for arity in range(5):
        full = contract._vertex_tensor(alg, (tuple(range(alg.dim)),) * arity)
        for _ in range(4):
            supports = tuple(tuple(sorted(rng.sample(
                range(alg.dim), rng.randint(0, alg.dim))))
                for _ in range(arity))
            table = contract._vertex_tensor(alg, supports)
            assert table == {key: value for key, value in full.items()
                             if all(map(tuple.__contains__, supports, key))}
            for word in product(*supports):
                assert table.get(word, 0) == alg.integrate_basis_word(word)


@pytest.mark.parametrize("name", EVEN_H0)
def test_live_vertex_matches_tables(name):
    # the span test answers as the vertex table over the germs' supports
    # does, on every multiset of up to eight of these marks; E0 and E1
    # share a support but sort apart, so spans of shared prefixes meet
    # different last slots
    alg = load_builtin(name)
    marks = ("E0", "E1", "GG", "IDLOOP", "UNIT")
    support = {m: tuple(sorted({i for key in bivector(alg, mark_matrix(alg, m),
                                                      False) for i in key}))
               for m in ("GG", "IDLOOP")}
    support.update((m, tuple(sorted(leaf_vector(alg, m))))
                   for m in ("E0", "E1", "UNIT"))
    answers = set()
    for arity in range(9):
        for germs in combinations_with_replacement(marks, arity):
            table = contract._vertex_tensor(alg, tuple(map(support.get, germs)))
            assert live_vertex(alg, germs) == bool(table), germs
            answers.add(bool(table))
    assert answers == {True, False}


@pytest.mark.parametrize("relation", ["string", "dilaton"])
@pytest.mark.parametrize("genus", [3, 4])
def test_cubic6_above_genus_two(cubic6, genus, relation):
    # the look-ahead prunes these lists hardest; each check passes
    assert run_check(cubic6, relation, 3, genus=genus).ok


def test_cubic6_gaussian_weights(cubic6):
    # F_g of cubic6 at no leaves is a sum over GG graphs whose vertex 0
    # takes many splits: a look-ahead that read the wrong number of
    # splits left drops them all and gives 0
    table = PotentialTable(cubic6)
    assert [table.potential(g, 0, 0) for g in (3, 4, 5)] == [
        Poly.const(Fraction(5, 16)), Poly.const(Fraction(1105, 1152)),
        Poly.const(Fraction(565, 128))]
