"""Class generation builds each class once, by canonical augmentation.

The reference splits every pair of GG half-edges or E0 leaves at vertex
0, with the support rule's test on the new vertex, and keeps one graph
per `canonical_form` after each layer.  Over the oracle grid g <= 2,
n <= 4, L <= 4 of `tests/test_class_weights.py` both give the same class
lists: the same graphs, weights, |Aut| and order.  The production
generator takes one canonical form per class, so it never builds a
graph twice.

Its two look-aheads drop children with no class below them: the lists
are the same without them, and each child the canonical look-ahead
drops, grown to the end of its sum, has no final graph that passes the
canonical test.  Under a synthetic liveness, the move rule keeps exactly
the classes whose vertices are all live.
"""

import random
from fractions import Fraction
from itertools import combinations, repeat

import pytest

from cyclichodge import potentials
from cyclichodge.contract import live_vertex
from cyclichodge.graphs import MarkedGraph
from cyclichodge.potentials import (WeightedGraphClass, enumerate_desc,
                                    enumerate_sm)

from conftest import without_look_aheads

GRID = [(g, n, L) for g in range(3) for n in range(5) for L in range(5)
        if n or 2 * g - 2 + L >= 1]


def every_split(graph, alg):
    """Every graph made by moving an unordered pair of GG half-edges or E0
    leaves off vertex 0 onto a new vertex joined to vertex 0 by GG; given
    an algebra, only those whose new vertex can be nonzero over it."""
    w = graph.n_vertices
    germs = [(0, e, end) for e, edge in enumerate(graph.edges)
             if edge[2] == "GG" for end in (0, 1) if edge[end] == 0]
    germs += [(1, j, 0) for j, leaf in enumerate(graph.leaves)
              if leaf == (0, "E0")]
    for pair in combinations(germs, 2):
        marks = ["GG"] + [("GG", "E0")[table] for table, _, _ in pair]
        if alg is not None and not live_vertex(alg, marks):
            continue
        tables = ([list(edge) for edge in graph.edges],
                  [list(leaf) for leaf in graph.leaves])
        for table, entry, slot in pair:
            tables[table][entry][slot] = w
        yield MarkedGraph(w + 1, tables[0] + [(0, w, "GG")], tables[1])


def reference_classes(roses, valid, alg):
    """The classes grown from each rose by every split, one graph per
    canonical form after each layer; given an algebra, only those whose
    finished vertex 0 can be nonzero too."""
    found = {}
    for rose, _, splits in roses:
        layer = {rose.canonical_form(): rose}
        for _ in range(splits):
            layer = {child.canonical_form(): child
                     for graph in layer.values()
                     for child in every_split(graph, alg)}
        for key, graph in layer.items():
            marks = ([m for (u, v, m) in graph.edges for end in (u, v)
                      if end == 0]
                     + [m for (v, m) in graph.leaves if v == 0])
            if alg is None or live_vertex(alg, marks):
                found[key] = graph
    classes = []
    for key in sorted(found):
        graph = found[key].canonical_graph()
        assert valid(graph)[0], graph
        handles = sum(m == "IDLOOP" for (_, _, m) in graph.edges)
        aut = graph.automorphism_order()
        classes.append(WeightedGraphClass(
            graph, Fraction(1, 12) ** handles / aut, aut, handles))
    return classes


def class_lists(alg):
    return [enumerate_sm(g, L, alg) if n == 0 else enumerate_desc(g, n, L, alg)
            for g, n, L in GRID]


@pytest.mark.parametrize("name", [None, "live8", "loop8", "cubic6"])
def test_orbit_splits_keep_every_class(request, monkeypatch, name):
    alg = None if name is None else request.getfixturevalue(name)
    augmented = class_lists(alg)
    monkeypatch.setattr(potentials, "_classes", reference_classes)
    reference = class_lists(alg)
    assert augmented == reference
    assert any(augmented)


@pytest.mark.parametrize("name", [None, "live8", "loop8", "cubic6"])
def test_checked_graphs_match_public_twins(request, monkeypatch, name):
    # split children and class representatives skip the constructor's
    # checks; each must be the graph the public constructor builds from
    # its tuples, with the same germ lists and connectivity
    alg = None if name is None else request.getfixturevalue(name)
    children = []
    split = potentials._split

    def recording(*args):
        for child in split(*args):
            children.append(child)
            yield child

    monkeypatch.setattr(potentials, "_split", recording)
    classes = sum(class_lists(alg), [])
    assert children
    graphs = children + [cls.graph for cls in classes]
    for graph in graphs:
        twin = MarkedGraph(graph.n_vertices, graph.edges, graph.leaves)
        assert graph == twin
        assert type(graph.edges) is type(graph.leaves) is tuple
        assert graph.germs() == twin.germs()
        assert graph.is_connected() == twin.is_connected()


@pytest.mark.parametrize("name", [None, "loop8"])
def test_split_parents_fix_vertex_zero(request, monkeypatch, name):
    # `_split` names a pair by its far ends and reads their orbits under
    # every automorphism: sound because each graph it splits has vertex 0
    # alone in its vertex orbit (degree >= 4 or the arrow there, every
    # other vertex trivalent).  Over an algebra the check runs on loop8,
    # whose GG cycles keep split parents with a nontrivial vertex orbit
    # under the look-ahead (live8's few parents there have none)
    alg = None if name is None else request.getfixturevalue(name)
    parents = []
    split = potentials._split

    def recording(graph, *args):
        parents.append(graph)
        return split(graph, *args)

    monkeypatch.setattr(potentials, "_split", recording)
    class_lists(alg)
    symmetric = 0
    for graph in parents:
        ids = graph.orbits(range(graph.n_vertices), lambda p, v: p[v])
        assert ids[0] not in ids[1:], graph
        symmetric += len(set(ids)) < graph.n_vertices
    assert symmetric > 0, len(parents)


def counted(monkeypatch, build):
    """The classes `build` returns, and how many canonical forms, sweeps
    and canonical tests it takes."""
    calls = {"canonical_form": 0, "_sweep_orderings": 0, "_canonical": 0}

    def counting(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    for name in ("canonical_form", "_sweep_orderings"):
        monkeypatch.setattr(MarkedGraph, name,
                            counting(name, getattr(MarkedGraph, name)))
    monkeypatch.setattr(potentials, "_canonical",
                        counting("_canonical", potentials._canonical))
    classes = build()
    monkeypatch.undo()
    return (classes, calls["canonical_form"], calls["_sweep_orderings"],
            calls["_canonical"])


@pytest.mark.parametrize("name", [None, "block6", "live8", "loop8", "cubic6"])
def test_one_canonical_form_per_class(request, monkeypatch, name):
    # every accepted graph is a new class: none is built, swept or held
    # twice, with the support rule on or off
    alg = None if name is None else request.getfixturevalue(name)
    lists, forms, _, _ = counted(monkeypatch, lambda: class_lists(alg))
    assert forms == sum(map(len, lists)) > 0


def test_genus_two_canonical_forms(monkeypatch):
    # the two lists of the classes-genus2 benchmark workload: one
    # canonical form per class, and a sweep for each parent, each class
    # and each child whose local invariant ties; an acceptance rule that
    # sweeps every child raises the sweep counts, and a generator that
    # loses a look-ahead tests and sweeps more children
    primary = lambda: sum((enumerate_sm(2, L) for L in range(5)), [])
    level1 = lambda: sum((enumerate_desc(2, 1, L) for L in range(4)), [])
    classes, forms, sweeps, tests = counted(monkeypatch, primary)
    assert (len(classes), forms, sweeps, tests) == (83, 83, 248, 388)
    classes, forms, sweeps, tests = counted(monkeypatch, level1)
    assert (len(classes), forms, sweeps, tests) == (112, 112, 193, 290)


def test_genus_three_look_ahead_counts(monkeypatch):
    # the genus-3 primary lists up to four leaves: without the canonical
    # look-ahead they take 4,620 sweeps and 11,538 canonical tests
    classes, forms, sweeps, tests = counted(
        monkeypatch, lambda: sum((enumerate_sm(3, L) for L in range(5)), []))
    assert (len(classes), forms, sweeps, tests) == (688, 688, 2465, 4016)


# the primary lists each look-ahead test runs on: g <= 3, L <= 4, and over
# cubic6, the only builtin whose support rule leaves the look-ahead
# children to drop, its leafless genus-4 and genus-5 lists; live8's rule
# leaves none
PRIMARY = [(g, L) for g in range(4) for L in range(5)]


@pytest.mark.parametrize("name,pieces,drops", [
    pytest.param(None, PRIMARY, 2284, id="none"),
    pytest.param("live8", PRIMARY, 0, id="live8"),
    pytest.param("cubic6", PRIMARY + [(4, 0), (5, 0)], 233, id="cubic6")])
def test_look_ahead_drops_no_canonical_descendant(request, monkeypatch, name,
                                                  pieces, drops):
    # each child the canonical look-ahead drops, grown by every split of
    # each canonical graph to the end of its sum, has no final graph that
    # passes the canonical test
    alg = None if name is None else request.getfixturevalue(name)
    dropped = []
    may_win = potentials._may_win

    def recording(graph):
        if may_win(graph):
            return True
        dropped.append(graph)
        return False

    monkeypatch.setattr(potentials, "_may_win", recording)
    for g, L in pieces:
        enumerate_sm(g, L, alg)
    assert len(dropped) == drops
    for graph in {graph.canonical_form(): graph for graph in dropped}.values():
        # vertex 0 ends with three germs, one fewer after each split
        layer = [graph]
        for left in reversed(range(graph.degree(0) - 3)):
            layer = [child for parent in layer
                     if potentials._canonical(parent, True)
                     for child in potentials._split(parent, alg, (), left)]
        assert not any(potentials._canonical(final, False)
                       for final in layer), graph


@pytest.mark.parametrize("name", [None, "live8", "loop8", "cubic6"])
def test_look_aheads_drop_no_class(request, monkeypatch, name):
    alg = None if name is None else request.getfixturevalue(name)
    lists = class_lists(alg)
    without_look_aheads(monkeypatch)
    assert class_lists(alg) == lists
    assert any(lists)


class MemoOnly:
    """An algebra with nothing but the memo that class generation keeps
    its move rule's answers in."""

    def __init__(self):
        self.kept = {}

    def memo(self, key, build):
        if key not in self.kept:
            self.kept[key] = build()
        return self.kept[key]


def vertex_marks(graph):
    marks = [[] for _ in range(graph.n_vertices)]
    for u, v, mark in graph.edges:
        marks[u].append(mark)
        marks[v].append(mark)
    for v, mark in graph.leaves:
        marks[v].append(mark)
    return marks


def test_move_rule_keeps_exactly_the_live_classes(monkeypatch):
    # with liveness a seeded random predicate on a vertex's marks, the
    # pruned lists are the full lists cut to the graphs whose vertices
    # are all live.  Unlike any shipped algebra, these predicates make
    # the rule drop splits whose new vertex is live because vertex 0
    # cannot end live, and those drops are counted
    grid = [(g, n, L) for g, n, L in GRID if n <= 2]
    full = [enumerate_sm(g, L) if n == 0 else enumerate_desc(g, n, L)
            for g, n, L in grid]
    split = potentials._split
    drops = []

    def counting(graph, alg, *args):
        children = list(split(graph, alg, *args))
        with monkeypatch.context() as patch:
            patch.setattr(potentials, "_reach", lambda *state: True)
            drops[-1] += len(list(split(graph, ahead, *args))) - len(children)
        return children

    monkeypatch.setattr(potentials, "_split", counting)
    for seed in range(40):
        def live(alg, marks):
            key = repr((seed, sorted(marks)))
            return random.Random(key).random() < 0.7

        monkeypatch.setattr(potentials, "live_vertex", live)
        drops.append(0)
        ahead = MemoOnly()
        for (g, n, L), classes in zip(grid, full):
            alg = MemoOnly()
            pruned = (enumerate_sm(g, L, alg) if n == 0
                      else enumerate_desc(g, n, L, alg))
            assert pruned == [
                cls for cls in classes
                if all(map(live, repeat(None), vertex_marks(cls.graph)))], (
                    seed, g, n, L)
    # 3,442 drops, under 33 of the 40 seeds
    assert (sum(drops), sum(map(bool, drops))) == (3442, 33), drops
