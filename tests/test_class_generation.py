"""Class generation builds each class once, by canonical augmentation.

The reference splits every pair of GG half-edges or E0 leaves at vertex
0, with the support rule's test on the new vertex, and keeps one graph
per `canonical_form` after each layer.  Over the oracle grid g <= 2,
n <= 4, L <= 4 of `tests/test_class_weights.py` both give the same class
lists: the same graphs, weights, |Aut| and order.  The production
generator takes one canonical form per class, so it never builds a
graph twice.
"""

from fractions import Fraction
from itertools import combinations

import pytest

from cyclichodge import potentials
from cyclichodge.contract import live_vertex
from cyclichodge.graphs import MarkedGraph
from cyclichodge.potentials import (WeightedGraphClass, enumerate_desc,
                                    enumerate_sm)

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

    def recording(graph, alg):
        for child in split(graph, alg):
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

    def recording(graph, alg):
        parents.append(graph)
        return split(graph, alg)

    monkeypatch.setattr(potentials, "_split", recording)
    class_lists(alg)
    symmetric = 0
    for graph in parents:
        ids = graph.orbits(range(graph.n_vertices), lambda p, v: p[v])
        assert ids[0] not in ids[1:], graph
        symmetric += len(set(ids)) < graph.n_vertices
    assert symmetric > 0, len(parents)


def counted(monkeypatch, build):
    """The classes `build` returns, and how many canonical forms and
    sweeps it takes."""
    calls = {"canonical_form": 0, "_sweep_orderings": 0}
    for name in calls:
        method = getattr(MarkedGraph, name)

        def counting(graph, name=name, method=method):
            calls[name] += 1
            return method(graph)

        monkeypatch.setattr(MarkedGraph, name, counting)
    classes = build()
    monkeypatch.undo()
    return classes, calls["canonical_form"], calls["_sweep_orderings"]


@pytest.mark.parametrize("name", [None, "block6", "live8", "loop8", "cubic6"])
def test_one_canonical_form_per_class(request, monkeypatch, name):
    # every accepted graph is a new class: none is built, swept or held
    # twice, with the support rule on or off
    alg = None if name is None else request.getfixturevalue(name)
    lists, forms, _ = counted(monkeypatch, lambda: class_lists(alg))
    assert forms == sum(map(len, lists)) > 0


def test_genus_two_canonical_forms(monkeypatch):
    # the two lists of the classes-genus2 benchmark workload: one
    # canonical form per class, and a sweep for each parent, each class
    # and each child whose local invariant ties; an acceptance rule that
    # sweeps every child raises the sweep counts
    primary = lambda: sum((enumerate_sm(2, L) for L in range(5)), [])
    level1 = lambda: sum((enumerate_desc(2, 1, L) for L in range(4)), [])
    classes, forms, sweeps = counted(monkeypatch, primary)
    assert (len(classes), forms, sweeps) == (83, 83, 346)
    classes, forms, sweeps = counted(monkeypatch, level1)
    assert (len(classes), forms, sweeps) == (112, 112, 247)
