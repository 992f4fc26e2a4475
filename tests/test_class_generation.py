"""Class generation splits once per automorphism orbit of germ pairs.

The reference splits every pair of GG half-edges or E0 leaves at vertex
0, with the support rule's test on the new vertex, and leaves the rest to
the dedup by `canonical_form`.  Over the oracle grid g <= 2, n <= 4,
L <= 4 of `tests/test_class_weights.py` both give the same class lists:
the same graphs, weights, |Aut| and order.
"""

from itertools import combinations

import pytest

from cyclichodge import potentials
from cyclichodge.contract import live_vertex
from cyclichodge.graphs import MarkedGraph
from cyclichodge.potentials import enumerate_desc, enumerate_sm

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


def class_lists(alg):
    return [enumerate_sm(g, L, alg) if n == 0 else enumerate_desc(g, n, L, alg)
            for g, n, L in GRID]


@pytest.mark.parametrize("name", [None, "live8", "loop8", "cubic6"])
def test_orbit_splits_keep_every_class(request, monkeypatch, name):
    alg = None if name is None else request.getfixturevalue(name)
    orbit = class_lists(alg)
    monkeypatch.setattr(potentials, "_split", every_split)
    reference = class_lists(alg)
    assert orbit == reference
    assert any(orbit)


def canonical_forms(monkeypatch, lists):
    """How many canonical forms building the lists takes."""
    calls = []
    canonical_form = MarkedGraph.canonical_form

    def counting(graph):
        calls.append(graph)
        return canonical_form(graph)

    monkeypatch.setattr(MarkedGraph, "canonical_form", counting)
    classes = sum((build() for build in lists), [])
    monkeypatch.undo()
    return len(classes), len(calls)


def test_genus_two_canonical_forms(monkeypatch):
    # the two lists of the classes-genus2 benchmark workload: one child
    # per orbit of germ pairs, one canonical form per child and none for
    # a lone rose; a split rule that merges fewer orbits raises the counts
    primary = [lambda L=L: enumerate_sm(2, L) for L in range(5)]
    level1 = [lambda L=L: enumerate_desc(2, 1, L) for L in range(4)]
    assert canonical_forms(monkeypatch, primary) == (83, 1006)
    assert canonical_forms(monkeypatch, level1) == (112, 343)
