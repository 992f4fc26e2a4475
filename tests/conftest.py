"""Shared fixtures: the builtin algebras (live8, loop8 and cubic6 are
those on which a GG class is nonzero) and their shipped JSON, the
hand-built variant scaled2, a perturbed potential table, a vertex
relabeling, a random-graph generator for fuzz comparisons, and class
generation without its look-aheads."""

import json
from importlib import resources

import pytest

from cyclichodge import potentials
from cyclichodge.algebra import parse_algebra
from cyclichodge.builtin import load_builtin
from cyclichodge.graphs import MarkedGraph
from cyclichodge.potentials import PotentialTable


@pytest.fixture(scope="session")
def trivial():
    return load_builtin("trivial")


@pytest.fixture(scope="session")
def dual2():
    return load_builtin("dual2")


@pytest.fixture(scope="session")
def exterior2():
    return load_builtin("exterior2")


@pytest.fixture(scope="session")
def block6():
    return load_builtin("block6")


@pytest.fixture(scope="session")
def block8():
    return load_builtin("block8")


def builtin_json(name):
    """A fresh copy of the JSON object that ships as builtin `name`, the
    layout a user writes an algebra file in."""
    text = resources.files("cyclichodge.data").joinpath(f"{name}.json").read_text()
    return json.loads(text)


DUAL2_OBJ = {
    "dim": 2,
    "parity": [0, 0],
    "unit": 1,
    "product": [
        [1, 1, 1, "1"], [1, 2, 2, "1"], [2, 1, 2, "1"],
    ],
    "Q": [],
    "Gminus": [],
    "integral": ["0", "1"],
    "hodge": {"H0": [1, 2], "blocks": []},
}

SCALED2_OBJ = dict(DUAL2_OBJ, integral=["0", "3"])


@pytest.fixture(scope="session")
def scaled2():
    """Q[x]/(x^2) with integral(x) = 3: the pairing on H_0 differs from
    its inverse, so it separates the two pairing conventions."""
    return parse_algebra(SCALED2_OBJ, name="scaled2")


@pytest.fixture(scope="session")
def live8():
    """block6 with a nonzero genus-0 GG tree."""
    return load_builtin("live8")


@pytest.fixture(scope="session")
def loop8():
    """block6 with nonzero genus-1 GG cycles."""
    return load_builtin("loop8")


@pytest.fixture(scope="session")
def cubic6():
    """block6 with nonzero genus-2 GG classes."""
    return load_builtin("cubic6")


class PerturbedTable(PotentialTable):
    """A potential table whose (g, n) potential has `delta` added, split
    by leaf count so that every leaf window stays exact."""

    def __init__(self, alg, g, n, delta):
        super().__init__(alg)
        self.perturbed = (g, n)
        self.delta = delta

    def piece(self, g, n, ell):
        out = super().piece(g, n, ell)
        if (g, n) == self.perturbed:
            out = out + self.delta.level_zero_degree_part(ell)
        return out


def relabel(graph, perm):
    """A new graph with vertex v of `graph` renamed perm[v]."""
    return MarkedGraph(
        graph.n_vertices,
        [(perm[u], perm[v], m) for (u, v, m) in graph.edges],
        [(perm[v], m) for (v, m) in graph.leaves])


def random_connected_graph(rng, dim, couplings=True, max_vertices=3):
    """Random small connected marked multigraph over a dim-dimensional
    algebra.  With couplings=False only UNIT/B leaves appear (needed for
    algebras whose H_0 contains odd vectors)."""
    from cyclichodge.graphs import EDGE_MARKS

    nv = rng.randint(1, max_vertices)
    edges = []
    for v in range(1, nv):
        u = rng.randrange(v)
        edges.append((u, v, rng.choice([m for m in EDGE_MARKS if m != "IDLOOP"])))
    for _ in range(rng.randint(0, 2)):
        u = rng.randrange(nv)
        v = rng.randrange(nv)
        if u == v:
            mark = rng.choice(EDGE_MARKS)
        else:
            mark = rng.choice([m for m in EDGE_MARKS if m != "IDLOOP"])
        edges.append((min(u, v), max(u, v), mark))
    leaf_pool = ["UNIT"] + [f"B{i}" for i in range(1, dim + 1)]
    if couplings:
        leaf_pool += ["E0", "E0", "E1", "E2"]
    leaves = [(rng.randrange(nv), rng.choice(leaf_pool))
              for _ in range(rng.randint(0, 3))]
    return MarkedGraph(nv, edges, leaves)


def without_look_aheads(monkeypatch):
    """Class generation from here on without the two look-aheads that
    drop children with no class below them: the canonical look-ahead of
    a primary sum, and the move rule's reachability when there is no
    algebra (the split count).  Given an algebra the move rule stays."""
    reach = potentials._reach
    monkeypatch.setattr(potentials, "_may_win", lambda graph: True)
    monkeypatch.setattr(potentials, "_reach",
                        lambda alg, *state: alg is None or reach(alg, *state))
