"""Shared fixtures: the builtin algebras, hand-built variants (scaled2,
and live8, on which a GG class is nonzero), a perturbed potential
table, and a random-graph generator for fuzz comparisons."""

import json
import random
from importlib import resources

import pytest

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


BLOCK6_OBJ = json.loads(
    resources.files("cyclichodge.data").joinpath("block6.json").read_text())

# block6 plus two even H_0 vectors a = e7, b = e8 with a.a = Qe (e4),
# a.G_-e = b and a.b = t (e2): integral(a a G_-e) = integral(Qe G_-e) = 1,
# so a vertex with one GG germ beside two E0 leaves can be nonzero
LIVE8_OBJ = dict(
    BLOCK6_OBJ, name="live8", dim=8,
    parity=BLOCK6_OBJ["parity"] + [0, 0],
    product=BLOCK6_OBJ["product"] + [
        [1, 7, 7, "1"], [7, 1, 7, "1"], [1, 8, 8, "1"], [8, 1, 8, "1"],
        [7, 7, 4, "1"], [7, 5, 8, "1"], [5, 7, 8, "1"],
        [7, 8, 2, "1"], [8, 7, 2, "1"],
    ],
    integral=BLOCK6_OBJ["integral"] + ["0", "0"],
    hodge={"H0": [1, 2, 7, 8], "blocks": BLOCK6_OBJ["hodge"]["blocks"]},
)


@pytest.fixture(scope="session")
def live8():
    """The smallest algebra here on which a GG class is nonzero."""
    return parse_algebra(LIVE8_OBJ, name="live8")


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
