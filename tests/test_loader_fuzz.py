"""Fuzz of the JSON loaders and of `main`: whatever the input, the
algebra and graph loaders raise nothing but ValueError, and `axioms`
ends with exit 0, 1 or 2, exit 2 with a single error line."""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

import cyclichodge.cli as cli
from cyclichodge.algebra import check_axioms, parse_algebra
from cyclichodge.graphs import MarkedGraph
from conftest import DUAL2_OBJ, builtin_json

KEYS = ["dim", "parity", "unit", "product", "Q", "Gminus", "integral",
        "hodge", "H0", "blocks", "vertices", "edges", "leaves"]
SCALARS = (st.none() | st.booleans() | st.integers(-2, 7) | st.integers()
           | st.floats(allow_nan=False, allow_infinity=False)
           | st.integers(-2, 7).map(float)
           | st.text(max_size=4)
           | st.sampled_from(["1", "-1", "1/2", "0", "E0", "E1", "GG", "ID",
                              "B2", "UNIT"]))
JSON = st.recursive(
    SCALARS,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3),
                                    kids, max_size=4)),
    max_leaves=12)


def _paths(obj, prefix=()):
    """Paths (key sequences) to every value nested inside obj."""
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, val in items:
        yield prefix + (key,)
        yield from _paths(val, prefix + (key,))


def mutated(base):
    """base with one value at any depth replaced by arbitrary JSON, or
    removed."""
    paths = list(_paths(base))

    @st.composite
    def strategy(draw):
        obj = copy.deepcopy(base)
        *route, last = draw(st.sampled_from(paths))
        parent = obj
        for key in route:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[last]
        else:
            parent[last] = draw(JSON)
        return obj

    return strategy()


ALGEBRAS = (JSON | mutated(DUAL2_OBJ)
            | mutated(builtin_json("block6")))
GRAPHS = JSON | mutated({"vertices": 2, "edges": [[1, 2, "GG"], [1, 1, "ID"]],
                         "leaves": [[1, "E0"], [2, "B1"]]})


@settings(max_examples=150, deadline=None)
@given(ALGEBRAS, GRAPHS)
def test_loaders_raise_only_value_error(alg_obj, graph_obj):
    for load, obj in ((parse_algebra, alg_obj),
                      (MarkedGraph.from_json_obj, graph_obj)):
        try:
            load(obj)
        except ValueError:
            pass


@pytest.fixture(scope="module")
def algebra_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "algebra.json"


@settings(max_examples=100, deadline=None)
@given(obj=ALGEBRAS)
def test_axioms_exit_codes(algebra_path, obj):
    algebra_path.write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["axioms", "--algebra", str(algebra_path)])
    # exit 1 only when the algebra loaded and an axiom failed
    try:
        expected = 0 if check_axioms(parse_algebra(obj)).ok else 1
    except ValueError:
        expected = 2
    assert rc == expected
    if rc == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert out.getvalue() == ""
    else:
        assert err.getvalue() == ""
