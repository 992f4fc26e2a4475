"""Exact values are int-first: a whole value is an int, any other value a
Fraction, and no float appears in a table or in a command's JSON.  With
ints in the tables, an `int / int` anywhere would turn into a float
without an error, so these checks walk every table a battery builds and
the JSON of the commands that print values."""

import json
from fractions import Fraction

import pytest

import cyclichodge.cli as cli
from cyclichodge.algebra import check_axioms, derive_ops, parse_algebra
from cyclichodge.builtin import BUILTIN_NAMES, load_builtin
from cyclichodge.contract import evaluate_graph
from cyclichodge.graphs import EDGE_MARKS, MarkedGraph
from cyclichodge.poly import Poly
from cyclichodge.relations import run_battery
from conftest import builtin_json

# the builtins whose H_0 is purely even, so that potentials and the
# identity battery are defined over them
BATTERY_ALGEBRAS = ("trivial", "dual2", "block6", "live8", "loop8", "cubic6")


def int_first(x):
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_algebra_and_derived_matrices(name):
    alg = load_builtin(name)
    der = derive_ops(alg)
    values = list(alg.integral) + [c for plane in alg.product
                                   for terms in plane for _, c in terms]
    for mat in (alg.q, alg.gminus, der.gplus, der.pi4, der.pi0, der.gram,
                der.eta, der.gram_inv, der.eta_inv):
        values += [x for row in mat for x in row]
    values.append(der.supertrace_pi0())
    assert values and all(map(int_first, values)), \
        [x for x in values if not int_first(x)]


def built_tables(alg):
    """The edge, vertex and leaf tables kept with the algebra."""
    return {key: table for key, table in alg._memo.items()
            if key[0] in ("edge", "vertex", "leaf")}


def check_tables(tables):
    kinds = {key[0] for key in tables}
    assert kinds == {"edge", "vertex", "leaf"}, kinds
    for key, table in tables.items():
        for value in table.values():
            if isinstance(value, Poly):
                # a coupling leaf: T[n,i] itself
                assert key[0] == "leaf" and value.terms == {
                    mono: 1 for mono in value.terms}, (key, value)
            else:
                assert int_first(value), (key, value)


@pytest.mark.parametrize("name", BATTERY_ALGEBRAS)
def test_battery_tables(name):
    alg = load_builtin(name)
    results = run_battery(alg, 2, 2)
    assert all(r.ok for r in results)
    check_tables(built_tables(alg))


@pytest.mark.parametrize("name", ("exterior2", "block8"))
def test_tables_over_odd_h0(name):
    # no battery runs over an odd H_0, so evaluate a graph carrying
    # every edge mark (twisted and not, but for the loop) and basis leaves
    alg = load_builtin(name)

    def graph(marks):
        edges = [(0, v + 1, mark) for v, mark in enumerate(marks)]
        edges += [(0, 1, mark) for mark in marks] + [(0, 0, "IDLOOP")]
        leaves = [(v, "UNIT") for v in range(len(marks) + 1)] + [(1, "B2")]
        return MarkedGraph(len(marks) + 1, edges, leaves)

    marks = [mark for mark in EDGE_MARKS if mark != "IDLOOP"]
    evaluate_graph(alg, graph(marks))
    # an empty edge table (GG on exterior2) makes the graph zero before
    # any vertex table is built; the graph over the marks whose tables
    # are nonempty builds them
    evaluate_graph(alg, graph([mark for mark in marks
                               if alg._memo["edge", mark, False]]))
    tables = built_tables(alg)
    assert {key[1:] for key in tables if key[0] == "edge"} == {
        (mark, twist) for mark in marks for twist in (False, True)} | {
        ("IDLOOP", True)}
    check_tables(tables)


def test_one_twelfth_divides_exactly():
    # G_-(e3) gains the unit, so str(x -> G_-(e3) x) is the superdimension
    # 2 of block6 and the report shows 2 / 12 as a Fraction
    obj = builtin_json("block6")
    obj["Gminus"].append([1, 3, "1"])
    (check,) = [c for c in check_axioms(parse_algebra(obj)).checks
                if c.name == "one-twelfth"]
    assert (check.witness, check.detail) == (
        (3,), "str(G_- a*) = 1 but (1/12) str(G_-(a)*) = 1/6")


def floats_in(obj):
    if isinstance(obj, float):
        return [obj]
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return [x for item in obj for x in floats_in(item)]
    return []


COMMANDS = (
    [["axioms", "--algebra", name, "--json"] for name in BUILTIN_NAMES]
    + [["verify", "--algebra", name, "--relation", "all", "--degree", "2",
        "--json"] for name in BATTERY_ALGEBRAS]
    + [["potential", "--algebra", "block6", "--genus", "1", "--desc", "1",
        "--max-leaves", "2", "--classes", "--json"],
       ["potential", "--algebra", "cubic6", "--genus", "2", "--desc", "0",
        "--max-leaves", "1", "--classes", "--json"],
       ["kdv", "--max-genus", "1", "--degree", "3", "--json"]])


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_json_has_no_float(argv, capsys):
    assert cli.main(argv) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj and floats_in(obj) == []
