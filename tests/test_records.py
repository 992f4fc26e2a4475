"""The package's records keep their text, equality and defaults.

`CHAlgebra`, `AxiomCheck` and `EvalPlan` print as they always have;
algebras compare and hash on their data alone, not on their name or the
operators derived from them; and every shipped algebra is the one its
JSON file describes.
"""

import pytest

from cyclichodge.algebra import AxiomCheck, check_axioms, parse_algebra
from cyclichodge.builtin import BUILTIN_NAMES, load_builtin
from cyclichodge.contract import EvalPlan, make_plan
from cyclichodge.graphs import MarkedGraph
from cyclichodge.relations import Residual

from conftest import builtin_json


def test_reprs():
    assert repr(load_builtin("trivial")) == (
        "CHAlgebra(dim=1, parity=(0,), unit=0, product=((((0, 1),),),), "
        "q=((0,),), gminus=((0,),), integral=(1,), h0=(0,), blocks=(), "
        "name='trivial')")
    assert repr(AxiomCheck("unit-parity", False, (1, 2), "odd")) == (
        "AxiomCheck(name='unit-parity', passed=False, witness=(1, 2), "
        "detail='odd')")
    plan = make_plan(MarkedGraph(2, [(0, 1, "GG")] * 2, [(0, "E0")]))
    assert repr(plan) == (
        "EvalPlan(vertex_order=(0, 1), germ_order=((0, 2, 4), (1, 3)), "
        "sign_edges=frozenset({1}))")
    assert plan == EvalPlan((0, 1), plan.germ_order, frozenset({1}))


def test_algebras_compare_on_data_alone(block6):
    named = parse_algebra(builtin_json("block6"), name="other")
    assert named == block6 and hash(named) == hash(block6)
    assert named.name == "other" and block6.name == "block6"
    assert named != load_builtin("cubic6")
    assert named != builtin_json("block6")


def test_rebuilt_algebra_derives_its_own_data(block6):
    check_axioms(block6)
    rebuilt = parse_algebra(builtin_json("block6"), name="block6")
    assert block6._memo and not rebuilt._memo
    assert rebuilt.memo("key", lambda: 1) == 1
    assert "key" not in block6._memo


def test_record_defaults():
    check = AxiomCheck("unit-parity", True)
    assert check.witness == () and check.detail == ""
    first = Residual("string", 2, {}, True, {})
    second = Residual(relation="string", degree=2, params={}, ok=True,
                      residuals={})
    assert first.witness is None and first.details == {}
    first.details["x"] = 1
    assert second.details == {}
    first.ok = False
    assert not first.ok


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_is_its_shipped_file(name):
    alg = load_builtin(name)
    assert alg == parse_algebra(builtin_json(name), name=name)
    assert alg.name == name
