"""Graph contraction: anchors, plan independence, engine vs oracle."""

import json
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest

import cyclichodge.contract as contract
from cyclichodge.algebra import CHAlgebra, check_axioms, parse_algebra
from cyclichodge.builtin import load_builtin
from cyclichodge.contract import (
    EvalPlan, _build_factors, _sign_factors, _target_positions, bivector,
    evaluate_graph, leaf_vector, make_plan, mark_matrix, oracle_evaluate,
    random_plan, validate_plan,
)
from cyclichodge.graphs import EDGE_MARKS, MarkedGraph
from cyclichodge.poly import Poly
from cyclichodge.potentials import PotentialTable
from cyclichodge.relations import run_battery
from conftest import builtin_json, random_connected_graph


def T(n, i):
    return Poly.var(n, i)


class TestHandAnchors:
    def test_three_point_vertex(self, trivial):
        g = MarkedGraph(1, [], [(0, "E0")] * 3)
        assert evaluate_graph(trivial, g) == T(0, 1) * T(0, 1) * T(0, 1)

    def test_unit_pairing_vertex(self, dual2):
        # integral(1 * a * b) sums the gram matrix over the couplings
        g = MarkedGraph(1, [], [(0, "UNIT"), (0, "E0"), (0, "E0")])
        assert evaluate_graph(dual2, g) == T(0, 1) * T(0, 2) * 2

    def test_handle_window_is_supertrace(self, trivial, dual2, block6):
        # IDLOOP + arrow: coefficient of T[1,1] is str(Id) = dim_even - dim_odd
        g = MarkedGraph(1, [(0, 0, "IDLOOP")], [(0, "E1")])
        assert evaluate_graph(trivial, g) == T(1, 1)
        assert evaluate_graph(dual2, g) == T(1, 1) * 2
        # on block6 the unit-slot coupling drops out: G^-1[1][1] = 0
        assert evaluate_graph(block6, g) == T(1, 1) * 2

    def test_odd_identity_edge(self, exterior2):
        # two odd basis leaves joined through the identity: the pairing
        # of theta1 with theta2 with one Koszul crossing
        g = MarkedGraph(2, [(0, 1, "ID")], [(0, "B2"), (1, "B3")])
        assert evaluate_graph(exterior2, g) == Poly.const(-1)
        assert oracle_evaluate(exterior2, g) == Poly.const(-1)

    def test_gg_vanishes_without_blocks(self, trivial, dual2, exterior2):
        theta = MarkedGraph(2, [(0, 1, "GG")] * 3)
        for alg in (trivial, dual2, exterior2):
            assert mark_matrix(alg, "GG") == tuple(
                tuple(Fraction(0) for _ in range(alg.dim))
                for _ in range(alg.dim))
            assert evaluate_graph(alg, theta).is_zero()

    def test_gm_composes_blockwise(self, block6):
        # GG = G_- G_+ sends Qe (basis 4) to G_-e (basis 5)
        gg = mark_matrix(block6, "GG")
        assert gg[4][3] == 1
        assert sum(1 for row in gg for x in row if x != 0) == 1


class TestBivector:
    @pytest.mark.parametrize("mark", EDGE_MARKS)
    def test_defining_property(self, block8, mark):
        # sum_i c[i,j] (e_i, e_k) must equal the e_j-coordinate of the
        # (possibly twisted) operator applied to e_k
        alg = block8
        gram = alg.gram()
        mat = mark_matrix(alg, mark)
        for twist in (False, True):
            biv = bivector(alg, mat, twist)
            target = mat
            if twist:
                target = tuple(tuple(-x if alg.parity[i] else x for x in row)
                               for i, row in enumerate(mat))
            for j in range(alg.dim):
                for k in range(alg.dim):
                    lhs = sum((biv.get((i, j), Fraction(0)) * gram[i][k]
                               for i in range(alg.dim)), Fraction(0))
                    assert lhs == target[j][k], (mark, twist, j, k)

    def test_leaf_vectors(self, dual2, block8):
        assert leaf_vector(dual2, "UNIT") == {0: Fraction(1)}
        assert leaf_vector(dual2, "B2") == {1: Fraction(1)}
        ev = leaf_vector(dual2, "E3")
        assert ev == {0: T(3, 1), 1: T(3, 2)}
        with pytest.raises(ValueError):
            leaf_vector(dual2, "B9")
        # odd H_0 refuses coupling leaves
        with pytest.raises(ValueError):
            leaf_vector(block8, "E0")
        assert leaf_vector(block8, "UNIT") == {0: Fraction(1)}
        # the engine keeps no leaf table for a failed build
        for alg, mark in ((dual2, "B9"), (block8, "E0")):
            g = MarkedGraph(1, [], [(0, mark)])
            for _ in range(2):
                with pytest.raises(ValueError):
                    evaluate_graph(alg, g)


class TestPlans:
    def test_default_plan_valid(self):
        g = MarkedGraph(3, [(0, 1, "GG"), (1, 2, "GG"), (0, 2, "GG"),
                            (1, 1, "ID")], [(2, "UNIT")])
        plan = make_plan(g)
        validate_plan(g, plan)
        # loops and exactly one cycle edge are twisted
        assert len(plan.sign_edges) == 2
        assert 3 in plan.sign_edges

    def test_traversal_against_union_find(self):
        # random multigraphs with loops, parallel edges, leaves, isolated
        # vertices and often fewer than V - 1 edges; union-find over all
        # edges is the independent connectivity check
        rng = random.Random(15)
        connected = 0
        for _ in range(600):
            nv = rng.randint(1, 6)
            edges = [(rng.randrange(nv), rng.randrange(nv), "GG")
                     for _ in range(rng.randint(0, 8))]
            leaves = [(rng.randrange(nv), "E0")
                      for _ in range(rng.randint(0, 3))]
            g = MarkedGraph(nv, edges, leaves)
            merges = len(contract._forest_edges(g, range(g.n_edges)))
            assert g.is_connected() == (merges == nv - 1)
            order, tree = g.traversal()
            assert order[0] == 0 and len(set(order)) == len(order)
            assert len(tree) == len(order) - 1
            for i, k in enumerate(tree, 1):
                # the edge that reached order[i] joins it to a vertex
                # reached before it
                u, v, _ = g.edges[k]
                far = {u, v} - {order[i]}
                assert len(far) == 1 and far <= set(order[:i])
            if g.is_connected():
                connected += 1
                validate_plan(g, make_plan(g))
        assert 100 < connected < 500

    def test_disconnected_rejected(self):
        g = MarkedGraph(2, [])
        with pytest.raises(ValueError):
            make_plan(g)
        with pytest.raises(ValueError, match="connected graphs only"):
            random_plan(g, random.Random(0))
        with pytest.raises(ValueError):
            evaluate_graph(None, g)

    def test_validate_rejects_bad_plans(self, block6):
        g = MarkedGraph(2, [(0, 1, "GG"), (0, 1, "GG")])
        good = make_plan(g)
        bad = [
            (EvalPlan((0, 0), good.germ_order, good.sign_edges),
             "vertex order must be a permutation"),
            (EvalPlan(good.vertex_order, good.germ_order[:1], good.sign_edges),
             "needs a germ order for every vertex"),
            (EvalPlan(good.vertex_order, ((0, 1), (2, 3)), good.sign_edges),
             "germ order of vertex 1 does not match"),
            # both edges twisted: no spanning tree
            (EvalPlan(good.vertex_order, good.germ_order, frozenset({0, 1})),
             "must form a spanning tree"),
            # both untwisted: a cycle
            (EvalPlan(good.vertex_order, good.germ_order, frozenset()),
             "must not close a cycle"),
            (EvalPlan(good.vertex_order, good.germ_order, frozenset({5})),
             "sign edge index out of range"),
        ]
        for plan, message in bad:
            with pytest.raises(ValueError, match=message):
                validate_plan(g, plan)
            # evaluation checks a plan only when the caller supplies one
            with pytest.raises(ValueError):
                evaluate_graph(block6, g, plan)

    def test_germ_reorder_changes_nothing_even(self, dual2):
        g = MarkedGraph(1, [], [(0, "E0"), (0, "UNIT"), (0, "E1")])
        base = make_plan(g)
        ref = evaluate_graph(dual2, g, base)
        swapped = EvalPlan(base.vertex_order, ((2, 0, 1),), base.sign_edges)
        assert evaluate_graph(dual2, g, swapped) == ref


class TestFuzz:
    def test_plan_independence_and_oracle(self, trivial, dual2, exterior2,
                                          block6, block8, scaled2):
        # scaled2 is the one algebra whose tensors have denominators
        rng = random.Random(90125)
        for alg in (trivial, dual2, exterior2, block6, block8, scaled2):
            couplings = not any(alg.parity[i] for i in alg.h0)
            for _ in range(10):
                graph = random_connected_graph(rng, alg.dim,
                                               couplings=couplings)
                ref = oracle_evaluate(alg, graph)
                assert evaluate_graph(alg, graph) == ref, repr(graph)
                plan = random_plan(graph, rng)
                assert evaluate_graph(alg, graph, plan) == ref, repr(graph)
                assert oracle_evaluate(alg, graph, plan) == ref, repr(graph)

    def test_loop_heavy_graphs(self, block8):
        # loops force twisted edges and same-vertex crossings
        rng = random.Random(777)
        for _ in range(8):
            nloops = rng.randint(1, 2)
            marks = [rng.choice(EDGE_MARKS) for _ in range(nloops)]
            leaves = [(0, rng.choice(["UNIT", "B7", "B8", "B3"]))
                      for _ in range(rng.randint(0, 2))]
            g = MarkedGraph(1, [(0, 0, m) for m in marks], leaves)
            assert evaluate_graph(block8, g) == oracle_evaluate(block8, g)


class TestWideVertices:
    def test_engine_matches_oracle(self, block6):
        # one vertex of arity 8 or 9 that shares variables with ID and GG
        # edge factors, so a variable's scope spans a wide factor and
        # narrow ones that overlap it
        U = "UNIT"
        graphs = [
            (MarkedGraph(1, [(0, 0, "ID")], [(0, U)] * 7), Poly.const(2)),
            (MarkedGraph(1, [(0, 0, "ID")], [(0, U)] * 6 + [(0, "E0")]),
             T(0, 1) * 2),
            (MarkedGraph(2, [(0, 1, "ID")], [(0, U)] * 6 + [(0, "E0")]
                         + [(1, "E0")] + [(1, U)] * 5),
             T(0, 1) * T(0, 2) * 2),
            (MarkedGraph(2, [(0, 1, "GG")], [(0, U)] * 6 + [(0, "B4")]
                         + [(1, "B4")] + [(1, U)] * 5), Poly.const(1)),
            (MarkedGraph(2, [(0, 1, "ID")] * 2, [(0, U)] * 6 + [(1, U)] * 5),
             Poly.const(6)),
            (MarkedGraph(3, [(0, 1, "ID"), (0, 2, "GG"), (0, 0, "ID")],
                         [(0, U)] * 5 + [(1, "E0"), (1, U), (2, "B4")]
                         + [(2, U)] * 2), Poly.zero()),
        ]
        rng = random.Random(1100)
        for graph, value in graphs:
            assert oracle_evaluate(block6, graph) == value, repr(graph)
            assert evaluate_graph(block6, graph) == value, repr(graph)
            plan = random_plan(graph, rng)
            assert evaluate_graph(block6, graph, plan) == value, repr(graph)

    def test_thirteen_germ_vertex_in_bounded_memory(self, block6, tmp_path):
        # every slot of the vertex table used to range over every index:
        # this 13-germ vertex built tables of about 1.7M entries (835 MB,
        # 7 s); over its germs' supports it takes a few MB
        obj = {"vertices": 2,
               "edges": [[1, 2, "ID"], [1, 1, "ID"], [1, 1, "ID"],
                         [1, 2, "ID"]],
               "leaves": [[1, "B5"], [1, "B2"], [1, "B6"], [1, "B3"],
                          [1, "B5"], [1, "B6"], [1, "B5"]]}
        assert oracle_evaluate(
            block6, MarkedGraph.from_json_obj(obj)).is_zero()
        path = tmp_path / "vertex13.json"
        path.write_text(json.dumps(obj))
        capped = ("import resource, sys\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (512 << 20,) * 2)\n"
                  "from cyclichodge.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        proc = subprocess.run(
            [sys.executable, "-c", capped, "eval", "--algebra", "block6",
             "--graph", str(path)],
            capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")

    def test_thousand_unit_leaves(self, trivial):
        # 1,100 UNIT leaves on one vertex: every step ties on cost, and
        # each step walks the one wide factor once, not once per variable
        graph = MarkedGraph(1, [], [(0, "UNIT")] * 1100)
        assert evaluate_graph(trivial, graph) == Poly.const(1)


class TestVertexFold:
    @pytest.mark.parametrize("name, degree, products",
                             [("block6", 2, 284), ("live8", 10, 19528)])
    def test_products_per_battery(self, name, degree, products, monkeypatch):
        # the products that build a battery's vertex tables, walking
        # multisets of germs; a walk over every ordering made 904 and
        # 106,356
        alg = load_builtin(name)
        run_battery(alg, degree, degree)
        keys = [key[1] for key in alg._memo if key[0] == "vertex"]
        fresh = load_builtin(name)
        calls = []
        multiply = CHAlgebra.multiply

        def counted(self, u, v):
            calls.append(v)
            return multiply(self, u, v)

        monkeypatch.setattr(CHAlgebra, "multiply", counted)
        tables = [contract._vertex_tensor(fresh, key) for key in keys]
        assert len(calls) == products
        assert tables == [alg._memo["vertex", key] for key in keys]

    @pytest.mark.parametrize("axiom, row, witnesses", [
        # an odd index twice integrates to 5
        ("supercommutativity", [2, 2, 4, "5"], {((1,), (1,)): {(1, 1): 5}}),
        # (e4 e4) e2 e3 = 0 but ((e2 e3) e4) e4 = 1
        ("associativity", [4, 4, 4, "-1"],
         {((3,), (3,), (1,), (2,)): {},
          ((1,), (2,), (3,), (3,)): {(1, 2, 3, 3): 1}}),
    ])
    def test_ungraded_product_folds_literally(self, axiom, row, witnesses):
        # exterior2 with one product entry changed as in test_algebra.py:
        # the integral of a word is no longer graded-symmetric, so the
        # tables take the literal left-to-right fold, and contraction
        # still agrees with the oracle on germs with repeated supports
        obj = builtin_json("exterior2")
        obj["product"] = [e for e in obj["product"]
                          if e[:2] != row[:2]] + [row]
        alg = parse_algebra(obj)
        assert [c.name for c in check_axioms(alg).failures] == [axiom]
        for supports, table in witnesses.items():
            assert contract._vertex_tensor(alg, supports) == table
        rng = random.Random(axiom)
        for arity in range(6):
            pool = [tuple(sorted(rng.sample(range(4), rng.randint(1, 4))))
                    for _ in range(2)]
            supports = tuple(rng.choice(pool) for _ in range(arity))
            assert contract._vertex_tensor(alg, supports) == {
                word: value for word in product(*supports)
                for value in [alg.integrate_basis_word(word)] if value}
        marks = ("UNIT", "B2", "B3", "B4")
        nonzero = 0
        for _ in range(40):
            nv = rng.randint(1, 2)
            edges = [(0, 1, rng.choice(("ID", "PI0")))] * (nv - 1)
            edges += [(0, 0, "IDLOOP")] * rng.randint(0, 1)
            leaves = [(rng.randrange(nv), rng.choice(marks))
                      for _ in range(rng.randint(1, 2))] * 2
            graph = MarkedGraph(nv, edges, leaves)
            ref = oracle_evaluate(alg, graph)
            assert evaluate_graph(alg, graph) == ref, repr(graph)
            nonzero += not ref.is_zero()
        assert nonzero >= 5, nonzero


class RecordingTable(PotentialTable):
    """An unpruned potential table remembering which pieces were asked
    for: its class lists keep the graphs the support rule drops, so the
    tests below see every graph the generator can make."""

    def __init__(self, alg):
        super().__init__(alg, prune=False)
        self.keys = set()

    def piece(self, g, n, ell):
        self.keys.add((g, n, ell))
        return super().piece(g, n, ell)


class TestTensorCache:
    def test_tables_follow_the_algebra_data(self, dual2, scaled2, block6):
        # dual2 and scaled2 differ only in their integral, and the renamed
        # copy is block6's data under another name: a cache keyed on less
        # than the full data hands one of them the wrong tables
        renamed = parse_algebra(builtin_json("block6"), name="block6-copy")
        rng = random.Random(2718)
        scaled_edges = 0
        for _ in range(8):
            graph = random_connected_graph(rng, 2)
            # ID and PI0 are the only edge marks that do not vanish on
            # dual2 and scaled2; scaled2's edge tables hold thirds
            plain = MarkedGraph(graph.n_vertices,
                                [(u, v, rng.choice(("ID", "PI0")))
                                 for u, v, _ in graph.edges], graph.leaves)
            for g in (graph, plain):
                for alg in (dual2, scaled2, renamed, block6):
                    ref = oracle_evaluate(alg, g)
                    assert evaluate_graph(alg, g) == ref, (alg.name, repr(g))
                    scaled_edges += (alg is scaled2 and g.n_edges > 0
                                     and not ref.is_zero())
        assert scaled_edges >= 3

    def test_tables_built_once_per_key(self, block6, monkeypatch):
        # one vertex table per tuple of germ supports: `_fold` fills each
        builds = {"edge": 0, "vertex": 0, "leaf": 0}

        def counted(kind, fn):
            def wrapper(*args):
                builds[kind] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(contract, "mark_matrix",
                            counted("edge", contract.mark_matrix))
        monkeypatch.setattr(contract, "_fold",
                            counted("vertex", contract._fold))
        monkeypatch.setattr(contract, "leaf_vector",
                            counted("leaf", contract.leaf_vector))
        alg = parse_algebra(builtin_json("block6"), name="block6")
        table = RecordingTable(alg)
        run_battery(alg, 2, 2, table=table)
        graphs = [cls.graph for key in sorted(table.keys)
                  for cls in table.classes(*key)]

        def germ_supports(graph, plan):
            # per vertex, the indices each germ's edge slot or leaf table
            # carries, from the module's own (unpatched) functions
            ne = graph.n_edges

            def support(h):
                if h < 2 * ne:
                    k, leg = divmod(h, 2)
                    mat = mark_matrix(alg, graph.edges[k][2])
                    biv = bivector(alg, mat, k in plan.sign_edges)
                    return tuple(sorted({key[leg] for key in biv}))
                mark = graph.leaves[h - 2 * ne][1]
                return tuple(sorted(leaf_vector(alg, mark)))

            return {tuple(map(support, plan.germ_order[v]))
                    for v in plan.vertex_order}

        keys = {"edge": set(), "vertex": set(), "leaf": set()}
        for graph in graphs:
            plan = make_plan(graph)
            keys["edge"].update((mark, k in plan.sign_edges)
                                for k, (_, _, mark) in enumerate(graph.edges))
            keys["vertex"].update(germ_supports(graph, plan))
            keys["leaf"].update(mark for _, mark in graph.leaves)
        # the unpruned table runs no support rule, so contraction alone
        # asks for vertex tables: one build for each tuple of supports
        assert {key[1] for key in alg._memo if key[0] == "vertex"} \
            == keys["vertex"]
        assert builds["vertex"] == len(keys["vertex"])
        for kind in builds:
            assert 0 < builds[kind] <= len(keys[kind]), kind
        # a second pass builds nothing
        before = dict(builds)
        for graph in graphs:
            evaluate_graph(alg, graph)
        assert builds == before
        # equal data under another name builds its own tables, once each
        renamed = parse_algebra(builtin_json("block6"), name="block6-copy")
        for _ in range(2):
            for graph in graphs:
                evaluate_graph(renamed, graph)
        for kind in builds:
            assert builds[kind] - before[kind] <= len(keys[kind]), kind

    def test_fresh_algebra_compares_no_algebras(self, block6, monkeypatch):
        # kept tables belong to the object, so a second algebra with
        # equal data never deep-compares its data with the first
        run_battery(block6, 2, 2)
        calls = []
        eq = CHAlgebra.__eq__

        def counted(self, other):
            calls.append(other)
            return eq(self, other)

        monkeypatch.setattr(CHAlgebra, "__eq__", counted)
        results = run_battery(load_builtin("block6"), 2, 2)
        assert all(r.ok for r in results)
        assert len(calls) == 0


def inverted_pairs(graph, plan):
    """Half-edge pairs that plain order and plan order put the other
    way round."""
    tpos = _target_positions(graph, plan)
    n = graph.n_half_edges
    return sum(1 for h in range(n) for h2 in range(h + 1, n)
               if tpos[h] > tpos[h2])


def sign_factors(alg, graph, plan):
    _, supports = _build_factors(alg, graph, plan)
    return _sign_factors(alg, graph, plan, supports)


def term_graph(rng, alg, marks):
    """A random connected graph with a nonzero term: every vertex gets a
    germ word with a nonzero integral, and each germ is joined to another
    by an edge whose bivector holds their index pair (GG where it can
    be) or left as a B<i> leaf carrying its index."""
    supports = {m: set(bivector(alg, mark_matrix(alg, m), False))
                for m in marks}
    while True:
        words = []
        for _ in range(rng.randint(2, 3)):
            word = None
            while word is None or alg.integrate_basis_word(word) == 0:
                word = [rng.randrange(alg.dim)
                        for _ in range(rng.randint(2, 4))]
            words.append(word)
        free = [(v, i) for v, word in enumerate(words) for i in word]
        rng.shuffle(free)
        edges, leaves = [], []
        while free:
            u, i = free.pop()
            joins = [(b, m) for b, (v, j) in enumerate(free) for m in marks
                     if (i, j) in supports[m] and (m != "IDLOOP" or u == v)]
            if joins and rng.random() < 0.8:
                b, m = rng.choice([j for j in joins if j[1] == "GG"] or joins)
                v, _ = free.pop(b)
                edges.append((u, v, m))
            else:
                leaves.append((u, f"B{i + 1}"))
        graph = MarkedGraph(len(words), edges, leaves)
        if graph.is_connected():
            return graph


class TestSignPruning:
    def test_battery_classes_need_no_sign_factors(self, block6):
        # GG and the coupling leaves are even-only on block6, and IDLOOP
        # halves never invert, so no inverted pair of the battery's
        # classes can carry two odd indices
        table = RecordingTable(block6)
        run_battery(block6, 2, 2, table=table)
        graphs = [cls.graph for key in sorted(table.keys)
                  for cls in table.classes(*key)]
        inverted = built = 0
        for graph in graphs:
            plan = make_plan(graph)
            inverted += inverted_pairs(graph, plan)
            built += len(sign_factors(block6, graph, plan))
        assert (len(graphs), inverted, built) == (325, 4530, 0)

    def test_odd_identity_edge_keeps_its_crossing(self, exterior2):
        # the edge's second leg (half-edge 1) crosses the B2 leaf
        # (half-edge 2): one flip factor on their bit variables 5 and 6
        g = MarkedGraph(2, [(0, 1, "ID")], [(0, "B2"), (1, "B3")])
        assert [vars_ for vars_, _ in sign_factors(exterior2, g, make_plan(g))] \
            == [(5, 6)]

    def test_mixed_parity_graphs(self, block6, block8):
        # GG is even-only on both algebras, ID/IDLOOP edges and odd B<i>
        # leaves are not: among nonzero values the draws must keep some
        # flip factors, drop some inverted pairs and contract GG edges
        rng = random.Random(4)
        kept = dropped = with_gg = 0
        for alg in (block6, block8):
            for _ in range(12):
                graph = term_graph(rng, alg, ("GG", "ID", "IDLOOP"))
                ref = oracle_evaluate(alg, graph)
                nonzero = not ref.is_zero()
                with_gg += nonzero and any(mark == "GG"
                                           for _, _, mark in graph.edges)
                for plan in (make_plan(graph), random_plan(graph, rng)):
                    assert evaluate_graph(alg, graph, plan) == ref, \
                        (alg.name, repr(graph), plan)
                    n = len(sign_factors(alg, graph, plan))
                    kept += nonzero and n > 0
                    dropped += nonzero and inverted_pairs(graph, plan) > n
        assert kept and dropped and with_gg, (kept, dropped, with_gg)
