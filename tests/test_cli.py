"""End-to-end command line checks via subprocess, plus exit code logic."""

import json
import resource
import subprocess
import sys
from fractions import Fraction

import pytest

import cyclichodge.cli as cli
from cyclichodge.poly import Poly
from conftest import DUAL2_OBJ


TRIVIAL_OBJ = {"dim": 1, "parity": [0], "unit": 1,
               "product": [[1, 1, 1, "1"]], "integral": ["1"],
               "hodge": {"H0": [1], "blocks": []}}


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "cyclichodge", *args],
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("g") / "threeleaf.json"
    path.write_text(json.dumps({
        "vertices": 1, "edges": [],
        "leaves": [[1, "E0"], [1, "E0"], [1, "E0"]]}))
    return str(path)


@pytest.fixture(scope="module")
def loop_graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("g") / "tadpole.json"
    path.write_text(json.dumps({
        "vertices": 1, "edges": [[1, 1, "IDLOOP"]], "leaves": [[1, "E1"]]}))
    return str(path)


@pytest.fixture(scope="module")
def dual2_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("a") / "dual2.json"
    path.write_text(json.dumps(DUAL2_OBJ))
    return str(path)


class TestEval:
    def test_text(self, graph_file):
        rc, out, _ = run_cli("eval", "--algebra", "trivial",
                             "--graph", graph_file)
        assert rc == 0
        assert out.strip() == "T_{0,1}^3"

    def test_json_and_oracle(self, graph_file):
        rc, out, _ = run_cli("eval", "--algebra", "trivial",
                             "--graph", graph_file, "--json", "--oracle")
        assert rc == 0
        value = Poly.var(0, 1) * Poly.var(0, 1) * Poly.var(0, 1)
        assert json.loads(out)["value"] == value.to_json_obj()

    def test_algebra_from_file(self, loop_graph_file, dual2_file):
        rc, out, _ = run_cli("eval", "--algebra", dual2_file,
                             "--graph", loop_graph_file)
        assert rc == 0
        assert out.strip() == "2*T_{1,1}"


    @pytest.mark.parametrize("graph", [
        pytest.param({"vertices": 300,
                      "edges": [[v, v + 1, "ID"] for v in range(1, 300)],
                      "leaves": [[1, "UNIT"], [300, "UNIT"]]}, id="path"),
        pytest.param({"vertices": 1, "edges": [],
                      "leaves": [[1, "UNIT"]] * 300}, id="star")])
    def test_no_recursion(self, tmp_path, graph):
        # the plan's walk, the vertex-table fold and the elimination keep
        # their own stacks: a recursion limit far below the graph's size
        # must not end evaluation in a RecursionError
        path = tmp_path / "big.json"
        path.write_text(json.dumps(graph))
        code = ("import sys; sys.setrecursionlimit(150); "
                "import cyclichodge.cli as cli; "
                f"sys.exit(cli.main(['eval', '--algebra', 'trivial', "
                f"'--graph', {str(path)!r}]))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")


class TestPotential:
    def test_text(self, monkeypatch, capsys):
        rc = cli.main(["potential", "--algebra", "trivial", "--genus", "0",
                       "--desc", "0", "--max-leaves", "3"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "1/6*T_{0,1}^3"

    def test_classes_json(self):
        rc, out, _ = run_cli("potential", "--algebra", "trivial",
                             "--genus", "1", "--desc", "1",
                             "--max-leaves", "0", "--classes", "--json")
        assert rc == 0
        obj = json.loads(out)
        assert obj["potential"] == \
            (Poly.var(1, 1) * Fraction(1, 24)).to_json_obj()
        (row,) = obj["classes"]
        assert row["weight"] == "1/24"
        assert row["aut_order"] == 2
        assert row["handles"] == 1
        assert row["graph"]["edges"] == [[1, 1, "IDLOOP"]]

    def test_no_prune_same_value(self, capsys):
        outs = []
        for extra in ([], ["--no-prune"]):
            rc = cli.main(["potential", "--algebra", "dual2", "--genus", "0",
                           "--desc", "1", "--max-leaves", "3", *extra])
            assert rc == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


class TestVerify:
    def test_battery_text(self):
        rc, out, _ = run_cli("verify", "--algebra", "trivial",
                             "--relation", "all", "--degree", "2")
        assert rc == 0
        lines = out.strip().splitlines()
        assert len(lines) == 17
        assert all(line.startswith("pass") for line in lines)

    def test_single_json(self):
        rc, out, _ = run_cli("verify", "--algebra", "dual2",
                             "--relation", "trr1", "--n", "1",
                             "--degree", "2", "--json")
        assert rc == 0
        obj = json.loads(out)
        assert obj["ok"] is True
        assert obj["results"][0]["relation"] == "trr1"
        assert obj["results"][0]["params"] == {"n": 1}

    def test_missing_parameter(self):
        rc, _, err = run_cli("verify", "--algebra", "trivial",
                             "--relation", "string", "--degree", "2")
        assert rc == 2
        assert "error:" in err

    @pytest.mark.parametrize("relation,flags,name", [
        ("wdvv", ["--genus", "2"], "genus"), ("const", ["--n", "1"], "n"),
        ("string", ["--genus", "1", "--n", "1"], "n"),
        ("dilaton", ["--genus", "1", "--n", "1"], "n"),
        ("trr0", ["--n", "0", "--genus", "1"], "genus"),
        ("trr2", ["--n", "2", "--genus", "0"], "genus"),
        ("all", ["--genus", "1"], "genus"), ("all", ["--n", "0"], "n")])
    def test_flag_it_does_not_take(self, capsys, relation, flags, name):
        # such a flag used to be dropped: wdvv with --genus 2 printed a
        # genus-0 pass with exit 0
        rc = cli.main(["verify", "--algebra", "block6", "--relation",
                       relation, "--degree", "1", *flags])
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert err == f"error: {relation} takes no {name}\n"

    def test_failure_exit_code(self, monkeypatch, capsys):
        # every shipped algebra satisfies the identities, so flip one
        # result to pin the exit code contract
        from cyclichodge.relations import check_wdvv

        def fake_battery(alg, d0, d1):
            res = check_wdvv(alg, 0)
            res.ok = False
            return [res]

        monkeypatch.setattr(cli, "run_battery", fake_battery)
        rc = cli.main(["verify", "--algebra", "trivial",
                       "--relation", "all", "--degree", "0"])
        assert rc == 1
        assert capsys.readouterr().out.startswith("FAIL")


class TestKdv:
    def test_table(self):
        rc, out, _ = run_cli("kdv", "--max-genus", "2", "--degree", "4")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == ["genus", "level", "power", "expected",
                                    "computed", "match"]
        assert all(line.endswith("yes") for line in lines[1:])
        # 1/6 at (0,0,3) and the two-handle value at (2,4,0) both appear
        assert any("1/6" in line for line in lines)
        assert any("1/1152" in line for line in lines)

    def test_json(self):
        rc, out, _ = run_cli("kdv", "--max-genus", "1", "--degree", "3",
                             "--json")
        assert rc == 0
        obj = json.loads(out)
        assert obj["ok"] is True
        assert all(row["match"] for row in obj["rows"])

    @pytest.mark.parametrize("args", [
        ["--max-genus", "-1", "--degree", "3"],
        ["--max-genus", "1", "--degree", "-1"],
        ["--max-genus", "-1", "--degree", "-1", "--json"],
    ], ids=["genus", "degree", "both-json"])
    def test_negative_bounds(self, capsys, args):
        # an empty table would be a vacuous pass: nothing was compared
        rc = cli.main(["kdv", *args])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err == "error: max genus and degree must be nonnegative\n"


class TestAxioms:
    def test_pass(self):
        rc, out, _ = run_cli("axioms", "--algebra", "block6")
        assert rc == 0
        assert all(line.startswith("pass") for line in out.strip().splitlines())

    def test_fail_exit_code(self, tmp_path):
        bad = dict(DUAL2_OBJ, integral=["1", "0"])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        rc, out, _ = run_cli("axioms", "--algebra", str(path))
        assert rc == 1
        assert "FAIL" in out

    def test_json(self):
        rc, out, _ = run_cli("axioms", "--algebra", "exterior2", "--json")
        assert rc == 0
        assert json.loads(out)["ok"] is True


class TestBadInput:
    def test_unknown_algebra_name(self, graph_file):
        rc, out, err = run_cli("eval", "--algebra", "nonesuch",
                               "--graph", graph_file)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: no such algebra")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("args", [
        ["verify", "--relation", "all", "--degree", "1"],
        ["potential", "--genus", "0", "--desc", "0", "--max-leaves", "3"],
    ], ids=["verify", "potential"])
    def test_unknown_algebra_in_process(self, capsys, args):
        # main returns 2 with one error line instead of raising
        rc = cli.main([args[0], "--algebra", "nonesuch", *args[1:]])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err.startswith("error: no such algebra")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("relation,flags", [
        pytest.param(relation, flags, id=relation) for relation, flags in [
            ("wdvv", []), ("const", []), ("string", ["--genus", "1"]),
            ("dilaton", ["--genus", "1"]), ("trr0", ["--n", "1"]),
            ("trr1", ["--n", "1"]), ("trr2", ["--n", "1"]), ("all", [])]])
    def test_negative_degree(self, capsys, relation, flags):
        # wdvv and const used to pass vacuously on an empty window
        rc = cli.main(["verify", "--algebra", "dual2", "--relation", relation,
                       "--degree", "-1", *flags])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err == "error: degree must be nonnegative\n"

    def test_malformed_graph(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"vertices": 0}')
        rc, _, err = run_cli("eval", "--algebra", "trivial",
                             "--graph", str(path))
        assert rc == 2
        assert "error:" in err

    @pytest.mark.parametrize("mark", ["E0\n", "B1\u0663"],
                             ids=["trailing-newline", "non-ascii-digit"])
    def test_bad_leaf_mark(self, tmp_path, mark):
        # "E0\n" used to pass as E0, printing T_{0,1}^3 with exit 0, and
        # "B1" followed by an Arabic-Indic three was read as B13
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "vertices": 1, "edges": [],
            "leaves": [[1, mark], [1, "E0"], [1, "E0"]]}))
        rc, out, err = run_cli("eval", "--algebra", "trivial",
                               "--graph", str(path))
        assert rc == 2
        assert out == ""
        assert err == f"error: unknown leaf mark {mark!r}\n"

    def test_malformed_algebra(self, tmp_path, graph_file):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": "many"}')
        rc, _, err = run_cli("eval", "--algebra", str(path),
                             "--graph", graph_file)
        assert rc == 2
        assert "error:" in err

    @pytest.mark.parametrize("kind", ["graph", "algebra"])
    def test_deeply_nested_json(self, tmp_path, graph_file, kind):
        # the JSON decoder recurses once per bracket, so a deep enough
        # file used to end in a RecursionError traceback with exit 1
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000 + "]" * 200000)
        graph = str(path) if kind == "graph" else graph_file
        algebra = str(path) if kind == "algebra" else "trivial"
        rc, out, err = run_cli("eval", "--algebra", algebra, "--graph", graph)
        assert rc == 2
        assert out == ""
        assert err == "error: invalid JSON: nested too deeply\n"

    @pytest.mark.parametrize("kind", ["graph", "algebra"])
    def test_invalid_json(self, tmp_path, graph_file, kind):
        # a graph file used to report the decoder's message alone
        path = tmp_path / "bad.json"
        path.write_text("not json")
        graph = str(path) if kind == "graph" else graph_file
        algebra = str(path) if kind == "algebra" else "trivial"
        rc, out, err = run_cli("eval", "--algebra", algebra, "--graph", graph)
        assert rc == 2
        assert out == ""
        assert err == ("error: invalid JSON: Expecting value: "
                       "line 1 column 1 (char 0)\n")

    def test_out_of_memory(self, tmp_path):
        # a dim-5000 algebra passes every format check, and its dim x dim
        # product layout then outgrows a 256 MB address space: one error
        # line and exit 2, not a traceback.  The limit is set in the child
        # only, never in the test process
        dim = 5000
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "dim": dim, "parity": [0] * dim, "unit": 1,
            "product": [[1, 1, 1, "1"]], "integral": ["1"] * dim,
            "hodge": {"H0": list(range(1, dim + 1)), "blocks": []}}))

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

        proc = subprocess.run(
            [sys.executable, "-m", "cyclichodge", "axioms", "--algebra",
             str(path)], capture_output=True, text=True, timeout=120,
            preexec_fn=limit_memory)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: out of memory\n")

    @pytest.mark.parametrize("args", [
        ["potential", "--algebra", "cubic6", "--genus", "100", "--desc", "0",
         "--max-leaves", "0"],
        ["verify", "--algebra", "cubic6", "--relation", "dilaton", "--genus",
         "300", "--degree", "0"],
    ], ids=["potential", "verify"])
    def test_recursion_too_deep(self, capsys, args):
        # class generation recurses once per split left, and these go past
        # the interpreter's recursion limit: one error line and exit 2,
        # since exit 1 means a check failed
        rc = cli.main(args)
        out, err = capsys.readouterr()
        assert (rc, out, err) == (
            2, "", "error: maximum recursion depth exceeded\n")

    def test_unknown_subcommand(self):
        rc, _, _ = run_cli("frobnicate")
        assert rc == 2

    @pytest.mark.parametrize("kind,obj", [
        ("graph", {"vertices": 1, "edges": [[None, 1, "GG"]]}),
        ("graph", {"vertices": 1, "edges": [[1.0, 1, "GG"]]}),
        ("graph", {"vertices": 1, "leaves": [[1, 5]]}),
        ("graph", {"vertices": 1, "leaves": [[True, "E0"]]}),
        ("graph", {"vertices": 1, "edges": 5}),
        ("graph", {"vertices": True}),
        ("algebra", dict(DUAL2_OBJ, hodge={"H0": 5, "blocks": []})),
        ("algebra", dict(DUAL2_OBJ, hodge={"H0": [1, 2], "blocks": None})),
        ("algebra", dict(TRIVIAL_OBJ, dim=True)),
        ("algebra", dict(DUAL2_OBJ, unit=True)),
        ("algebra", dict(DUAL2_OBJ, parity=[False, 0])),
        ("algebra", dict(DUAL2_OBJ, hodge={"H0": [True, 2], "blocks": []})),
        ("algebra", dict(TRIVIAL_OBJ, integral=[True])),
        ("algebra", dict(TRIVIAL_OBJ, product=[[1, 1, 1, True]])),
        # no edges to join 10^12 vertices: rejected before any per-vertex
        # structure is built
        ("graph", {"vertices": 10**12, "edges": [], "leaves": []}),
        # a short integral list for dim 10^4: rejected before any
        # dim x dim table is built
        ("algebra", dict(TRIVIAL_OBJ, dim=10**4, parity=[0] * 10**4)),
    ], ids=["null-index", "float-index", "int-mark", "bool-index",
            "edges-not-list", "bool-vertices", "H0-not-list",
            "blocks-not-list", "bool-dim", "bool-unit", "bool-parity",
            "bool-H0-index", "bool-integral", "bool-product-coeff",
            "huge-vertex-count", "huge-dim"])
    def test_one_line_error(self, tmp_path, graph_file, kind, obj):
        # malformed input of any shape: a single error line and exit 2,
        # never a traceback and never a silently accepted file
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        graph = str(path) if kind == "graph" else graph_file
        algebra = str(path) if kind == "algebra" else "trivial"
        rc, out, err = run_cli("eval", "--algebra", algebra, "--graph", graph)
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
