"""Command line interface.

Subcommands: eval (contract one graph file over one algebra file),
potential (assemble a potential), verify (check the differential
identities; exit code 0 iff everything passed), kdv (compare the
trivial-algebra pipeline against the closed-form coefficients), axioms
(run the axiom battery on an algebra file).

Where a command takes --algebra, the value may be a JSON file path or
the name of a shipped algebra (trivial, dual2, exterior2, block6,
block8, live8, loop8, cubic6).
"""

import argparse
import json
import os
import sys
from functools import cache

from .algebra import check_axioms, load_algebra
from .builtin import BUILTIN_NAMES, load_builtin
from .contract import evaluate_graph, oracle_evaluate
from .graphs import load_graph
from .poly import format_rational
from .potentials import PotentialTable, kdv_coefficient
from .relations import RELATIONS, run_battery, run_check


def _load_alg(spec):
    if os.path.exists(spec):
        return load_algebra(spec)
    if spec in BUILTIN_NAMES:
        return load_builtin(spec)
    raise ValueError(f"no such algebra file or builtin name: {spec}")


def cmd_eval(args):
    alg = _load_alg(args.algebra)
    graph = load_graph(args.graph)
    fn = oracle_evaluate if args.oracle else evaluate_graph
    value = fn(alg, graph)
    if args.json:
        print(json.dumps({"value": value.to_json_obj()}))
    else:
        print(value.to_text())
    return 0


def cmd_potential(args):
    alg = _load_alg(args.algebra)
    table = PotentialTable(alg, prune=not args.no_prune)
    value = table.potential(args.genus, args.desc, args.max_leaves)
    class_rows = []
    if args.classes:
        for ell in range(args.max_leaves + 1):
            for cls in table.classes(args.genus, args.desc, ell):
                class_rows.append({
                    "weight": format_rational(cls.weight),
                    "aut_order": cls.aut_order,
                    "handles": cls.handles,
                    "graph": cls.graph.to_json_obj(),
                })
    if args.json:
        obj = {"potential": value.to_json_obj()}
        if args.classes:
            obj["classes"] = class_rows
        print(json.dumps(obj))
    else:
        print(value.to_text())
        for row in class_rows:
            print(f"weight {row['weight']}  |Aut| {row['aut_order']}  "
                  f"handles {row['handles']}  {json.dumps(row['graph'])}")
    return 0


def cmd_verify(args):
    alg = _load_alg(args.algebra)
    if args.relation == "all":
        for name in ("genus", "n"):
            if getattr(args, name) is not None:
                raise ValueError(f"all takes no {name}")
        results = run_battery(alg, args.degree, args.degree)
    else:
        results = [run_check(alg, args.relation, args.degree,
                             genus=args.genus, n=args.n)]
    ok = all(r.ok for r in results)
    if args.json:
        print(json.dumps({"ok": ok,
                          "results": [r.to_json_obj() for r in results]}))
    else:
        for r in results:
            print(r.summary_line())
    return 0 if ok else 1


def cmd_kdv(args):
    if args.max_genus < 0 or args.degree < 0:
        raise ValueError("max genus and degree must be nonnegative")
    alg = load_builtin("trivial")
    table = PotentialTable(alg)
    rows = []
    ok = True
    for g in range(args.max_genus + 1):
        for m in range(args.degree + 1):
            for k in range(args.degree + 1):
                expected = kdv_coefficient(g, m, k)
                pot = table.potential(g, m, k)
                mono = ((0, 1),) * k if m == 0 else ((m, 1),) + ((0, 1),) * k
                computed = pot.coefficient(mono)
                match = computed == expected
                ok = ok and match
                if expected != 0 or computed != 0:
                    rows.append((g, m, k, expected, computed, match))
    if args.json:
        print(json.dumps({"ok": ok, "rows": [
            {"genus": g, "level": m, "power": k,
             "expected": format_rational(e), "computed": format_rational(c),
             "match": match} for (g, m, k, e, c, match) in rows]}))
    else:
        print("genus level power expected computed match")
        for (g, m, k, e, c, match) in rows:
            print(f"{g:5d} {m:5d} {k:5d} {format_rational(e):>9s} "
                  f"{format_rational(c):>9s} {'yes' if match else 'NO'}")
    return 0 if ok else 1


def cmd_axioms(args):
    alg = _load_alg(args.algebra)
    report = check_axioms(alg)
    if args.json:
        print(json.dumps(report.to_json_obj()))
    else:
        for line in report.summary_lines():
            print(line)
    return 0 if report.ok else 1


@cache
def build_parser():
    """The command line parser, built once per process: each subcommand's
    handler looks the functions it calls up when it runs."""
    parser = argparse.ArgumentParser(
        prog="cyclichodge",
        description="Exact graph contraction over cyclic Hodge algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate one marked graph")
    p.add_argument("--algebra", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--oracle", action="store_true",
                   help="use the brute-force reference evaluator")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("potential", help="assemble a potential")
    p.add_argument("--algebra", required=True)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--desc", type=int, required=True,
                   help="arrow level n (0 = primary sum)")
    p.add_argument("--max-leaves", type=int, required=True)
    p.add_argument("--classes", action="store_true",
                   help="also list the contributing graph classes")
    p.add_argument("--no-prune", action="store_true",
                   help="list every class, also those with a vertex that "
                        "is zero over the algebra")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_potential)

    p = sub.add_parser("verify", help="check differential identities")
    p.add_argument("--algebra", required=True)
    p.add_argument("--relation", required=True,
                   choices=[*RELATIONS, "all"])
    p.add_argument("--genus", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("kdv", help="trivial-algebra coefficients vs closed form")
    p.add_argument("--max-genus", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_kdv)

    p = sub.add_parser("axioms", help="run the axiom battery")
    p.add_argument("--algebra", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_axioms)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except RecursionError:
        # the move rule of class generation recurses once per split
        # left, so a large enough genus reaches the interpreter's limit
        print("error: maximum recursion depth exceeded", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
