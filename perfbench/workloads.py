"""The benchmark's workloads: their inputs, their commands and the checks
on their outputs.

A workload is a list of `cyclichodge` command lines run one after the
other in one fresh Python process, after a set-up command that loads the
workload's algebra and runs the axiom battery on it.  Each workload also
counts its operations (one identity check, or one (g, n, L) class list)
and says which of them failed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

BATTERY_RESULTS = 17

# Class lists of the genus-2 workload, pinned when the benchmark was added:
# leaf count L -> (number of classes, sum of their weights).
GENUS2_PRIMARY = {0: (2, "5/24"), 1: (3, "5/8"), 2: (9, "25/16"),
                  3: (19, "175/48"), 4: (50, "525/64")}
GENUS2_LEVEL1 = {0: (2, "5/12"), 1: (7, "15/8"), 2: (25, "25/4"),
                 3: (78, "875/48")}


def truncated_polynomial_algebra(n):
    """Q[x]/(x^n) with basis 1, x, .., x^(n-1), all even, integral picking
    the x^(n-1) coefficient; H_0 is the whole algebra and there are no
    4-blocks."""
    product = [[i, j, i + j - 1, "1"]
               for i in range(1, n + 1) for j in range(1, n + 1)
               if i + j - 1 <= n]
    return {"name": f"truncated{n}", "dim": n, "parity": [0] * n, "unit": 1,
            "product": product, "Q": [], "Gminus": [],
            "integral": ["0"] * (n - 1) + ["1"],
            "hodge": {"H0": list(range(1, n + 1)), "blocks": []}}


def relabel(obj, seed):
    """The same algebra with its basis renumbered by a permutation drawn
    from `seed`.  Every index field moves together, and H_0 keeps its
    order, so the coupling T[n,i] still names the same direction."""
    dim = obj["dim"]
    perm = list(range(1, dim + 1))
    random.Random(seed).shuffle(perm)
    p = dict(zip(range(1, dim + 1), perm))
    parity = [0] * dim
    integral = ["0"] * dim
    for i in range(1, dim + 1):
        parity[p[i] - 1] = obj["parity"][i - 1]
        integral[p[i] - 1] = obj["integral"][i - 1]
    return {
        "name": obj.get("name", ""),
        "dim": dim,
        "parity": parity,
        "unit": p[obj["unit"]],
        "product": [[p[i], p[j], p[k], c] for i, j, k, c in obj["product"]],
        "Q": [[p[i], p[j], c] for i, j, c in obj.get("Q", [])],
        "Gminus": [[p[i], p[j], c] for i, j, c in obj.get("Gminus", [])],
        "integral": integral,
        "hodge": {"H0": [p[i] for i in obj["hodge"]["H0"]],
                  "blocks": [[p[i] for i in blk]
                             for blk in obj["hodge"]["blocks"]]},
    }


class Battery:
    """`verify --relation all` on a seed-relabeled algebra.

    Every workload class has the same members: name, why, write_inputs
    (write the generated input files, return the --algebra argument),
    commands, operations (attempted per pass of the commands) and
    failed_operations (given [(exit code, stdout)] per command, with
    (None, '') for one that did not finish).
    """

    def __init__(self, name, why, source, degree):
        self.name = name
        self.why = why
        self.source = source
        self.degree = degree

    def write_inputs(self, root, workdir, seed):
        obj = self.source(root)
        path = Path(workdir) / f"{obj['name']}-seed{seed}.json"
        path.write_text(json.dumps(relabel(obj, seed)))
        return str(path)

    def commands(self, algebra):
        return [["verify", "--algebra", algebra, "--relation", "all",
                 "--degree", str(self.degree), "--json"]]

    def operations(self):
        return BATTERY_RESULTS

    def failed_operations(self, outputs):
        (code, text), = outputs
        if code not in (0, 1):
            return BATTERY_RESULTS
        try:
            results = json.loads(text)["results"]
        except (ValueError, KeyError, TypeError):
            return BATTERY_RESULTS
        if len(results) != BATTERY_RESULTS:
            return BATTERY_RESULTS
        failed = sum(1 for r in results if r.get("ok") is not True)
        # exit 1 means "a check failed" and must agree with the results
        if (failed > 0) != (code == 1):
            return BATTERY_RESULTS
        return failed


class Genus2Classes:
    """Genus-2 class lists on `trivial`; the seed has nothing to relabel."""

    LISTS = ((0, 4, GENUS2_PRIMARY), (1, 3, GENUS2_LEVEL1))

    def __init__(self, name, why):
        self.name = name
        self.why = why

    def write_inputs(self, root, workdir, seed):
        return "trivial"

    def commands(self, algebra):
        return [["potential", "--algebra", algebra, "--no-prune",
                 "--genus", "2", "--desc", str(desc),
                 "--max-leaves", str(max_leaves), "--classes", "--json"]
                for desc, max_leaves, _ in self.LISTS]

    def operations(self):
        return sum(len(pinned) for _, _, pinned in self.LISTS)

    def failed_operations(self, outputs):
        failed = 0
        for (code, text), (_, _, pinned) in zip(outputs, self.LISTS):
            failed += len(pinned) - _matching_lists(code, text, pinned)
        return failed


def _matching_lists(code, text, pinned):
    """Number of leaf counts whose class count and weight sum match."""
    if code != 0:
        return 0
    try:
        rows = json.loads(text)["classes"]
        found = {}
        for row in rows:
            leaves = sum(1 for _, mark in row["graph"]["leaves"]
                         if mark == "E0")
            count, weight = found.get(leaves, (0, Fraction(0)))
            found[leaves] = (count + 1, weight + Fraction(row["weight"]))
    except (ValueError, KeyError, TypeError):
        return 0
    return sum(1 for ell, (count, weight) in pinned.items()
               if found.get(ell) == (count, Fraction(weight)))


def _block6(root):
    path = Path(root) / "src" / "cyclichodge" / "data" / "block6.json"
    return json.loads(path.read_text())


WORKLOADS = {w.name: w for w in (
    Battery("battery-block6",
            "identity battery on block6: many small GG graphs, contraction "
            "rebuilds per-edge factors, potential pieces reused across checks",
            _block6, 2),
    Battery("battery-wide",
            "identity battery on Q[x]/(x^8): single-vertex graphs with wide "
            "coupling fan-in, Poly products and relation algebra dominate",
            lambda root: truncated_polynomial_algebra(8), 7),
    Genus2Classes("classes-genus2",
                  "genus-2 class lists on trivial: brute-force enumeration "
                  "and canonical forms dominate, contraction nearly idle"),
)}
