"""Algebras shipped with the package.

trivial    dim 1, the base field itself; the descendant potentials over
           it reproduce the classical intersection-number generating
           series in one set of couplings.
dual2      dim 2 even algebra Q[x]/(x^2) with integral picking the x
           coefficient; the smallest instance with a 2-dimensional H_0.
exterior2  dim 4 exterior algebra on two odd generators; every axiom
           holds but H_0 contains odd vectors, so potential assembly
           refuses it.  Useful for exercising the parity gate.
block6     dim 6 with H_0 = {1, t} purely even plus one genuine Hodge
           block (e odd, Qe, G_-e, QG_-e); the smallest shipped algebra
           on which Q, G_-, G_+ and the block machinery are all nonzero
           while potential assembly still applies.
block8     exterior algebra on two odd generators tensored with
           Q[x]/(x^2), carrying Q(theta1) = x and G_-(theta1) =
           theta1 theta2.  All axioms hold, H_4 is one block, but H_0
           contains odd vectors, so potential assembly refuses it.
live8      block6 plus even H_0 vectors e7, e8 with e7 e7 = e4,
           e7 e5 = e5 e7 = e8 and e7 e8 = e8 e7 = e2: a vertex with one
           GG germ and two E0 leaves can be nonzero, so the genus-0
           GG tree enters the potentials.
loop8      block6 plus even H_0 vectors e7, e8 with e5 e5 = e7,
           e5 e8 = e8 e5 = e4 and e7 e8 = e8 e7 = e2; its GG cycles are
           nonzero at genus 1 (the one-vertex loop, the double edge,
           the three-cycle).
cubic6     block6 plus e5 e5 = e4, so (G_-e)^3 = t, a cubic; its GG
           classes are nonzero at genus 2 (the dumbbell and the theta).
"""

from __future__ import annotations

import json
from importlib import resources

from .algebra import parse_algebra

BUILTIN_NAMES = ("trivial", "dual2", "exterior2", "block6", "block8",
                 "live8", "loop8", "cubic6")


def load_builtin(name):
    if name not in BUILTIN_NAMES:
        raise KeyError(f"unknown builtin algebra {name!r}; "
                       f"choose from {', '.join(BUILTIN_NAMES)}")
    text = resources.files("cyclichodge.data").joinpath(f"{name}.json").read_text()
    return parse_algebra(json.loads(text), name=name)
