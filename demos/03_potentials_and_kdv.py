"""Assemble potentials as weighted graph sums and compare the trivial
algebra against its closed form.

Run with: python3 demos/03_potentials_and_kdv.py
"""

from cyclichodge import (PotentialTable, enumerate_desc, enumerate_sm,
                         kdv_coefficient, load_builtin)

# The genus-2 vacuum sum has exactly two trivalent graph classes: the
# theta graph (|Aut| = 12) and the dumbbell (|Aut| = 8).
print("genus-2 vacuum classes:")
for cls in enumerate_sm(2, 0):
    print(f"  weight {cls.weight}  |Aut| {cls.aut_order}  "
          f"edges {list(cls.graph.edges)}")

# One-point descendant classes carry identity-loop handles, each a
# factor 1/12 on top of 1/|Aut|.
print("genus-2 level-4 descendant classes (no extra leaves):")
for cls in enumerate_desc(2, 4, 0):
    print(f"  weight {cls.weight}  |Aut| {cls.aut_order}  "
          f"handles {cls.handles}")

# Over the one-dimensional algebra the whole genus expansion collapses
# to the one-point series: coefficient 1/(g! 24^g k!) at level 3g-2+k.
triv = PotentialTable(load_builtin("trivial"))
print("\ntrivial algebra, genus <= 2, pipeline vs closed form:")
for (g, m, k) in [(0, 0, 3), (0, 1, 3), (0, 4, 6), (1, 1, 0), (1, 4, 3),
                  (2, 4, 0), (2, 6, 2)]:
    pot = triv.potential(g, m, k)
    mono = ((0, 1),) * k if m == 0 else tuple(sorted([(m, 1)] + [(0, 1)] * k))
    got = pot.coefficient(mono)
    want = kdv_coefficient(g, m, k)
    print(f"  g={g} level={m} leaves={k}:  {got}  (closed form {want})"
          f"  {'ok' if got == want else 'MISMATCH'}")

# Richer algebras keep more of the couplings. dual2 = Q[x]/(x^2):
dual2 = load_builtin("dual2")
print("\ndual2 genus-0 level-2 potential, 4-leaf window:")
print(" ", PotentialTable(dual2).potential(0, 2, 4).to_text())
