"""Run the differential-identity battery and watch it flag a
perturbed potential.

Run with: python3 demos/04_verify_relations.py
"""

from cyclichodge import Poly, PotentialTable, load_builtin, run_battery
from cyclichodge.relations import check_trr1

# The battery: WDVV + constant relation at the genus-0 degree, then
# string/dilaton per genus and the three recursions per arrow level.
for name, d0, d1 in [("dual2", 4, 3), ("block6", 3, 2)]:
    alg = load_builtin(name)
    print(f"{name}, degrees ({d0}, {d1}):")
    for res in run_battery(alg, d0, d1):
        print(" ", res.summary_line())
    print()



class PerturbedTable(PotentialTable):
    """Adds `delta` to the (g, n) potential, split by leaf count."""

    def __init__(self, alg, g, n, delta):
        super().__init__(alg)
        self.perturbed = (g, n)
        self.delta = delta

    def piece(self, g, n, ell):
        out = super().piece(g, n, ell)
        if (g, n) == self.perturbed:
            out = out + self.delta.level_zero_degree_part(ell)
        return out


# Inject a spurious term into the genus-1 level-2 potential. The
# genus-1 recursion ties that potential to genus-0 data, so the check
# fails and reports the first offending monomial.
dual2 = load_builtin("dual2")
table = PerturbedTable(dual2, 1, 2,
                       Poly.var(2, 1) * Poly.var(0, 1) * Poly.const("1/7"))
res = check_trr1(dual2, 1, 1, table=table)
print("after injecting (1/7) T_{2,1} T_{0,1} into the (1,2) potential:")
print(" ", res.summary_line())
