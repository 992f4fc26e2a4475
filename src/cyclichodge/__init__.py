"""Exact contraction of marked graphs over finite-dimensional cyclic
Hodge algebras, genus-expanded potentials with one-point descendants,
and verification of the differential identities they satisfy.

All arithmetic is over Q via fractions.Fraction; results are exact.
"""

from .algebra import (AlgebraError, AxiomReport, CHAlgebra, DegeneracyError,
                      FormatError, check_axioms, derive_ops, load_algebra,
                      parse_algebra)
from .builtin import BUILTIN_NAMES, load_builtin
from .contract import (EvalPlan, evaluate_graph, make_plan, oracle_evaluate,
                       random_plan)
from .graded import supertrace
from .graphs import (MarkedGraph, is_valid_descendant_graph,
                     is_valid_smooth_graph, load_graph)
from .poly import Poly
from .potentials import (PotentialTable, WeightedGraphClass, enumerate_desc,
                         enumerate_sm, kdv_coefficient)
from .relations import (BudgetError, Residual, check_const_relation,
                        check_dilaton, check_string, check_trr0, check_trr1,
                        check_trr2, check_wdvv, run_battery, run_check)

__version__ = "0.1.0"
