"""Exact-arithmetic Jack symmetric polynomials over Q(beta) and the
differential ideal they span at the negative rational coupling
beta(k, r) = -(r - 1)/(k + 1)."""

from .ratfunc import BETA, BetaPoly, BetaRatFunc, PoleError
from .partitions import (AdmissibleFamily, DegreeMismatch, InvalidNode,
                         InvalidParameters, add_node, addable_rows,
                         as_partition, beta_value, c_lambda,
                         check_nonvanishing, conjugate, cs_eigenvalue,
                         dominance_compare, dominated_by,
                         enumerate_admissible, is_admissible, node_moves,
                         partitions_leq, partitions_of, removable_rows,
                         remove_node, sekiguchi_eigenvalue)
from .sympoly import (ExpandedPoly, MSymPoly, NotSymmetric,
                      TermBudgetExceeded, orbit_size, power_sum)
from .operators import (OperatorTag, apply_cherednik, apply_dunkl,
                        apply_hamiltonian, apply_l, apply_sekiguchi,
                        apply_w, verify_commutators)
from .jack import (JackCache, JackPoly, SpecializationPole, SpecializedJack,
                   evaluate_all_ones, jack_at, jack_symbolic, pole_profile,
                   principal_specialization, specialize,
                   verify_eigensystem, verify_hamiltonian, verify_sekiguchi)
from .ideal import (DegreeOverflow, IdealBasis, MembershipCertificate,
                    build_basis, clearing_zero_order, lassalle_down,
                    lassalle_up,
                    pieri_coefficient, reduce_membership, verify_closure,
                    verify_lassalle, verify_phi3, verify_pieri,
                    verify_regularity, verify_restriction, verify_wheel,
                    wheel_dimension)
from .report import Report

__version__ = "0.1.0"

__all__ = [
    "BETA", "BetaPoly", "BetaRatFunc", "PoleError",
    "AdmissibleFamily", "DegreeMismatch", "InvalidNode", "InvalidParameters",
    "add_node", "addable_rows", "as_partition", "beta_value", "c_lambda",
    "check_nonvanishing", "conjugate", "cs_eigenvalue", "dominance_compare",
    "dominated_by", "enumerate_admissible", "is_admissible", "node_moves",
    "partitions_leq", "partitions_of", "removable_rows", "remove_node",
    "sekiguchi_eigenvalue",
    "ExpandedPoly", "MSymPoly", "NotSymmetric", "TermBudgetExceeded",
    "orbit_size", "power_sum",
    "OperatorTag", "apply_cherednik", "apply_dunkl", "apply_hamiltonian",
    "apply_l", "apply_sekiguchi", "apply_w", "verify_commutators",
    "JackCache", "JackPoly", "SpecializationPole", "SpecializedJack",
    "evaluate_all_ones", "jack_at", "jack_symbolic", "pole_profile",
    "principal_specialization", "specialize", "verify_eigensystem",
    "verify_hamiltonian", "verify_sekiguchi",
    "DegreeOverflow", "IdealBasis", "MembershipCertificate", "build_basis",
    "clearing_zero_order",
    "lassalle_down", "lassalle_up", "pieri_coefficient", "reduce_membership",
    "verify_closure", "verify_lassalle", "verify_phi3", "verify_pieri",
    "verify_regularity", "verify_restriction", "verify_wheel",
    "wheel_dimension",
    "Report",
]
