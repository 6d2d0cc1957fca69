"""Exact-arithmetic Jack symmetric polynomials over Q(beta) and the
differential ideal they span at the negative rational coupling
beta(k, r) = -(r - 1)/(k + 1)."""

from importlib import import_module

# module -> its exports, each read off the module on first access (PEP 562),
# so `import jackideal` loads no submodule
_EXPORTS = {
    "ratfunc": "BETA BetaPoly BetaRatFunc PoleError",
    "partitions": """AdmissibleFamily DegreeMismatch InvalidNode
        InvalidParameters add_node addable_rows as_partition beta_value
        check_nonvanishing conjugate dominance_compare dominated_by
        enumerate_admissible is_admissible node_moves partitions_leq
        partitions_of removable_rows remove_node""",
    "sympoly": "MSymPoly NotSymmetric TermBudgetExceeded orbit_size power_sum",
    "jack": "JackCache SpecializationPole SpecializedJack jack_at specialize",
    "symbolic": """JackPoly c_lambda cs_eigenvalue evaluate_all_ones
        jack_symbolic pole_profile principal_specialization
        sekiguchi_eigenvalue""",
    "basis": """DegreeOverflow IdealBasis MembershipCertificate build_basis
        reduce_membership""",
    "operators": "OperatorTag apply_hamiltonian apply_l apply_w",
    "expanded": """ExpandedPoly apply_cherednik apply_dunkl apply_sekiguchi
        verify_commutators""",
    "ideal": """verify_closure verify_phi3 verify_restriction verify_wheel
        wheel_dimension""",
    "identities": """clearing_zero_order lassalle_down lassalle_up
        pieri_coefficient verify_eigensystem verify_hamiltonian
        verify_lassalle verify_pieri verify_regularity verify_sekiguchi""",
    "report": "Report",
}

__version__ = "0.1.0"

__all__ = [name for names in _EXPORTS.values() for name in names.split()]


def __getattr__(name):
    """An export, read off its module, or a submodule, imported here."""
    for module, names in _EXPORTS.items():
        if name in names.split():
            return getattr(import_module("." + module, __name__), name)
    if name in _EXPORTS:
        return import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(__all__))
