"""Finite groupoid convolution algebras, states, Markov kernels, GNS spaces,
and the generalized Cramer-Rao bound, with JSON file formats and a CLI.

The public names below are resolved on first use (PEP 562): importing the
package loads none of its modules, and ``cencov_ncp.build_gns`` imports
``cencov_ncp.gns`` when it is first read.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it; each submodule maps to itself
_EXPORTS = {name: module for module, names in {
    "errors": """
        AssociativityViolation BadMeasure BadWeight CencovNcpError
        CoherenceViolation DegenerateState DimensionMismatch FoliumViolation
        GroupoidMismatch GroupoidViolation HomomorphismViolation
        IntervalExceeded InvalidDensity InvalidState InverseViolation
        NoConvergence NonTracePreserving NonUniformP NormalizationLost
        NotAGroup NotCongruent NotHermitian NotPairGroupoid NotSelfAdjoint
        NotSquare PositivityLost RowSumViolation SchemaError SupportBoundary
        UnitViolation ZeroInformation
    """,
    "groupoid": """
        FiniteGroupoid GroupoidSpec cyclic_group_groupoid disjoint_union
        group_groupoid modular_function pair_groupoid product trivial_groupoid
        validate
    """,
    "algebra": """
        AlgebraElement add convolve delta_element element_from_dict
        element_from_matrix fundamental_rep_pair left_regular_rep scale star
        unit_element
    """,
    "states": """
        DensityMatrix State StateReport check_state classical_state
        density_from_state expectation make_density make_state
        outcome_distribution state_from_density
    """,
    "numkit": "",
    "channels": """
        ClassicalKernel KernelReport QuantumKernel check_ncp_morphism
        choi_matrix choi_to_kernel compose cp_verdict embed_classical
        identity_kernel kernel_from_matrix_map kernel_to_cp_map
        pull_observable push_state validate_kernel
    """,
    "gns": """
        GnsSpace build_gns cyclic_vector gns_inner gns_represent gram_matrix
    """,
    "estimation": """
        CongruenceReport CramerRaoAudit Estimator StatisticalModel
        UnbiasednessReport check_unbiased classical_fisher_rao coin_model
        congruent_invariance cramer_rao_audit cramer_rao_bound
        derivative_vector fisher_metric qubit_z_model riesz_representer
    """,
}.items() for name in (module, *names.split())}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """The public ``name``, read from its module on every access and never
    stored here, so that a name rebound in its module is seen at once."""
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    mod = _import_module(f"{__name__}.{module}")
    return mod if name == module else getattr(mod, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
