"""Ladder-operator analysis of multimode quadratic boson Hamiltonians."""

from .algebra import (
    BosonBasis,
    CanonicalMap,
    NonCanonicalMapError,
    QuadraticForm,
    adjoint_rep,
    build_quadratic,
    commutator_linear,
    commutator_matrix,
    transform_form,
)
from .spectral import (
    EigenvalueCluster,
    EPReport,
    ExceptionalPointError,
    LadderOperator,
    Reality,
    SpectralDecomposition,
    classify_reality,
    decompose,
    detect_ep,
    eigenpairs,
    normalize_pairs,
    spectrum,
)
from .swanson import (
    OneModeParams,
    TwoModeParams,
    bogoliubov_map,
    generator_coeffs,
    is_pt_symmetric,
    one_mode,
    one_mode_ladders,
    one_mode_lambdas,
    pt_conjugate,
    two_mode,
    two_mode_ep_locus,
    two_mode_ladders,
    two_mode_lambdas,
)
from .fock import (
    AdjointActionReport,
    FockTruncation,
    MetricReport,
    OracleReport,
    assemble,
    oracle_eigenvalues,
    predicted_levels,
    verify_adjoint_action,
    verify_metric,
    verify_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "BosonBasis", "QuadraticForm", "CanonicalMap", "NonCanonicalMapError",
    "commutator_matrix", "build_quadratic", "adjoint_rep", "commutator_linear",
    "transform_form",
    "LadderOperator", "SpectralDecomposition", "Reality", "EigenvalueCluster",
    "EPReport", "ExceptionalPointError", "eigenpairs", "normalize_pairs",
    "decompose", "spectrum", "classify_reality", "detect_ep",
    "OneModeParams", "TwoModeParams", "one_mode", "one_mode_lambdas",
    "one_mode_ladders", "bogoliubov_map", "generator_coeffs",
    "two_mode", "two_mode_lambdas", "two_mode_ladders", "two_mode_ep_locus",
    "pt_conjugate", "is_pt_symmetric",
    "FockTruncation", "OracleReport", "AdjointActionReport", "MetricReport",
    "assemble", "oracle_eigenvalues", "predicted_levels",
    "verify_spectrum", "verify_adjoint_action", "verify_metric",
]
