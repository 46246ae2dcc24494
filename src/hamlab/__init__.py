"""Numerical laboratory for Birkhoff normal forms, Diophantine and SDM
genericity checks, and long-time symplectic drift experiments on polynomial
Hamiltonians near elliptic fixed points."""

from .birkhoff import (
    NormalFormResult,
    apply_transform,
    birkhoff_normal_form,
    optimal_order,
    remainder_curve,
)
from .diophantine import (
    DiophantineEstimate,
    ResonanceReport,
    check_nonresonant,
    envelope,
    estimate_gamma,
    fit_tau,
)
from .dynamics import (
    DriftRun,
    EnsembleSummary,
    IntegratorConfig,
    ensemble_drift,
    escape_time_scan,
    sample_initial_conditions,
)
from .errors import (
    CombinatorialBudgetExceeded,
    DimensionMismatch,
    FixedPointDivergence,
    HamlabError,
    NotActionRepresentable,
    OrderTooHigh,
    OutOfDomain,
    ResonanceEncountered,
    ResonantFrequency,
    ThresholdViolation,
)
from .exactnum import GOLDEN, RATIONAL, SQRT2, ExactComplex, QuadField
from .lab import (
    ExperimentSpec,
    RandomHamiltonianParams,
    generate_random_hamiltonian,
    run_experiment,
)
from .model import EllipticHamiltonian, formal_actions
from .poly import ActionPolynomial, Polynomial
from .sdm import (
    BadSet,
    RationalSubspace,
    SdmVerdict,
    bad_set_quadratic,
    check_sdm_polynomial,
    check_sdm_quadratic,
    enumerate_GL,
    prevalence_estimate,
)

__version__ = "0.1.0"

__all__ = [
    "ActionPolynomial",
    "BadSet",
    "CombinatorialBudgetExceeded",
    "DimensionMismatch",
    "DiophantineEstimate",
    "DriftRun",
    "EllipticHamiltonian",
    "EnsembleSummary",
    "ExactComplex",
    "ExperimentSpec",
    "FixedPointDivergence",
    "GOLDEN",
    "HamlabError",
    "IntegratorConfig",
    "NormalFormResult",
    "NotActionRepresentable",
    "OrderTooHigh",
    "OutOfDomain",
    "Polynomial",
    "QuadField",
    "RATIONAL",
    "RandomHamiltonianParams",
    "RationalSubspace",
    "ResonanceEncountered",
    "ResonanceReport",
    "ResonantFrequency",
    "SQRT2",
    "SdmVerdict",
    "ThresholdViolation",
    "apply_transform",
    "bad_set_quadratic",
    "birkhoff_normal_form",
    "check_nonresonant",
    "check_sdm_polynomial",
    "check_sdm_quadratic",
    "ensemble_drift",
    "enumerate_GL",
    "envelope",
    "escape_time_scan",
    "estimate_gamma",
    "fit_tau",
    "formal_actions",
    "generate_random_hamiltonian",
    "optimal_order",
    "prevalence_estimate",
    "remainder_curve",
    "run_experiment",
    "sample_initial_conditions",
]
