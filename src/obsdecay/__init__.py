"""Spectral certification and decay-rate verification for modal observer errors.

The package constructs the error generator of an output-injection observer
for a truncated modal system, encloses every eigenvalue in an explicit disk
backed by a dominance (Rouche-type) argument, builds the resolvent and the
diagonalizing eigenbasis in closed form, and verifies the predicted
polynomial decay law of the error norm both from the eigenvalues and from
simulated trajectories.
"""

from .charfn import (
    CharContext,
    LocalizationCertificate,
    LocalizationError,
    PoleError,
    estimate_M,
    eval_F,
    eval_f,
    eval_f_prime,
    localize,
    rouche_margin,
)
from .dynamics import (
    DecayFit,
    ErrorTrajectory,
    IntegrationError,
    ObserverSetup,
    ObserverTrajectory,
    apply_generator,
    decay_envelope,
    decay_fit_trajectory,
    dense_generator,
    domain_initial_state,
    simulate_error,
    simulate_observer,
)
from .modal import (
    BasisError,
    ModalBasis,
    ResidualError,
    build_basis,
    comparison_vector,
    eigenvector,
)
from .model import (
    AssumptionCertificate,
    SystemSpec,
    beam_example,
    build_system,
    certify_assumptions,
)
from .resolvent import (
    AxisScan,
    SpectrumProximityError,
    apply_resolvent,
    axis_scan,
    segment_bound_checks,
)
from .spectrum import (
    EigenCertificate,
    NewtonError,
    SpectrumReport,
    WindingError,
    enclosure_radius,
    full_spectrum,
    newton_root,
    winding_number,
)
from .state import RealState, StateVector

__version__ = "0.1.0"

__all__ = [
    "AssumptionCertificate",
    "AxisScan",
    "BasisError",
    "CharContext",
    "DecayFit",
    "EigenCertificate",
    "ErrorTrajectory",
    "IntegrationError",
    "LocalizationCertificate",
    "LocalizationError",
    "ModalBasis",
    "NewtonError",
    "ObserverSetup",
    "ObserverTrajectory",
    "PoleError",
    "RealState",
    "ResidualError",
    "SpectrumProximityError",
    "SpectrumReport",
    "StateVector",
    "SystemSpec",
    "WindingError",
    "apply_generator",
    "apply_resolvent",
    "axis_scan",
    "beam_example",
    "build_basis",
    "build_system",
    "certify_assumptions",
    "comparison_vector",
    "decay_envelope",
    "decay_fit_trajectory",
    "dense_generator",
    "domain_initial_state",
    "eigenvector",
    "enclosure_radius",
    "estimate_M",
    "eval_F",
    "eval_f",
    "eval_f_prime",
    "full_spectrum",
    "localize",
    "newton_root",
    "rouche_margin",
    "segment_bound_checks",
    "simulate_error",
    "simulate_observer",
    "winding_number",
]
