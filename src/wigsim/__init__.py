"""Phase-space simulation of continuous-variable states (hbar = 2).

Wigner functions on uniform grids, Gaussian/symplectic operations, homodyne
conditioning, the logarithmic Wigner-negativity monotone, analytic resource
state generators with an independent Fock-basis oracle, and the
beam-splitter negativity-distillation protocol.
"""

from .errors import (
    DegenerateConditioningError,
    GridMismatchError,
    InvalidGridError,
    NonNormalizableError,
    OutOfDomainError,
    PhaseSpaceError,
    TruncationError,
    UndefinedStateError,
    UnnormalizedFieldError,
)
from .grids import (
    TOL_NORM,
    PhaseSpaceGrid,
    QuadratureDistribution,
    WignerField,
    build_grid,
    default_grid,
    field_from_samples,
    integrate_full,
    integrate_samples,
    marginal_over,
    overlap_trace,
    read_field_csv,
    renormalize,
    tensor_product,
    trapezoid_weights,
    wigner_from_wavefunction,
    write_field_csv,
)
from .special import airy_ai_scaled, laguerre
from .states import (
    ON,
    CubicPhase,
    Gaussian,
    GaussianStateParams,
    Number,
    PhotonMod,
    ResourceStateSpec,
    cubic_phase_wavefunction,
    cubic_phase_wigner,
    gaussian_wigner,
    mean_photon_analytic,
    mean_photon_numeric,
    number_state_wigner,
    on_state_wigner,
    photon_mod_wigner,
    resource_wigner,
    rotated_squeezed_cov,
    vacuum_wigner,
)
from .symplectic import (
    EPS_COND,
    SymplecticOp,
    apply_symplectic,
    compose,
    condition_on_homodyne,
    homodyne_pdf,
    omega,
    sym_beamsplitter,
    sym_displace,
    sym_rotate,
    sym_squeeze,
)
from .monotones import (
    fidelity_initial_analytic,
    fidelity_to_pure,
    log_negativity,
)
from .fock import FockState, fock_density, wigner_from_fock
from .distill import (
    DistillationConfig,
    DistillationOutcome,
    OutcomeRecord,
    default_outcome_samples,
    default_protocol_grid,
    distill_conditional,
    distill_sweep,
    on_gate_output,
    select_window,
    write_sweep_csv,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
