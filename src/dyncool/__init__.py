"""Numerical laboratory for ground-state preparation by dynamical cooling.

The package simulates the cooling loop exactly on dense matrices: an
idealized projective energy estimate, a sign-function spectral transform
built from certified polynomials, a weak-coupling evolution step, and the
Dyson-series bound checks that certify each theorem-level claim.
"""

from .errors import (
    CertificationError,
    DyncoolError,
    MarginError,
    NumericError,
    RangeError,
    ResolutionError,
    ResourceError,
    SynthesisError,
    ValidationError,
)
from .operators import (
    TOL,
    HermitianOperator,
    Projector,
    ShiftRegisterOperator,
    SpectralDecomposition,
    StateVector,
    Tolerances,
    UnitaryOperator,
    check_subnormalized,
    eig,
    evolve,
    projector_below,
    reflection,
    shift_evolution_factored,
    shift_operator,
    spectral_norm,
)
from .signfun import (
    C_DEG,
    SIGN_GRID_POINTS,
    FourierPolynomial,
    RealOddPolynomial,
    apply_spectral,
    build_sign_poly,
    eval_fourier,
    eval_fourier_grid,
    eval_poly,
    fourier_sign,
    spectral_values,
    to_fourier,
)
from .gqsp import (
    COMPLETION_GRID_POINTS,
    AngleSequence,
    AssembledBlock,
    CompletionPair,
    assemble_and_extract,
    complete,
    compute_angles,
    rotation_matrix,
    synthesize_angles,
)
from .dyson import (
    MAX_EXPANSION_ORDER,
    DysonTerm,
    PathWeight,
    cooling_probability,
    default_time,
    dyson_partial_sum,
    dyson_term,
    dyson_term_bound,
    effective_error,
    interaction_unitary,
    leakage,
    leakage_term_bound,
    path_weight,
    per_term_leakage,
    sample_gue,
    sector_hamiltonian,
    transition_matrix,
)
from .cooling import (
    MODES,
    CoolingConfig,
    StepResult,
    StoppingRule,
    Trajectory,
    build_hsign,
    coherent_step,
    cooling_step,
    prepare_joint,
    qpe_project,
    query_costs,
    random_initial_state,
    register_populations,
    run,
)

__version__ = "0.1.0"
