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
    SpectralDecomposition,
    StateVector,
    Tolerances,
    UnitaryOperator,
    eig,
    evolve,
    projector_below,
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
    eval_angles,
    synthesize_angles,
)
from .dyson import (
    MAX_EXPANSION_ORDER,
    DysonTerm,
    cooling_probability,
    default_time,
    dyson_term,
    dyson_term_bound,
    effective_error,
    leakage,
    leakage_term_bound,
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
    cooling_step,
    qpe_project,
    query_costs,
    random_initial_state,
    run,
    run_experiment,
)

__version__ = "0.1.0"
