"""Weak-coupling verification of the two-sector evolution model.

One cooling step evolves under H = R + kappa A, where R acts as -1 on the
kept sector (range of the projector) and +1 on its complement. The kick
strength kappa = sqrt(delta)/2 (``_coupling``), the step's repetition count and
its time have their one home here. The claims this module makes checkable:

- `leakage`: weight driven across sectors stays below delta at the step time.
- `effective_error`: inside the kept sector the step is the compressed
  rotation exp(-i kappa t P A P) up to a global phase, with O(delta) error.
- `dyson_term` / `per_term_leakage`: orders of the interaction-picture
  expansion by cumulative Simpson quadrature with a step-halving error
  estimate, checked against factorial bounds (taken at |t|, so a negative
  time is bounded too).
- `transition_matrix` / `cooling_probability` / `sample_gue`: the second-order
  Markov picture of the step and the random-matrix ensemble that drives it.

Matrix arguments may be ndarrays or wrapped operators. Each input is checked
once, where it enters: delta in ``_coupling`` (every kappa's one path) and in
``leakage_term_bound`` (its delta^(k/2) bypasses kappa); a Hermitian A and a projector
P of one shape in ``_sectors``; eigenvalues, one finite value per row of a Hermitian A,
in ``_spectrum``; a time, which must be finite, by ``operators.check_real`` (in
``evolve`` where a time goes there first); a quadrature step count, an integer
of at least 8, in ``_grid``; an expansion order and a state index, each an
integer, by ``operators.check_integer`` where they enter.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, factorial

import numpy as np

from .errors import RangeError, ResolutionError, ValidationError
from .operators import HermitianOperator, Projector, _bound, check_delta, check_dim, check_integer
from .operators import check_real, evolve, matrix_entries, spectral_norm

__all__ = [
    "MAX_EXPANSION_ORDER",
    "DysonTerm",
    "default_time",
    "sector_hamiltonian",
    "leakage",
    "effective_error",
    "dyson_term",
    "per_term_leakage",
    "dyson_term_bound",
    "leakage_term_bound",
    "transition_matrix",
    "cooling_probability",
    "sample_gue",
]

MAX_EXPANSION_ORDER = 8


def _cumsimp(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative Simpson integral of complex or real ``y`` along axis 0 on the
    uniform grid ``x`` (at least 3 points), from 0, as scipy's
    ``cumulative_simpson``: the parabola through the points of each triple
    starting at an even index gives h/12 (5 y0 + 8 y1 - y2) over its first
    interval and h/12 (-y0 + 8 y1 + 5 y2) over its second, and the last
    interval is the second one of the last triple."""
    first = 5.0 * y[:-2] + 8.0 * y[1:-1] - y[2:]
    second = 8.0 * y[1:-1] + 5.0 * y[2:] - y[:-2]
    parts = np.empty_like(y)
    parts[0] = 0.0
    parts[1:-1:2] = first[::2]
    parts[2::2] = second[::2]
    parts[-1] = second[-1]
    return np.cumsum(parts, axis=0) * ((x[1] - x[0]) / 12.0)


def _coupling(delta: float) -> float:
    """The kick strength kappa = sqrt(delta)/2 of every step, once delta is checked."""
    check_delta(delta)
    return 0.5 * np.sqrt(delta)


def _repetitions(delta: float) -> int:
    return ceil(1.0 / (2.0 * np.pi * _coupling(delta)))


def _sectors(A, P) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, P, I - P) as arrays, for a Hermitian A and a projector P of one shape."""
    a = HermitianOperator(A).entries
    p = Projector(P).entries
    if a.shape != p.shape:
        raise ValidationError(f"perturbation shape {a.shape} differs from projector shape {p.shape}")
    return a, p, np.eye(p.shape[0]) - p


def _grid(t: float, n_steps: int) -> np.ndarray:
    """The uniform quadrature grid of ``n_steps`` (an integer >= 8) steps on [0, t]."""
    return np.linspace(0.0, t, check_integer(n_steps, "quadrature step count", 8) + 1)


def default_time(delta: float) -> float:
    """Step duration pi * ceil(1/(2 pi kappa)), the smallest multiple of pi
    with coupling angle kappa t >= 1/2; the count is ``_repetitions``."""
    return np.pi * _repetitions(delta)


def sector_hamiltonian(A, P, delta: float) -> HermitianOperator:
    """R + kappa A with R = I - 2P."""
    a, p, _ = _sectors(A, P)
    return HermitianOperator(np.eye(p.shape[0]) - 2.0 * p + _coupling(delta) * a)


def leakage(A, P, delta: float) -> float:
    """Squared norm of the cross-sector block of the step unitary at the step time."""
    a, p, comp = _sectors(A, P)
    U = evolve(sector_hamiltonian(a, p, delta), default_time(delta)).entries
    return spectral_norm(comp @ U @ p) ** 2


def effective_error(A, P, delta: float) -> float:
    """Squared distance between the phase-corrected kept-sector block and the
    compressed rotation exp(-i kappa t P A P) at t = 1/(2 kappa), where the
    rotation angle is exactly 1/2."""
    a, p, _ = _sectors(A, P)
    t = 1.0 / (2.0 * _coupling(delta))
    U = evolve(sector_hamiltonian(a, p, delta), t).entries
    compressed = HermitianOperator(0.5 * (p @ a @ p + (p @ a @ p).conj().T))
    target = evolve(compressed, _coupling(delta) * t).entries
    diff = np.exp(-1j * t) * (p @ U @ p) - target @ p
    return spectral_norm(diff) ** 2


def _interaction_frames(A, P, s: np.ndarray) -> np.ndarray:
    """exp(iRs) A exp(-iRs) stacked along axis 0. R has eigenvalues -1 (kept
    sector) and +1, so conjugation splits A into two static blocks plus two
    cross blocks rotating at frequency 2."""
    a, p, comp = _sectors(A, P)
    static = comp @ a @ comp + p @ a @ p
    up = comp @ a @ p
    down = p @ a @ comp
    phase = np.exp(2j * s)
    return static[None] + phase[:, None, None] * up + np.conj(phase)[:, None, None] * down


def _expansion_stack(A, P, delta: float, order: int, t: float, n_steps: int):
    """All orders 0..order of the expansion on the quadrature grid."""
    s = _grid(t, n_steps)
    frames = _interaction_frames(A, P, s)
    dim = frames.shape[1]
    levels = [np.broadcast_to(np.eye(dim, dtype=complex), frames.shape).copy()]
    factor = -1j * _coupling(delta)
    for _ in range(order):
        integrand = frames @ levels[-1]
        levels.append(factor * _cumsimp(integrand, s))
    return levels


def dyson_term_bound(order: int, t: float, delta: float) -> float:
    """Factorial bound (kappa |t|)^k / k! on the order-k term."""
    check_integer(order, "expansion order", 0)
    return (abs(check_real(t, "time")) * _coupling(delta)) ** order / factorial(order)


def leakage_term_bound(order: int, t: float, delta: float) -> float:
    """Bound on the cross-sector block of the order-k term: one time
    integration is killed by the oscillating phase, trading a power of t for
    a constant. Taken at |t|, as ``dyson_term_bound``."""
    check_integer(order, "expansion order", 0)
    t = abs(check_real(t, "time"))
    check_delta(delta)
    if order < 1:
        return 0.0
    return t ** (order - 1) * delta ** (order / 2.0) / (factorial(order - 1) * 2.0)


@dataclass(frozen=True)
class DysonTerm:
    """Order-k expansion term with its quadrature error estimate."""

    order: int
    time: float
    delta: float
    matrix: np.ndarray
    error_estimate: float
    bound: float

    @property
    def slack(self) -> float:
        """Tolerance to allow when comparing this term against bounds."""
        return max(1e-8, 2.0 * self.error_estimate)


def _expansion_time(order: int, delta: float, t: float | None) -> float:
    check_integer(order, "expansion order", 0, MAX_EXPANSION_ORDER)
    return default_time(delta) if t is None else check_real(t, "time")


def dyson_term(
    A, P, delta: float, order: int, t: float | None = None, n_steps: int = 512
) -> DysonTerm:
    """Order-k term of the interaction-picture expansion at time t.

    Quadrature runs at n_steps and 2*n_steps; the difference is the error
    estimate. An estimate past 10% of the factorial bound would make the
    term meaningless for bound checking, so it raises ``ResolutionError``."""
    t = _expansion_time(order, delta, t)
    coarse = _expansion_stack(A, P, delta, order, t, n_steps)[order][-1]
    fine = _expansion_stack(A, P, delta, order, t, 2 * n_steps)[order][-1]
    estimate = float(np.linalg.norm(fine - coarse, 2))
    bound = dyson_term_bound(order, t, delta)
    name = f"order-{order} quadrature uncertainty at n_steps={n_steps}"
    _bound(name, estimate, 0.1 * bound + 1e-12, ResolutionError)
    return DysonTerm(order, t, delta, fine, estimate, bound)


def per_term_leakage(
    A, P, delta: float, order: int, t: float | None = None, n_steps: int = 512
) -> float:
    """Norm of the cross-sector block of the order-k term."""
    a, p, comp = _sectors(A, P)
    return spectral_norm(comp @ dyson_term(a, p, delta, order, t, n_steps).matrix @ p)


def _spectrum(eigenvalues, A) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, A) as arrays: one float eigenvalue per row of a Hermitian A."""
    lam = matrix_entries(eigenvalues, float, "eigenvalues", finite=True)
    a = HermitianOperator(A).entries
    if lam.ndim != 1 or lam.size != a.shape[0]:
        raise ValidationError(f"need one eigenvalue per row, got {lam.shape} against {a.shape}")
    return lam, a


def transition_matrix(eigenvalues, A) -> np.ndarray:
    """Second-order Markov model of one cooling step.

    Column j is the outcome distribution for a step starting in eigenstate j
    with the cutoff sitting just above its energy: downhill moves (including
    degenerate partners) occur with probability |A_ij|^2 / 4, uphill moves
    are projected out exactly, the rest stays put.
    """
    lam, a = _spectrum(eigenvalues, A)
    T = np.where(lam[:, None] <= lam[None, :], np.abs(a) ** 2 / 4.0, 0.0)
    np.fill_diagonal(T, 0.0)
    stay = 1.0 - T.sum(axis=0)
    if np.any(stay < 0.0):
        raise ValidationError("downhill weight exceeds 1; the second-order model needs a "
                              "weaker perturbation")
    T[np.diag_indices_from(T)] = stay
    return T


def cooling_probability(eigenvalues, A, j: int) -> float:
    """Probability of moving strictly downhill from eigenstate j in one step."""
    lam, a = _spectrum(eigenvalues, A)
    if check_integer(j, "state index", 0, error=RangeError) >= lam.size:
        raise RangeError(f"state index {j} outside [0, {lam.size})")
    below = lam < lam[j]
    return float(np.sum(np.abs(a[below, j]) ** 2) / 4.0)


def sample_gue(rng: np.random.Generator, dim: int) -> np.ndarray:
    """GUE draw normalized as M/sqrt(dim): unit-variance matrix elements,
    semicircle support approaching [-2, 2]. Callers wanting spectral norm
    <= 1 must rescale."""
    check_dim(dim, "GUE")
    diag = rng.normal(size=dim)
    off = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    M = np.triu(off, 1) / np.sqrt(2.0)
    M = M + M.conj().T + np.diag(diag)
    return M / np.sqrt(dim)
