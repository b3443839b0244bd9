"""Weak-coupling verification of the two-sector evolution model.

One cooling step evolves under H = R + (sqrt(delta)/2) A, where R acts as -1
on the kept sector (range of the projector) and +1 on its complement. The
claims this module makes checkable:

- `leakage`: weight driven across sectors stays below delta at the step time.
- `effective_error`: inside the kept sector the step is the compressed
  rotation exp(-i (sqrt(delta) t / 2) P A P) up to a global phase, with
  O(delta) error.
- `dyson_term` / `per_term_leakage`: individual orders of the time-ordered
  interaction-picture expansion, computed by cumulative Simpson quadrature
  with a step-halving error estimate, checked against factorial bounds.
- `path_weight`: the nested phase integrals that control each term; any path
  with at least one oscillating slot loses a full power of t.
- `transition_matrix` / `cooling_probability` / `sample_gue`: the classical
  Markov picture the coherent step reduces to at second order, and the
  random-matrix ensemble used to drive it.

All matrix arguments accept either raw ndarrays or the wrapped operator
types.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, factorial

import numpy as np

from .errors import RangeError, ResolutionError, ValidationError
from .operators import HermitianOperator, eig, evolve, spectral_norm

__all__ = [
    "MAX_EXPANSION_ORDER",
    "DysonTerm",
    "PathWeight",
    "default_time",
    "sector_hamiltonian",
    "leakage",
    "effective_error",
    "interaction_unitary",
    "dyson_term",
    "dyson_partial_sum",
    "per_term_leakage",
    "dyson_term_bound",
    "leakage_term_bound",
    "path_weight",
    "transition_matrix",
    "cooling_probability",
    "sample_gue",
]

MAX_EXPANSION_ORDER = 8


def _cumsimp(y: np.ndarray, x: np.ndarray, axis: int = 0) -> np.ndarray:
    """Cumulative Simpson that preserves complex dtype (scipy casts to real).

    scipy is imported at first use, which keeps it off the package import.
    """
    from scipy.integrate import cumulative_simpson

    if np.iscomplexobj(y):
        re = cumulative_simpson(y.real, x=x, axis=axis, initial=0.0)
        im = cumulative_simpson(y.imag, x=x, axis=axis, initial=0.0)
        return re + 1j * im
    return cumulative_simpson(y, x=x, axis=axis, initial=0.0)


def _mat(x, name: str) -> np.ndarray:
    arr = x.entries if hasattr(x, "entries") else np.asarray(x, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{name} must be a square matrix, got {arr.shape}")
    return arr


def default_time(delta: float) -> float:
    """Step duration pi * ceil(1/(pi sqrt(delta))), the smallest multiple of
    pi with coupling angle sqrt(delta) t / 2 >= 1/2."""
    if not 0.0 < delta < 1.0:
        raise RangeError(f"delta must lie in (0, 1), got {delta}")
    return np.pi * ceil(1.0 / (np.pi * np.sqrt(delta)))


def sector_hamiltonian(A, P, delta: float) -> HermitianOperator:
    """R + (sqrt(delta)/2) A with R = I - 2P."""
    if not 0.0 < delta < 1.0:
        raise RangeError(f"delta must lie in (0, 1), got {delta}")
    a = _mat(A, "perturbation")
    p = _mat(P, "projector")
    r = np.eye(p.shape[0]) - 2.0 * p
    return HermitianOperator(r + 0.5 * np.sqrt(delta) * a)


def leakage(A, P, delta: float, t: float | None = None) -> float:
    """Squared norm of the cross-sector block of the step unitary."""
    if t is None:
        t = default_time(delta)
    p = _mat(P, "projector")
    comp = np.eye(p.shape[0]) - p
    U = evolve(sector_hamiltonian(A, P, delta), t).entries
    return spectral_norm(comp @ U @ p) ** 2


def effective_error(A, P, delta: float, t: float | None = None) -> float:
    """Squared distance between the phase-corrected kept-sector block and the
    compressed rotation exp(-i (sqrt(delta) t / 2) P A P).

    Defaults to t = 1/sqrt(delta), where the rotation angle is exactly 1/2.
    """
    if not 0.0 < delta < 1.0:
        raise RangeError(f"delta must lie in (0, 1), got {delta}")
    if t is None:
        t = 1.0 / np.sqrt(delta)
    a = _mat(A, "perturbation")
    p = _mat(P, "projector")
    U = evolve(sector_hamiltonian(A, P, delta), t).entries
    compressed = HermitianOperator(0.5 * (p @ a @ p + (p @ a @ p).conj().T))
    target = evolve(compressed, 0.5 * np.sqrt(delta) * t).entries
    diff = np.exp(-1j * t) * (p @ U @ p) - target @ p
    return spectral_norm(diff) ** 2


def interaction_unitary(A, P, delta: float, t: float) -> np.ndarray:
    """exp(iRt) exp(-iHt): the exact object the expansion approximates."""
    p = _mat(P, "projector")
    r = HermitianOperator(np.eye(p.shape[0]) - 2.0 * p)
    U = evolve(sector_hamiltonian(A, P, delta), t).entries
    return evolve(r, -t).entries @ U


def _interaction_frames(A, P, s: np.ndarray) -> np.ndarray:
    """exp(iRs) A exp(-iRs) stacked along axis 0.

    R has eigenvalues -1 (kept sector) and +1, so conjugation splits A into
    two static blocks plus two cross blocks rotating at frequency 2.
    """
    a = _mat(A, "perturbation")
    p = _mat(P, "projector")
    comp = np.eye(p.shape[0]) - p
    static = comp @ a @ comp + p @ a @ p
    up = comp @ a @ p
    down = p @ a @ comp
    phase = np.exp(2j * s)
    return static[None] + phase[:, None, None] * up + np.conj(phase)[:, None, None] * down


def _expansion_stack(A, P, delta: float, order: int, t: float, n_steps: int):
    """All orders 0..order of the expansion on the quadrature grid."""
    s = np.linspace(0.0, t, n_steps + 1)
    frames = _interaction_frames(A, P, s)
    dim = frames.shape[1]
    levels = [np.broadcast_to(np.eye(dim, dtype=complex), frames.shape).copy()]
    coupling = -0.5j * np.sqrt(delta)
    for _ in range(order):
        integrand = frames @ levels[-1]
        levels.append(coupling * _cumsimp(integrand, s))
    return levels


def dyson_term_bound(order: int, t: float, delta: float) -> float:
    """Factorial bound (t sqrt(delta) / 2)^k / k! on the order-k term."""
    return (t * np.sqrt(delta) / 2.0) ** order / factorial(order)


def leakage_term_bound(order: int, t: float, delta: float) -> float:
    """Bound on the cross-sector block of the order-k term: one time
    integration is killed by the oscillating phase, trading a power of t for
    a constant."""
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


@dataclass(frozen=True)
class PathWeight:
    """Nested phase integral for one assignment of slot frequencies."""

    phases: tuple
    time: float
    value: complex
    bound: float


def _check_expansion_args(order: int, n_steps: int):
    if not 0 <= order <= MAX_EXPANSION_ORDER:
        raise ValidationError(
            f"expansion order must lie in [0, {MAX_EXPANSION_ORDER}], got {order}"
        )
    if n_steps < 8:
        raise ValidationError(f"need at least 8 quadrature steps, got {n_steps}")


def dyson_term(
    A, P, delta: float, order: int, t: float | None = None, n_steps: int = 512
) -> DysonTerm:
    """Order-k term of the interaction-picture expansion at time t.

    Quadrature runs at n_steps and 2*n_steps; the difference is the error
    estimate. If the estimate exceeds 10% of the factorial bound the
    resolution is insufficient and the result would be meaningless for
    bound checking, so this raises instead of returning.
    """
    _check_expansion_args(order, n_steps)
    if t is None:
        t = default_time(delta)
    coarse = _expansion_stack(A, P, delta, order, t, n_steps)[order][-1]
    fine = _expansion_stack(A, P, delta, order, t, 2 * n_steps)[order][-1]
    estimate = float(np.linalg.norm(fine - coarse, 2))
    bound = dyson_term_bound(order, t, delta)
    if estimate > 0.1 * bound + 1e-12:
        raise ResolutionError(
            f"quadrature uncertainty {estimate:.3e} exceeds 10% of the "
            f"order-{order} bound {bound:.3e}; raise n_steps"
        )
    return DysonTerm(order, t, delta, fine, estimate, bound)


def dyson_partial_sum(
    A, P, delta: float, max_order: int, t: float | None = None, n_steps: int = 512
) -> np.ndarray:
    """Sum of expansion terms through max_order (order 0 is the identity)."""
    _check_expansion_args(max_order, n_steps)
    if t is None:
        t = default_time(delta)
    levels = _expansion_stack(A, P, delta, max_order, t, n_steps)
    return np.sum([lvl[-1] for lvl in levels], axis=0)


def per_term_leakage(
    A, P, delta: float, order: int, t: float | None = None, n_steps: int = 512
) -> float:
    """Norm of the cross-sector block of the order-k term."""
    term = dyson_term(A, P, delta, order, t, n_steps)
    p = _mat(P, "projector")
    comp = np.eye(p.shape[0]) - p
    return spectral_norm(comp @ term.matrix @ p)


def path_weight(phases, t: float, n_steps: int = 2048) -> PathWeight:
    """Ordered integral of prod_j exp(i mu_j s_j) over 0 <= s_1 <= ... <= t.

    ``phases`` lists the slot frequencies innermost first; each must be one
    of 0, +2, -2 (the frequencies appearing in the conjugated perturbation).
    The all-static path integrates to exactly t^k / k!; any oscillating slot
    reduces the bound to t^(k-1)/(k-1)!.
    """
    phases = tuple(int(mu) for mu in phases)
    if not phases:
        raise ValidationError("need at least one slot")
    if any(mu not in (0, 2, -2) for mu in phases):
        raise ValidationError(f"slot frequencies must be 0 or +/-2, got {phases}")
    if n_steps < 8:
        raise ValidationError(f"need at least 8 quadrature steps, got {n_steps}")
    s = np.linspace(0.0, t, n_steps + 1)
    acc = np.ones_like(s, dtype=complex)
    for mu in phases:
        acc = _cumsimp(np.exp(1j * mu * s) * acc, s)
    k = len(phases)
    if all(mu == 0 for mu in phases):
        bound = t**k / factorial(k)
    else:
        bound = t ** (k - 1) / factorial(k - 1)
    return PathWeight(phases, t, complex(acc[-1]), float(bound))


def transition_matrix(eigenvalues, A) -> np.ndarray:
    """Second-order Markov model of one cooling step.

    Column j is the outcome distribution for a step starting in eigenstate j
    with the cutoff sitting just above its energy: downhill moves (including
    degenerate partners) occur with probability |A_ij|^2 / 4, uphill moves
    are projected out exactly, the rest stays put.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    a = _mat(A, "perturbation")
    if lam.ndim != 1 or lam.size != a.shape[0]:
        raise ValidationError(
            f"need one eigenvalue per row, got {lam.shape} against {a.shape}"
        )
    T = np.where(lam[:, None] <= lam[None, :], np.abs(a) ** 2 / 4.0, 0.0)
    np.fill_diagonal(T, 0.0)
    stay = 1.0 - T.sum(axis=0)
    if np.any(stay < 0.0):
        raise ValidationError(
            "downhill weight exceeds 1; the second-order model needs a "
            "weaker perturbation"
        )
    T[np.diag_indices_from(T)] = stay
    return T


def cooling_probability(eigenvalues, A, j: int) -> float:
    """Probability of moving strictly downhill from eigenstate j in one step."""
    lam = np.asarray(eigenvalues, dtype=np.float64)
    a = _mat(A, "perturbation")
    if not 0 <= j < lam.size:
        raise RangeError(f"state index {j} outside [0, {lam.size})")
    below = lam < lam[j]
    return float(np.sum(np.abs(a[below, j]) ** 2) / 4.0)


def sample_gue(rng: np.random.Generator, dim: int) -> np.ndarray:
    """GUE draw normalized as M/sqrt(dim): unit-variance matrix elements,
    semicircle support approaching [-2, 2]. Callers wanting spectral norm
    <= 1 must rescale."""
    if dim < 1:
        raise ValidationError(f"dimension must be positive, got {dim}")
    diag = rng.normal(size=dim)
    off = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    M = np.triu(off, 1) / np.sqrt(2.0)
    M = M + M.conj().T + np.diag(diag)
    return M / np.sqrt(dim)
