"""Iterated measure-and-kick ground state search.

Each iteration estimates the energy to bin width epsilon (an idealized
projective phase-estimation model), builds the smoothed sign of H relative
to the cutoff one bin above the estimate, and evolves under that sign
operator plus a weak perturbation for a time that turns the perturbation
into a half-strength kick inside the cold sector. Population can only cross
the cutoff through the leakage channel, bounded per step by delta.

Three interchangeable constructions of the sign operator:

- "exact_spectral": evaluate the certified polynomial on the spectrum.
- "gqsp_circuit": evaluate the synthesized rotation sequence at each
  eigenphase of e^{i(H - cutoff)} (`gqsp.eval_angles`, a product of 2x2
  matrices) and take the Hermitian part of the encoded block. Agrees with
  the spectral route to ~1e-12; exists so the synthesized angles, not only
  the polynomial, drive the trajectory.
- "exact_reflection": the ideal limit I - 2P(below cutoff), no polynomial
  error at all.

``run`` works in H's eigenbasis: it carries the state as eigen-amplitudes
V^dag psi, so a measurement is a bin sum of |amplitude|^2 and the energy,
ground overlap and leakage are weighted sums. The step unitary depends only
on (H, A, config) and the measured bin, so ``run`` builds it once per
visited bin, with every check an uncached step makes (range guard,
Hermiticity, eig reconstruction, unitarity), and reuses it in the eigenbasis.

The coherent variant keeps the energy register as an explicit tensor factor
instead of sampling it; one step is block-diagonal over register values,
which is what makes it checkable against the sampled route branch by branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil, log2

import numpy as np

from .dyson import default_time
from .errors import RangeError, ValidationError
from .gqsp import eval_angles, synthesize_angles
from .operators import (
    HermitianOperator,
    SpectralDecomposition,
    StateVector,
    check_subnormalized,
    eig,
    evolve,
    projector_below,
    reflection,
    spectral_norm,
)
from .signfun import FourierPolynomial, fourier_sign, spectral_values

__all__ = [
    "MODES",
    "CoolingConfig",
    "StoppingRule",
    "StepResult",
    "Trajectory",
    "qpe_project",
    "build_hsign",
    "cooling_step",
    "query_costs",
    "run",
    "random_initial_state",
    "prepare_joint",
    "register_populations",
    "coherent_step",
]

MODES = ("exact_spectral", "gqsp_circuit", "exact_reflection")


@lru_cache(maxsize=64)
def _sign_cached(epsilon: float, delta: float) -> FourierPolynomial:
    """Sign polynomials are deterministic in (epsilon, delta); repeated runs
    (parameter sweeps, per-trial calls) must not pay synthesis every time."""
    return fourier_sign(epsilon, delta)


@lru_cache(maxsize=64)
def _angles_cached(epsilon: float, delta: float, margin: float):
    angles, _, _ = synthesize_angles(_sign_cached(epsilon, delta), margin=margin)
    return angles


@dataclass(frozen=True)
class CoolingConfig:
    """Parameters of one cooling experiment.

    delta defaults to 1/steps so the per-step leakage budget sums to a
    constant over the whole run.
    """

    epsilon: float
    steps: int
    delta: float | None = None
    mode: str = "exact_spectral"
    margin: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 0.7:
            raise RangeError(f"epsilon must lie in (0, 0.7], got {self.epsilon}")
        if self.steps < 1:
            raise ValidationError(f"need at least one step, got {self.steps}")
        if self.delta is None:
            object.__setattr__(self, "delta", 1.0 / self.steps)
        if not 0.0 < self.delta < 1.0:
            raise RangeError(f"delta must lie in (0, 1), got {self.delta}")
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {self.mode!r}")

    @property
    def time(self) -> float:
        return default_time(self.delta)


@dataclass(frozen=True)
class StoppingRule:
    """Optional early exit: stop once the estimate reaches the target."""

    target_estimate: float | None = None

    def satisfied(self, energy_estimate: float) -> bool:
        return (
            self.target_estimate is not None
            and energy_estimate <= self.target_estimate
        )


@dataclass(frozen=True)
class StepResult:
    step: int
    bin_index: int
    energy_estimate: float
    true_energy: float
    ground_overlap: float
    leakage_weight: float
    queries_eiH: int
    queries_UA: int
    leak_event: bool


@dataclass(frozen=True)
class Trajectory:
    steps: tuple
    initial_energy: float
    initial_ground_overlap: float
    final_bin: int
    final_energy_estimate: float
    final_true_energy: float
    final_ground_overlap: float
    leak_events: int
    success: bool


def _state_vec(state, dim: int) -> np.ndarray:
    vec = (state if isinstance(state, StateVector) else StateVector(state)).amplitudes
    if vec.shape != (dim,):
        raise ValidationError(f"state must have shape ({dim},), got {vec.shape}")
    return vec / np.linalg.norm(vec)


def random_initial_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def _energy_bins(eigenvalues: np.ndarray, epsilon: float):
    """Distinct bin labels and each eigenvalue's index into them."""
    bins = np.floor(eigenvalues / epsilon + 0.5).astype(int)
    return np.unique(bins, return_inverse=True)


def _draw_index(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Index drawn with weights ``probs``: the inverse-CDF draw that
    ``rng.choice(n, p=probs / probs.sum())`` makes, from the same one double."""
    cdf = probs.cumsum()
    if not cdf[-1] > 0.0:
        raise ValidationError("state has no weight on any energy bin")
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _measure(amps, labels, inverse, epsilon, rng) -> tuple[int, float, np.ndarray]:
    """Bin measurement on eigen-amplitudes: (bin, estimate, collapsed amplitudes)."""
    probs = np.bincount(inverse, weights=np.abs(amps) ** 2)
    idx = _draw_index(probs, rng)
    collapsed = np.where(inverse == idx, amps, 0.0) / np.sqrt(probs[idx])
    chosen = int(labels[idx])
    return chosen, min(1.0, max(-1.0, chosen * epsilon)), collapsed


def qpe_project(
    dec: SpectralDecomposition,
    state: np.ndarray,
    epsilon: float,
    rng: np.random.Generator,
) -> tuple[int, float, np.ndarray]:
    """Sample an energy bin and collapse the state onto it.

    Bins have width epsilon centered at integer multiples; the returned
    estimate is the bin center clamped to [-1, 1] (the spectrum is
    subnormalized, so clamping only trims centers that poke past the edge).
    """
    labels, inverse = _energy_bins(dec.eigenvalues, epsilon)
    chosen, energy, amps = _measure(
        dec.eigenvectors.conj().T @ state, labels, inverse, epsilon, rng
    )
    return chosen, energy, dec.eigenvectors @ amps


def build_hsign(
    dec: SpectralDecomposition,
    cutoff: float,
    config: CoolingConfig,
    S: FourierPolynomial | None = None,
    angles=None,
) -> np.ndarray:
    """Smoothed (or exact) sign of H - cutoff under the configured mode."""
    if config.mode == "exact_reflection":
        return reflection(projector_below(dec, cutoff)).entries
    if S is None:
        raise ValidationError(f"mode {config.mode!r} needs the sign polynomial")
    shifted = dec.eigenvalues - cutoff
    band = np.pi - (S.epsilon or 0.0) / 2.0
    if np.any(np.abs(shifted) >= band):
        raise RangeError(
            f"shifted spectrum leaves (-{band:.4f}, {band:.4f}); "
            f"cutoff {cutoff:.6f} with spectral radius "
            f"{np.max(np.abs(dec.eigenvalues)):.6f}"
        )
    if config.mode == "exact_spectral":
        return dec.apply(spectral_values(S, dec, cutoff), hermitian=True)
    # gqsp_circuit: the encoded block of e^{i(H - cutoff)} is V diag(p) V^dag
    if angles is None:
        angles, _, _ = synthesize_angles(S, margin=config.margin)
    return dec.apply(eval_angles(angles, np.exp(1j * shifted)).real, hermitian=True)


def _kick_unitary(hsign: np.ndarray, a_mat: np.ndarray, delta: float) -> np.ndarray:
    htilde = HermitianOperator(hsign + 0.5 * np.sqrt(delta) * a_mat)
    return evolve(htilde, default_time(delta)).entries


def _step_unitary(dec, a_mat, cutoff, config, S=None, angles=None) -> np.ndarray:
    """The step operator at one cutoff: the sign kick of ``cooling_step``."""
    return _kick_unitary(build_hsign(dec, cutoff, config, S, angles), a_mat, config.delta)


def cooling_step(
    dec: SpectralDecomposition,
    state: np.ndarray,
    A: np.ndarray,
    cutoff: float,
    config: CoolingConfig,
    S: FourierPolynomial | None = None,
    angles=None,
) -> np.ndarray:
    """Evolve under H_sign + (sqrt(delta)/2) A for the step time."""
    return _step_unitary(dec, A, cutoff, config, S, angles) @ state


def query_costs(epsilon: float, delta: float, sign_degree: int) -> tuple[int, int]:
    """Per-iteration oracle counts (e^{iH} queries, perturbation-pulse queries).

    The evolution for time t is charged as ceil(t/pi) repetitions: the sign
    operator costs its polynomial degree in e^{iH} calls per repetition, the
    energy estimate costs the register-times-precision product, and the
    perturbation line stays on for ceil(pi) units per repetition.
    """
    if not 0.0 < delta < 1.0:
        raise RangeError(f"delta must lie in (0, 1), got {delta}")
    if not 0.0 < epsilon <= 0.7:
        raise RangeError(f"epsilon must lie in (0, 0.7], got {epsilon}")
    if sign_degree < 0:
        raise ValidationError(f"degree must be non-negative, got {sign_degree}")
    reps = ceil(1.0 / (np.pi * np.sqrt(delta)))
    qpe = ceil(log2(1.0 / epsilon)) * max(1, ceil(log2(1.0 / delta))) * ceil(1.0 / epsilon)
    return sign_degree * reps + qpe, 4 * reps


def run(
    H,
    A,
    config: CoolingConfig,
    rng: np.random.Generator,
    initial_state=None,
    stopping: StoppingRule | None = None,
) -> Trajectory:
    """Full trajectory: alternate bin measurements and sign-kick evolutions.

    A leak event at step s means the following measurement (the next step's,
    or the terminal one) lands two or more bins above step s's estimate,
    i.e. past the cutoff-plus-half-bin line the sign construction defends.
    The trajectory counts as a success when no step leaks.

    The state is carried as eigen-amplitudes, and step unitaries, turned
    into the eigenbasis, are kept per measured bin in a dict local to the
    call: at most min(steps, occupied energy bins) dense d x d complex
    matrices.
    """
    H = H if isinstance(H, HermitianOperator) else HermitianOperator(H)
    check_subnormalized(H, "hamiltonian")
    a_mat = A.entries if hasattr(A, "entries") else np.asarray(A, dtype=complex)
    if spectral_norm(a_mat) > 1.0 + 1e-10:
        raise ValidationError("perturbation must have spectral norm <= 1")
    dec = eig(H)
    lam, vecs = dec.eigenvalues, dec.eigenvectors
    dim = H.dim

    state = (
        random_initial_state(rng, dim)
        if initial_state is None
        else _state_vec(initial_state, dim)
    )
    amps = vecs.conj().T @ state
    labels, inverse = _energy_bins(lam, config.epsilon)
    ground_mask = lam <= lam[0] + 1e-12

    def observe(amps):
        """True energy, ground overlap and the weights |amplitude|^2."""
        weights = np.abs(amps) ** 2
        return float(lam @ weights), float(weights[ground_mask].sum()), weights

    S = angles = None
    sign_degree = 0
    if config.mode != "exact_reflection":
        S = _sign_cached(config.epsilon, config.delta)
        sign_degree = S.degree
        if config.mode == "gqsp_circuit":
            angles = _angles_cached(config.epsilon, config.delta, config.margin)
    per_eiH, per_UA = query_costs(config.epsilon, config.delta, sign_degree)

    initial_energy, initial_overlap, _ = observe(amps)

    records = []
    prev_bin = None
    unitaries = {}  # bin index -> step unitary in the eigenbasis, V^dag U V
    for step in range(config.steps):
        bin_idx, estimate, amps = _measure(amps, labels, inverse, config.epsilon, rng)
        if records and prev_bin is not None:
            records[-1]["leak_event"] = bin_idx >= prev_bin + 2
        if stopping is not None and stopping.satisfied(estimate):
            prev_bin = None
            break
        if bin_idx not in unitaries:
            cutoff = estimate + config.epsilon
            step_u = _step_unitary(dec, a_mat, cutoff, config, S, angles)
            unitaries[bin_idx] = vecs.conj().T @ step_u @ vecs
        amps = unitaries[bin_idx] @ amps
        energy, overlap, weights = observe(amps)
        records.append(
            {
                "step": step,
                "bin_index": bin_idx,
                "energy_estimate": estimate,
                "true_energy": energy,
                "ground_overlap": overlap,
                "leakage_weight": float(weights[lam >= estimate + 1.5 * config.epsilon].sum()),
                "queries_eiH": per_eiH * (step + 1),
                "queries_UA": per_UA * (step + 1),
                "leak_event": False,
            }
        )
        prev_bin = bin_idx

    final_bin, final_estimate, amps = _measure(amps, labels, inverse, config.epsilon, rng)
    if records and prev_bin is not None:
        records[-1]["leak_event"] = final_bin >= prev_bin + 2

    final_energy, final_overlap, _ = observe(amps)
    steps = tuple(StepResult(**rec) for rec in records)
    leaks = sum(1 for s in steps if s.leak_event)
    return Trajectory(
        steps=steps,
        initial_energy=initial_energy,
        initial_ground_overlap=initial_overlap,
        final_bin=final_bin,
        final_energy_estimate=final_estimate,
        final_true_energy=final_energy,
        final_ground_overlap=final_overlap,
        leak_events=leaks,
        success=leaks == 0,
    )


def prepare_joint(dec: SpectralDecomposition, state, n: int) -> np.ndarray:
    """Entangle an n-bit energy register with the state's spectral bins.

    Register value j holds the part of the state whose eigenphase rounds to
    j * 2pi/2^n; negative energies wrap to the register's upper half, which
    the periodic polynomial evaluation treats correctly without unwrapping.
    """
    if n < 1:
        raise ValidationError(f"register needs at least one bit, got {n}")
    dim = dec.eigenvalues.size
    reg = 2**n
    vec = _state_vec(state, dim)
    amps = dec.eigenvectors.conj().T @ vec
    bins = np.round(dec.eigenvalues / (2.0 * np.pi / reg)).astype(int) % reg
    joint = np.zeros(reg * dim, dtype=complex)
    for j in np.unique(bins):
        sel = bins == j
        branch = dec.eigenvectors[:, sel] @ amps[sel]
        joint[j * dim : (j + 1) * dim] = branch
    return joint


def register_populations(joint: np.ndarray, n: int) -> np.ndarray:
    """Probability of each register value."""
    reg = 2**n
    blocks = np.asarray(joint, dtype=complex).reshape(reg, -1)
    return np.sum(np.abs(blocks) ** 2, axis=1)


def coherent_step(
    joint: np.ndarray,
    dec: SpectralDecomposition,
    A,
    n: int,
    S: FourierPolynomial,
    delta: float,
) -> np.ndarray:
    """One cooling step conditioned on the register, without measuring it.

    Block j evolves under the sign of H relative to cutoff (j+1) * 2pi/2^n,
    using the periodic evaluation so wrapped (negative-energy) register
    values get the correct cutoff for free. Register populations are exactly
    preserved.
    """
    if not 0.0 < delta < 1.0:
        raise RangeError(f"delta must lie in (0, 1), got {delta}")
    a_mat = A.entries if hasattr(A, "entries") else np.asarray(A, dtype=complex)
    reg = 2**n
    dim = dec.eigenvalues.size
    width = 2.0 * np.pi / reg
    blocks = np.asarray(joint, dtype=complex).reshape(reg, dim).copy()
    for j in range(reg):
        if np.linalg.norm(blocks[j]) == 0.0:
            continue
        hsign = dec.apply(spectral_values(S, dec, j * width + width), hermitian=True)
        blocks[j] = _kick_unitary(hsign, a_mat, delta) @ blocks[j]
    return blocks.reshape(-1)
