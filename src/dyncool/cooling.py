"""Iterated measure-and-kick ground state search.

Each iteration measures the energy bin of width epsilon (an idealized
projective phase-estimation model), builds the smoothed sign of H at the
cutoff one bin above the bin's integer label (``_labels``; the top one capped,
``_Bins``), and evolves under that sign plus a weak perturbation for a time that
turns it into a half-strength kick inside the cold sector. Population can only
climb two labels or more through the leakage channel, bounded per step by delta.

Three interchangeable constructions of the sign, each one real value per
eigenvalue of H:

- "exact_spectral": evaluate the certified polynomial on the spectrum.
- "gqsp_circuit": evaluate the synthesized rotation sequence at each
  eigenphase of e^{i(H - cutoff)} (`gqsp.eval_angles`, a product of 2x2
  matrices) and take the Hermitian part of the encoded block. Agrees with
  the spectral route to ~1e-12; exists so the synthesized angles, not only
  the polynomial, drive the trajectory.
- "exact_reflection": the ideal limit I - 2P(below cutoff), no polynomial
  error at all.

Every kick is built one way, in H's eigenbasis V where the sign is
diagonal: at cutoff c it is exp(-iT K) with K = diag(s) + kappa V^dag A V, s
the sign values at c, kappa = sqrt(delta)/2 (``dyson._coupling``) and T the step
time. Each build checks the shifted spectrum against the sign's band (polynomial
modes), K's Hermiticity, the eig reconstruction of K and the result's unitarity.

``run`` carries the state as eigen-amplitudes V^dag psi; the eigenvalues
ascend, so every energy bin is a contiguous slice of them. What a
trajectory needs beyond that depends only on (H, A, config) and comes from
a module-level memo of contexts found by content: each context keeps
read-only copies of H and A as complex128 and the frozen config, and a
lookup compares the config and then the caller's arrays with the copies in
place, newest first, hashing nothing. A context holds eig(H), V^dag A V,
the bin slices, the query costs and one real observation matrix, whose
product with the squared real and imaginary parts of the amplitudes gives
every bin weight, the energy, the ground overlap and every bin's leakage.
Each call reads H and A through the array rule (``operators.matrix_entries``,
without its finiteness test); the rest of the input, the config's sign
synthesis included, is checked only when a context is built, so invalid
input never enters the memo and raises on every call.
Each context also keeps, per bin b, the columns of the kick exp(-iT K_b)
over b's slice, where a measured state lives, built with every check on b's
first visit; for a bin of one eigenvalue, whose collapsed state is that
eigenvector up to a global phase, it keeps the kicked state and all that is
observed from it instead. All bins' blocks hold d columns in total, so the
memo's one bound, ``_MEMO_CONTEXTS`` contexts evicted least recently used,
bounds them too.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import ceil, log2, sqrt
from typing import NamedTuple

import numpy as np

from .dyson import _coupling, _repetitions, default_time
from .errors import ValidationError
from .gqsp import eval_angles, synthesize_angles
from .operators import (
    HermitianOperator,
    SpectralDecomposition,
    StateVector,
    MAX_COUNT,
    check_delta,
    check_dim,
    check_epsilon,
    check_integer,
    check_real,
    check_norm,
    eig,
    evolve,
    hermitian_norm,
    matrix_entries,
    shifted_spectrum,
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
    "run_experiment",
    "random_initial_state",
]

MODES = ("exact_spectral", "gqsp_circuit", "exact_reflection")

_MEMO_CONTEXTS = 4
_WORDS = 1 << 17  # 64-bit words per chunk of a memo compare: 1 MiB a side, in cache


@lru_cache(maxsize=64)
def _sign_cached(epsilon: float, delta: float) -> FourierPolynomial:
    """Sign polynomials are deterministic in (epsilon, delta); repeated runs
    (parameter sweeps, per-trial calls) must not pay synthesis every time."""
    return fourier_sign(epsilon, delta)


@lru_cache(maxsize=64)
def _angles_cached(epsilon: float, delta: float):
    angles, _, _ = synthesize_angles(_sign_cached(epsilon, delta))
    return angles


@dataclass(frozen=True)
class CoolingConfig:
    """Parameters of one cooling experiment.

    delta defaults to 1/steps so the per-step leakage budget sums to a
    constant over the whole run; steps is an integer from 1 to ``MAX_COUNT``.
    """

    epsilon: float
    steps: int
    delta: float | None = None
    mode: str = "exact_spectral"

    def __post_init__(self):
        check_epsilon(self.epsilon)
        check_integer(self.steps, "steps", 1, MAX_COUNT)
        if self.delta is None:
            object.__setattr__(self, "delta", 1.0 / self.steps)
        check_delta(self.delta)
        if not isinstance(self.mode, str) or self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class StoppingRule:
    """Early exit: stop once the estimate reaches the target, a finite number."""

    target_estimate: float

    def __post_init__(self):
        check_real(self.target_estimate, "target_estimate", error=ValidationError)

    def satisfied(self, energy_estimate: float) -> bool:
        return energy_estimate <= self.target_estimate


class StepResult(NamedTuple):
    """One step's record; a tuple, so it equals a plain tuple of its values."""

    step: int
    bin_index: int
    energy_estimate: float
    true_energy: float
    ground_overlap: float
    leakage_weight: float
    queries_eiH: int
    queries_UA: int
    leak_event: bool


class Trajectory(NamedTuple):
    """One ``run``'s record, its steps' records first; a tuple, as ``StepResult`` is."""

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
    return _amplitudes(vec, dim) / np.linalg.norm(vec)


def _amplitudes(state, dim: int) -> np.ndarray:
    """``state`` as a vector of ``dim`` complex amplitudes, every entry finite."""
    return matrix_entries(state, name="state", finite=True, shape=(dim,))


def random_initial_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A Haar-random unit vector of a dimension ``check_dim`` accepts."""
    return _haar_state(rng, check_dim(dim, "state"))


def _haar_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """``random_initial_state`` unchecked, from one block of 2 * ``dim`` normal
    draws, the real parts first; ``run`` draws each trajectory's state here."""
    z = rng.normal(size=2 * dim)
    vec = z[:dim] + 1j * z[dim:]
    return vec / np.linalg.norm(vec)


def _cdf(probs) -> list:
    """The running sums of ``probs`` divided by their total."""
    cdf = list(accumulate(probs))
    total = cdf[-1]
    if not total > 0.0:
        raise ValidationError("state has no weight on any energy bin")
    return [c / total for c in cdf]


def _draw_index(probs, rng: np.random.Generator) -> int:
    """Index drawn with weights ``probs``: the inverse-CDF draw that
    ``rng.choice(n, p=probs / probs.sum())`` makes, from the same one double."""
    return bisect_right(_cdf(probs), rng.random())


def _labels(values: np.ndarray, width: float) -> np.ndarray:
    """The integer label floor(v/width + 1/2) of each value: the nearest multiple
    of ``width``, ties rounded up, the one rule for energy bins."""
    return np.floor(values / width + 0.5).astype(int)


class _Bins:
    """Energy bins of width epsilon centered at integer multiples.

    ``_labels`` never decrease along ascending eigenvalues, so each bin is a
    contiguous run of them. Per bin index: the label b, its ``(start, stop)``
    slice, its estimate b epsilon clamped to [-1, 1], its cutoff
    min(b epsilon, max(1, lambda_max)) + epsilon and ``leak_from``, the first
    eigenvalue of label b + 2 or more, where the defended line starts.
    """

    def __init__(self, eigenvalues: np.ndarray, epsilon: float):
        check_epsilon(epsilon)
        labels = _labels(eigenvalues, epsilon)
        bounds = [0, *(np.flatnonzero(np.diff(labels)) + 1).tolist(), labels.size]
        self.slices = list(zip(bounds[:-1], bounds[1:]))
        self.labels = labels[bounds[:-1]].tolist()
        self.estimates = [min(1.0, max(-1.0, b * epsilon)) for b in self.labels]
        self.cutoffs = [min(b * epsilon, max(1.0, eigenvalues[-1])) + epsilon for b in self.labels]
        self.leak_from = labels.searchsorted([b + 2 for b in self.labels]).tolist()

    def collapse(self, amps: np.ndarray, idx: int, weight: float) -> np.ndarray:
        """``amps`` projected onto bin ``idx``, whose weight is ``weight``,
        and renormalized."""
        start, stop = self.slices[idx]
        out = np.zeros_like(amps)
        out[start:stop] = amps[start:stop] / sqrt(weight)
        return out


def qpe_project(
    dec: SpectralDecomposition,
    state: np.ndarray,
    epsilon: float,
    rng: np.random.Generator,
) -> tuple[int, float, np.ndarray]:
    """Sample an energy bin and collapse the state onto it: the bin's label,
    its ``_Bins`` estimate and the collapsed state."""
    bins = _Bins(dec.eigenvalues, epsilon)
    amps = dec.eigenvectors.conj().T @ _amplitudes(state, dec.dim)
    weights = np.abs(amps) ** 2
    probs = [weights[start:stop].sum() for start, stop in bins.slices]
    idx = _draw_index(probs, rng)
    collapsed = bins.collapse(amps, idx, probs[idx])
    return bins.labels[idx], bins.estimates[idx], dec.eigenvectors @ collapsed


def _sign_values(dec, cutoff, config) -> np.ndarray:
    """The sign of each eigenvalue of H - cutoff under the configured mode;
    the polynomial modes first check the shifted spectrum against the sign's band."""
    cutoff = check_real(cutoff, "cutoff")
    if config.mode == "exact_reflection":
        return np.where(dec.eigenvalues < cutoff, -1.0, 1.0)
    S = _sign_cached(config.epsilon, config.delta)
    shifted = shifted_spectrum(dec.eigenvalues, cutoff, S.epsilon)
    if config.mode == "exact_spectral":
        return spectral_values(S, dec, cutoff)
    # gqsp_circuit: the encoded block of e^{i(H - cutoff)} is V diag(p) V^dag
    angles = _angles_cached(config.epsilon, config.delta)
    return eval_angles(angles, np.exp(1j * shifted)).real


def build_hsign(dec: SpectralDecomposition, cutoff: float, config: CoolingConfig) -> np.ndarray:
    """Smoothed (or exact) sign of H - cutoff under the configured mode."""
    return dec.apply(_sign_values(dec, cutoff, config), hermitian=True)


def _rotated_perturbation(A, dec: SpectralDecomposition) -> np.ndarray:
    """V^dag A V, symmetrized, for a perturbation A checked first: Hermitian,
    of ``dec``'s shape and of spectral norm <= 1."""
    a = HermitianOperator(matrix_entries(A, name="perturbation", shape=(dec.dim, dec.dim))).entries
    check_norm(hermitian_norm(a, "perturbation"), "perturbation")
    vecs = dec.eigenvectors
    rotated = vecs.conj().T @ a @ vecs
    return (rotated + rotated.conj().T) / 2.0


def _kick(signs: np.ndarray, a_rot: np.ndarray, delta: float) -> np.ndarray:
    """The step operator in H's eigenbasis, exp(-iT K) with K = diag(signs) +
    kappa a_rot, a_rot = V^dag A V. K passes the Hermiticity check, and
    ``evolve`` checks its eig reconstruction and the result's unitarity."""
    gen = HermitianOperator(np.diag(signs) + _coupling(delta) * a_rot)
    return evolve(gen, default_time(delta)).entries


def cooling_step(
    dec: SpectralDecomposition,
    state: np.ndarray,
    A,
    cutoff: float,
    config: CoolingConfig,
) -> np.ndarray:
    """Evolve one state vector under H_sign + kappa A for the step time."""
    state = _amplitudes(state, dec.dim)
    signs = _sign_values(dec, cutoff, config)
    kick = _kick(signs, _rotated_perturbation(A, dec), config.delta)
    vecs = dec.eigenvectors
    return vecs @ (kick @ (vecs.conj().T @ state))


def query_costs(epsilon: float, delta: float, sign_degree: int) -> tuple[int, int]:
    """Per-iteration oracle counts (e^{iH} queries, perturbation-pulse queries).

    The evolution for time t is charged as ceil(t/pi) repetitions: the sign
    operator costs its polynomial degree in e^{iH} calls per repetition, the
    energy estimate costs the register-times-precision product, and the
    perturbation line stays on for ceil(pi) units per repetition.
    """
    reps = _repetitions(delta)
    check_epsilon(epsilon)
    check_integer(sign_degree, "degree", 0)
    qpe = ceil(log2(1.0 / epsilon)) * max(1, ceil(log2(1.0 / delta))) * ceil(1.0 / epsilon)
    return sign_degree * reps + qpe, 4 * reps


class _Fixed(NamedTuple):
    """The shared post-kick state after a one-eigenvalue bin: read-only
    eigen-amplitudes, their ``observe`` row and its ``_cdf``, both as tuples."""

    amps: np.ndarray
    seen: tuple
    cdf: tuple


class _Context:
    """What ``run`` needs that depends only on (H, A, config), checked once.

    ``h`` and ``a`` are complex128 arrays, of which it keeps read-only copies
    for ``_Memo`` to compare; A is used as ``a_rot`` = V^dag A V.
    """

    def __init__(self, h: np.ndarray, a: np.ndarray, config: CoolingConfig):
        H = HermitianOperator(h)
        self.h, self.a = H.entries, a.copy()
        self.a.setflags(write=False)
        self.dec = eig(H)
        self.lam = self.dec.eigenvalues
        check_norm(float(np.max(np.abs(self.lam))), "hamiltonian")
        self.a_rot = _rotated_perturbation(a, self.dec)
        self.config = config
        self.dim = H.dim
        self.vecs_h = self.dec.eigenvectors.conj().T
        self.bins = bins = _Bins(self.lam, config.epsilon)
        # eigenvalues ascend, so the ground space and each bin's leakage region
        # (from ``bins.leak_from``) are a prefix and suffixes of them
        ground = int(np.count_nonzero(self.lam <= self.lam[0] + 1e-12))
        n = self.nbins = len(bins.labels)
        rows = np.zeros((2 * n + 2, self.dim))
        for i, (start, stop) in enumerate(bins.slices):
            rows[i, start:stop] = 1.0
            rows[n + 2 + i, bins.leak_from[i] :] = 1.0
        rows[n] = self.lam
        rows[n + 1, :ground] = 1.0
        self.obs = np.repeat(rows, 2, axis=1)  # columns (re, im) per amplitude
        sign_degree = 0
        if config.mode != "exact_reflection":
            sign_degree = _sign_cached(config.epsilon, config.delta).degree
        if config.mode == "gqsp_circuit":  # a failed synthesis raises before the memo keeps self
            _angles_cached(config.epsilon, config.delta)
        self.per_eiH, self.per_UA = query_costs(config.epsilon, config.delta, sign_degree)
        self.kicks = [None] * n  # per bin: ``step``'s entry once the bin is visited
        self.lock = threading.Lock()

    def observe(self, amps: np.ndarray) -> list:
        """For eigen-amplitudes ``amps``: the ``nbins`` bin weights, then the
        true energy, the ground overlap and the ``nbins`` leakage weights,
        from one product with |amps|^2 taken as re^2 + im^2."""
        return np.dot(self.obs, amps.view(np.float64) ** 2).tolist()

    def step(self, bin_idx: int) -> np.ndarray | _Fixed:
        """The read-only column block of the kick exp(-iT K_b) over the slice
        of bin b = ``bin_idx``, in H's eigenbasis, or the fixed post-kick
        state if the bin holds one eigenvalue; the checks run on the whole kick.

        The state collapsed onto a one-eigenvalue bin at slice (s, s+1) is
        that eigenvector up to a global phase, so the kick leaves column s
        of the unitary up to the same phase, which no weight sees.
        """
        signs = _sign_values(self.dec, self.bins.cutoffs[bin_idx], self.config)
        start, stop = self.bins.slices[bin_idx]
        block = _kick(signs, self.a_rot, self.config.delta)[:, start:stop].copy()
        block.setflags(write=False)
        if stop - start > 1:
            return block
        seen = self.observe(block[:, 0])
        return _Fixed(block[:, 0], tuple(seen), tuple(_cdf(seen[: self.nbins])))

    def kick(self, bin_idx: int) -> np.ndarray | _Fixed:
        """``kicks[bin_idx]``, built by ``step`` on the bin's first visit; the
        lock makes threads that share the context build each bin once."""
        with self.lock:
            if self.kicks[bin_idx] is None:
                self.kicks[bin_idx] = self.step(bin_idx)
            return self.kicks[bin_idx]


def _same(x: np.ndarray, held: np.ndarray) -> bool:
    """Whether ``x`` has the shape and the bits of ``held`` (so -0.0 is not 0.0),
    compared in place as 64-bit words, ``_WORDS`` at a time so that each
    comparison's temporary stays in cache; below 64 KiB a bytes copy is cheaper."""
    if x.shape != held.shape or x.nbytes < 1 << 16:
        return x.shape == held.shape and x.tobytes() == held.tobytes()
    xw, hw = np.ascontiguousarray(x).view(np.uint64).ravel(), held.view(np.uint64).ravel()
    return all((xw[i : i + _WORDS] == hw[i : i + _WORDS]).all() for i in range(0, xw.size, _WORDS))


class _Memo:
    """Prepared contexts by content, at most ``contexts`` of them, evicted
    least recently used. A lock guards it, so threads may share the memo."""

    def __init__(self, contexts: int):
        self.max_contexts = contexts
        self.contexts = OrderedDict()  # keyed by tokens; a context holds its H, A and config
        self.lock = threading.Lock()

    def context(self, H, A, config: CoolingConfig) -> _Context:
        h, a = matrix_entries(H), matrix_entries(A)
        with self.lock:
            # newest first: a hit compares the config, then the arrays in place
            for key, ctx in reversed(self.contexts.items()):
                if ctx.config == config and _same(h, ctx.h) and _same(a, ctx.a):
                    self.contexts.move_to_end(key)
                    return ctx
            ctx = self.contexts[object()] = _Context(h, a, config)
            if len(self.contexts) > self.max_contexts:
                self.contexts.popitem(last=False)
            return ctx


_MEMO = _Memo(_MEMO_CONTEXTS)


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
    or the terminal one) lands two or more labels above step s's bin, past
    the cutoff-plus-half-bin line that step s's ``leakage_weight`` also reads.
    The trajectory counts as a success when no step leaks.

    H and A are validated and diagonalized once per content, and each bin's
    kick is built once while its context stays in the module's memo (see
    the module docstring).

    A trajectory draws from ``rng`` 2 * dim normals for its initial state
    (none when ``initial_state`` is given), then steps + 1 uniforms in one
    block, one per measurement, even when ``stopping`` ends it early.
    """
    return _trajectory(_MEMO.context(H, A, config), rng, initial_state, stopping)


def run_experiment(H, A, config: CoolingConfig, seed: int, trials: int, stopping=None):
    """Run ``trials`` independent trajectories on per-trial substreams, the
    trials of ``run`` on one prepared context looked up once; ``trials`` is an
    integer from 1 to ``MAX_COUNT`` and ``seed`` one from 0."""
    check_integer(seed, "seed", 0)
    check_integer(trials, "trials", 1, MAX_COUNT)
    ctx = _MEMO.context(H, A, config)
    return [
        _trajectory(ctx, np.random.default_rng((seed, t)), stopping=stopping)
        for t in range(trials)
    ]


def _trajectory(ctx: _Context, rng, initial_state=None, stopping=None) -> Trajectory:
    """One ``run`` trajectory on a prepared context."""
    bins, n = ctx.bins, ctx.nbins
    labels, estimates, slices = bins.labels, bins.estimates, bins.slices
    per_eiH, per_UA, kicks = ctx.per_eiH, ctx.per_UA, ctx.kicks
    state = (
        _haar_state(rng, ctx.dim)
        if initial_state is None
        else _state_vec(initial_state, ctx.dim)
    )
    draws = rng.random(ctx.config.steps + 1).tolist()
    amps = ctx.vecs_h @ state
    seen = ctx.observe(amps)
    cdf = _cdf(seen[:n])
    initial_energy, initial_overlap = seen[n], seen[n + 1]

    measured, rows = [], []
    for step in range(ctx.config.steps):
        idx = bisect_right(cdf, draws[step])
        label, estimate = labels[idx], estimates[idx]
        measured.append(idx)
        if stopping is not None and stopping.satisfied(estimate):
            amps = bins.collapse(amps, idx, seen[idx])
            seen = ctx.observe(amps)
            cdf = _cdf(seen[:n])
            break
        kick = kicks[idx]
        if kick is None:
            kick = ctx.kick(idx)
        if type(kick) is _Fixed:
            amps, seen, cdf = kick
        else:
            start, stop = slices[idx]
            amps = kick @ (amps[start:stop] / sqrt(seen[idx]))
            seen = ctx.observe(amps)
            cdf = _cdf(seen[:n])
        rows.append([step, label, estimate, seen[n], seen[n + 1], seen[n + 2 + idx],
                     per_eiH * (step + 1), per_UA * (step + 1)])

    idx = bisect_right(cdf, draws[len(measured)])
    final_bin, final_estimate = labels[idx], estimates[idx]
    final = ctx.observe(bins.collapse(amps, idx, seen[idx]))
    # a step leaks if the next measurement's bin starts at or past its ``leak_from``
    for row, here, following in zip(rows, measured, measured[1:] + [idx]):
        row.append(slices[following][0] >= bins.leak_from[here])
    leaks = sum(row[-1] for row in rows)
    return Trajectory(tuple(map(StepResult._make, rows)), initial_energy, initial_overlap,
                      final_bin, final_estimate, final[n], final[n + 1], leaks, leaks == 0)

