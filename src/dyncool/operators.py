"""Dense operator core: validated matrix types and exact spectral routines.

All operators are dense complex128 matrices of explicit dimension. Matrix
functions go through the eigendecomposition, never through series expansions,
so every downstream bound check is limited by eigensolver accuracy rather
than truncation error.

The input rules the other modules share live here, each written once: the
one tolerance set ``TOL``, the one bound check ``_bound`` that every
certificate's measured value goes through (a NaN fails it), numbers that are
never bools or strings, the one integer rule ``check_integer`` (every count,
seed, order, index, window and dimension), the epsilon, delta and
completion-margin ranges, the dimension budget, the register checks, the
spectral-norm bound, the Hermiticity and unitarity measurements, the
shifted-spectrum band of a sign transform and the matrix coercion, which
refuses an empty matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RangeError, ResourceError, ValidationError

__all__ = [
    "Tolerances",
    "TOL",
    "MIN_MARGIN",
    "MAX_COUNT",
    "HermitianOperator",
    "UnitaryOperator",
    "Projector",
    "StateVector",
    "SpectralDecomposition",
    "eig",
    "evolve",
    "reflection",
    "projector_below",
    "spectral_norm",
    "hermitian_norm",
    "shift_operator",
    "shift_evolution_factored",
    "check_norm",
    "check_epsilon",
    "check_delta",
    "check_margin",
    "check_integer",
    "check_dim",
    "check_window",
    "check_register",
    "shifted_spectrum",
    "matrix_entries",
    "square_entries",
]


@dataclass(frozen=True)
class Tolerances:
    """Global numeric tolerances, adjustable in one place."""

    hermiticity: float = 1e-12
    unitarity: float = 1e-10
    idempotence: float = 1e-10
    projector_spectrum: float = 1e-8
    reconstruction: float = 1e-9
    state_norm: float = 1e-10
    norm_slack: float = 1e-10
    max_total_dim: int = 4096


TOL = Tolerances()

MIN_MARGIN = 1e-6  # the least completion margin any synthesis may ask for
MAX_COUNT = 100_000  # the most steps a trajectory, or trials a run, may ask for


def _bound(name: str, value, limit, error=ValidationError):
    """``value`` if ``value <= limit``, else ``error`` naming both numbers exactly;
    a NaN fails. A finiteness bound uses ``np.finfo(float).max``, since inf <= inf."""
    if not value <= limit:
        raise error(f"{name} = {float(value)!r} is not <= {float(limit)!r}")
    return value


def _is_number(value) -> bool:
    """Whether ``value`` is an int, a float or a numpy number; a bool or a string is not one."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _number(value, what: str) -> float:
    """``value`` as a float, if ``_is_number`` accepts it and float64 holds it."""
    if _is_number(value):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValidationError(f"{what} must be a number, got {value!r}")


def _is_integer(value) -> bool:
    """Whether ``value`` is an int or a numpy integer; a bool is not one here."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_integer(value, name: str, low=None, high=None, error=ValidationError):
    """``value`` if it is an integer (never a bool, a float or a string) from
    ``low`` to ``high``; below ``low`` it raises ``error``, past ``high`` a
    ``ResourceError``. The one place that asks whether a value is an integer."""
    if not _is_integer(value):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise error(f"{name} must be at least {low}, got {value}")
    if high is not None and value > high:
        raise ResourceError(f"{name} {value} exceeds budget {high}")
    return value


def check_epsilon(epsilon: float) -> None:
    """Reject a bin width outside [2^-51, 0.7]; the floor keeps lambda/epsilon + 1/2 exact."""
    if not 2.0**-51 <= epsilon <= 0.7:
        raise RangeError(f"epsilon must lie in [2^-51, 0.7], got {epsilon}")


def check_delta(delta: float) -> None:
    """Reject a per-step leakage delta outside (0, 1)."""
    if not 0.0 < delta < 1.0:
        raise RangeError(f"delta must lie in (0, 1), got {delta}")


def check_margin(margin: float) -> None:
    """Reject a completion margin that is not a finite number >= ``MIN_MARGIN``."""
    if not MIN_MARGIN <= margin < np.inf:
        floor = np.format_float_scientific(MIN_MARGIN, trim="-", exp_digits=1)
        raise ValidationError(f"margin must be a finite number >= {floor}, got {margin}")


def check_dim(dim: int, label: str) -> int:
    """``dim`` if ``check_integer`` takes it as a ``label`` dimension from 1 to
    ``TOL.max_total_dim``."""
    return check_integer(dim, f"{label} dimension", 1, TOL.max_total_dim)


def check_window(k: int, m: int) -> None:
    """Reject a Laurent window [-k, m] unless k and m are integers >= 0."""
    check_integer(k, "k", 0)
    check_integer(m, "m", 0)


def check_register(dim: int, n: int, label: str) -> None:
    """Reject an n-bit register unless n is an integer >= 1 and ``check_dim``
    accepts ``dim * 2**n``; an n past the budget's bit length is refused
    before 2**n is formed."""
    check_integer(n, "register size", 1, error=RangeError)
    budget = TOL.max_total_dim
    if n > budget.bit_length():
        raise ResourceError(f"{label} dimension {dim} * 2^{n} exceeds budget {budget}")
    check_dim(dim << n, label)


def shifted_spectrum(eigenvalues: np.ndarray, shift: float, epsilon: float | None) -> np.ndarray:
    """``eigenvalues - shift``, which must lie inside (-pi + eps/2, pi - eps/2) so no
    eigenvalue wraps into or across the seam of a sign transform of bin width eps."""
    shifted = eigenvalues - shift
    band = np.pi - (epsilon or 0.0) / 2.0  # a polynomial without metadata has eps None
    if np.any(np.abs(shifted) >= band):
        bad = shifted[np.argmax(np.abs(shifted))] + shift
        raise RangeError(
            f"eigenvalue {bad:.6f} leaves (-{band:.4f}, {band:.4f}) after shift {shift:.6f}"
        )
    return shifted


def matrix_entries(M, dtype=complex) -> np.ndarray:
    """The entries of a wrapped operator, or ``M`` as an array of ``dtype``."""
    return M.entries if hasattr(M, "entries") else np.asarray(M, dtype=dtype)


def square_entries(M, name: str) -> np.ndarray:
    """``matrix_entries(M)``, which must be a square matrix."""
    arr = matrix_entries(M)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{name} must be a square matrix, got shape {arr.shape}")
    return arr


def _as_matrix(entries, name: str) -> np.ndarray:
    arr = square_entries(np.array(entries, dtype=np.complex128, order="C"), name)
    if not arr.size:
        raise ValidationError(f"{name} must not be empty")
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise ValidationError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


def _hermitian(arr: np.ndarray, name: str) -> None:
    """Require max |arr - arr^dagger| <= ``TOL.hermiticity``."""
    _bound(f"deviation of {name} from Hermitian", np.max(np.abs(arr - arr.conj().T)),
           TOL.hermiticity)


def _unitary(arr: np.ndarray, name: str) -> None:
    """Require max |arr arr^dagger - I| <= ``TOL.unitarity``."""
    dev = np.max(np.abs(arr @ arr.conj().T - np.eye(arr.shape[0])))
    _bound(f"deviation of {name} from unitary", dev, TOL.unitarity)


@dataclass(frozen=True)
class _Matrix:
    """A validated square matrix: ``_check`` runs on its entries, coerced by ``_as_matrix``."""

    entries: np.ndarray

    def __post_init__(self):
        arr = _as_matrix(self.entries, type(self).__name__)
        self._check(arr)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class HermitianOperator(_Matrix):
    """A validated Hermitian matrix."""

    def _check(self, arr):
        _hermitian(arr, "HermitianOperator")


@dataclass(frozen=True)
class UnitaryOperator(_Matrix):
    """A validated unitary matrix."""

    def _check(self, arr):
        _unitary(arr, "UnitaryOperator")


@dataclass(frozen=True)
class Projector(_Matrix):
    """A validated orthogonal projector (Hermitian, idempotent, 0/1 spectrum)."""

    def _check(self, arr):
        _hermitian(arr, "Projector")
        _bound("deviation of Projector from idempotent", np.max(np.abs(arr @ arr - arr)),
               TOL.idempotence)
        vals = np.linalg.eigvalsh(arr)
        dev = np.max(np.minimum(np.abs(vals), np.abs(vals - 1.0)))
        _bound("deviation of Projector spectrum from {0, 1}", dev, TOL.projector_spectrum)

    @property
    def rank(self) -> int:
        return int(round(np.real(np.trace(self.entries))))

    def complement(self) -> "Projector":
        return Projector(np.eye(self.dim) - self.entries)


@dataclass(frozen=True)
class StateVector:
    """A normalized pure state."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = np.array(self.amplitudes, dtype=np.complex128)
        if arr.ndim != 1:
            raise ValidationError(f"state must be a vector, got shape {arr.shape}")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValidationError("state contains non-finite amplitudes")
        _bound("deviation of state norm from 1", abs(np.linalg.norm(arr) - 1.0), TOL.state_norm)
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and a matching unitary eigenvector matrix.

    Column j of ``eigenvectors`` belongs to ``eigenvalues[j]``. Ordering ties
    keep the backend's column order.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        vals = np.array(self.eigenvalues, dtype=np.float64)
        vecs = _as_matrix(self.eigenvectors, "eigenvectors")
        if vals.ndim != 1 or vals.shape[0] != vecs.shape[0]:
            raise ValidationError("eigenvalue/eigenvector shape mismatch")
        if np.any(np.diff(vals) < 0):
            raise ValidationError("eigenvalues must be ascending")
        _unitary(vecs, "eigenvectors")
        vals.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def apply(self, vals: np.ndarray, hermitian: bool = False) -> np.ndarray:
        """V diag(vals) V^dagger; ``hermitian`` symmetrizes away rounding asymmetry."""
        mat = (self.eigenvectors * vals) @ self.eigenvectors.conj().T
        return (mat + mat.conj().T) / 2.0 if hermitian else mat

    def reconstruct(self) -> np.ndarray:
        return self.apply(self.eigenvalues)


def eig(H: HermitianOperator) -> SpectralDecomposition:
    """Full eigendecomposition with an ascending-order contract.

    Raises NumericError-grade ValidationError if the reconstruction drifts
    beyond the global tolerance (eigh should sit far below it).
    """
    dec = SpectralDecomposition(*np.linalg.eigh(H.entries))  # eigh's eigenvalues ascend
    err = np.max(np.abs(dec.reconstruct() - H.entries))
    _bound("eigendecomposition reconstruction error", err, TOL.reconstruction)
    return dec


def evolve(H: HermitianOperator, t: float) -> UnitaryOperator:
    """exp(-iHt) through the eigendecomposition."""
    dec = eig(H)
    return UnitaryOperator(dec.apply(np.exp(-1j * dec.eigenvalues * t)))


def reflection(P: Projector) -> UnitaryOperator:
    """I - 2P, the reflection through the complement of range(P)."""
    return UnitaryOperator(np.eye(P.dim) - 2.0 * P.entries)


def projector_below(dec: SpectralDecomposition, energy: float) -> Projector:
    """Spectral projector onto eigenvalues strictly below ``energy``."""
    sel = dec.eigenvalues < energy
    vecs = dec.eigenvectors[:, sel]
    return Projector(vecs @ vecs.conj().T)


def spectral_norm(M) -> float:
    """Largest singular value; accepts wrapped operators or raw arrays."""
    return float(np.linalg.norm(matrix_entries(M, dtype=None), 2))


def hermitian_norm(mat: np.ndarray) -> float:
    """Spectral norm of a Hermitian matrix, max |eigenvalue|, without an SVD."""
    return float(np.max(np.abs(np.linalg.eigvalsh(mat))))


def check_norm(norm: float, name: str) -> float:
    """Require a measured spectral norm <= 1 (+ ``TOL.norm_slack``); returns it."""
    return _bound(f"spectral norm of {name}", norm, 1.0 + TOL.norm_slack)


def shift_operator(H: HermitianOperator, n: int) -> HermitianOperator:
    """Materialize sum_j |j><j| (x) (H - j*2pi/2^n) as a dense block matrix."""
    m = H.dim
    check_register(m, n, "shift operator")
    shifts = np.arange(1 << n) * (2.0 * np.pi / (1 << n))
    blocks = np.kron(np.eye(1 << n), H.entries) - np.kron(np.diag(shifts), np.eye(m))
    return HermitianOperator(blocks)


def shift_evolution_factored(H: HermitianOperator, n: int) -> UnitaryOperator:
    """exp(+i SHIFT_n(H)) built from n single-qubit phases and one exp(+iH).

    Register bit m contributes diag(1, exp(-i 2^m * 2pi/2^n)); bits are
    kron'ed most-significant first so block j carries exp(-i j*2pi/2^n).
    """
    check_register(H.dim, n, "factored evolution")
    register = np.array([[1.0]], dtype=np.complex128)
    for m in reversed(range(n)):
        theta = (1 << m) * 2.0 * np.pi / (1 << n)
        register = np.kron(register, np.diag([1.0, np.exp(-1j * theta)]))
    return UnitaryOperator(np.kron(register, evolve(H, -1.0).entries))
