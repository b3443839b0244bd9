"""Dense operator core: validated matrix types and exact spectral routines.

All operators are dense complex128 matrices of explicit dimension. Matrix
functions go through the eigendecomposition, never through series expansions,
so every downstream bound check is limited by eigensolver accuracy rather
than truncation error.

The input rules the other modules share live here, each written once: the
one tolerance set ``TOL``, the one bound check ``_bound`` that every
certificate's measured value goes through (a NaN fails it), numbers that are
never bools or strings, the one integer rule ``check_integer`` (every count,
seed, order, index, window and dimension), the one real-number rule
``check_real`` (every time, cutoff, shift, energy and angle, and the epsilon,
delta and completion-margin ranges written on it), the one array rule
``matrix_entries`` (every matrix, vector and coefficient array), the
dimension budget, the register checks, the spectral-norm bound, the
Hermiticity and unitarity measurements and the shifted-spectrum band of a
sign transform.
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
    "check_real",
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
_MARGIN_RULE = "be a finite number >= " + np.format_float_scientific(MIN_MARGIN, trim="-",
                                                                    exp_digits=1)
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


def check_real(value, name: str, low=-np.inf, high=np.inf, rule="be finite", error=RangeError):
    """``value`` as a float if ``_number`` takes it and it is finite and from ``low``
    to ``high``; else ``error`` says ``{name} must {rule}, got {value}``. The one
    place that asks whether a value is a real number in a range; a caller
    passes an open end as the nearest float inside it."""
    x = _number(value, name)
    if not (low <= x <= high and np.isfinite(x)):
        raise error(f"{name} must {rule}, got {value}")
    return x


def check_epsilon(epsilon: float) -> float:
    """A bin width in [2^-51, 0.7]; the floor keeps lambda/epsilon + 1/2 exact."""
    return check_real(epsilon, "epsilon", 2.0**-51, 0.7, "lie in [2^-51, 0.7]")


def check_delta(delta: float) -> float:
    """A per-step leakage delta in (0, 1), whose nearest floats inside are 5e-324
    and 1 - 2^-53."""
    return check_real(delta, "delta", 5e-324, 1.0 - 2.0**-53, "lie in (0, 1)")


def check_margin(margin: float) -> float:
    """A completion margin, a finite number >= ``MIN_MARGIN``."""
    return check_real(margin, "margin", MIN_MARGIN, rule=_MARGIN_RULE, error=ValidationError)


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


def matrix_entries(M, dtype=complex, name: str = "matrix", finite: bool = False,
                   shape: tuple | None = None) -> np.ndarray:
    """The entries of a wrapped operator, or ``M`` as an array of ``dtype`` (None
    keeps numpy's). The one array rule: what numpy cannot read as numbers of that
    dtype (a ragged list, None, a string, an object, bools, or complex numbers
    for a real dtype) is a ``ValidationError``, and so is an array of another
    ``shape`` than the one given, or with ``finite`` one holding a NaN or an
    infinity."""
    if hasattr(M, "entries"):
        return M.entries
    try:  # a ragged list, and numbers of another kind (complex for real), raise here
        src = np.asarray(M)
        arr = src.astype(dtype or src.dtype, casting="same_kind", copy=False)
    except (TypeError, ValueError):
        src = arr = np.asarray(None)
    if src.dtype.kind not in "iufc":  # bools, strings and objects are not numbers
        raise ValidationError(f"{name} must be an array of numbers, got {M!r:.60}")
    if shape is not None and arr.shape != shape:
        raise ValidationError(f"{name} must have shape {shape}, got shape {arr.shape}")
    if finite and not np.isfinite(arr).all():
        raise ValidationError(f"{name} must be finite")
    return arr


def square_entries(M, name: str, dtype=complex, finite: bool = False) -> np.ndarray:
    """``matrix_entries(M, dtype, name, finite)``, which must be a non-empty square matrix."""
    arr = matrix_entries(M, dtype, name, finite)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{name} must be a square matrix, got shape {arr.shape}")
    if not arr.size:
        raise ValidationError(f"{name} must not be empty")
    return arr


def _as_matrix(entries, name: str) -> np.ndarray:
    """A read-only C-ordered complex copy of the finite ``square_entries``."""
    arr = np.array(square_entries(entries, name, finite=True), order="C")
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
        arr = matrix_entries(self.amplitudes, name="state", finite=True).copy()
        if arr.ndim != 1:
            raise ValidationError(f"state must be a vector, got shape {arr.shape}")
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
        vecs = _as_matrix(self.eigenvectors, "eigenvectors")
        vals = matrix_entries(self.eigenvalues, float, "eigenvalues", finite=True,
                              shape=vecs.shape[:1]).copy()
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
    t = check_real(t, "time")
    dec = eig(H)
    return UnitaryOperator(dec.apply(np.exp(-1j * dec.eigenvalues * t)))


def projector_below(dec: SpectralDecomposition, energy: float) -> Projector:
    """Spectral projector onto eigenvalues strictly below ``energy``."""
    sel = dec.eigenvalues < check_real(energy, "energy")
    vecs = dec.eigenvectors[:, sel]
    return Projector(vecs @ vecs.conj().T)


def spectral_norm(M) -> float:
    """Largest singular value of a finite square matrix, wrapped or raw."""
    return float(np.linalg.norm(square_entries(M, "matrix", None, finite=True), 2))


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
