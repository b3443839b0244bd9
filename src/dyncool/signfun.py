"""Certified sign-function approximants, real and Fourier-side.

The base approximant is a Chebyshev expansion of erf(k*x) with k chosen so
the transition fits inside [-eps/2, eps/2] with error budget delta/4, the
tail truncated at another delta/4, and the result rescaled below 1. Odd
Chebyshev polynomials map exactly onto Fourier modes through
T_j(sin x) = (-1)^((j-1)/2) sin(jx), which is why coefficients are kept in
the Chebyshev basis: the monomial basis overflows past degree ~50, and the
Fourier transform of the polynomial becomes a plain re-indexing.

Every constructor certifies its bounds on a dense grid before returning;
the grid checks, not the defining formulas, are the contract.

Only numpy and the standard library are used, so importing the package
loads no scipy and no ``numpy.polynomial``: the Chebyshev projection's
DCT-II is an FFT of the even extension, erf is `math.erf` applied
elementwise, Chebyshev series are summed by Clenshaw's recurrence, and a
uniform grid on the circle (`eval_fourier_grid`) costs one inverse FFT
instead of a Horner pass.
Values at a spectrum (`spectral_values`) are one table of exponentials times
the coefficients; Horner `eval_fourier` remains for arbitrary points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, ValidationError
from .operators import HermitianOperator, SpectralDecomposition, eig
from .operators import _bound, check_delta, check_epsilon, check_integer, check_real
from .operators import check_window, matrix_entries, shifted_spectrum

__all__ = [
    "C_DEG",
    "SIGN_GRID_POINTS",
    "RealOddPolynomial",
    "FourierPolynomial",
    "build_sign_poly",
    "to_fourier",
    "fourier_sign",
    "eval_fourier",
    "eval_fourier_grid",
    "apply_spectral",
    "spectral_values",
]

# Documented degree constant: certified degree <= C_DEG * (1/eps) * ln(1/delta).
# Calibrated over eps in [0.05, 0.7], delta in [1/256, 1/2]; worst observed
# ratio is 7.1 (at delta = 1/2, where ln(1/delta) is smallest). The bound is
# only meaningful for delta <= 1/2 and is enforced there; the cooling loop
# always binds delta = 1/d with d >= 2.
C_DEG = 8.0

SIGN_GRID_POINTS = 100_001

_RESCALE = 1.0 - 1e-6
_BOUND_SLACK = 1e-9
_CHEB_BLOCK = 8192


@dataclass(frozen=True)
class RealOddPolynomial:
    """Odd real polynomial stored as Chebyshev coefficients (even entries zero).

    ``max_abs`` and ``band_error`` are the certified grid measurements from
    construction time.
    """

    cheb_coeffs: np.ndarray
    epsilon: float
    delta: float
    max_abs: float
    band_error: float

    def __post_init__(self):
        _check_sign_data(self)
        coeffs = matrix_entries(self.cheb_coeffs, float, "coefficients", finite=True).copy()
        if coeffs.ndim != 1 or coeffs.size < 2:
            raise ValidationError("coefficients must be a vector of length >= 2")
        if np.any(coeffs[0::2] != 0.0):
            raise ValidationError("even-order Chebyshev coefficients must vanish")
        if coeffs[-1] == 0.0:
            raise ValidationError("leading coefficient must be nonzero")
        coeffs.setflags(write=False)
        object.__setattr__(self, "cheb_coeffs", coeffs)

    @property
    def degree(self) -> int:
        return self.cheb_coeffs.size - 1


@dataclass(frozen=True)
class FourierPolynomial:
    """Laurent polynomial sum_{n=-k}^{m} a_n z^n evaluated on the unit circle.

    ``epsilon``/``delta`` carry the sign-approximation parameters when the
    polynomial came from the sign construction, else None; ``max_abs`` and
    ``band_error`` then hold its certified grid measurements.
    """

    coeffs: np.ndarray
    k: int
    m: int
    epsilon: float | None = None
    delta: float | None = None
    max_abs: float | None = None
    band_error: float | None = None

    def __post_init__(self):
        check_window(self.k, self.m)
        _check_sign_data(self, optional=True)
        coeffs = matrix_entries(self.coeffs, name="coeffs", finite=True,
                                shape=(self.k + self.m + 1,)).copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return max(self.k, self.m)


def _check_sign_data(poly, optional: bool = False) -> None:
    """Check a polynomial's epsilon and delta (``check_epsilon``, ``check_delta``)
    and its grid measurements max_abs and band_error (finite and >= 0); with
    ``optional`` each may be None."""
    given = lambda value: value is not None or not optional
    for value, check in ((poly.epsilon, check_epsilon), (poly.delta, check_delta)):
        if given(value):
            check(value)
    for name in ("max_abs", "band_error"):
        if given(getattr(poly, name)):
            check_real(getattr(poly, name), name, 0.0, rule="be a finite number >= 0")


def _certify(grid, vals, band, degree: int, epsilon: float, delta: float) -> tuple:
    """(max_abs, band_error) of a sign approximant's ``vals`` on ``grid``, certified:
    max |vals| <= 1 and max |vals - sign| <= delta over the mask ``band``, each within
    ``_BOUND_SLACK``, and the ``C_DEG`` bound on ``degree`` (enforced at delta <= 1/2)."""
    max_abs = float(np.max(np.abs(vals)))
    _bound("max |P| on the sign grid", max_abs, 1.0 + _BOUND_SLACK, CertificationError)
    band_error = float(np.max(np.abs(vals[band] - np.sign(grid[band]))))
    _bound("sign-band error", band_error, delta + _BOUND_SLACK, CertificationError)
    if delta <= 0.5:
        bound = C_DEG * (1.0 / epsilon) * np.log(1.0 / delta)
        _bound(f"sign degree at epsilon={epsilon}", degree, bound, CertificationError)
    return max_abs, band_error


def _chebval(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_j c_j T_j(x) by Clenshaw's recurrence (len(c) >= 2), with the
    operations of numpy's ``chebval`` in the same order, so the values are
    the same to the bit without importing ``numpy.polynomial``."""
    if x.ndim == 1 and x.size > _CHEB_BLOCK:  # blocks stay in cache; elementwise, same bits
        out = np.empty(x.shape, np.result_type(x, c))
        for i in range(0, x.size, _CHEB_BLOCK):
            out[i : i + _CHEB_BLOCK] = _chebval(x[i : i + _CHEB_BLOCK], c)
        return out
    if len(c) == 2:
        return c[0] + c[1] * x
    x2 = 2 * x
    c0, c1 = c[-2], c[-1]
    for i in range(3, len(c) + 1):
        c0, c1 = c[-i] - c1, c0 + c1 * x2
    return c0 + c1 * x


def eval_fourier(S: FourierPolynomial, x) -> np.ndarray:
    """Evaluate sum a_n e^{inx} by Horner in z = e^{ix} (unit modulus, stable)."""
    z = np.exp(1j * matrix_entries(x, float, "x", finite=True))
    acc = np.full_like(z, S.coeffs[-1])
    for c in S.coeffs[-2::-1]:
        acc = acc * z + c
    return acc * z ** (-S.k)


def eval_fourier_grid(S: FourierPolynomial, points: int) -> np.ndarray:
    """S on ``np.linspace(-pi, pi, points)``, points an integer >= 2, from one inverse FFT.

    At x_j = -pi + 2 pi j / N (N = points - 1) the mode a_n e^{inx} equals
    (-1)^n a_n e^{2 pi i n j / N}, so coefficient n lands in bin n mod N;
    degrees above N alias into the same bins by accumulation. The last
    point repeats the first (x = pi and x = -pi coincide on the circle).
    """
    n_bins = check_integer(points, "grid point count", 2) - 1
    n = np.arange(-S.k, S.m + 1)
    spectrum = np.zeros(n_bins, dtype=np.complex128)
    np.add.at(spectrum, n % n_bins, np.where(n % 2, -1.0, 1.0) * S.coeffs)
    vals = np.fft.ifft(spectrum) * n_bins
    return np.append(vals, vals[0])


def _cheb_projection(func, n: int) -> np.ndarray:
    """Chebyshev coefficients via DCT-II at first-kind points.

    The DCT-II is the FFT of the even extension [f, f reversed] with a
    half-sample phase: DCT_k = Re(e^{-i pi k / 2n} FFT_k).
    """
    i = np.arange(n)
    x = np.cos(np.pi * (i + 0.5) / n)
    f = func(x)
    spectrum = np.fft.fft(np.concatenate([f, f[::-1]]))[:n]
    c = np.real(np.exp(-0.5j * np.pi * i / n) * spectrum) / n
    c[0] /= 2.0
    return c


def build_sign_poly(epsilon: float, delta: float) -> RealOddPolynomial:
    """Odd polynomial within delta of sign(x) outside [-eps/2, eps/2].

    Construction: Chebyshev projection of erf(2*sqrt(ln(4/delta))/eps * x)
    (``math.erf``), even modes dropped, tail truncated once its l1 mass
    falls below delta/4, then rescaled by (1 - 1e-6)/max(grid max, 1) so the
    modulus stays strictly below 1. All three contract bounds are certified
    on a 100001-point grid; failure raises CertificationError.
    """
    check_epsilon(epsilon)
    check_delta(delta)

    k_erf = 2.0 * np.sqrt(np.log(4.0 / delta)) / epsilon
    erf = np.frompyfunc(math.erf, 1, 1)
    target = lambda x: erf(k_erf * x).astype(np.float64)

    n = 512
    while True:
        coeffs = _cheb_projection(target, n)
        probe = max(8, n // 20)
        if np.max(np.abs(coeffs[-probe:])) < 1e-15:
            break
        n *= 2
        if n > (1 << 17):
            raise CertificationError(
                f"Chebyshev tail did not decay by degree {n // 2} "
                f"(epsilon={epsilon}, delta={delta})"
            )
    coeffs[0::2] = 0.0

    tail = np.cumsum(np.abs(coeffs[::-1]))[::-1]
    keep = None
    for j in range(1, n, 2):
        if j + 1 >= n or tail[j + 1] <= delta / 4.0:
            keep = j
            break
    coeffs = np.array(coeffs[: keep + 1])

    grid = np.linspace(-1.0, 1.0, SIGN_GRID_POINTS)
    vals = _chebval(grid, coeffs)
    scale = _RESCALE / max(float(np.max(np.abs(vals))), 1.0)
    coeffs *= scale
    vals *= scale
    bounds = _certify(grid, vals, np.abs(grid) >= epsilon / 2.0, keep, epsilon, delta)
    return RealOddPolynomial(coeffs, epsilon, delta, *bounds)


def to_fourier(P: RealOddPolynomial) -> FourierPolynomial:
    """Exact substitution x -> sin(theta) as a Laurent polynomial in e^{i theta}.

    For odd j, T_j(sin t) = (-1)^((j-1)/2) sin(jt) = s_j (z^j - z^-j)/(2i),
    so the Laurent coefficients are a re-signed copy of the Chebyshev ones.
    """
    d = P.degree
    coeffs = np.zeros(2 * d + 1, dtype=np.complex128)
    for j in range(1, d + 1, 2):
        phase = (-1.0) ** ((j - 1) // 2)
        a = P.cheb_coeffs[j] * phase / 2j
        coeffs[d + j] = a
        coeffs[d - j] = -a
    return FourierPolynomial(coeffs, k=d, m=d, epsilon=P.epsilon, delta=P.delta)


def fourier_sign(epsilon: float, delta: float) -> FourierPolynomial:
    """Fourier-side sign approximant certified on the angle grid.

    Built from the base polynomial at eps_eff = 2*sin(eps/2), whose guarantee
    region {|y| >= sin(eps/2)} covers {|sin x| : eps/2 <= |x| <= pi - eps/2}
    exactly. Certifies |S(e^{ix})| <= 1 on [-pi, pi] and
    |S(e^{ix}) - sign(x)| <= delta on the double band, both on 100001-point
    grids (one inverse FFT, `eval_fourier_grid`), plus the degree bound at
    the stated epsilon.
    """
    check_epsilon(epsilon)
    eps_eff = 2.0 * np.sin(epsilon / 2.0)
    S = to_fourier(build_sign_poly(eps_eff, delta))
    grid = np.linspace(-np.pi, np.pi, SIGN_GRID_POINTS)
    vals = eval_fourier_grid(S, SIGN_GRID_POINTS)
    _bound("max |Im S| on the circle", np.max(np.abs(vals.imag)), 1e-12, CertificationError)
    band = (np.abs(grid) >= epsilon / 2.0) & (np.abs(grid) <= np.pi - epsilon / 2.0)
    bounds = _certify(grid, vals.real, band, S.degree, epsilon, delta)
    return FourierPolynomial(S.coeffs, S.k, S.m, epsilon, delta, *bounds)


def apply_spectral(
    S: FourierPolynomial, H: HermitianOperator, shift: float
) -> HermitianOperator:
    """Exact spectral route: sum_j S(e^{i(lambda_j - shift)}) |v_j><v_j|.

    Requires the shifted spectrum inside (-pi + eps/2, pi - eps/2) so no
    eigenvalue wraps into or across the transform's seam; eps is taken from
    the polynomial's metadata (0 when absent).
    """
    dec = eig(H)
    shifted_spectrum(dec.eigenvalues, check_real(shift, "shift"), S.epsilon)
    vals = spectral_values(S, dec, shift)
    return HermitianOperator(dec.apply(vals, hermitian=True))


def spectral_values(
    S: FourierPolynomial, dec: SpectralDecomposition, shift: float
) -> np.ndarray:
    """Per-eigenvalue transform values without the range guard (periodic eval).

    The Laurent sum at all eigenvalues is one d x (k+m+1) exponential table
    times the coefficients; the values must be real (a sign transform is).
    """
    x = dec.eigenvalues - check_real(shift, "shift")
    vals = np.exp(1j * np.outer(x, np.arange(-S.k, S.m + 1))) @ S.coeffs
    _bound("max |Im S| at the spectrum", np.max(np.abs(vals.imag)), 1e-10, CertificationError)
    return vals.real
