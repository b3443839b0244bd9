import re

import numpy as np
import pytest

from dyncool import CertificationError, HermitianOperator, RangeError, ValidationError, eig
from dyncool import signfun
from dyncool.signfun import (
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
from conftest import random_hermitian


def simple_odd(cheb_coeffs):
    """Hand-built polynomial wrapper for structural tests (metadata unchecked)."""
    return RealOddPolynomial(
        np.asarray(cheb_coeffs, dtype=float), epsilon=0.5, delta=0.5,
        max_abs=1.0, band_error=0.0,
    )


class TestBuildSignPoly:
    @pytest.mark.parametrize("eps,delta", [(0.5, 0.25), (0.3, 0.1), (0.1, 0.05)])
    def test_contract_bounds(self, eps, delta):
        P = build_sign_poly(eps, delta)
        grid = np.linspace(-1.0, 1.0, 100_001)
        vals = eval_poly(P, grid)
        assert np.max(np.abs(vals)) <= 1.0 + 1e-9
        band = np.abs(grid) >= eps / 2.0
        assert np.max(np.abs(vals[band] - np.sign(grid[band]))) <= delta + 1e-9
        assert P.degree <= C_DEG * (1.0 / eps) * np.log(1.0 / delta)

    def test_clenshaw_sum_is_numpys_chebval(self):
        # build_sign_poly rescales by the grid maximum of this sum, so it must
        # reproduce numpy's arithmetic exactly, not only within rounding
        from numpy.polynomial.chebyshev import chebval

        rng = np.random.default_rng(3)
        grid = np.linspace(-1.0, 1.0, 1001)
        for n in (2, 3, 4, 17, 140):
            c = rng.normal(size=n)
            assert np.array_equal(signfun._chebval(grid, c), chebval(grid, c))
        P = build_sign_poly(0.3, 0.1)
        assert np.array_equal(eval_poly(P, grid), chebval(grid, P.cheb_coeffs))

    def test_blocked_clenshaw_sum_is_numpys_chebval(self, monkeypatch):
        # grids longer than a block are summed block by block into one array;
        # neither length is a multiple of its block
        from numpy.polynomial.chebyshev import chebval

        c = build_sign_poly(0.1, 1.0 / 32.0).cheb_coeffs
        grid = np.linspace(-1.0, 1.0, SIGN_GRID_POINTS)
        assert SIGN_GRID_POINTS % signfun._CHEB_BLOCK != 0
        assert np.array_equal(signfun._chebval(grid, c), chebval(grid, c))
        monkeypatch.setattr(signfun, "_CHEB_BLOCK", 7)
        grid = np.linspace(-1.0, 1.0, 1001)
        for n in (2, 3, 140):
            c = np.random.default_rng(n).normal(size=n)
            assert np.array_equal(signfun._chebval(grid, c), chebval(grid, c))

    def test_odd_symmetry(self):
        P = build_sign_poly(0.4, 0.1)
        x = np.linspace(0.0, 1.0, 2000)
        assert np.max(np.abs(eval_poly(P, x) + eval_poly(P, -x))) <= 1e-12

    def test_monotone_degree_in_delta(self):
        degrees = [build_sign_poly(0.3, d).degree for d in (0.5, 0.25, 0.1, 0.05, 0.01)]
        assert degrees == sorted(degrees)

    def test_parameter_validation(self):
        with pytest.raises(RangeError):
            build_sign_poly(0.9, 0.1)
        with pytest.raises(RangeError):
            build_sign_poly(0.3, 0.0)

    def test_rejects_even_coefficients(self):
        with pytest.raises(ValidationError):
            simple_odd([0.0, 0.5, 0.25, 0.5])


class TestToFourier:
    def test_linear_map(self):
        S = to_fourier(simple_odd([0.0, 1.0]))
        assert S.k == S.m == 1
        # x = (z - 1/z)/(2i): a_{+1} = 1/(2i), a_{-1} = -1/(2i)
        assert S.coeffs[2] == pytest.approx(1.0 / 2j)
        assert S.coeffs[0] == pytest.approx(-1.0 / 2j)
        assert S.coeffs[1] == 0.0

    def test_cubic_against_binomial_oracle(self):
        # x^3 = (3 T_1 + T_3)/4 in the Chebyshev basis
        S = to_fourier(simple_odd([0.0, 0.75, 0.0, 0.25]))
        s = np.array([1.0 / 2j, 0.0, -1.0 / 2j])[::-1]  # coeffs of sin as z^{-1},z^0,z^1
        oracle = np.convolve(np.convolve(s, s), s)
        assert np.max(np.abs(S.coeffs - oracle)) <= 1e-15

    def test_substitution_identity(self):
        P = build_sign_poly(0.3, 0.1)
        S = to_fourier(P)
        x = np.linspace(-np.pi, np.pi, 4001)
        assert np.max(np.abs(eval_fourier(S, x) - eval_poly(P, np.sin(x)))) <= 1e-10


def _random_laurent(k, m, seed=7):
    rng = np.random.default_rng(seed)
    n = k + m + 1
    return FourierPolynomial(rng.normal(size=n) + 1j * rng.normal(size=n), k=k, m=m)


@pytest.mark.parametrize("k", [True, 1.0, "a", -1], ids=["bool", "float", "string", "negative"])
def test_laurent_window_must_be_non_negative_integers(k):
    message = "at least 0, got -1" if k == -1 else f"an integer, got {k!r}"
    message = f"^k must be {re.escape(message)}$"
    with pytest.raises(ValidationError, match=message):
        FourierPolynomial([0.0, 1.0, 0.0], k=k, m=1)


class TestEvalFourier:
    def test_against_direct_sum(self):
        rng = np.random.default_rng(5)
        coeffs = rng.normal(size=7) + 1j * rng.normal(size=7)
        S = FourierPolynomial(coeffs, k=2, m=4)
        x = rng.uniform(-np.pi, np.pi, size=50)
        direct = sum(
            coeffs[i] * np.exp(1j * (i - 2) * x) for i in range(7)
        )
        assert np.max(np.abs(eval_fourier(S, x) - direct)) <= 1e-12

    @pytest.mark.parametrize(
        "make,points",
        [
            (lambda: fourier_sign(0.2, 0.05), 100_001),
            (lambda: fourier_sign(0.05, 1 / 64), 100_001),  # degree 329
            (lambda: _random_laurent(2, 4), 10_001),
            (lambda: _random_laurent(6, 6), 9),  # 13 modes alias onto 8 bins
        ],
        ids=["sign_0.2_0.05", "sign_0.05_1/64", "random_k2_m4", "wraparound_k6_m6"],
    )
    def test_grid_matches_horner(self, make, points):
        S = make()
        grid = np.linspace(-np.pi, np.pi, points)
        horner = eval_fourier(S, grid)
        assert np.max(np.abs(eval_fourier_grid(S, points) - horner)) <= 1e-12


    @pytest.mark.parametrize("eps,delta", [(0.1, 1 / 32), (0.05, 1 / 64)])
    def test_spectral_values_match_horner(self, eps, delta):
        S = fourier_sign(eps, delta)
        dec = eig(random_hermitian(np.random.default_rng(9), 16, norm=1.0))
        for shift in (-0.7, 0.0, 0.35, 2.5):  # 2.5 wraps part of the spectrum
            horner = eval_fourier(S, dec.eigenvalues - shift).real
            assert np.max(np.abs(spectral_values(S, dec, shift) - horner)) <= 1e-12


class TestFourierSign:
    def test_circle_conditions(self):
        S = fourier_sign(0.2, 0.05)
        grid = np.linspace(-np.pi, np.pi, 100_001)
        vals = eval_fourier(S, grid)
        assert np.max(np.abs(vals.imag)) <= 1e-12
        assert np.max(np.abs(vals)) <= 1.0 + 1e-9
        band = (np.abs(grid) >= 0.1) & (np.abs(grid) <= np.pi - 0.1)
        assert np.max(np.abs(vals.real[band] - np.sign(grid[band]))) <= 0.05 + 1e-9

    def test_carries_its_grid_measurements(self):
        S = fourier_sign(0.2, 0.05)
        grid = np.linspace(-np.pi, np.pi, 100_001)
        vals = eval_fourier_grid(S, 100_001).real
        band = (np.abs(grid) >= 0.1) & (np.abs(grid) <= np.pi - 0.1)
        assert S.max_abs == float(np.max(np.abs(vals)))
        assert S.band_error == float(np.max(np.abs(vals[band] - np.sign(grid[band]))))
        assert (S.epsilon, S.delta) == (0.2, 0.05)
        assert FourierPolynomial(S.coeffs, S.k, S.m).max_abs is None

    @pytest.mark.parametrize(
        "eps,delta,degree",
        [
            (0.3, 0.1, 33),
            (0.2, 1 / 16, 57),
            (0.1, 1 / 32, 139),
            (0.1, 0.01, 181),
            (0.05, 1 / 64, 329),
            (0.7, 0.5, 7),
        ],
    )
    def test_pinned_degrees(self, eps, delta, degree):
        # a mis-scaled Chebyshev projection moves these (139 became 153)
        assert fourier_sign(eps, delta).degree == degree

    def test_odd_on_circle(self):
        S = fourier_sign(0.3, 0.1)
        x = np.linspace(0.0, np.pi, 1000)
        assert np.max(np.abs(eval_fourier(S, x) + eval_fourier(S, -x))) <= 1e-9


class TestApplySpectral:
    def test_two_level_example(self):
        S = fourier_sign(0.2, 0.05)
        H = HermitianOperator(np.diag([-0.5, 0.5]))
        out = apply_spectral(S, H, 0.0)
        assert abs(out.entries[0, 0] - (-1.0)) <= 0.05
        assert abs(out.entries[1, 1] - 1.0) <= 0.05
        assert abs(out.entries[0, 1]) <= 1e-12

    def test_matches_eigenbasis_oracle(self):
        rng = np.random.default_rng(31)
        S = fourier_sign(0.25, 0.1)
        H = random_hermitian(rng, 8, norm=1.0)
        out = apply_spectral(S, H, 0.3)
        vals, vecs = np.linalg.eigh(H.entries)
        oracle = (vecs * eval_fourier(S, vals - 0.3).real) @ vecs.conj().T
        assert np.max(np.abs(out.entries - oracle)) <= 1e-10

    def test_rejects_non_real_transform(self):
        S = FourierPolynomial([0.0, 0.5j], k=0, m=1)  # 0.5i e^{ix}, not real
        H = HermitianOperator(np.diag([-0.5, 0.5]))
        with pytest.raises(CertificationError):
            apply_spectral(S, H, 0.0)

    def test_range_guard(self):
        S = fourier_sign(0.2, 0.1)
        H = HermitianOperator(np.diag([3.2, 0.0]))
        with pytest.raises(RangeError):
            apply_spectral(S, H, 0.0)
