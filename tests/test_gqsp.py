"""Angle synthesis: completion, peeling, and block reconstruction.

The load-bearing oracle is direct summation sum_n a_n U^n with explicit
matrix powers, independent of the rotation-product code path.
"""

import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncool import cli, gqsp
from dyncool.errors import (
    DyncoolError,
    MarginError,
    NumericError,
    RangeError,
    SynthesisError,
    ValidationError,
)
from dyncool.gqsp import (
    COMPLETION_GRID_POINTS,
    AngleSequence,
    CompletionPair,
    assemble_and_extract,
    complete,
    compute_angles,
    eval_angles,
    synthesize_angles,
)
from dyncool.operators import MIN_MARGIN, SpectralDecomposition
from dyncool.signfun import (
    FourierPolynomial,
    build_sign_poly,
    eval_fourier,
    fourier_sign,
    spectral_values,
    to_fourier,
)

from conftest import laurent_sum, random_unitary


def rotation_matrix(theta, phi, lam=0.0):
    """The rotation [[e^{i(lam+phi)}c, e^{i phi}s], [e^{i lam}s, -c]] for scalar
    angles, as the phase diag(e^{i phi}, 1) after the reflection [[c, s], [s, -c]]
    after the phase diag(e^{i lam}, 1); shares no code with ``gqsp._rotations``."""
    c, s = np.cos(theta), np.sin(theta)
    return np.diag([np.exp(1j * phi), 1.0]) @ np.array([[c, s], [s, -c]]) @ np.diag(
        [np.exp(1j * lam), 1.0])


def random_scaled_poly(rng, k, m, peak=0.9):
    """Random Laurent coefficients rescaled to max modulus ``peak`` on the circle."""
    coeffs = rng.normal(size=k + m + 1) + 1j * rng.normal(size=k + m + 1)
    P = FourierPolynomial(coeffs, k, m)
    grid = np.linspace(-np.pi, np.pi, 4001)
    top = np.max(np.abs(eval_fourier(P, grid)))
    return FourierPolynomial(coeffs * (peak / top), k, m)


def random_angles(rng, k, m):
    """An arbitrary (k, m) rotation sequence: theta, phi, then lam drawn from ``rng``."""
    return AngleSequence(
        rng.uniform(0, np.pi / 2, k + m + 1),
        rng.uniform(-np.pi, np.pi, k + m + 1),
        float(rng.uniform(-np.pi, np.pi)),
        k=int(k),
        m=int(m),
    )


def full_product(angles, U):
    """The whole 2n x 2n circuit through the production walk, carried from
    the identity as its two block rows (each n x 2n block flattened into one row)."""
    n = U.shape[0]

    def times(row, factor):
        np.matmul(factor, row.reshape(n, -1), out=row.reshape(n, -1))

    rows = np.eye(2 * n, dtype=complex).reshape(2, -1)
    return gqsp._walk(angles, rows, times, U, U.conj().T).reshape(2 * n, 2 * n)


class TestRotationMatrix:
    """``gqsp._rotations``, the walk's rotations, on scalars and on arrays of angles."""

    def test_zero_angles_is_diag_plus_minus(self):
        assert np.allclose(gqsp._rotations(0.0, 0.0, 0.0), np.diag([1.0, -1.0]))

    def test_quarter_turn_swaps(self):
        R = gqsp._rotations(np.pi / 2, 0.0, 0.0)
        assert np.allclose(R, np.array([[0, 1], [1, 0]]), atol=1e-15)

    def test_unitary_for_random_angles(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            th, ph, la = rng.uniform(0, np.pi / 2), *rng.uniform(-np.pi, np.pi, 2)
            R = gqsp._rotations(th, ph, la)
            assert np.allclose(R.conj().T @ R, np.eye(2), atol=1e-14)
            assert np.allclose(R, rotation_matrix(th, ph, la), atol=1e-14)

    def test_arrays_of_angles_give_one_rotation_each(self):
        rng = np.random.default_rng(8)
        theta = rng.uniform(0, np.pi / 2, 12)
        phi, lam = rng.uniform(-np.pi, np.pi, (2, 12))
        stacked = gqsp._rotations(theta, phi, lam)
        assert stacked.shape == (2, 2, 12)
        for j in range(12):
            assert np.allclose(stacked[..., j], rotation_matrix(theta[j], phi[j], lam[j]),
                               atol=1e-14)


class TestComplete:
    def test_identity_on_random_polynomials(self):
        rng = np.random.default_rng(11)
        for k, m in [(0, 3), (2, 2), (3, 0), (4, 5)]:
            pair = complete(random_scaled_poly(rng, k, m))
            assert pair.identity_residual <= 1e-8
            assert pair.Q.k <= pair.P.k and pair.Q.m <= pair.P.m

    def test_zero_polynomial_completes_to_one(self):
        pair = complete(FourierPolynomial([0.0], 0, 0))
        assert pair.Q.k == pair.Q.m == 0
        assert np.allclose(pair.Q.coeffs, [1.0])

    def test_zero_edge_coefficients_are_trimmed(self):
        pair = complete(FourierPolynomial([0.0, 0.5, 0.0], k=1, m=1))
        assert (pair.P.k, pair.P.m, pair.Q.k, pair.Q.m) == (0, 0, 0, 0)
        assert np.array_equal(pair.P.coeffs, [0.5])

    def test_monomial_violates_margin(self):
        with pytest.raises(MarginError):
            complete(FourierPolynomial([0.0, 1.0], 0, 1))

    def test_margin_floor_enforced(self):
        with pytest.raises(ValidationError):
            complete(FourierPolynomial([0.5], 0, 0), margin=1e-7)

    @pytest.mark.parametrize("margin", [float("nan"), float("inf"), -5.0])
    def test_margin_must_be_finite(self, margin):
        with pytest.raises(DyncoolError, match="margin must be a finite number >= 1e-6"):
            complete(FourierPolynomial([0.5], 0, 0), margin=margin)

    def test_sign_polynomial_completes(self):
        S = to_fourier(build_sign_poly(0.5, 0.25))
        pair = complete(S, margin=1e-6)
        assert pair.identity_residual <= 1e-8

    def test_complement_roots_inside_disk_with_positive_lead(self):
        rng = np.random.default_rng(13)
        for k, m in [(0, 3), (2, 2), (4, 5)]:
            Q = complete(random_scaled_poly(rng, k, m)).Q
            lead = Q.coeffs[-1]
            assert lead.real > 0.0 and abs(lead.imag) <= 1e-15
            assert np.max(np.abs(np.roots(Q.coeffs[::-1]))) < 1.0

    def test_degree_431_sign_polynomial(self):
        # the companion-matrix root path took about 16 s here
        S = fourier_sign(0.05, 1.0 / 256.0)
        start = time.perf_counter()
        angles, pair, scale = synthesize_angles(S, margin=1e-6)
        elapsed = time.perf_counter() - start
        assert angles.k == angles.m == 431 and scale == 1.0
        assert pair.identity_residual <= 1.2e-13
        assert angles.peel_residual <= 2e-12
        assert elapsed <= 2.0

    def test_nonpositive_complement_raises_without_warnings(self):
        # |0.5 + 0.5z| = 1 and |0.6 + 0.6z| = 1.2 at z = 1, a point of every grid
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a in ([0.5, 0.5], [0.6, 0.6]):
                with pytest.raises(NumericError):
                    gqsp._outer_complement(np.array(a, dtype=complex))

    def test_grid_cap_raises(self, monkeypatch):
        monkeypatch.setattr(gqsp, "_OUTER_MAX_POINTS", 1 << 12)
        with pytest.raises(NumericError):
            complete(fourier_sign(0.2, 1.0 / 16.0), margin=1e-6)

    def test_synthesis_finds_no_roots(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("completion must not find polynomial roots")

        monkeypatch.setattr(np, "roots", forbidden)
        monkeypatch.setattr(np.linalg, "eigvals", forbidden)
        angles, pair, scale = synthesize_angles(fourier_sign(0.3, 0.1), margin=1e-6)
        assert pair.identity_residual <= 1e-8 and angles.k == 33

    def test_overflowing_polynomial_raises_without_warnings(self):
        P = FourierPolynomial([1e308, 0.0, 1e308], 1, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for synthesize in (complete, synthesize_angles):
                with pytest.raises(NumericError, match="completion grid"):
                    synthesize(P)

    def test_mismatched_pair_rejected(self):
        P = FourierPolynomial([0.9], 0, 0)
        Q = FourierPolynomial([0.9], 0, 0)  # 0.81 + 0.81 != 1
        with pytest.raises(NumericError):
            CompletionPair(P, Q)


class TestComputeAngles:
    def test_zero_polynomial_base_rotation(self):
        angles = compute_angles(complete(FourierPolynomial([0.0], 0, 0)))
        assert angles.k == angles.m == 0
        assert abs(angles.theta[0] - np.pi / 2) < 1e-15
        assert angles.lam == 0.0 and angles.phi[0] == 0.0

    def test_pure_monomial_gives_zero_angles(self):
        m = 3
        P = FourierPolynomial([0, 0, 0, 1.0], 0, m)
        Q = FourierPolynomial([0.0], 0, 0)
        angles = compute_angles(CompletionPair(P, Q))
        assert np.allclose(angles.theta, 0.0, atol=1e-14)
        assert np.allclose(angles.phi, 0.0, atol=1e-14)

    def test_degenerate_leads_raise(self):
        P = FourierPolynomial([0.5, 0.0], 0, 1)
        Q = FourierPolynomial([np.sqrt(0.75)], 0, 0)
        with pytest.raises(SynthesisError):
            compute_angles(CompletionPair(P, Q))

    def test_oversized_completion_rejected(self):
        P = FourierPolynomial([0.0], 0, 0)
        Q = FourierPolynomial([0, 0, 1.0], 0, 2)
        with pytest.raises(ValidationError):
            compute_angles(CompletionPair(P, Q))


class TestAssemble:
    def test_full_product_unitary_for_arbitrary_angles(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            k, m = rng.integers(0, 4), rng.integers(0, 4)
            angles = random_angles(rng, k, m)
            G = full_product(angles, random_unitary(rng, 3))
            gram = G.conj().T @ G
            assert np.linalg.norm(gram - np.eye(6)) <= 1e-9

    @pytest.mark.parametrize(
        "theta, phi, lam, error, match",
        [([np.nan, 0.0], [0.0, 0.0], 0.0, ValidationError, "^theta must be finite$"),
         ([0.0, 0.0], [0.0, np.inf], 0.0, ValidationError, "^phi must be finite$"),
         ([0.0, 0.0], [0.0, 0.0], -np.inf, RangeError, "^lam must be finite, got -inf$")],
        ids=["theta", "phi", "lam"],
    )
    def test_non_finite_angles_rejected(self, theta, phi, lam, error, match):
        with pytest.raises(error, match=match):
            AngleSequence(theta, phi, lam, k=0, m=1)

    @pytest.mark.parametrize("k, m", [(-1, 2), (0, True), (0.5, 1)],
                             ids=["negative", "bool", "fractional"])
    def test_window_must_be_non_negative_integers(self, k, m):
        with pytest.raises(ValidationError, match="^[km] must be (an integer|at least 0), got "):
            AngleSequence(np.zeros(2), np.zeros(2), 0.0, k=k, m=m)

    def test_counters_are_the_walks_products(self, monkeypatch):
        walk, factors = gqsp._walk, []

        def counting_walk(angles, col, multiply, u, u_dag):
            def spy(row, factor):
                factors.append("U" if factor is u else "U_dag" if factor is u_dag else factor)
                multiply(row, factor)

            return walk(angles, col, spy, u, u_dag)

        monkeypatch.setattr(gqsp, "_walk", counting_walk)
        rng = np.random.default_rng(61)
        for k, m in [(0, 0), (0, 3), (2, 0), (3, 5)]:
            factors.clear()
            res = assemble_and_extract(random_angles(rng, k, m), random_unitary(rng, 3))
            assert len(factors) == k + m
            assert (factors.count("U"), factors.count("U_dag")) == (m, k)
            assert (res.cu_applications, res.cu_dag_applications) == (m, k)

    def test_non_square_unitary_rejected(self):
        angles = AngleSequence(np.zeros(2), np.zeros(2), 0.0, k=0, m=1)
        with pytest.raises(ValidationError, match=r"U must be a square matrix, got shape \(2, 3\)"):
            assemble_and_extract(angles, np.zeros((2, 3)))

    def test_zero_angles_reproduce_powers(self):
        rng = np.random.default_rng(29)
        U = random_unitary(rng, 4)
        for k, m in [(0, 3), (2, 0), (2, 3)]:
            angles = AngleSequence(
                np.zeros(k + m + 1), np.zeros(k + m + 1), 0.0, k=k, m=m
            )
            res = assemble_and_extract(angles, U)
            assert res.cu_applications == m
            assert res.cu_dag_applications == k
            Um = np.linalg.matrix_power(U, m)
            Udk = np.linalg.matrix_power(U.conj().T, k)
            assert np.linalg.norm(res.block - Um) <= 1e-12
            corner = full_product(angles, U)[4:, 4:]
            assert np.linalg.norm(corner - (-1.0) ** (k + m + 1) * Udk) <= 1e-12

    def test_reconstruction_random_pairs(self):
        rng = np.random.default_rng(31)
        for trial in range(12):
            k = int(rng.integers(0, 9))
            m = int(rng.integers(0, 9 - min(k, 8)))
            if k + m == 0:
                m = 1
            P = random_scaled_poly(rng, k, m)
            pair = complete(P)
            angles = compute_angles(pair)
            U = random_unitary(rng, int(rng.integers(2, 9)))
            res = assemble_and_extract(angles, U)
            err = np.linalg.norm(res.block - laurent_sum(pair.P, U))
            assert err <= 1e-7, f"trial {trial}: reconstruction error {err:.3e}"
            assert res.cu_applications == pair.P.m
            assert res.cu_dag_applications == pair.P.k

    def test_sign_polynomial_round_trip(self):
        S = to_fourier(build_sign_poly(0.3, 0.1))
        angles, pair, scale = synthesize_angles(S, margin=1e-6)
        assert scale == 1.0
        rng = np.random.default_rng(37)
        U = random_unitary(rng, 4)
        res = assemble_and_extract(angles, U)
        assert np.linalg.norm(res.block - laurent_sum(pair.P, U)) <= 1e-7

    def test_synthesize_rescales_into_margin(self):
        grid = np.linspace(-np.pi, np.pi, COMPLETION_GRID_POINTS)
        rng = np.random.default_rng(41)
        P = random_scaled_poly(rng, 1, 2, peak=0.99995)
        angles, pair, scale = synthesize_angles(P, margin=1e-4)
        assert scale < 1.0
        top = np.max(np.abs(eval_fourier(pair.P, grid)))
        assert top <= 1.0 - 1e-4 + 1e-9
        U = random_unitary(rng, 3)
        res = assemble_and_extract(angles, U)
        assert np.linalg.norm(res.block - scale * laurent_sum(P, U)) <= 1e-7

    def test_margin_defaults_to_its_floor(self):
        P = FourierPolynomial([0.0, 1.0], 0, 1)  # |z| = 1 on the whole circle
        angles, pair, scale = synthesize_angles(P)
        assert scale == pytest.approx(1.0 - MIN_MARGIN, abs=1e-12)
        assert complete(pair.P).identity_residual == pair.identity_residual


def dense_product(angles, U):
    """The rotation sequence multiplied out as 2n x 2n matrices: each rotation
    as R (x) I_n, controlled-U as U (+) I_n and controlled-U^dag as I_n (+) U^dag."""
    n = U.shape[0]
    eye, zero = np.eye(n), np.zeros((n, n))
    G = np.kron(rotation_matrix(angles.theta[0], angles.phi[0], angles.lam), eye)
    for j in range(1, angles.m + angles.k + 1):
        top, bottom = (U, eye) if j <= angles.m else (eye, U.conj().T)
        G = np.block([[top, zero], [zero, bottom]]) @ G
        G = np.kron(rotation_matrix(angles.theta[j], angles.phi[j]), eye) @ G
    return G


class TestFirstColumn:
    """The production block against the top-left block of the full product."""

    def test_random_angles(self):
        rng = np.random.default_rng(67)
        for _ in range(12):
            k, m = (int(x) for x in rng.integers(0, 9, 2))
            angles = random_angles(rng, k, m)
            for dim in range(1, 9):
                U = random_unitary(rng, dim)
                block = assemble_and_extract(angles, U).block
                full = full_product(angles, U)[:dim, :dim]
                assert np.max(np.abs(block - full)) <= 1e-12, (k, m, dim)

    def test_sign_sequence(self):
        angles, _, _ = synthesize_angles(fourier_sign(0.1, 1.0 / 32.0), margin=1e-6)
        rng = np.random.default_rng(71)
        for dim in (1, 4, 16, 64):
            U = random_unitary(rng, dim)
            block = assemble_and_extract(angles, U).block
            assert np.max(np.abs(block - full_product(angles, U)[:dim, :dim])) <= 1e-12, dim


class TestDenseProduct:
    """The walk, as the full product and as the production block, against an
    independent dense multiply-out."""

    def test_random_angles(self):
        rng = np.random.default_rng(53)
        for k, m in [(0, 0), (0, 6), (6, 0), (6, 6), *rng.integers(0, 7, (4, 2))]:
            angles = random_angles(rng, k, m)
            for dim in range(1, 7):
                U = random_unitary(rng, dim)
                dense = dense_product(angles, U)
                assert np.max(np.abs(full_product(angles, U) - dense)) <= 1e-12, (k, m, dim)
                block = assemble_and_extract(angles, U).block
                assert np.max(np.abs(block - dense[:dim, :dim])) <= 1e-12, (k, m, dim)

    def test_sign_sequence(self):
        angles, _, _ = synthesize_angles(fourier_sign(0.1, 1.0 / 32.0), margin=1e-6)
        assert angles.k == angles.m == 139
        U = random_unitary(np.random.default_rng(59), 6)
        dense = dense_product(angles, U)
        assert np.max(np.abs(full_product(angles, U) - dense)) <= 1e-12
        assert np.max(np.abs(assemble_and_extract(angles, U).block - dense[:6, :6])) <= 1e-12


class TestEvalAngles:
    """Per-eigenphase evaluation against the dense product it replaces in
    the cooling loop: the block of U = V diag(z) V^dag is V diag(p(z)) V^dag."""

    @staticmethod
    def dense_and_eigen(angles, rng, dim):
        V = random_unitary(rng, dim)
        z = np.exp(1j * rng.uniform(-np.pi, np.pi, dim))
        block = assemble_and_extract(angles, (V * z) @ V.conj().T).block
        return block, (V * eval_angles(angles, z)) @ V.conj().T

    def test_matches_assembled_block_for_random_angles(self):
        rng = np.random.default_rng(43)
        for k, m in [(0, 0), (0, 5), (4, 0), tuple(rng.integers(1, 8, 2))]:
            angles = random_angles(rng, k, m)
            for dim in (1, 5):
                block, eigen = self.dense_and_eigen(angles, rng, dim)
                assert np.max(np.abs(block - eigen)) <= 1e-12, (k, m, dim)

    def test_matches_assembled_block_for_sign_sequence(self):
        angles, _, _ = synthesize_angles(fourier_sign(0.1, 1.0 / 32.0), margin=1e-6)
        assert angles.k == angles.m == 139
        block, eigen = self.dense_and_eigen(angles, np.random.default_rng(47), 6)
        assert np.max(np.abs(block - eigen)) <= 1e-12


class TestRoundTripProperty:
    """For drawn sign parameters, margins and eigenphases, the synthesized circuit
    (``complete``, then ``compute_angles``, inside ``synthesize_angles``) evaluated
    by ``eval_angles`` is ``scale`` times the sign's ``spectral_values``, within
    the block residual that ``dyncool gqsp`` and ``dyncool certify`` certify."""

    @settings(max_examples=25, deadline=None)
    @given(
        epsilon=st.floats(0.15, 0.7),
        delta=st.floats(0.02, 0.3),
        margin=st.sampled_from([MIN_MARGIN, 1e-4, 1e-2]),
        phases=st.lists(st.floats(-np.pi, np.pi), min_size=1, max_size=16),
    )
    def test_eval_angles_is_the_scaled_sign(self, epsilon, delta, margin, phases):
        S = fourier_sign(epsilon, delta)
        angles, pair, scale = synthesize_angles(S, margin=margin)
        assert 0.0 < scale <= 1.0 and pair.identity_residual <= 1e-8
        x = np.sort(np.array(phases))
        expected = scale * spectral_values(S, SpectralDecomposition(x, np.eye(x.size)), 0.0)
        got = eval_angles(angles, np.exp(1j * x))
        assert np.max(np.abs(got - expected)) <= cli._BLOCK_TOL
