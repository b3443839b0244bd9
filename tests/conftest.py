"""Shared random-instance helpers for the test suite."""

import numpy as np

from dyncool import HermitianOperator, Projector, StateVector


def random_hermitian(rng, dim, norm=None):
    """Random Hermitian matrix, optionally rescaled to a given spectral norm."""
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = (raw + raw.conj().T) / 2.0
    if norm is not None:
        mat *= norm / np.linalg.norm(mat, 2)
    return HermitianOperator(mat)


def random_state(rng, dim):
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(vec / np.linalg.norm(vec))


def random_unitary(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_projector(rng, dim, rank):
    basis = random_unitary(rng, dim)[:, :rank]
    return Projector(basis @ basis.conj().T)


def laurent_sum(P, U):
    """sum_{n=-k}^{m} a_n U^n by explicit matrix powers."""
    dim = U.shape[0]
    out = np.zeros((dim, dim), dtype=complex)
    Udag = U.conj().T
    for idx, a in enumerate(P.coeffs):
        n = idx - P.k
        base = U if n >= 0 else Udag
        out += a * np.linalg.matrix_power(base, abs(n))
    return out
