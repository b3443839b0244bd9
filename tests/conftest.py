"""Shared random-instance helpers for the test suite."""

import numpy as np

from dyncool import HermitianOperator, Projector, StateVector
# the CLI's, which `gqsp` and `certify` use for their checks
from dyncool.cli import _random_unitary as random_unitary


def laurent_sum(P, U: np.ndarray) -> np.ndarray:
    """P(U) as the sum of its coefficients times powers of U and U^dag, the
    tests' reference, independent of the CLI's eigen route and the circuit walk."""
    dim = U.shape[0]
    acc = np.zeros((dim, dim), dtype=complex)
    Ud = U.conj().T
    for idx, a in enumerate(P.coeffs):
        n = idx - P.k
        power = np.linalg.matrix_power(U if n >= 0 else Ud, abs(n))
        acc += a * power
    return acc


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


def random_projector(rng, dim, rank):
    basis = random_unitary(rng, dim)[:, :rank]
    return Projector(basis @ basis.conj().T)
