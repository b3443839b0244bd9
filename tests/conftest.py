"""Shared random-instance helpers for the test suite."""

import numpy as np

from dyncool import HermitianOperator, Projector, StateVector, cooling, sample_gue, spectral_norm
# the CLI's, which `gqsp` and `certify` use for their checks
from dyncool.cli import _random_unitary as random_unitary
from dyncool.signfun import spectral_values


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


def prepare_joint(dec, psi, n: int) -> np.ndarray:
    """The measurement-free route's joint state of an n-bit energy register
    and ``psi``, as 2^n rows, one per register value: row j holds the part of
    ``psi`` whose eigenvalue ``cooling._labels`` rounds to j 2pi/2^n, negative
    ones wrapped to the register's upper half."""
    reg = 2**n
    amps = dec.eigenvectors.conj().T @ psi
    labels = cooling._labels(dec.eigenvalues, 2.0 * np.pi / reg) % reg
    joint = np.zeros((reg, dec.dim), dtype=complex)
    for j in np.unique(labels):
        joint[j] = dec.eigenvectors[:, labels == j] @ amps[labels == j]
    return joint


def coherent_step(joint, dec, A, S, delta) -> np.ndarray:
    """One cooling step conditioned on the register rows of ``joint``, without
    measuring it: row j is kicked by ``cooling._kick`` at the cutoff
    (j+1) 2pi/2^n, through the periodic sign ``S``. Empty rows are skipped: at
    the top row's cutoff 2pi, for one, the spectrum leaves the sign's band."""
    a_rot = cooling._rotated_perturbation(A, dec)
    vecs = dec.eigenvectors
    width = 2.0 * np.pi / len(joint)
    out = np.zeros_like(joint)
    for j, row in enumerate(joint):
        if np.linalg.norm(row) > 0.0:
            kick = cooling._kick(spectral_values(S, dec, j * width + width), a_rot, delta)
            out[j] = vecs @ (kick @ (vecs.conj().T @ row))
    return out


def normalized_gue(rng, dim):
    """A ``sample_gue`` draw, scaled down to spectral norm 1 when its norm exceeds 1."""
    A = sample_gue(rng, dim)
    return A / max(1.0, spectral_norm(A))


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
