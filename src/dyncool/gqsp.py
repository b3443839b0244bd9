"""Angle synthesis for Laurent-polynomial block encodings.

Given P with |P| < 1 on the unit circle, `complete` finds the partner Q with
|P|^2 + |Q|^2 = 1 (spectral factorization through the roots of
1 - P(z)P*(1/z*)), and `compute_angles` peels the pair into a rotation
sequence: one base rotation, then m steps interleaving controlled-U and k
steps interleaving controlled-U^dag. `assemble_and_extract` multiplies the
sequence back out and reports the top-left block plus structural query
counts, which is the reconstruction contract the tests certify. Checks on
the uniform circle grid evaluate it with one inverse FFT (`eval_fourier_grid`).

Peeling invariant: the partial product's first block column is a pair of
Laurent polynomials with |.|^2 summing to 1 on the circle; each inverse step
chooses the rotation that cancels the current top coefficients, shrinking
the degree window by one. The coefficients that should cancel are dropped
and their magnitude tracked as a residual diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MarginError, NumericError, SynthesisError, ValidationError
from .signfun import FourierPolynomial, eval_fourier_grid

__all__ = [
    "COMPLETION_GRID_POINTS",
    "AngleSequence",
    "CompletionPair",
    "AssembledBlock",
    "rotation_matrix",
    "complete",
    "compute_angles",
    "assemble_and_extract",
    "synthesize_angles",
]

COMPLETION_GRID_POINTS = 10_001

_DEGENERATE_LEAD = 1e-12


def rotation_matrix(theta: float, phi: float, lam: float = 0.0) -> np.ndarray:
    """Single-qubit rotation [[e^{i(lam+phi)}c, e^{i phi}s], [e^{i lam}s, -c]]."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array(
        [
            [np.exp(1j * (lam + phi)) * c, np.exp(1j * phi) * s],
            [np.exp(1j * lam) * s, -c],
        ]
    )


@dataclass(frozen=True)
class AngleSequence:
    """Rotation data for a (k, m) Laurent block encoding.

    theta/phi have length k+m+1: index 0 is the base rotation (which also
    carries lam), indices 1..m dress the controlled-U steps in application
    order, indices m+1..m+k the controlled-U^dag steps.
    """

    theta: np.ndarray
    phi: np.ndarray
    lam: float
    k: int
    m: int
    peel_residual: float = 0.0

    def __post_init__(self):
        theta = np.array(self.theta, dtype=np.float64)
        phi = np.array(self.phi, dtype=np.float64)
        n = self.k + self.m + 1
        if theta.shape != (n,) or phi.shape != (n,):
            raise ValidationError(
                f"angle arrays must have length k+m+1={n}, got "
                f"{theta.shape} and {phi.shape}"
            )
        theta.setflags(write=False)
        phi.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)


@dataclass(frozen=True)
class CompletionPair:
    """P and its unit-circle complement Q, certified on a dense grid.

    ``identity_residual`` is max ||P|^2 + |Q|^2 - 1| over the uniform grid,
    each polynomial evaluated by `eval_fourier_grid`; above 1e-8 it fails.
    """

    P: FourierPolynomial
    Q: FourierPolynomial
    identity_residual: float = field(init=False)

    def __post_init__(self):
        total = np.abs(eval_fourier_grid(self.P, COMPLETION_GRID_POINTS)) ** 2
        total += np.abs(eval_fourier_grid(self.Q, COMPLETION_GRID_POINTS)) ** 2
        residual = float(np.max(np.abs(total - 1.0)))
        object.__setattr__(self, "identity_residual", residual)
        if residual > 1e-8:
            raise NumericError(
                f"|P|^2 + |Q|^2 deviates from 1 by {residual:.3e} on the circle"
            )


@dataclass(frozen=True)
class AssembledBlock:
    """Result of multiplying out an angle sequence against a concrete U."""

    block: np.ndarray
    unitary: np.ndarray
    cu_applications: int
    cu_dag_applications: int


def _trim_support(S: FourierPolynomial) -> FourierPolynomial:
    """Drop numerically-zero edge coefficients so declared degrees are true."""
    coeffs = np.asarray(S.coeffs)
    scale = np.max(np.abs(coeffs))
    if scale == 0.0:
        return FourierPolynomial(np.zeros(1, dtype=complex), 0, 0, S.epsilon, S.delta)
    live = np.nonzero(np.abs(coeffs) > 1e-15 * scale)[0]
    # never trim past the constant mode: k and m stay non-negative
    lo, hi = min(int(live[0]), S.k), max(int(live[-1]), S.k)
    return FourierPolynomial(
        coeffs[lo : hi + 1], S.k - lo, S.m - (coeffs.size - 1 - hi), S.epsilon, S.delta
    )


def _polish_roots(w: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Newton-refine roots of the ascending-coefficient polynomial ``w``.

    Companion-matrix roots of high-degree factorizations carry ~1e-8 errors
    when the polynomial nearly touches zero on the circle; a few Newton steps
    in the original basis recover them. Steps that do not reduce |w(r)| are
    discarded.
    """
    roots = roots.copy()
    desc = w[::-1]
    ddesc = (w[1:] * np.arange(1, w.size))[::-1]
    for _ in range(3):
        f = np.polyval(desc, roots)
        fp = np.polyval(ddesc, roots)
        safe = np.abs(fp) > 0
        trial = roots.copy()
        trial[safe] -= f[safe] / fp[safe]
        better = np.abs(np.polyval(desc, trial)) < np.abs(f)
        roots[better] = trial[better]
    return roots


def _monic_from_roots(roots: np.ndarray) -> np.ndarray:
    """Monic polynomial coefficients (ascending) recovered through the DFT.

    Evaluating the root product on an oversampled circle grid keeps every
    value a plain product (no cancellation), so the transformed coefficients
    stay accurate even for hundreds of near-circle roots where coefficient
    convolution loses ~8 digits.
    """
    deg = roots.size
    if deg == 0:
        return np.ones(1, dtype=complex)
    M = 1
    while M < 4 * (deg + 1):
        M *= 2
    z = np.exp(2j * np.pi * np.arange(M) / M)
    vals = np.ones(M, dtype=complex)
    for r in roots:
        vals *= z - r
    return np.fft.fft(vals)[: deg + 1] / M


def complete(P: FourierPolynomial, margin: float = 1e-4) -> CompletionPair:
    """Find Q with |P|^2 + |Q|^2 = 1 on the unit circle.

    Requires grid max |P| <= 1 - margin (margin >= 1e-6): the factored
    polynomial 1 - |P|^2 must stay strictly positive so its roots split
    cleanly into conjugate-reciprocal pairs off the circle. Q is rebuilt
    from the in-disk roots, normalized through the constant Fourier mode.
    """
    if margin < 1e-6:
        raise ValidationError(f"margin must be >= 1e-6, got {margin}")
    P = _trim_support(P)
    max_abs = float(np.max(np.abs(eval_fourier_grid(P, COMPLETION_GRID_POINTS))))
    # 1e-9 slack keeps inputs rescaled exactly onto the margin from failing
    # the check by rounding noise
    if max_abs > 1.0 - margin + 1e-9:
        raise MarginError(
            f"max |P| = {max_abs:.9f} exceeds 1 - margin = {1.0 - margin:.9f}"
        )

    a = np.asarray(P.coeffs)
    width = a.size - 1  # k + m
    auto = np.convolve(a, np.conj(a)[::-1])
    w = -auto
    w[width] += 1.0  # constant mode of 1 - P P*(1/z*)

    if width == 0:
        q_monic = np.ones(1, dtype=complex)
    else:
        roots = _polish_roots(w, np.roots(w[::-1]))
        inside = roots[np.abs(roots) < 1.0]
        if inside.size != width:
            raise NumericError(
                f"root pairing failed: {inside.size} roots inside the disk, "
                f"expected {width} (of {roots.size} total)"
            )
        q_monic = _monic_from_roots(inside)

    gamma = np.sqrt(np.real(w[width]) / np.sum(np.abs(q_monic) ** 2))
    Q = FourierPolynomial(gamma * q_monic, k=P.k, m=P.m)
    return CompletionPair(P, Q)


def _solve_rotation(p_top: complex, q_top: complex, step: int) -> tuple[float, float]:
    """Angles cancelling the leading pair; degenerate leads are a hard error."""
    ap, aq = abs(p_top), abs(q_top)
    if max(ap, aq) < _DEGENERATE_LEAD:
        raise SynthesisError(
            f"degenerate leading coefficients at peel step {step}: "
            f"|p|={ap:.3e}, |q|={aq:.3e}"
        )
    theta = np.arctan2(aq, ap)
    if ap < _DEGENERATE_LEAD or aq < _DEGENERATE_LEAD:
        return float(theta), 0.0
    return float(theta), float(np.angle(p_top) - np.angle(q_top))


def compute_angles(pair: CompletionPair) -> AngleSequence:
    """Peel a completion pair into its rotation sequence.

    Inverse recursion on the first block column: negative steps are peeled
    first (undoing the controlled-U^dag group), then positive steps, then
    the base rotation is read off the remaining constants.
    """
    P, Q = pair.P, pair.Q
    k, m = P.k, P.m
    if Q.k > k or Q.m > m:
        raise ValidationError(
            f"completion support [-{Q.k}, {Q.m}] exceeds target [-{k}, {m}]"
        )
    # align both onto the window [-k, m]
    p = np.zeros(k + m + 1, dtype=complex)
    q = np.zeros(k + m + 1, dtype=complex)
    p[:] = P.coeffs
    q[k - Q.k : k + Q.m + 1] = Q.coeffs

    theta = np.zeros(k + m + 1)
    phi = np.zeros(k + m + 1)
    residual = 0.0

    for i in range(k):
        step = m + k - i
        th, ph = _solve_rotation(p[-1], q[-1], step)
        c, s, e = np.cos(th), np.sin(th), np.exp(-1j * ph)
        new_p = e * c * p + s * q
        new_q = e * s * p - c * q
        # new_p sheds its lowest mode, new_q (after the U shift) its highest
        residual = max(residual, abs(new_p[0]), abs(new_q[-1]))
        p, q = new_p[1:], new_q[:-1]
        theta[step], phi[step] = th, ph

    for i in range(m):
        step = m - i
        th, ph = _solve_rotation(p[-1], q[-1], step)
        c, s, e = np.cos(th), np.sin(th), np.exp(-1j * ph)
        new_p = e * c * p + s * q
        new_q = e * s * p - c * q
        residual = max(residual, abs(new_p[0]), abs(new_q[-1]))
        p, q = new_p[1:], new_q[:-1]
        theta[step], phi[step] = th, ph

    p0, q0 = complex(p[0]), complex(q[0])
    theta[0] = np.arctan2(abs(q0), abs(p0))
    lam = float(np.angle(q0)) if abs(q0) > _DEGENERATE_LEAD else 0.0
    phi[0] = float(np.angle(p0)) - lam if abs(p0) > _DEGENERATE_LEAD else 0.0
    return AngleSequence(theta, phi, lam, k=k, m=m, peel_residual=residual)


def assemble_and_extract(angles: AngleSequence, U) -> AssembledBlock:
    """Multiply out the rotation sequence against a concrete unitary.

    Controlled applications are direct-sum blocks: [U (+) I] for the positive
    group, [I (+) U^dag] for the negative group. Counts are structural
    (incremented per factor actually multiplied in).
    """
    mat = U.entries if hasattr(U, "entries") else np.asarray(U, dtype=complex)
    n = mat.shape[0]
    eye = np.eye(n, dtype=complex)

    def controlled(top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
        out = np.zeros((2 * n, 2 * n), dtype=complex)
        out[:n, :n] = top
        out[n:, n:] = bottom
        return out

    G = np.kron(rotation_matrix(angles.theta[0], angles.phi[0], angles.lam), eye)
    cu = cudag = 0
    for j in range(1, angles.m + 1):
        G = controlled(mat, eye) @ G
        G = np.kron(rotation_matrix(angles.theta[j], angles.phi[j]), eye) @ G
        cu += 1
    for j in range(angles.m + 1, angles.m + angles.k + 1):
        G = controlled(eye, mat.conj().T) @ G
        G = np.kron(rotation_matrix(angles.theta[j], angles.phi[j]), eye) @ G
        cudag += 1
    return AssembledBlock(
        block=G[:n, :n], unitary=G, cu_applications=cu, cu_dag_applications=cudag
    )


def synthesize_angles(
    P: FourierPolynomial, margin: float = 1e-4
) -> tuple[AngleSequence, CompletionPair, float]:
    """Complete and peel, rescaling P into the margin when necessary.

    Returns (angles, pair, scale): scale < 1 means the encoded polynomial is
    scale * P, a deliberate approximation error bounded by the margin.
    """
    max_abs = float(np.max(np.abs(eval_fourier_grid(P, COMPLETION_GRID_POINTS))))
    scale = 1.0
    if max_abs > 1.0 - margin + 1e-9:
        scale = (1.0 - margin) / max_abs
        P = FourierPolynomial(P.coeffs * scale, P.k, P.m, P.epsilon, P.delta)
    pair = complete(P, margin=margin)
    return compute_angles(pair), pair, scale
