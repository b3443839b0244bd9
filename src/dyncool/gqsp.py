"""Angle synthesis for Laurent-polynomial block encodings.

Given P with |P| < 1 on the unit circle, `complete` finds the partner Q with
|P|^2 + |Q|^2 = 1 from the outer function of 1 - |P|^2 (the Weiss
construction: FFTs of log(1 - |P|^2) on an N-point circle grid, N doubled
until the coefficients past Q's degree are negligible), in O(N log N).
`compute_angles` peels the pair into a rotation sequence: one base
rotation, then m steps interleaving controlled-U and k steps interleaving
controlled-U^dag. One walk (`_walk`) multiplies the sequence out on the
circuit's first column, a pair of rows (top, bottom), with two carriers.
`assemble_and_extract` carries the first block column, two n x n blocks,
against a concrete U (one n x n product per controlled step) and reports
its top block plus structural query counts, which is the reconstruction
contract the tests certify. When U is known through its eigenphases,
`eval_angles` carries the first column of the 2x2 product per eigenphase,
in O(deg * d). Checks on the uniform circle grid evaluate P with one
inverse FFT (`eval_fourier_grid`).

Peeling invariant: the partial product's first block column is a pair of
Laurent polynomials with |.|^2 summing to 1 on the circle; each inverse step
chooses the rotation that cancels the current top coefficients, shrinking
the degree window by one. The coefficients that should cancel are dropped
and their magnitude tracked as a residual diagnostic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import MarginError, NumericError, SynthesisError, ValidationError
from .operators import MIN_MARGIN, _bound, check_margin, check_real, check_window
from .operators import matrix_entries, square_entries
from .signfun import FourierPolynomial, eval_fourier_grid

__all__ = [
    "COMPLETION_GRID_POINTS",
    "AngleSequence",
    "CompletionPair",
    "AssembledBlock",
    "complete",
    "compute_angles",
    "assemble_and_extract",
    "eval_angles",
    "synthesize_angles",
]

COMPLETION_GRID_POINTS = 10_001

_DEGENERATE_LEAD = 1e-12

# The discarded coefficients of the outer function near N/2 are the size of
# log(1 - |P|^2)'s Fourier series at N/2; the kept ones carry its aliasing
# error, about the square of that, far below the 1e-8 identity certificate.
_OUTER_TAIL = 1e-8
_OUTER_MAX_POINTS = 1 << 21


def _rotations(theta, phi, lam) -> np.ndarray:
    """The single-qubit rotations [[e^{i(lam+phi)}c, e^{i phi}s], [e^{i lam}s, -c]]
    with c = cos(theta), s = sin(theta), elementwise and unchecked: arrays of
    angles give the 2x2 rotations along the trailing axes."""
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
        check_window(self.k, self.m)
        n = self.k + self.m + 1
        theta, phi = (matrix_entries(a, float, name, finite=True, shape=(n,)).copy()
                      for name, a in (("theta", self.theta), ("phi", self.phi)))
        check_real(self.lam, "lam")
        check_real(self.peel_residual, "peel_residual", 0.0, rule="be a finite number >= 0")
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
        total = _abs_on_grid(self.P) ** 2
        total += _abs_on_grid(self.Q) ** 2
        residual = float(np.max(np.abs(total - 1.0)))
        object.__setattr__(self, "identity_residual", residual)
        _bound("max ||P|^2 + |Q|^2 - 1| on the circle", residual, 1e-8, NumericError)


@dataclass(frozen=True)
class AssembledBlock:
    """The top-left block of an angle sequence's circuit against a concrete U."""

    block: np.ndarray
    cu_applications: int
    cu_dag_applications: int


def _abs_on_grid(P: FourierPolynomial) -> np.ndarray:
    """|P| on the completion grid; non-finite where P overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(eval_fourier_grid(P, COMPLETION_GRID_POINTS))


def _grid_max(P: FourierPolynomial) -> float:
    """max |P| on the completion grid, which must be finite."""
    max_abs = float(np.max(_abs_on_grid(P)))
    return _bound("max |P| on the completion grid", max_abs, np.finfo(float).max, NumericError)


def _trim_support(S: FourierPolynomial) -> FourierPolynomial:
    """Drop numerically-zero edge coefficients so declared degrees are true.

    Returns ``S`` itself when there is nothing to drop.
    """
    coeffs = np.asarray(S.coeffs)
    scale = np.max(np.abs(coeffs))
    if scale == 0.0:
        return FourierPolynomial(np.zeros(1, dtype=complex), 0, 0, S.epsilon, S.delta)
    live = np.nonzero(np.abs(coeffs) > 1e-15 * scale)[0]
    # never trim past the constant mode: k and m stay non-negative
    lo, hi = min(int(live[0]), S.k), max(int(live[-1]), S.k)
    if lo == 0 and hi == coeffs.size - 1:
        return S
    return FourierPolynomial(
        coeffs[lo : hi + 1], S.k - lo, S.m - (coeffs.size - 1 - hi), S.epsilon, S.delta
    )


def _outer_complement(a: np.ndarray) -> np.ndarray:
    """Ascending coefficients of Q, of P's width, with |Q|^2 = 1 - |P|^2.

    ``a`` holds P's coefficients ascending; the power offset is irrelevant
    because only |P| enters. The outer function O = exp(h), where h is the
    analytic half of log(1 - |P|^2) with half its constant mode, has no zeros
    in the disk and |O|^2 = 1 - |P|^2 on the circle. Q(z) = z^width O*(1/z*)
    (O's coefficients conjugated and reversed) has the same modulus, all its
    roots inside the disk and the real positive leading coefficient O(0).

    Each pass costs four FFTs of length N, in place where numpy allows: N
    starts at a power of two >= 64 (width + 1) and doubles until every
    discarded coefficient of O (index width + 1 up to N/2) is below
    ``_OUTER_TAIL``.
    """
    width = a.size - 1
    points = 1 << (64 * (width + 1) - 1).bit_length()
    while points <= _OUTER_MAX_POINTS:
        f = np.abs(np.fft.ifft(a, n=points, norm="forward"))
        f *= f
        np.subtract(1.0, f, out=f)
        low = float(np.min(f))
        if not low > 0.0:
            raise NumericError(
                f"1 - |P|^2 reaches {low:.3e} on the {points}-point circle grid"
            )
        np.log(f, out=f)
        h = np.fft.rfft(f, norm="forward")
        del f
        h[0] *= 0.5
        h[-1] *= 0.5  # the Nyquist mode is shared with its negative twin
        outer = np.fft.ifft(h, n=points, norm="forward")
        del h
        np.exp(outer, out=outer)
        np.fft.fft(outer, norm="forward", out=outer)
        tail = float(np.max(np.abs(outer[width + 1 : points // 2 + 1])))
        if tail <= _OUTER_TAIL:
            return np.conj(outer[width::-1])
        points *= 2
    raise NumericError(
        f"outer-function tail stays above {_OUTER_TAIL:.0e} "
        f"up to {_OUTER_MAX_POINTS} grid points"
    )


def _margin_limit(margin: float) -> float:
    """Largest grid max |P| that `complete` accepts: 1 - margin (``check_margin``),
    with 1e-9 slack so inputs rescaled exactly onto the margin do not fail by rounding."""
    return 1.0 - check_margin(margin) + 1e-9


def complete(P: FourierPolynomial, margin: float = MIN_MARGIN) -> CompletionPair:
    """Find Q with |P|^2 + |Q|^2 = 1 on the unit circle.

    Requires grid max |P| <= 1 - margin (margin >= ``MIN_MARGIN``), so 1 - |P|^2 stays
    strictly positive and its logarithm smooth. Q is the conjugate-reversed
    outer function of 1 - |P|^2 (`_outer_complement`): the complement with
    every root inside the disk and a real positive leading coefficient,
    declared on P's window [-k, m].
    """
    limit = _margin_limit(margin)
    P = _trim_support(P)
    _bound(f"max |P| with margin {margin!r}", _grid_max(P), limit, MarginError)
    Q = FourierPolynomial(_outer_complement(P.coeffs), k=P.k, m=P.m)
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
        raise ValidationError(f"completion support [-{Q.k}, {Q.m}] exceeds target [-{k}, {m}]")
    # align both onto the window [-k, m]
    p = np.zeros(k + m + 1, dtype=complex)
    q = np.zeros(k + m + 1, dtype=complex)
    p[:] = P.coeffs
    q[k - Q.k : k + Q.m + 1] = Q.coeffs

    theta = np.zeros(k + m + 1)
    phi = np.zeros(k + m + 1)
    residual = 0.0

    for step in range(m + k, 0, -1):
        th, ph = _solve_rotation(p[-1], q[-1], step)
        c, s, e = np.cos(th), np.sin(th), np.exp(-1j * ph)
        new_p = e * c * p + s * q
        new_q = e * s * p - c * q
        # new_p sheds its lowest mode, new_q (after the U shift) its highest
        residual = max(residual, abs(new_p[0]), abs(new_q[-1]))
        p, q = new_p[1:], new_q[:-1]
        theta[step], phi[step] = th, ph

    p0, q0 = complex(p[0]), complex(q[0])
    theta[0] = np.arctan2(abs(q0), abs(p0))
    lam = float(np.angle(q0)) if abs(q0) > _DEGENERATE_LEAD else 0.0
    phi[0] = float(np.angle(p0)) - lam if abs(p0) > _DEGENERATE_LEAD else 0.0
    return AngleSequence(theta, phi, lam, k=k, m=m, peel_residual=residual)


def _walk(angles: AngleSequence, col: np.ndarray, multiply, u, u_dag) -> np.ndarray:
    """The rotation sequence applied to ``col``, whose two rows are (top, bottom).

    Factor 0 is the base rotation. Each controlled-U calls
    ``multiply(top, u)`` and each controlled-U^dag ``multiply(bottom, u_dag)``,
    which multiply that row in place; the rotation after it mixes the two
    rows with its four scalars.
    """
    lam = np.concatenate(([angles.lam], np.zeros(angles.k + angles.m)))
    rotations = np.moveaxis(_rotations(angles.theta, angles.phi, lam), -1, 0)
    for j, rotation in enumerate(rotations):
        if 0 < j <= angles.m:
            multiply(col[0], u)
        elif j:
            multiply(col[1], u_dag)
        col = rotation @ col
    return col


def assemble_and_extract(angles: AngleSequence, U) -> AssembledBlock:
    """Multiply out the rotation sequence against a concrete unitary.

    The circuit's first block column is walked from (I_n, 0), each n x n
    block flattened into one row: controlled-U multiplies the top block by
    U and controlled-U^dag the bottom block by U^dag, one n x n product
    each. The top block is the encoded block; the rest of the circuit is
    never formed. Counts are structural: the sizes m and k of the two
    controlled groups.
    """
    mat = square_entries(U, "U", finite=True)
    n = mat.shape[0]

    def times(row, factor):
        # a row of the walk's array is contiguous, so both reshapes are views;
        # numpy buffers the input that overlaps ``out``
        np.matmul(factor, row.reshape(n, -1), out=row.reshape(n, -1))

    col = np.eye(2 * n, n, dtype=complex).reshape(2, -1)
    top = _walk(angles, col, times, mat, mat.conj().T)[0].reshape(n, n)
    return AssembledBlock(top, cu_applications=angles.m, cu_dag_applications=angles.k)


def eval_angles(angles: AngleSequence, z) -> np.ndarray:
    """Top-left entry of the rotation sequence at each eigenphase z of U.

    On an eigenvector of U with eigenvalue z, every factor that
    `assemble_and_extract` multiplies acts on the pair (|0>|v>, |1>|v>) as a
    2x2 matrix, so its block is V diag(eval_angles(angles, z)) V^dag. The
    same walk carries the first column (top, bottom) of that 2x2 product,
    one pair per z: controlled-U multiplies top by z and controlled-U^dag
    multiplies bottom by conj(z).
    """
    z = matrix_entries(z, name="z", finite=True).ravel()
    col = np.zeros((2, z.size), dtype=complex)
    col[0] = 1.0
    return _walk(angles, col, operator.imul, z, z.conj())[0]


def synthesize_angles(
    P: FourierPolynomial, margin: float = MIN_MARGIN
) -> tuple[AngleSequence, CompletionPair, float]:
    """Complete and peel, rescaling P into the margin when necessary.

    Returns (angles, pair, scale): scale < 1 means the encoded polynomial is
    scale * P, a deliberate approximation error bounded by the margin.
    """
    max_abs = _grid_max(P)
    scale = 1.0
    if max_abs > _margin_limit(margin):
        scale = (1.0 - margin) / max_abs
        P = FourierPolynomial(P.coeffs * scale, P.k, P.m, P.epsilon, P.delta)
    pair = complete(P, margin=margin)
    return compute_angles(pair), pair, scale
