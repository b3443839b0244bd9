"""Pinned angle sequences: a change to completion or peeling must keep them.

``tests/reference/sign_angles.json`` holds the rotation angles that
``synthesize_angles`` produced for two sign polynomials when Q was still
found through the roots of 1 - |P|^2. Any completion that returns the same
Q (roots inside the disk, real positive leading coefficient) reproduces
them up to rounding; phases are compared modulo 2*pi.

Regenerate (only on purpose, and say why) with
``PYTHONPATH=src python tests/test_reference_angles.py``.
"""

import json
import os

import numpy as np
import pytest

from dyncool.gqsp import synthesize_angles
from dyncool.signfun import fourier_sign

REFERENCE = os.path.join(os.path.dirname(__file__), "reference", "sign_angles.json")

ANGLE_ATOL = 1e-10

# (epsilon, delta, margin)
CASES = [(0.3, 0.1, 1e-6), (0.2, 1.0 / 16.0, 1e-6)]


def sign_angles(epsilon: float, delta: float, margin: float) -> dict:
    angles, _, scale = synthesize_angles(fourier_sign(epsilon, delta), margin=margin)
    return {
        "epsilon": epsilon,
        "delta": delta,
        "margin": margin,
        "scale": scale,
        "k": angles.k,
        "m": angles.m,
        "theta": angles.theta.tolist(),
        "phi": angles.phi.tolist(),
        "lambda": angles.lam,
    }


def _phase_gap(a, b) -> float:
    """Largest distance between two phase arrays on the circle."""
    return float(np.max(np.abs(np.angle(np.exp(1j * (np.asarray(a) - np.asarray(b)))))))


def _pinned() -> list[dict]:
    with open(REFERENCE) as handle:
        return json.load(handle)


@pytest.mark.parametrize("case", range(len(CASES)))
def test_matches_pinned_angles(case):
    want = _pinned()[case]
    got = sign_angles(*CASES[case])
    assert (want["epsilon"], want["delta"], want["margin"]) == CASES[case]
    assert (got["k"], got["m"], got["scale"]) == (want["k"], want["m"], want["scale"])
    assert np.max(np.abs(np.subtract(got["theta"], want["theta"]))) <= ANGLE_ATOL
    assert _phase_gap(got["phi"], want["phi"]) <= ANGLE_ATOL
    assert _phase_gap(got["lambda"], want["lambda"]) <= ANGLE_ATOL


if __name__ == "__main__":
    with open(REFERENCE, "w") as handle:
        json.dump([sign_angles(*c) for c in CASES], handle, indent=1)
        handle.write("\n")
    print(f"wrote {REFERENCE}")
