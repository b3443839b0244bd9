"""File formats: deterministic JSON documents and the trajectory CSV.

Floats are emitted with %.17g so every float64 survives a round trip
through the standard json parser bit-exactly, and two runs with the same
inputs produce byte-identical files. The CSV formats each distinct float
once; zeros are not shared. Writes go through a temp file in the target
directory followed by os.replace, so readers never observe a half-written
document.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from hashlib import sha256

import numpy as np

from .cooling import CoolingConfig, Trajectory
from .errors import ValidationError
from .gqsp import AngleSequence
from .operators import check_dim, check_window, matrix_entries, square_entries
from .signfun import FourierPolynomial

__all__ = [
    "FORMAT_VERSION",
    "CSV_COLUMNS",
    "to_json",
    "canonical_hash",
    "config_hash",
    "write_text_atomic",
    "write_json",
    "read_json",
    "matrix_document",
    "matrix_from_document",
    "polynomial_document",
    "polynomial_from_document",
    "angles_document",
    "angles_from_document",
    "config_document",
    "trajectory_document",
    "run_record",
    "certification_document",
    "gqsp_angles_document",
    "certification_report",
    "trajectory_csv_text",
]

FORMAT_VERSION = 1

CSV_COLUMNS = (
    "trial",
    "step",
    "energy_estimate",
    "true_energy",
    "ground_overlap",
    "leakage_weight",
    "queries_eiH",
    "queries_UA",
    "success",
)


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValidationError(f"cannot serialize non-finite value {x}")
    text = "%.17g" % x
    # keep the token a float so parsing preserves type and the sign of zero
    if "." not in text and "e" not in text:
        text += ".0"
    return text


class _Tokens(dict):
    """``_fmt_float`` tokens by value; zeros are not stored, as 0.0 == -0.0."""
    def __missing__(self, x) -> str:
        text = _fmt_float(x)
        if x:
            self[x] = text
        return text


def to_json(obj) -> str:
    """Serialize dicts/lists/scalars with %.17g floats, insertion order."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {to_json(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(to_json(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return to_json(obj.tolist())
    raise ValidationError(f"cannot serialize {type(obj).__name__}")


def canonical_hash(obj) -> str:
    """sha256 of the serialized document with sorted keys (order-insensitive)."""

    def sort_keys(x):
        if isinstance(x, dict):
            return {k: sort_keys(x[k]) for k in sorted(x)}
        if isinstance(x, (list, tuple)):
            return [sort_keys(v) for v in x]
        return x

    return sha256(to_json(sort_keys(obj)).encode()).hexdigest()


def write_text_atomic(path: str, text: str):
    """Write via a sibling temp file and rename over the target."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, doc):
    write_text_atomic(path, to_json(doc) + "\n")


def read_json(path: str):
    """The JSON document in file ``path``. Text that is not UTF-8 JSON, an
    integer too long to convert and nesting too deep to parse raise one
    ``ValidationError`` naming the file."""
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"{path} is not a readable JSON document: {exc}") from None


def _complex_pairs(values) -> list:
    return np.asarray(values, dtype=complex).ravel().view(np.float64).reshape(-1, 2).tolist()


def _pairs_to_complex(pairs, count: int, what: str) -> np.ndarray:
    """``count`` finite [re, im] pairs as complex numbers."""
    arr = matrix_entries(pairs, float, what, finite=True, shape=(count, 2))
    return arr[:, 0] + 1j * arr[:, 1]


def _json_object(doc, key: str) -> dict:
    """``doc`` if it is a JSON object, else a ``ValidationError``; ``key`` names what
    the caller reads from it. The one place that asks whether a value is an object."""
    if not isinstance(doc, dict):
        raise ValidationError(f"expected a JSON object with {key!r}, got {type(doc).__name__}")
    return doc


def matrix_document(M) -> dict:
    """Row-major [re, im] pairs with an explicit dimension."""
    arr = square_entries(M, "matrix document")
    return {"dim": int(arr.shape[0]), "entries": _complex_pairs(arr)}


def matrix_from_document(doc: dict) -> np.ndarray:
    dim = check_dim(_json_object(doc, "dim").get("dim"), "matrix document")
    flat = _pairs_to_complex(doc.get("entries"), dim * dim, "matrix entries")
    return flat.reshape(dim, dim)


def polynomial_document(S: FourierPolynomial) -> dict:
    """Coefficients ascending from power -k."""
    return {
        "epsilon": S.epsilon,
        "delta": S.delta,
        "k": int(S.k),
        "m": int(S.m),
        "degree": int(S.degree),
        "coefficients": _complex_pairs(S.coeffs),
    }


def _window(doc) -> tuple[int, int]:
    """(k, m) of a polynomial or angle document: non-negative integers."""
    check_window(_json_object(doc, "k").get("k"), doc.get("m"))
    return doc["k"], doc["m"]


def polynomial_from_document(doc: dict) -> FourierPolynomial:
    k, m = _window(doc)
    coeffs = _pairs_to_complex(doc.get("coefficients"), k + m + 1, "coefficients")
    return FourierPolynomial(coeffs, k, m, doc.get("epsilon"), doc.get("delta"))


def angles_document(angles: AngleSequence) -> dict:
    return {
        "theta": [float(x) for x in angles.theta],
        "phi": [float(x) for x in angles.phi],
        "lambda": float(angles.lam),
        "k": int(angles.k),
        "m": int(angles.m),
    }


def angles_from_document(doc: dict) -> AngleSequence:
    k, m = _window(doc)
    return AngleSequence(doc.get("theta"), doc.get("phi"), doc.get("lambda"), k=k, m=m)


def config_document(config: CoolingConfig) -> dict:
    return {
        "epsilon": float(config.epsilon),
        "steps": int(config.steps),
        "delta": float(config.delta),
        "mode": config.mode,
        "margin": float(config.margin),
    }


def trajectory_document(traj: Trajectory) -> dict:
    """The trajectory's fields in its order, with ``steps`` moved last."""
    doc = traj._asdict()
    doc["steps"] = [s._asdict() for s in doc.pop("steps")]
    return doc


def config_hash(config: CoolingConfig, seed: int, trials: int, source=None) -> str:
    """``canonical_hash`` of a run's config, seed, trial count and source document."""
    hashed = {"config": config_document(config), "seed": int(seed), "trials": int(trials)}
    if source is not None:
        hashed["source"] = source
    return canonical_hash(hashed)


def _document(kind: str, **fields) -> dict:
    """A document of ``kind``, stamped with ``FORMAT_VERSION``, then ``fields`` in order."""
    return {"format_version": FORMAT_VERSION, "kind": kind, **fields}


def run_record(config: CoolingConfig, seed: int, H, A, trajectories, source=None) -> dict:
    doc = _document(
        "run_record", seed=int(seed), trials=len(trajectories), config=config_document(config),
        hamiltonian=matrix_document(H), perturbation=matrix_document(A),
        trajectories=[trajectory_document(t) for t in trajectories],
    )
    if source is not None:
        doc["source"] = source
    doc["config_hash"] = config_hash(config, seed, len(trajectories), source)
    return doc


def certification_document(S: FourierPolynomial) -> dict:
    """Provenance of a certified sign polynomial (bounds it was checked to)."""
    doc = _document("certification", epsilon=S.epsilon, delta=S.delta, degree=int(S.degree),
                    polynomial=polynomial_document(S))
    if S.max_abs is not None:
        doc["max_abs"] = float(S.max_abs)
    if S.band_error is not None:
        doc["band_error"] = float(S.band_error)
    return doc


def gqsp_angles_document(P: FourierPolynomial, angles: AngleSequence, margin: float,
                         scale: float) -> dict:
    """Angles synthesized for ``scale`` times P at completion margin ``margin``."""
    return _document("gqsp_angles", margin=float(margin), scale=float(scale),
                     peel_residual=float(angles.peel_residual),
                     polynomial=polynomial_document(P), angles=angles_document(angles))


def certification_report(seed: int, checks) -> dict:
    """The ``(name, passed, detail)`` checks of one certification run."""
    checks = [{"name": name, "passed": passed, "detail": detail}
              for name, passed, detail in checks]
    return _document("certification_report", seed=int(seed),
                     passed=all(c["passed"] for c in checks), checks=checks)


def trajectory_csv_text(trajectories, config: CoolingConfig) -> str:
    """One row per (trial, step); success repeats the trial's flag."""
    lines = [
        f"# dyncool-trajectories v{FORMAT_VERSION} epsilon={_fmt_float(config.epsilon)}"
        f" delta={_fmt_float(config.delta)} steps={config.steps} mode={config.mode}",
        ",".join(CSV_COLUMNS),
    ]
    tokens = _Tokens()
    for trial, traj in enumerate(trajectories):
        end = f",{int(traj.success)}"
        lines += [
            f"{trial},{step},{tokens[estimate]},{tokens[energy]},"
            f"{tokens[overlap]},{tokens[leakage]},{eiH},{UA}{end}"
            for step, _, estimate, energy, overlap, leakage, eiH, UA, _ in traj.steps
        ]
    return "\n".join(lines) + "\n"
