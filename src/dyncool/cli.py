"""Command-line front end: run, certify, gqsp, signpoly.

Determinism contract: everything random is drawn from named substreams of
the user's seed (setup from default_rng(seed), trial t from
default_rng((seed, t))), and output files contain no timestamps, so a rerun
with the same config and seed is byte-identical.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import operators
from .cooling import CoolingConfig, StoppingRule, run_experiment
from .dyson import effective_error, leakage, sample_gue
from .errors import (
    CertificationError,
    DyncoolError,
    ValidationError,
)
from .gqsp import assemble_and_extract, synthesize_angles
from .operators import (
    MIN_MARGIN,
    HermitianOperator,
    Projector,
    _bound,
    check_dim,
    check_norm,
    hermitian_norm,
    matrix_entries,
    spectral_norm,
)
from .signfun import eval_fourier, fourier_sign
from .serialization import (
    certification_document,
    certification_report,
    config_hash,
    gqsp_angles_document,
    matrix_from_document,
    polynomial_from_document,
    read_json,
    run_record,
    to_json,
    trajectory_csv_text,
    write_json,
    write_text_atomic,
)

__all__ = [
    "main",
    "generate_hamiltonian",
    "generate_perturbation",
]

_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])

# the spectral-norm distance allowed between a multiplied-out circuit block and
# P(U), in `dyncool gqsp` and in `dyncool certify`
_BLOCK_TOL = 1e-7


def _require(doc: dict, key: str):
    if not isinstance(doc, dict):
        raise ValidationError(f"expected a JSON object with {key!r}, got {type(doc).__name__}")
    if key not in doc:
        raise ValidationError(f"config is missing required key {key!r}")
    return doc[key]


def _number(doc: dict, key: str, default=None) -> float:
    """doc[key] as a float, never a bool or a string; the key is required when default is None."""
    value = _require(doc, key) if default is None else doc.get(key, default)
    return operators._number(value, f"config key {key!r}")


def _integer(doc: dict, key: str, default=None) -> int:
    """doc[key] as an int: an integral float becomes its int, then
    ``operators.check_integer`` applies."""
    value = _require(doc, key) if default is None else doc.get(key, default)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return operators.check_integer(value, f"config key {key!r}")


def _matrix_file(source: dict) -> np.ndarray:
    """The matrix document at a file source's ``path``, which must be a string
    that names a file (an integer would open a file descriptor)."""
    path = _require(source, "path")
    if not isinstance(path, str) or "\0" in path:
        raise ValidationError(f"config key 'path' must be a file name, got {path!r}")
    return matrix_from_document(read_json(path))


def _site_product(ops: dict, sites: int) -> np.ndarray:
    out = np.eye(1)
    for i in range(sites):
        out = np.kron(out, ops.get(i, np.eye(2)))
    return out


def _tfim_matrix(sites: int, coupling: float, field: float) -> np.ndarray:
    """-J sum Z_i Z_{i+1} - h sum X_i on an open chain."""
    operators.check_integer(sites, "chain sites", 2)
    operators.check_register(1, sites, "hamiltonian")
    dim = 2**sites
    H = np.zeros((dim, dim))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused by the caller
        for i in range(sites - 1):
            H -= coupling * _site_product({i: _PAULI_Z, i + 1: _PAULI_Z}, sites)
        for i in range(sites):
            H -= field * _site_product({i: _PAULI_X}, sites)
    return H


def generate_hamiltonian(source: dict, rng: np.random.Generator) -> np.ndarray:
    """Build the system Hamiltonian from its config block.

    random:  Gaussian Hermitian draw rescaled to spectral norm 1.
    tfim:    transverse-field Ising chain, rescaled only if its norm
             exceeds 1 (weak couplings keep their physical scale).
    file:    matrix document from disk, rejected unless already
             subnormalized.
    """
    kind = _require(source, "type")
    if kind == "random":
        mat = sample_gue(rng, _integer(source, "dim"))  # sample_gue checks the dimension
        return mat / hermitian_norm(mat)
    if kind == "tfim":
        H = _tfim_matrix(
            _integer(source, "sites"),
            _number(source, "coupling", 1.0),
            _number(source, "field", 1.0),
        )
        # entries past float64 would stop eigvalsh, and a norm past it rescale H to zero
        norm = hermitian_norm(H) if np.isfinite(H).all() else np.inf
        _bound("spectral norm of the chain", norm, np.finfo(float).max)
        return H / max(1.0, norm)
    if kind == "file":
        mat = _matrix_file(source)
        check_norm(hermitian_norm(HermitianOperator(mat).entries), "hamiltonian file")
        return mat
    raise ValidationError(f"unknown hamiltonian type {kind!r}")


def generate_perturbation(source: dict, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Build the coupling operator; norms above 1 are scaled back to 1.

    gue:   Gaussian Hermitian draw.
    file:  matrix document from disk, rejected unless Hermitian and of the
           Hamiltonian's dimension.
    zero:  no coupling.

    ``dim`` must be a dimension ``check_dim`` accepts.
    """
    check_dim(dim, "perturbation")
    kind = _require(source, "type")
    if kind == "gue":
        mat = sample_gue(rng, dim)
    elif kind == "file":
        mat = matrix_entries(_matrix_file(source), name="perturbation", shape=(dim, dim))
        mat = HermitianOperator(mat).entries
    elif kind == "zero":
        return np.zeros((dim, dim))
    else:
        raise ValidationError(f"unknown perturbation type {kind!r}")
    return mat / max(1.0, hermitian_norm(mat))


def _parse_run_config(doc: dict):
    """The run's ``CoolingConfig``, given only the keys ``doc`` holds, and its
    ``StoppingRule``, if any; a null ``delta`` or ``target_estimate`` is absent."""
    given = {"epsilon": _number(doc, "epsilon"), "steps": _integer(doc, "steps")}
    if doc.get("delta") is not None:
        given["delta"] = _number(doc, "delta")
    if "mode" in doc:
        given["mode"] = doc["mode"]
    if "margin" in doc:
        given["margin"] = _number(doc, "margin")
    config = CoolingConfig(**given)
    target = doc.get("target_estimate")
    return config, None if target is None else StoppingRule(_number(doc, "target_estimate"))


def cmd_run(args) -> int:
    doc = read_json(args.config)
    config, stopping = _parse_run_config(doc)  # first, as it also checks doc is an object
    seed = args.seed if args.seed is not None else _integer(doc, "seed", 0)
    trials = args.trials if args.trials is not None else _integer(doc, "trials", 1)

    setup_rng = np.random.default_rng(operators.check_integer(seed, "seed", 0))
    H = generate_hamiltonian(_require(doc, "hamiltonian"), setup_rng)
    A = generate_perturbation(
        doc.get("perturbation", {"type": "zero"}), H.shape[0], setup_rng
    )
    trajectories = run_experiment(H, A, config, seed, trials, stopping)

    source = {k: doc[k] for k in sorted(doc)}
    source["seed"] = seed
    source["trials"] = trials
    if args.format == "csv":
        text = trajectory_csv_text(trajectories, config)
    else:
        text = to_json(run_record(config, seed, H, A, trajectories, source)) + "\n"

    if args.out is None:
        sys.stdout.write(text)
    else:
        write_text_atomic(args.out, text)

    success = np.mean([t.success for t in trajectories])
    overlap = np.mean([t.final_ground_overlap for t in trajectories])
    estimate = np.mean([t.final_energy_estimate for t in trajectories])
    print(
        f"run: trials={trials} steps={config.steps} mode={config.mode} "
        f"success={success:.4f} final_overlap={overlap:.4f} "
        f"final_estimate={estimate:.4f} "
        f"config_hash={config_hash(config, seed, trials, source)[:12]}",
        file=sys.stderr if args.out is None else sys.stdout,
    )
    return 0


def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _polynomial_at(P, U: np.ndarray) -> np.ndarray:
    """P(U) = W diag(P(w)) W^-1 from the eigendecomposition U W = W diag(w),
    with P evaluated by Horner at each eigenphase (``eval_fourier``), which
    shares no code with the circuit walk it checks."""
    w, W = np.linalg.eig(U)
    # X W = W diag(p), solved for X without forming W^-1
    return np.linalg.solve(W.T, (W * eval_fourier(P, np.angle(w))).T).T


def _block_residual(angles, scale: float, P, U: np.ndarray) -> float:
    """Spectral norm of the circuit's block at U minus ``scale`` times P(U)."""
    block = assemble_and_extract(angles, U).block
    return spectral_norm(block - scale * _polynomial_at(P, U))


def _round_trip(P, margin: float, rng: np.random.Generator, dim: int):
    """(angles, pair, scale, residual): P's angles synthesized at ``margin`` and
    their ``_block_residual`` at a random unitary of dimension ``dim``."""
    angles, pair, scale = synthesize_angles(P, margin=margin)
    return angles, pair, scale, _block_residual(angles, scale, P, _random_unitary(rng, dim))


def cmd_signpoly(args) -> int:
    S = fourier_sign(args.epsilon, args.delta)
    print(
        f"signpoly: epsilon={args.epsilon} delta={args.delta} degree={S.degree} "
        f"max_abs={S.max_abs:.9f} band_error={S.band_error:.3e}"
    )
    if args.out is not None:
        write_json(args.out, certification_document(S))
        print(f"wrote {args.out}")
    return 0


def cmd_gqsp(args) -> int:
    check_dim(args.check_dim, "check")
    rng = np.random.default_rng(operators.check_integer(args.seed, "seed", 0))
    if args.poly is not None:
        doc = read_json(args.poly)
        # accept a bare polynomial document or one nested in a certification
        if isinstance(doc, dict):
            doc = doc.get("polynomial", doc)
        P = polynomial_from_document(doc)
    elif args.epsilon is not None and args.delta is not None:
        P = fourier_sign(args.epsilon, args.delta)
    else:
        raise ValidationError("gqsp needs either --poly or both --epsilon and --delta")

    angles, pair, scale, residual = _round_trip(P, args.margin, rng, args.check_dim)
    print(
        f"gqsp: k={angles.k} m={angles.m} scale={scale:.12f} "
        f"peel_residual={angles.peel_residual:.3e} "
        f"completion_residual={pair.identity_residual:.3e} "
        f"block_residual={residual:.3e} (dim {args.check_dim}) "
        f"queries: U={angles.m} U_dag={angles.k}"
    )
    _bound("block residual", residual, _BLOCK_TOL, CertificationError)
    if args.out is not None:
        write_json(args.out, gqsp_angles_document(P, angles, args.margin, scale))
        print(f"wrote {args.out}")
    return 0


def _certify_checks(epsilons, deltas, seed):
    """Yield (name, passed, detail) for every certification target."""
    rng = np.random.default_rng(operators.check_integer(seed, "seed", 0))
    polys = []
    for eps in epsilons:
        for delta in deltas:
            name = f"sign epsilon={eps} delta={delta}"
            try:
                S = fourier_sign(eps, delta)
                polys.append(S)
                yield name, True, (
                    f"degree={S.degree} max_abs={S.max_abs:.9f} "
                    f"band_error={S.band_error:.3e}"
                )
            except DyncoolError as exc:
                yield name, False, str(exc)

    for S in polys:
        name = f"gqsp round trip epsilon={S.epsilon} delta={S.delta}"
        try:
            residual = _round_trip(S, MIN_MARGIN, rng, 4)[3]
            _bound("block residual", residual, _BLOCK_TOL, CertificationError)
            yield name, True, f"block_residual={residual:.3e}"
        except DyncoolError as exc:
            yield name, False, str(exc)

    for dim in (4, 8):
        for delta in (0.25, 0.04):
            basis = _random_unitary(rng, dim)[:, : dim // 2]
            P = Projector(basis @ basis.conj().T)
            A = generate_perturbation({"type": "gue"}, dim, rng)
            for label, measure in (("leakage", leakage), ("effective evolution", effective_error)):
                name = f"two-sector {label} dim={dim} delta={delta}"
                try:
                    value = measure(A, P, delta)
                    _bound(f"two-sector {label}", value, delta, CertificationError)
                    yield name, True, f"{value:.3e} <= {delta}"
                except DyncoolError as exc:
                    yield name, False, str(exc)


def cmd_certify(args) -> int:
    checks = []
    for name, passed, detail in _certify_checks(args.epsilon, args.delta, args.seed):
        print(f"[{'ok' if passed else 'FAIL'}] {name}: {detail}")
        checks.append((name, passed, detail))
    n_pass = sum(passed for _, passed, _ in checks)
    print(f"certification: {n_pass}/{len(checks)} passed")
    if args.out is not None:
        write_json(args.out, certification_report(args.seed, checks))
        print(f"wrote {args.out}")
    return 0 if n_pass == len(checks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyncool",
        description="Simulate and certify dissipative ground-state cooling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="simulate cooling trajectories from a config file")
    p.add_argument("--config", required=True, help="JSON experiment description")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--trials", type=int, default=None, help="override trial count")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "structured"), default="csv")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("certify", help="run the certification suite")
    p.add_argument("--epsilon", type=float, nargs="*", default=[0.3, 0.1])
    p.add_argument("--delta", type=float, nargs="*", default=[0.1, 0.01])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write a JSON report here")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("gqsp", help="synthesize rotation angles for a polynomial")
    p.add_argument("--poly", default=None, help="polynomial document (JSON)")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--margin", type=float, default=MIN_MARGIN)
    p.add_argument("--check-dim", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the angle document here")
    p.set_defaults(func=cmd_gqsp)

    p = sub.add_parser("signpoly", help="build and certify a sign polynomial")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--out", default=None, help="write the certification here")
    p.set_defaults(func=cmd_signpoly)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CertificationError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return 1
    except (DyncoolError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
