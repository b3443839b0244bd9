"""Record what ``cooling.run`` and the block-encoding certificate cost at growing dimension.

    python3 tools/scaling_record.py --out SCALING_27.json --baseline ../parent

Runs, per dimension d = 16, 256 and 1024: H from ``cli.generate_hamiltonian``
(type random) and A from ``cli.generate_perturbation`` (type gue), both from
``default_rng(0)``, and the config epsilon = 0.2, 16 steps. The record holds
the cold context build (``cooling._MEMO.context`` on an empty memo, with the
sign polynomial already synthesized), the build of every bin's step
(``_Context.step``, in bin order), the warm memo hit (median and best of
``REPEATS`` lookups of the same H and A once every bin is built), the median
warm ``run`` call over ``REPEATS`` trajectories, and the peak RSS of the
process after that dimension.

Beside each wall time stands a software count of the work it does, which
does not vary with the host's load: ``*_work`` counts d^3 multiply-adds per
dense d x d step (an ``eig``: one for the context's eig of H, one per bin
build, one per bin a cold run builds, and one n^3 product per controlled
step of an assembly, k + m of them), and ``memo_hit_words`` the float64
words a memo hit compares (2 d^2 per complex d x d matrix, for H and A). Two
sides whose counts agree did the same work, so a difference in their times
is the host's.

Cold runs, at d = 1024 with the same H and A, for (epsilon, steps) = (0.2, 16)
and (0.05, 64): one ``cooling.run`` on an empty memo (sign polynomial already
synthesized), its wall time, and how many of the context's bins, and of the
eigenbasis columns they span, that trajectory built.

Circuits, for the sign sequences of (epsilon, delta) = (0.1, 1/32) and
(0.05, 1/256), degrees 139 and 431, at d = 16, 64 and 256, against
``cli._random_unitary`` from ``default_rng(0)``: the time of
``gqsp.assemble_and_extract``, the time of the reference P(U)
(``cli._polynomial_at``) on its own, the time of the whole certificate
``cli._block_residual`` (assembly plus reference), the residual's value,
and the isometry residual ||C^dag C - I_d|| (Frobenius) of the circuit's
first block column C (2d x d), walked by this script through ``gqsp._walk``.
Circuit times are the best of 3 at every dimension.

The environment block holds numpy, BLAS, nproc and the thread setting. Each
side runs in a fresh process that imports ``src`` and ``bench`` of its
checkout and changes nothing in them, with BLAS on one thread, as in the
benchmark. The change is this script's checkout; ``--baseline`` names
another checkout (usually the parent commit), recorded first in the same
session, and adds ``memo_hit_speedup``, the ratio of the two sides' best
memo hits per dimension. A side takes one to two minutes on a 2-CPU host.
Standard library plus each checkout's ``dyncool``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIMS = (16, 256, 1024)
EPSILON, STEPS = 0.2, 16
REPEATS = 20
SEQUENCES = ((0.1, 1.0 / 32.0), (0.05, 1.0 / 256.0))
CIRCUIT_DIMS = (16, 64, 256)
COLD_DIM = 1024
COLD_CONFIGS = ((0.2, 16), (0.05, 64))


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def best(fn):
    """(best wall time, last result) of three calls of ``fn()``."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return min(times), result


def column_isometry(angles, U) -> float:
    """||C^dag C - I|| (Frobenius) of the first block column C of the circuit,
    walked from (I, 0) by ``gqsp._walk``, one n x n product per step."""
    import numpy as np
    from dyncool import gqsp

    n = U.shape[0]

    def times(row, factor):
        np.matmul(factor, row.reshape(n, n), out=row.reshape(n, n))

    col = np.eye(2 * n, n, dtype=complex).reshape(2, -1)
    C = gqsp._walk(angles, col, times, U, U.conj().T).reshape(2 * n, n)
    return float(np.linalg.norm(C.conj().T @ C - np.eye(n)))


def circuits() -> list:
    """One entry per (sign sequence, dimension): assembly, certificate and residuals.
    Called from ``side``, which sets the import path and the BLAS threads."""
    import numpy as np
    from dyncool import cli, gqsp
    from dyncool.signfun import fourier_sign

    rows = []
    for epsilon, delta in SEQUENCES:
        P = fourier_sign(epsilon, delta)
        angles, _, scale = gqsp.synthesize_angles(P, margin=1e-6)
        for dim in CIRCUIT_DIMS:
            U = cli._random_unitary(np.random.default_rng(0), dim)
            assemble_s, _ = best(lambda: gqsp.assemble_and_extract(angles, U))
            reference_s, _ = best(lambda: cli._polynomial_at(P, U))
            certificate_s, residual = best(lambda: cli._block_residual(angles, scale, P, U))
            isometry = column_isometry(angles, U)
            rows.append({
                "epsilon": epsilon, "delta": delta, "degree": angles.k, "dim": dim,
                "assemble_s": round(assemble_s, 4),
                "assemble_work": (angles.k + angles.m) * dim**3,
                "reference_s": round(reference_s, 4),
                "certificate_s": round(certificate_s, 4),
                "block_residual": float(f"{residual:.3g}"),
                "column_isometry_residual": float(f"{isometry:.3g}"),
            })
    return rows


def cold_runs() -> list:
    """One entry per (epsilon, steps) in ``COLD_CONFIGS``: what one cold
    ``cooling.run`` at d = ``COLD_DIM`` builds. Called from ``side``."""
    import numpy as np
    from dyncool import cli, cooling

    rng = np.random.default_rng(0)
    H = cli.generate_hamiltonian({"type": "random", "dim": COLD_DIM}, rng)
    A = cli.generate_perturbation({"type": "gue"}, COLD_DIM, rng)
    rows = []
    for epsilon, steps in COLD_CONFIGS:
        config = cooling.CoolingConfig(epsilon=epsilon, steps=steps)
        cooling._sign_cached(config.epsilon, config.delta)
        cooling._MEMO.contexts.clear()
        run_s = timed(lambda: cooling.run(H, A, config, np.random.default_rng((1, 0))))
        ctx = cooling._MEMO.context(H, A, config)
        built = [ctx.bins.slices[b] for b, kick in enumerate(ctx.kicks) if kick is not None]
        rows.append({
            "dim": COLD_DIM, "epsilon": epsilon, "steps": steps, "bins": ctx.nbins,
            "bins_built": len(built), "columns_built": sum(stop - start for start, stop in built),
            "run_s": round(run_s, 3), "run_work": (1 + len(built)) * COLD_DIM**3,
        })
    cooling._MEMO.contexts.clear()
    return rows


def side(checkout: Path) -> dict:
    """The environment, one entry per run dimension and the circuit entries,
    measured in this process."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    from run import BLAS_THREADS, THREAD_VARS, environment

    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    import numpy as np
    from dyncool import cli, cooling

    runs = []
    for dim in DIMS:
        rng = np.random.default_rng(0)
        H = cli.generate_hamiltonian({"type": "random", "dim": dim}, rng)
        A = cli.generate_perturbation({"type": "gue"}, dim, rng)
        config = cooling.CoolingConfig(epsilon=EPSILON, steps=STEPS)
        cooling._sign_cached(config.epsilon, config.delta)
        cooling._MEMO.contexts.clear()
        start = time.perf_counter()
        ctx = cooling._MEMO.context(H, A, config)
        context_s = time.perf_counter() - start
        step_s = []
        for b in range(ctx.nbins):
            start = time.perf_counter()
            ctx.kicks[b] = ctx.step(b)
            step_s.append(round(time.perf_counter() - start, 4))
        hits = [timed(lambda: cooling._MEMO.context(H, A, config)) for _ in range(REPEATS)]
        calls = [timed(lambda: cooling.run(H, A, config, np.random.default_rng((1, t))))
                 for t in range(REPEATS)]
        runs.append({
            "dim": dim, "epsilon": EPSILON, "steps": STEPS, "bins": ctx.nbins,
            "context_s": round(context_s, 4), "context_work": dim**3, "step_s": step_s,
            "steps_total_s": round(sum(step_s), 3), "steps_total_work": ctx.nbins * dim**3,
            "memo_hit_median_s": float(f"{statistics.median(hits):.3g}"),
            "memo_hit_best_s": float(f"{min(hits):.3g}"), "memo_hit_words": 4 * dim * dim,
            "run_median_s": float(f"{statistics.median(calls):.3g}"),
            "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        })
    env = environment()
    return {"environment": {key: env[key] for key in
                            ("numpy", "blas", "blas_threads", "thread_env", "nproc", "cpu",
                             "git_commit")},
            "runs": runs, "cold_runs": cold_runs(), "circuits": circuits()}


def record(checkout: Path) -> dict:
    """``side(checkout)`` from a fresh process, so its peak RSS is its own."""
    proc = subprocess.run([sys.executable, __file__, "--side", str(checkout)],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="write the record here, not to stdout")
    parser.add_argument("--baseline", type=Path, help="another checkout, recorded first")
    parser.add_argument("--side", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.side is not None:
        print(json.dumps(side(args.side.resolve())))
        return 0
    doc = {"format_version": 1}
    if args.baseline is not None:
        doc["baseline"] = record(args.baseline.resolve())
    doc["change"] = record(ROOT)
    if args.baseline is not None:
        doc["memo_hit_speedup"] = {
            str(old["dim"]): round(old["memo_hit_best_s"] / new["memo_hit_best_s"], 2)
            for old, new in zip(doc["baseline"]["runs"], doc["change"]["runs"])
        }
    text = json.dumps(doc, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
