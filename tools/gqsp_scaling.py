"""Print one JSON document of ``gqsp.assemble_and_extract`` wall times against dimension.

    python3 tools/gqsp_scaling.py [CHECKOUT]

For the sign sequences of (epsilon, delta) = (0.1, 1/32) and (0.05, 1/256),
degrees 139 and 431, multiply the rotation sequence out against a random
unitary (``cli._random_unitary``, seed 0) at d = 16, 64 and 256. Each entry
holds the best wall time (best of 3 at d <= 64, one run at d = 256) and the
isometry residual ||G^dag G - I|| (Frobenius) of the full 2d x 2d product.
The document also records numpy, BLAS, nproc and the thread setting.

CHECKOUT defaults to the checkout holding this script; its ``src`` and
``bench`` directories are imported, and nothing in them is changed. BLAS
runs on one thread, as in the benchmark. Standard library plus the
checkout's ``dyncool``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

SEQUENCES = ((0.1, 1.0 / 32.0), (0.05, 1.0 / 256.0))
DIMS = (16, 64, 256)


def repeats(dim: int) -> int:
    return 3 if dim <= 64 else 1


def scaling(checkout: Path) -> dict:
    """The environment and one entry per (sequence, dimension) run from ``checkout``."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    from run import BLAS_THREADS, THREAD_VARS, environment

    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    import numpy as np
    from dyncool import cli, gqsp
    from dyncool.signfun import fourier_sign

    runs = []
    for epsilon, delta in SEQUENCES:
        angles, _, _ = gqsp.synthesize_angles(fourier_sign(epsilon, delta), margin=1e-6)
        for dim in DIMS:
            U = cli._random_unitary(np.random.default_rng(0), dim)
            times = []
            for _ in range(repeats(dim)):
                start = time.perf_counter()
                res = gqsp.assemble_and_extract(angles, U)
                times.append(time.perf_counter() - start)
            G = res.unitary
            residual = np.linalg.norm(G.conj().T @ G - np.eye(2 * dim))
            runs.append({
                "epsilon": epsilon, "delta": delta, "degree": angles.k, "dim": dim,
                "runs": len(times), "best_s": round(min(times), 4),
                "isometry_residual": float(f"{residual:.3g}"),
            })
    env = environment()
    return {"environment": {key: env[key] for key in
                            ("numpy", "blas", "blas_threads", "thread_env", "nproc", "cpu",
                             "git_commit")},
            "runs": runs}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args()
    print(json.dumps(scaling(args.checkout.resolve()), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
