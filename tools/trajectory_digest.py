"""Print one sha256 over every trajectory and CSV text of the benchmark's inputs.

    python3 tools/trajectory_digest.py [CHECKOUT]

For each of the 100 input sets of the ``trials_d16`` and ``circuit_d16``
workloads in ``bench/workloads.py``, run one job's trajectories in the
workload's own mode and in ``exact_reflection`` (400 jobs), and hash the
``repr`` of every ``Trajectory`` and the CSV text of every job, in that
order. Two checkouts whose digests are equal produce bit-identical outputs
on all of them, so a refactor that keeps the arithmetic can be checked
against its parent commit instead of against a rerun of itself.

CHECKOUT defaults to the checkout holding this script; its ``src`` and
``bench`` directories are imported, and nothing in them is changed. BLAS
runs on one thread, as in the benchmark. Standard library plus the
checkout's ``dyncool``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys
from pathlib import Path

WORKLOADS = ("trials_d16", "circuit_d16")
EXTRA_MODE = "exact_reflection"


def digest(checkout: Path) -> tuple[str, int]:
    """The sha256 hex digest over all jobs run from ``checkout``, and the job count."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    from run import BLAS_THREADS, THREAD_VARS

    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    import workloads
    from dyncool import serialization

    sha, jobs = hashlib.sha256(), 0
    for name in WORKLOADS:
        base = workloads.SPECS[name]
        spec = dataclasses.replace(base, modes=(*base.modes, EXTRA_MODE))
        for seed in range(workloads.INPUT_SETS):
            wl = workloads.CoolingWorkload(spec, seed, workdir=None)
            wl.setup()
            for mode in spec.modes:
                trajectories, _ = wl.trajectories(mode)
                for traj in trajectories:
                    sha.update(repr(traj).encode())
                text = serialization.trajectory_csv_text(trajectories, wl.configs[mode])
                sha.update(text.encode())
                jobs += 1
    return sha.hexdigest(), jobs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args()
    hexdigest, jobs = digest(args.checkout.resolve())
    print(f"{hexdigest}  {jobs} jobs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
