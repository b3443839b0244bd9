"""Print sha256 digests of the trajectories and of the CSV texts of the benchmark's inputs.

    python3 tools/trajectory_digest.py [CHECKOUT]

For each of the 100 input sets of the ``trials_d16`` and ``circuit_d16``
workloads in ``bench/workloads.py``, run one job's trajectories in the
workload's own mode and in ``exact_reflection`` (400 jobs). The first
digest hashes the ``repr`` of every ``Trajectory``, the second the CSV text
of every job, both in job order; one line prints both and the job count.
Two checkouts whose trajectory digests are equal compute bit-identical
values on all of them, so a refactor that keeps the arithmetic can be
checked against its parent commit instead of against a rerun of itself; a
change to the file format alone moves the CSV digest and leaves the first.

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


def digest(checkout: Path) -> tuple[str, str, int]:
    """The sha256 hex digests of the trajectories and of the CSV texts of all jobs run
    from ``checkout``, and the job count."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    from run import BLAS_THREADS, THREAD_VARS

    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    import workloads
    from dyncool import serialization

    trajectory_sha, csv_sha, jobs = hashlib.sha256(), hashlib.sha256(), 0
    for name in WORKLOADS:
        base = workloads.SPECS[name]
        spec = dataclasses.replace(base, modes=(*base.modes, EXTRA_MODE))
        for seed in range(workloads.INPUT_SETS):
            wl = workloads.CoolingWorkload(spec, seed, workdir=None)
            wl.setup()
            for mode in spec.modes:
                trajectories, _ = wl.trajectories(mode)
                for traj in trajectories:
                    trajectory_sha.update(repr(traj).encode())
                text = serialization.trajectory_csv_text(trajectories, wl.configs[mode])
                csv_sha.update(text.encode())
                jobs += 1
    return trajectory_sha.hexdigest(), csv_sha.hexdigest(), jobs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args()
    trajectories, csv, jobs = digest(args.checkout.resolve())
    print(f"trajectories {trajectories}  csv {csv}  {jobs} jobs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
