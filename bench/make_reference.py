"""Regenerate bench/reference.json, the pinned outputs every job is checked
against, for all input sets of every workload.

    PYTHONPATH=src python3 bench/make_reference.py

Run it only on a commit whose outputs are trusted: the reference is what
later commits are held to, not a rerun of themselves.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

from run import BLAS_THREADS, THREAD_VARS

# The same BLAS set-up as the runs that check against the reference; set
# before numpy is first imported, here and in the spawned pool workers.
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import workloads  # noqa: E402  (imports numpy)

HERE = Path(__file__).resolve().parent
WORK = HERE.parent / ".bench_work"


def cooling_entries(name: str) -> dict:
    """{input set: {mode: reference entry}} for one cooling workload."""
    out = {}
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for seed in range(workloads.INPUT_SETS):
            wl = workloads.make(name, seed, tmp)
            wl.setup()
            out[str(seed)] = {
                mode: workloads.reference_entry(wl.trajectories(mode)[0])
                for mode in wl.spec.modes
            }
    return out


def certify_entry() -> dict:
    from dyncool import cli

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        path = os.path.join(tmp, "report.json")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["certify", "--out", path])
        with open(path) as handle:
            report = json.load(handle)
    if code != 0 or not report["passed"]:
        raise SystemExit("certify does not pass at this commit; refusing to pin it")
    return {"check_names": [c["name"] for c in report["checks"]]}


def main() -> int:
    names = list(workloads.SPECS)
    workers = min(len(names), len(os.sched_getaffinity(0)))
    with ProcessPoolExecutor(workers, mp_context=get_context("spawn")) as pool:
        entries = dict(zip(names, pool.map(cooling_entries, names)))
    reference = {
        "input_sets": workloads.INPUT_SETS,
        "float_atol": workloads.FLOAT_ATOL,
        "certify_grid": certify_entry(),
        **entries,
    }
    with open(HERE / "reference.json", "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
