"""The benchmark's workloads: inputs built from a seed, one job, its check.

A job is one user-level command run in-process through public functions:
either a set of cooling trajectories followed by serialization and an
atomic write, or one ``dyncool certify`` pass. Every job of a run repeats
the same inputs, so every job's output can be checked against the pinned
reference in ``reference.json``.

Functions are looked up on their modules at call time (``cooling.run``, not
a name bound at import), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from dyncool import cli, cooling, serialization

# The pinned reference covers this many input sets; --seed n uses set n % INPUT_SETS.
INPUT_SETS = 100

# Absolute tolerance on the float summaries (sums over every step of a job).
# The three step modes agree per value to ~1e-12, and the sums add at most
# 800 values of magnitude <= 1, so a reordering of the same arithmetic stays
# below 1e-9; a wrong kick, cutoff or projection moves them by >= 1e-4.
FLOAT_ATOL = 1e-8


@dataclass(frozen=True)
class Spec:
    name: str
    hamiltonian: dict
    epsilon: float
    steps: int
    modes: tuple
    trials: int
    fmt: str  # "csv" or "structured"


SPECS = {
    "trials_d16": Spec(
        "trials_d16", {"type": "random", "dim": 16}, 0.1, 32,
        ("exact_spectral",), 25, "csv",
    ),
    "dense_tfim256": Spec(
        "dense_tfim256", {"type": "tfim", "sites": 8, "coupling": 1.0, "field": 0.7},
        0.2, 8, ("exact_spectral", "exact_reflection"), 2, "structured",
    ),
    "circuit_d16": Spec(
        "circuit_d16", {"type": "random", "dim": 16}, 0.2, 16,
        ("gqsp_circuit",), 4, "csv",
    ),
}


@dataclass
class JobOutput:
    mode: str
    trajectory_s: list  # wall time of each run(...) call; one entry per certify pass
    trajectories: list
    path: str
    returncode: int = 0


def exact_digest(trajectories) -> str:
    """sha256 of what the trajectories decide discretely: bins, leak events,
    query counts and success."""
    fields = [
        {
            "bins": [int(s.bin_index) for s in t.steps] + [int(t.final_bin)],
            "leaks": [bool(s.leak_event) for s in t.steps],
            "queries_eiH": [int(s.queries_eiH) for s in t.steps],
            "queries_UA": [int(s.queries_UA) for s in t.steps],
            "success": bool(t.success),
        }
        for t in trajectories
    ]
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()


FLOAT_SUMMARY = (
    "initial_energy",
    "final_true_energy",
    "final_ground_overlap",
    "sum_true_energy",
    "sum_ground_overlap",
    "sum_leakage_weight",
)


def float_summary(trajectories) -> list:
    return [
        math.fsum(t.initial_energy for t in trajectories),
        math.fsum(t.final_true_energy for t in trajectories),
        math.fsum(t.final_ground_overlap for t in trajectories),
        math.fsum(s.true_energy for t in trajectories for s in t.steps),
        math.fsum(s.ground_overlap for t in trajectories for s in t.steps),
        math.fsum(s.leakage_weight for t in trajectories for s in t.steps),
    ]


def reference_entry(trajectories) -> dict:
    return {
        "exact_sha256": exact_digest(trajectories),
        "floats": float_summary(trajectories),
    }


class CoolingWorkload:
    """Trajectories on substreams default_rng((seed, t)), then one output file."""

    def __init__(self, spec: Spec, seed: int, workdir: str, reference=None):
        self.spec = spec
        self.name = spec.name
        self.seed = seed % INPUT_SETS
        self.workdir = workdir
        self.reference = reference
        self.cycle = len(spec.modes)
        self._file_digest = {}

    def setup(self):
        """Build H and A as ``dyncool run`` does, then warm up one trajectory
        per mode, which fills the package's sign and angle caches."""
        rng = np.random.default_rng(self.seed)
        self.H = cli.generate_hamiltonian(self.spec.hamiltonian, rng)
        self.A = cli.generate_perturbation({"type": "gue"}, self.H.shape[0], rng)
        self.configs = {
            mode: cooling.CoolingConfig(
                epsilon=self.spec.epsilon, steps=self.spec.steps, mode=mode
            )
            for mode in self.spec.modes
        }
        for mode in self.spec.modes:
            cooling.run(self.H, self.A, self.configs[mode], np.random.default_rng((self.seed, 0)))

    def trajectories(self, mode):
        """Every trajectory of one job, with the wall time of each run(...)."""
        config = self.configs[mode]
        trajectories, times = [], []
        for t in range(self.spec.trials):
            start = perf_counter()
            trajectories.append(
                cooling.run(self.H, self.A, config, np.random.default_rng((self.seed, t)))
            )
            times.append(perf_counter() - start)
        return trajectories, times

    def source(self, mode) -> dict:
        return {
            "epsilon": self.spec.epsilon,
            "hamiltonian": self.spec.hamiltonian,
            "mode": mode,
            "perturbation": {"type": "gue"},
            "seed": self.seed,
            "steps": self.spec.steps,
            "trials": self.spec.trials,
        }

    def job(self, index: int) -> JobOutput:
        mode = self.spec.modes[index % self.cycle]
        config = self.configs[mode]
        trajectories, times = self.trajectories(mode)
        if self.spec.fmt == "csv":
            text = serialization.trajectory_csv_text(trajectories, config)
            path = os.path.join(self.workdir, f"{self.name}-{mode}.csv")
        else:
            record = serialization.run_record(
                config, self.seed, self.H, self.A, trajectories, self.source(mode)
            )
            text = serialization.to_json(record) + "\n"
            path = os.path.join(self.workdir, f"{self.name}-{mode}.json")
        serialization.write_text_atomic(path, text)
        return JobOutput(mode, times, trajectories, path)

    def check(self, out: JobOutput) -> list:
        """Problems found in one job's output; empty when it is correct."""
        problems = []
        ref = self.reference[self.name][str(self.seed)][out.mode]
        if exact_digest(out.trajectories) != ref["exact_sha256"]:
            problems.append("bins, leak events, query counts or success differ from the reference")
        got = float_summary(out.trajectories)
        for label, a, b in zip(FLOAT_SUMMARY, got, ref["floats"]):
            if not abs(a - b) <= FLOAT_ATOL:
                problems.append(f"{label} = {a!r}, reference {b!r}")
        with open(out.path, "rb") as handle:
            data = handle.read()
        digest = hashlib.sha256(data).hexdigest()
        if self._file_digest.get(out.mode) == digest:
            return problems  # byte-identical to a file already checked field by field
        if self.spec.fmt == "csv":
            problems += _check_csv(data.decode(), out.trajectories)
        else:
            problems += _check_record(json.loads(data), self.H, self.A, out.trajectories)
        if not problems:
            self._file_digest[out.mode] = digest
        return problems


def _check_csv(text, trajectories) -> list:
    rows = [line.split(",") for line in text.splitlines()[2:]]
    expected = [
        (trial, s, traj.success)
        for trial, traj in enumerate(trajectories)
        for s in traj.steps
    ]
    if len(rows) != len(expected):
        return [f"CSV has {len(rows)} rows, expected {len(expected)}"]
    for row, (trial, s, success) in zip(rows, expected):
        want = (
            trial, s.step, s.energy_estimate, s.true_energy, s.ground_overlap,
            s.leakage_weight, s.queries_eiH, s.queries_UA, int(success),
        )
        if len(row) != len(want) or any(float(a) != b for a, b in zip(row, want)):
            return [f"CSV row for trial {trial} step {s.step} does not match the trajectory"]
    return []


def _check_record(doc, H, A, trajectories) -> list:
    problems = []
    for key, mat in (("hamiltonian", H), ("perturbation", A)):
        pairs = np.asarray(doc[key]["entries"], dtype=np.float64)
        if not (
            np.array_equal(pairs[:, 0], mat.real.ravel())
            and np.array_equal(pairs[:, 1], mat.imag.ravel())
        ):
            problems.append(f"record {key} differs from the input matrix")
    fields = ("energy_estimate", "true_energy", "ground_overlap", "leakage_weight",
              "bin_index", "queries_eiH", "queries_UA", "leak_event")
    docs = doc["trajectories"]
    if len(docs) != len(trajectories):
        return problems + [f"record has {len(docs)} trajectories, expected {len(trajectories)}"]
    for t, (d, traj) in enumerate(zip(docs, trajectories)):
        steps_ok = len(d["steps"]) == len(traj.steps) and all(
            ds[f] == getattr(s, f) for ds, s in zip(d["steps"], traj.steps) for f in fields
        )
        final_ok = (
            d["final_bin"] == traj.final_bin
            and d["final_true_energy"] == traj.final_true_energy
            and d["success"] == traj.success
        )
        if not (steps_ok and final_ok):
            problems.append(f"record trajectory {t} does not match the run")
    return problems


class CertifyWorkload:
    """One ``dyncool certify`` pass over the default grid per job."""

    cycle = 1

    def __init__(self, seed: int, workdir: str, reference=None):
        self.name = "certify_grid"
        self.seed = seed % INPUT_SETS
        self.workdir = workdir
        self.reference = reference

    def _certify(self, args, path):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["certify", *args, "--out", path])

    def setup(self):
        """Warm up on the smallest grid, which touches every code path once."""
        path = os.path.join(self.workdir, "certify-warmup.json")
        code = self._certify(
            ["--epsilon", "0.3", "--delta", "0.1", "--seed", str(self.seed * 1000)], path
        )
        if code != 0:
            raise RuntimeError(f"certify warm-up exited with {code}")

    def job(self, index: int) -> JobOutput:
        path = os.path.join(self.workdir, "certify.json")
        start = perf_counter()
        code = self._certify(["--seed", str(self.seed * 1000 + index)], path)
        return JobOutput("certify", [perf_counter() - start], [], path, code)

    def check(self, out: JobOutput) -> list:
        if out.returncode != 0:
            return [f"certify exited with {out.returncode}"]
        with open(out.path) as handle:
            report = json.load(handle)
        names = [c["name"] for c in report["checks"]]
        problems = []
        if names != self.reference["certify_grid"]["check_names"]:
            problems.append(f"certify ran checks {names}, not the pinned ones")
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        if failed or report["passed"] is not True:
            problems.append(f"certify checks failed: {failed}")
        return problems


def make(name: str, seed: int, workdir: str, reference=None):
    if name == "certify_grid":
        return CertifyWorkload(seed, workdir, reference)
    return CoolingWorkload(SPECS[name], seed, workdir, reference)
