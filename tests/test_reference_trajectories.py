"""Pinned reference trajectories: refactors of the cooling loop must keep them.

Each case is a small ``run_experiment`` on inputs built as ``dyncool run``
builds them. The CSVs under ``tests/reference/`` hold what the trajectories
decided (bins, leak events, success) and what they measured (energies,
overlaps, leakage weights). Discrete columns must match exactly, floats
within 1e-10: byte identity would hold only for one BLAS and thread setup.

Regenerate (only on purpose, and say why) with
``PYTHONPATH=src python tests/test_reference_trajectories.py``.
"""

import csv
import io
import os

import numpy as np
import pytest

from dyncool.cli import generate_hamiltonian, generate_perturbation
from dyncool.cooling import CoolingConfig, run_experiment

REFERENCE_DIR = os.path.join(os.path.dirname(__file__), "reference")

FLOAT_ATOL = 1e-10

# name -> (hamiltonian source, epsilon, steps, delta, mode, seed, trials)
CASES = {
    "random_d8_spectral": ({"type": "random", "dim": 8}, 0.2, 8, 0.8, "exact_spectral", 0, 4),
    "random_d8_circuit": ({"type": "random", "dim": 8}, 0.2, 8, 0.8, "gqsp_circuit", 0, 4),
    "random_d8_reflection": ({"type": "random", "dim": 8}, 0.2, 8, 0.8, "exact_reflection", 0, 4),
    "tfim3_spectral": (
        {"type": "tfim", "sites": 3, "coupling": 1.0, "field": 0.7},
        0.2, 6, None, "exact_spectral", 5, 3,
    ),
}

COLUMNS = (
    "trial",
    "step",
    "bin_index",
    "energy_estimate",
    "true_energy",
    "ground_overlap",
    "leakage_weight",
    "leak_event",
    "success",
)
DISCRETE = ("trial", "step", "bin_index", "leak_event", "success")
FLOATS = ("energy_estimate", "true_energy", "ground_overlap", "leakage_weight")


def trajectory_rows(name: str) -> list[dict]:
    """One row per step, plus an "initial" and a "final" row per trial."""
    source, epsilon, steps, delta, mode, seed, trials = CASES[name]
    config = CoolingConfig(epsilon=epsilon, steps=steps, delta=delta, mode=mode)
    rng = np.random.default_rng(seed)
    H = generate_hamiltonian(source, rng)
    A = generate_perturbation({"type": "gue"}, H.shape[0], rng)
    rows = []
    for trial, traj in enumerate(run_experiment(H, A, config, seed, trials)):
        blank = dict.fromkeys(COLUMNS, "")
        rows.append(
            {
                **blank,
                "trial": trial,
                "step": "initial",
                "true_energy": traj.initial_energy,
                "ground_overlap": traj.initial_ground_overlap,
                "success": int(traj.success),
            }
        )
        for s in traj.steps:
            rows.append(
                {
                    "trial": trial,
                    "step": s.step,
                    "bin_index": s.bin_index,
                    "energy_estimate": s.energy_estimate,
                    "true_energy": s.true_energy,
                    "ground_overlap": s.ground_overlap,
                    "leakage_weight": s.leakage_weight,
                    "leak_event": int(s.leak_event),
                    "success": int(traj.success),
                }
            )
        rows.append(
            {
                **blank,
                "trial": trial,
                "step": "final",
                "bin_index": traj.final_bin,
                "energy_estimate": traj.final_energy_estimate,
                "true_energy": traj.final_true_energy,
                "ground_overlap": traj.final_ground_overlap,
                "success": int(traj.success),
            }
        )
    return rows


def _csv_text(rows) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: "%.17g" % v if isinstance(v, float) else v for k, v in row.items()})
    return out.getvalue()


def _path(name: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{name}.csv")


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_pinned_reference(name):
    with open(_path(name), newline="") as handle:
        expected = list(csv.DictReader(handle))
    got = list(csv.DictReader(io.StringIO(_csv_text(trajectory_rows(name)))))
    assert len(got) == len(expected)
    for want, row in zip(expected, got):
        assert [row[k] for k in DISCRETE] == [want[k] for k in DISCRETE], want
        for k in FLOATS:
            if want[k] == "":
                assert row[k] == ""
            else:
                assert abs(float(row[k]) - float(want[k])) <= FLOAT_ATOL, (k, want)


def test_references_exercise_leaks_and_every_mode():
    leaks, modes = set(), set()
    for name in CASES:
        modes.add(CASES[name][4])
        with open(_path(name), newline="") as handle:
            leaks |= {row["leak_event"] for row in csv.DictReader(handle)}
    assert modes == {"exact_spectral", "gqsp_circuit", "exact_reflection"}
    assert {"0", "1"} <= leaks


if __name__ == "__main__":
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for case in CASES:
        with open(_path(case), "w", newline="") as handle:
            handle.write(_csv_text(trajectory_rows(case)))
        print(f"wrote {_path(case)}")
