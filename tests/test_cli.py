"""End-to-end checks of the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dyncool
from dyncool.cli import (
    generate_hamiltonian,
    generate_perturbation,
    main,
    run_experiment,
)
from dyncool.cooling import CoolingConfig
from dyncool.errors import ResourceError, ValidationError
from dyncool.operators import TOL
from dyncool.serialization import (
    CSV_COLUMNS,
    angles_from_document,
    matrix_document,
    polynomial_from_document,
    read_json,
    write_json,
)

from conftest import random_hermitian


def write_config(tmp_path, **overrides):
    doc = {
        "hamiltonian": {"type": "random", "dim": 4},
        "perturbation": {"type": "gue"},
        "epsilon": 0.25,
        "steps": 3,
        "delta": 0.2,
        "mode": "exact_spectral",
        "trials": 2,
        "seed": 11,
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_import_loads_no_scipy():
    # scipy is needed only by the Dyson quadrature, imported at first use
    src = str(Path(dyncool.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    probe = (
        "import sys, dyncool.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"


class TestGenerators:
    def test_random_hamiltonian_norm_one(self):
        H = generate_hamiltonian({"type": "random", "dim": 6}, np.random.default_rng(0))
        assert abs(np.linalg.norm(H, 2) - 1.0) < 1e-12
        assert np.allclose(H, H.conj().T)

    def test_ising_two_site_spectrum(self):
        H = generate_hamiltonian(
            {"type": "tfim", "sites": 2, "coupling": 1.0, "field": 0.0},
            np.random.default_rng(0),
        )
        assert np.allclose(np.sort(np.linalg.eigvalsh(H)), [-1, -1, 1, 1], atol=1e-12)

    def test_ising_strong_coupling_rescaled(self):
        H = generate_hamiltonian(
            {"type": "tfim", "sites": 3, "coupling": 1.0, "field": 1.0},
            np.random.default_rng(0),
        )
        assert np.linalg.norm(H, 2) <= 1.0 + 1e-12

    def test_ising_weak_chain_keeps_scale(self):
        H = generate_hamiltonian(
            {"type": "tfim", "sites": 2, "coupling": 0.3, "field": 0.0},
            np.random.default_rng(0),
        )
        assert abs(np.linalg.norm(H, 2) - 0.3) < 1e-12

    def test_ising_site_cap(self):
        with pytest.raises(ResourceError):
            generate_hamiltonian(
                {"type": "tfim", "sites": 13}, np.random.default_rng(0)
            )

    def test_file_hamiltonian_requires_subnormalized(self, tmp_path):
        path = tmp_path / "h.json"
        write_json(str(path), matrix_document(np.diag([2.0, -2.0])))
        with pytest.raises(ValidationError):
            generate_hamiltonian({"type": "file", "path": str(path)}, None)

    def test_random_dimension_cap(self):
        with pytest.raises(ResourceError):
            generate_hamiltonian(
                {"type": "random", "dim": TOL.max_total_dim + 1}, np.random.default_rng(0)
            )

    def test_unknown_types_rejected(self):
        with pytest.raises(ValidationError):
            generate_hamiltonian({"type": "bogus"}, np.random.default_rng(0))
        with pytest.raises(ValidationError):
            generate_perturbation({"type": "bogus"}, 4, np.random.default_rng(0))

    def test_perturbation_sources(self, tmp_path):
        rng = np.random.default_rng(1)
        A = generate_perturbation({"type": "gue"}, 8, rng)
        assert np.linalg.norm(A, 2) <= 1.0 + 1e-12
        assert np.array_equal(
            generate_perturbation({"type": "zero"}, 3, rng), np.zeros((3, 3))
        )
        path = tmp_path / "a.json"
        write_json(str(path), matrix_document(np.diag([3.0, -1.0])))
        A = generate_perturbation({"type": "file", "path": str(path)}, 2, rng)
        assert np.allclose(A, np.diag([1.0, -1.0 / 3.0]))
        with pytest.raises(ValidationError):
            generate_perturbation({"type": "file", "path": str(path)}, 4, rng)

    def test_trial_substreams_are_stable(self):
        rng = np.random.default_rng(2)
        H = random_hermitian(rng, 4, norm=0.9)
        A = random_hermitian(rng, 4, norm=0.5)
        config = CoolingConfig(epsilon=0.25, steps=2, delta=0.2)
        three = run_experiment(H, A, config, seed=5, trials=3)
        two = run_experiment(H, A, config, seed=5, trials=2)
        for a, b in zip(two, three):
            assert a.final_energy_estimate == b.final_energy_estimate
            assert a.final_ground_overlap == b.final_ground_overlap


class TestRunCommand:
    def test_csv_output(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "traj.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# dyncool-trajectories v1")
        assert lines[1] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2 + 2 * 3

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", "--config", cfg, "--out", str(first)])
        main(["run", "--config", cfg, "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_structured_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        main(["run", "--config", cfg, "--format", "structured", "--out", str(first)])
        main(["run", "--config", cfg, "--format", "structured", "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()
        doc = read_json(str(first))
        assert doc["kind"] == "run_record"
        assert doc["trials"] == 2
        assert len(doc["trajectories"]) == 2
        assert doc["source"]["seed"] == 11

    def test_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "one.csv"
        main(["run", "--config", cfg, "--trials", "1", "--out", str(out)])
        assert len(out.read_text().splitlines()) == 2 + 1 * 3
        other = tmp_path / "other.csv"
        main(["run", "--config", cfg, "--seed", "99", "--out", str(other)])
        baseline = tmp_path / "base.csv"
        main(["run", "--config", cfg, "--out", str(baseline)])
        assert other.read_bytes() != baseline.read_bytes()

    def test_stdout_mode(self, tmp_path, capsys):
        cfg = write_config(tmp_path, trials=1, steps=2)
        assert main(["run", "--config", cfg]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("# dyncool-trajectories v1")
        assert "run: trials=1" in captured.err

    def test_target_estimate_stops_early(self, tmp_path):
        cfg = write_config(tmp_path, target_estimate=2.0, trials=1)
        out = tmp_path / "stop.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        # target above the whole spectrum: satisfied at the first estimate
        assert len(out.read_text().splitlines()) == 2

    def test_missing_key_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"epsilon": 0.25}))
        assert main(["run", "--config", path.as_posix()]) == 1
        assert "missing required key" in capsys.readouterr().err

    def test_matrix_document_without_dim_exits_nonzero(self, tmp_path, capsys):
        hpath = tmp_path / "h.json"
        hpath.write_text(json.dumps({"entries": [[0.5, 0.0]]}))
        cfg = write_config(tmp_path, hamiltonian={"type": "file", "path": str(hpath)})
        assert main(["run", "--config", cfg]) == 1
        assert "error: matrix document needs a positive integer 'dim'" in capsys.readouterr().err

    def test_non_numeric_value_exits_nonzero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, epsilon="abc")
        assert main(["run", "--config", cfg]) == 1
        assert "error: config key 'epsilon' must be a number" in capsys.readouterr().err

    def test_config_that_is_a_list_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([{"epsilon": 0.25}]))
        assert main(["run", "--config", str(path)]) == 1
        assert "error: expected a JSON object" in capsys.readouterr().err

    def test_oversized_file_hamiltonian_exits_nonzero(self, tmp_path, capsys):
        hpath = tmp_path / "h.json"
        write_json(str(hpath), matrix_document(np.diag([2.0, -2.0])))
        cfg = write_config(tmp_path, hamiltonian={"type": "file", "path": str(hpath)})
        assert main(["run", "--config", cfg]) == 1
        assert "error:" in capsys.readouterr().err


class TestSignpolyCommand:
    def test_writes_certification(self, tmp_path, capsys):
        out = tmp_path / "sign.json"
        rc = main(
            ["signpoly", "--epsilon", "0.5", "--delta", "0.25", "--out", str(out)]
        )
        assert rc == 0
        assert "degree=" in capsys.readouterr().out
        doc = read_json(str(out))
        assert doc["kind"] == "certification"
        assert doc["max_abs"] <= 1.0 + 1e-9
        assert doc["band_error"] <= 0.25 + 1e-9
        S = polynomial_from_document(doc["polynomial"])
        assert S.degree == doc["degree"]

    def test_out_of_range_epsilon_fails(self, capsys):
        assert main(["signpoly", "--epsilon", "0.9", "--delta", "0.25"]) == 1
        assert "error:" in capsys.readouterr().err


class TestGqspCommand:
    def test_from_parameters(self, tmp_path, capsys):
        out = tmp_path / "angles.json"
        rc = main(
            [
                "gqsp",
                "--epsilon",
                "0.5",
                "--delta",
                "0.25",
                "--out",
                str(out),
                "--check-dim",
                "3",
            ]
        )
        assert rc == 0
        assert "block_residual=" in capsys.readouterr().out
        doc = read_json(str(out))
        angles = angles_from_document(doc["angles"])
        P = polynomial_from_document(doc["polynomial"])
        assert angles.theta.size == P.k + P.m + 1

    def test_from_polynomial_file(self, tmp_path):
        poly = tmp_path / "sign.json"
        main(["signpoly", "--epsilon", "0.5", "--delta", "0.25", "--out", str(poly)])
        assert main(["gqsp", "--poly", str(poly)]) == 0

    def test_requires_a_source(self, capsys):
        assert main(["gqsp"]) == 1
        assert "either --poly" in capsys.readouterr().err


class TestCertifyCommand:
    def test_default_subset_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(
            [
                "certify",
                "--epsilon",
                "0.5",
                "--delta",
                "0.25",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        captured = capsys.readouterr().out
        assert rc == 0
        assert "[ok] sign epsilon=0.5 delta=0.25" in captured
        assert "[ok] gqsp round trip" in captured
        assert "FAIL" not in captured
        doc = read_json(str(out))
        assert doc["passed"] is True
        assert all(c["passed"] for c in doc["checks"])

    def test_failed_check_exits_nonzero(self, capsys):
        rc = main(["certify", "--epsilon", "0.9", "--delta", "0.25"])
        captured = capsys.readouterr().out
        assert rc == 1
        assert "[FAIL] sign epsilon=0.9" in captured
