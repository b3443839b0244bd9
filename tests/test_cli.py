"""End-to-end checks of the command-line interface."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dyncool
from dyncool import cli, cooling, serialization
from dyncool.cli import generate_hamiltonian, generate_perturbation, main
from dyncool.cooling import CoolingConfig, run_experiment
from dyncool.errors import NumericError, ResourceError, ValidationError
from dyncool.operators import MAX_COUNT, TOL
from dyncool.signfun import FourierPolynomial, fourier_sign
from dyncool.serialization import (
    CSV_COLUMNS,
    angles_from_document,
    matrix_document,
    polynomial_from_document,
    read_json,
    write_json,
)

from conftest import laurent_sum, random_hermitian, random_unitary


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
    # numpy alone at run time, the Dyson quadrature included; numpy.polynomial
    # is not needed at all (signfun has its own Clenshaw sum)
    src = str(Path(dyncool.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    probe = (
        "import sys, numpy as np, dyncool.cli; "
        "from dyncool.dyson import dyson_term, path_weight; "
        "dyson_term(0.5 * np.ones((2, 2)), np.diag([1.0, 0.0]), 0.25, 2); "
        "path_weight((2, 0), 1.0); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
        "or m.startswith('numpy.polynomial')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"



# the integer keys of a run config, each as the override that sets it
INTEGER_KEYS = {
    "dim": lambda v: {"hamiltonian": {"type": "random", "dim": v}},
    "sites": lambda v: {"hamiltonian": {"type": "tfim", "sites": v}},
    "steps": lambda v: {"steps": v},
    "seed": lambda v: {"seed": v},
    "trials": lambda v: {"trials": v},
}

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

    def test_file_perturbation_must_be_hermitian(self, tmp_path, capsys):
        path = tmp_path / "a.json"
        write_json(str(path), matrix_document(np.array([[0.0, 0.5], [0.0, 0.0]])))
        source = {"type": "file", "path": str(path)}
        with pytest.raises(ValidationError, match="from Hermitian"):
            generate_perturbation(source, 2, np.random.default_rng(0))
        cfg = write_config(tmp_path, hamiltonian={"type": "random", "dim": 2}, perturbation=source)
        assert main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: deviation of HermitianOperator from Hermitian = 0.5 ")
        assert err.count("\n") == 1

    def test_generators_normalize_without_an_svd(self, monkeypatch, tmp_path):
        def no_svd(*args, **kwargs):
            raise AssertionError("a generator ran an SVD")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        monkeypatch.setattr(np.linalg, "norm", no_svd)
        path = tmp_path / "a.json"
        write_json(str(path), matrix_document(np.diag([3.0, -1.0])))
        rng = np.random.default_rng(3)
        for source in ({"type": "random", "dim": 8}, {"type": "tfim", "sites": 3}):
            H = generate_hamiltonian(source, rng)
            assert abs(np.max(np.abs(np.linalg.eigvalsh(H))) - 1.0) < 1e-12
        A = generate_perturbation({"type": "gue"}, 8, rng)
        assert abs(np.max(np.abs(np.linalg.eigvalsh(A))) - 1.0) < 1e-12
        A = generate_perturbation({"type": "file", "path": str(path)}, 2, rng)
        assert np.allclose(A, np.diag([1.0, -1.0 / 3.0]))

    def test_file_hamiltonian_is_checked_without_an_svd(self, monkeypatch, tmp_path):
        def no_svd(*args, **kwargs):
            raise AssertionError("the norm check ran an SVD")

        path = tmp_path / "h.json"
        write_json(str(path), matrix_document(np.array([[0.5, 0.25j], [-0.25j, -0.75]])))
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        monkeypatch.setattr(np.linalg, "norm", no_svd)
        H = generate_hamiltonian({"type": "file", "path": str(path)}, None)
        assert np.array_equal(H, [[0.5, 0.25j], [-0.25j, -0.75]])

    def test_run_experiment_lives_in_cooling(self):
        assert cli.run_experiment is dyncool.run_experiment is cooling.run_experiment

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

    @pytest.mark.parametrize("fmt", ["csv", "structured"])
    def test_summary_prints_the_recorded_config_hash(self, tmp_path, capsys, fmt):
        cfg = write_config(tmp_path, target_estimate=None, delta=None)
        record = tmp_path / "record.json"
        main(["run", "--config", cfg, "--format", "structured", "--out", str(record)])
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["run", "--config", cfg, "--format", fmt, "--out", str(out)]) == 0
        printed = re.search(r" config_hash=([0-9a-f]+)\n", capsys.readouterr().out)
        assert printed.group(1) == read_json(str(record))["config_hash"][:12]

    @pytest.mark.parametrize("key", ["steps", "trials"])
    @pytest.mark.parametrize("value", [MAX_COUNT + 1, 1e308])
    def test_counts_past_the_budget_exit_before_any_trial(
        self, tmp_path, capsys, monkeypatch, key, value
    ):
        monkeypatch.setattr(cooling, "_trajectory", None)  # a trial would raise TypeError
        cfg = write_config(tmp_path, **{key: value})
        assert main(["run", "--config", cfg]) == 1
        assert capsys.readouterr().err == (
            f"error: {key} {int(value)} exceeds budget {MAX_COUNT}\n"
        )

    @pytest.mark.parametrize(
        "overrides, error",
        [
            ({"target_estimate": float("nan")}, "target_estimate must be finite, got nan"),
            ({"target_estimate": float("inf")}, "target_estimate must be finite, got inf"),
            ({"epsilon": 1e-25, "mode": "exact_reflection"},
             "epsilon must lie in [2^-51, 0.7], got 1e-25"),
        ],
        ids=["nan-target", "infinite-target", "epsilon-below-floor"],
    )
    def test_drifting_values_exit_before_any_trial(
        self, tmp_path, capsys, monkeypatch, overrides, error
    ):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(cooling, "_trajectory", no_trial)
        cfg = write_config(tmp_path, **overrides)
        assert main(["run", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {error}\n" and captured.out == ""

    def test_trials_option_past_the_budget_exits_nonzero(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cooling, "_MEMO", None)  # a context lookup would raise
        cfg = write_config(tmp_path)
        assert main(["run", "--config", cfg, "--trials", str(MAX_COUNT + 1)]) == 1
        assert capsys.readouterr().err == (
            f"error: trials {MAX_COUNT + 1} exceeds budget {MAX_COUNT}\n"
        )

    def test_counts_at_the_budget_are_accepted(self):
        assert CoolingConfig(epsilon=0.25, steps=MAX_COUNT).steps == MAX_COUNT
        with pytest.raises(ResourceError, match=f"^steps {MAX_COUNT + 1} exceeds budget"):
            CoolingConfig(epsilon=0.25, steps=MAX_COUNT + 1)

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
        err = capsys.readouterr().err
        assert err == "error: matrix document dimension must be an integer, got None\n"

    def test_matrix_document_with_a_bool_dim_exits_nonzero(self, tmp_path, capsys):
        hpath = tmp_path / "h.json"
        hpath.write_text(json.dumps({"dim": True, "entries": [[0.5, 0.0]]}))
        cfg = write_config(tmp_path, hamiltonian={"type": "file", "path": str(hpath)})
        assert main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err == "error: matrix document dimension must be an integer, got True\n"

    @pytest.mark.parametrize(
        "key, source, message",
        [
            ("hamiltonian", "file", "matrix document dimension 4097 exceeds budget 4096"),
            ("perturbation", "file", "matrix document dimension 4097 exceeds budget 4096"),
            ("hamiltonian", {"type": "tfim", "sites": 13},
             "hamiltonian dimension 8192 exceeds budget 4096"),
            ("hamiltonian", {"type": "tfim", "sites": 10**6},
             "hamiltonian dimension 1 * 2^1000000 exceeds budget 4096"),
        ],
        ids=["file", "file-perturbation", "tfim-13", "tfim-1e6"],
    )
    def test_every_source_has_the_dimension_budget(self, tmp_path, capsys, key, source, message):
        if source == "file":
            # the budget is checked before any entry is read, so none are given
            path = tmp_path / "big.json"
            path.write_text(json.dumps({"dim": TOL.max_total_dim + 1, "entries": []}))
            source = {"type": "file", "path": str(path)}
        assert main(["run", "--config", write_config(tmp_path, **{key: source})]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_gqsp_check_dim_has_the_dimension_budget(self, monkeypatch, capsys):
        # refused before the check unitary's check_dim^2 complex doubles are drawn
        def forbidden(*args):
            raise AssertionError("the check unitary must not be drawn")

        monkeypatch.setattr(cli, "_random_unitary", forbidden)
        dim = str(TOL.max_total_dim + 1)
        assert main(["gqsp", "--epsilon", "0.5", "--delta", "0.25", "--check-dim", dim]) == 1
        assert capsys.readouterr().err == "error: check dimension 4097 exceeds budget 4096\n"

    def test_non_numeric_value_exits_nonzero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, epsilon="abc")
        assert main(["run", "--config", cfg]) == 1
        assert "error: config key 'epsilon' must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, bad",
        [("epsilon", True), ("delta", False), ("margin", True), ("target_estimate", False)],
    )
    def test_bool_number_exits_nonzero(self, tmp_path, capsys, key, bad):
        cfg = write_config(tmp_path, **{key: bad})
        assert main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert f"error: config key {key!r} must be a number, got {bad!r}" in err

    @pytest.mark.parametrize(
        "key, bad",
        [("epsilon", "0.2"), ("delta", "0.1"), ("margin", "1e-6"), ("target_estimate", "-0.5")],
    )
    def test_numeric_string_exits_nonzero(self, tmp_path, capsys, key, bad):
        cfg = write_config(tmp_path, **{key: bad})
        assert main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert f"error: config key {key!r} must be a number, got {bad!r}" in err

    @pytest.mark.parametrize("bad", [2.9, True, "3", None, float("inf")])
    @pytest.mark.parametrize("key", sorted(INTEGER_KEYS))
    def test_non_integer_count_exits_nonzero(self, tmp_path, capsys, key, bad):
        cfg = write_config(tmp_path, **INTEGER_KEYS[key](bad))
        assert main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert f"error: config key {key!r} must be an integer, got {bad!r}" in err

    @pytest.mark.parametrize("key", sorted(INTEGER_KEYS))
    def test_integral_float_count_is_its_integer(self, tmp_path, key):
        as_int = tmp_path / "int.csv"
        as_float = tmp_path / "float.csv"
        value = 2 if key == "sites" else 3
        main(["run", "--config", write_config(tmp_path, **INTEGER_KEYS[key](value)),
              "--out", str(as_int)])
        main(["run", "--config", write_config(tmp_path, **INTEGER_KEYS[key](float(value))),
              "--out", str(as_float)])
        assert as_float.read_bytes() == as_int.read_bytes()

    @pytest.mark.parametrize(
        "mode, margin", [("gqsp_circuit", float("nan")), ("exact_spectral", -5.0)]
    )
    def test_bad_margin_exits_before_any_trial(self, tmp_path, capsys, monkeypatch, mode, margin):
        trials = []
        monkeypatch.setattr(cooling, "_trajectory", lambda *a, **k: trials.append(a))
        out = tmp_path / "out.csv"
        cfg = write_config(tmp_path, mode=mode, margin=margin)
        assert main(["run", "--config", cfg, "--out", str(out)]) == 1
        assert "error: margin must be a finite number >= 1e-6" in capsys.readouterr().err
        assert not trials and not out.exists()

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

    @pytest.mark.parametrize("path", [None, 2.5, [1], 0, True, "h\0.json"],
                             ids=["null", "float", "list", "fd-0", "true", "nul"])
    @pytest.mark.parametrize("key", ["hamiltonian", "perturbation"])
    def test_a_file_path_must_be_a_file_name(self, tmp_path, capsys, monkeypatch, key, path):
        # refused before it is opened: an integer would name a file descriptor
        cfg = write_config(tmp_path, **{key: {"type": "file", "path": path}})
        read = cli.read_json

        def config_only(name):
            assert name == cfg, f"only the config may be opened, not {name!r}"
            return read(name)

        monkeypatch.setattr(cli, "read_json", config_only)
        assert main(["run", "--config", cfg]) == 1
        assert capsys.readouterr().err == (
            f"error: config key 'path' must be a file name, got {path!r}\n"
        )

    def test_overflowing_chain_exits_nonzero(self, tmp_path, capsys):
        chain = {"type": "tfim", "sites": 3, "coupling": 1e308, "field": 1e308}
        assert main(["run", "--config", write_config(tmp_path, hamiltonian=chain)]) == 1
        assert capsys.readouterr().err == (
            "error: spectral norm of the chain = inf is not <= 1.7976931348623157e+308\n"
        )

    def test_chain_whose_norm_overflows_is_refused(self):
        # finite entries, but a norm past float64 would rescale the chain to zero
        chain = {"type": "tfim", "sites": 2, "coupling": 1e308, "field": 1e308}
        with pytest.raises(ValidationError, match="spectral norm of the chain = inf"):
            generate_hamiltonian(chain, None)


@pytest.mark.parametrize(
    "argv, seed",
    [
        (["run", "--config", None], -1),
        (["run", "--config", None, "--seed", "-3"], -3),
        (["gqsp", "--epsilon", "0.5", "--delta", "0.25", "--seed", "-1"], -1),
        (["certify", "--epsilon", "0.5", "--delta", "0.25", "--seed", "-2"], -2),
    ],
    ids=["run-config", "run-option", "gqsp", "certify"],
)
def test_negative_seed_exits_nonzero(tmp_path, capsys, argv, seed):
    argv = [write_config(tmp_path, seed=-1) if a is None else a for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: seed must be at least 0, got {seed}\n"
    assert "gqsp:" not in captured.out and "[ok]" not in captured.out


@pytest.mark.parametrize(
    "content",
    [b"1" + b"0" * 5000, b"[" * 200_000 + b"]" * 200_000, b'{"epsilon": "\xe9"}'],
    ids=["long-integer", "deep-array", "not-utf8"],
)
@pytest.mark.parametrize("site", ["run-config", "file-hamiltonian", "gqsp-poly"])
def test_unreadable_json_file_exits_with_one_error_line(tmp_path, capsys, site, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    argv = {
        "run-config": ["run", "--config", str(bad)],
        "file-hamiltonian": ["run", "--config", write_config(
            tmp_path, hamiltonian={"type": "file", "path": str(bad)})],
        "gqsp-poly": ["gqsp", "--poly", str(bad)],
    }[site]
    assert main(argv) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {bad} is not a readable JSON document: ")


class TestAnyConfigValue:
    """``dyncool run`` exits 0, or 1 with one ``error:`` line, whatever JSON value
    one key of a good config holds, at top level or in a source block."""

    GOOD = {
        "hamiltonian": {"type": "random", "dim": 4},
        "perturbation": {"type": "gue"},
        "epsilon": 0.25,
        "steps": 3,
        "delta": 0.2,
        "mode": "gqsp_circuit",
        "margin": 1e-6,
        "target_estimate": -0.9,
        "trials": 2,
        "seed": 11,
    }
    # each source block that replaces the good one, by the key it sits under
    SOURCES = [
        ("hamiltonian", {"type": "random", "dim": 4}),
        ("hamiltonian", {"type": "tfim", "sites": 3, "coupling": 1.0, "field": 0.7}),
        ("hamiltonian", {"type": "file", "path": "h.json"}),
        ("perturbation", {"type": "gue"}),
        ("perturbation", {"type": "file", "path": "a.json"}),
        ("perturbation", {"type": "zero"}),
    ]
    CASES = [(None, None, key) for key in GOOD] + [
        (block, source, key) for block, source in SOURCES for key in source
    ]

    OVERFLOW = {"type": "tfim", "sites": 3, "coupling": 1e308, "field": 1e308}

    @classmethod
    def values(cls, key):
        """Counts from -2 to 64 (to 6 for ``sites``, 2^sites states), as ints and as
        floats, a few other floats, 1e308 (which ``steps`` and ``trials`` refuse as
        past their budget), bools, strings, null and small arrays and objects: no
        draw allocates much or runs long."""
        counts = st.integers(-2, 6 if key == "sites" else 64)
        floats = st.sampled_from([0.5, 0.3, -0.25, 2.9, 1e308])
        scalars = (counts | counts.map(float) | floats | st.booleans() | st.text(max_size=4)
                   | st.none())
        return (scalars | st.lists(scalars, max_size=3)
                | st.dictionaries(st.text(max_size=3), scalars, max_size=2))

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("configs")
        write_json(str(path / "h.json"), matrix_document(np.diag([0.5, -0.5, 0.25, -0.75])))
        write_json(str(path / "a.json"), matrix_document(np.ones((4, 4)) / 4))
        return path

    @pytest.mark.parametrize(
        "block, source, key", CASES,
        ids=[f"{block}-{source['type']}-{key}" if block else key for block, source, key in CASES],
    )
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    @example(data=None)
    def test_exits_0_or_1_with_one_error_line(self, workdir, block, source, key, data):
        doc = json.loads(json.dumps(self.GOOD))
        target = doc
        if block is not None:
            target = doc[block] = dict(source)
            if "path" in target:
                target["path"] = str(workdir / target["path"])
        # non-string paths, a negative seed, overflowing chains and counts past the budget
        examples = [None, 2.5, [1], -1, self.OVERFLOW, 1e308]
        values = examples if data is None else [data.draw(self.values(key))]
        for value in values:
            target[key] = value
            (workdir / "config.json").write_text(json.dumps(doc))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["run", "--config", str(workdir / "config.json"),
                             "--out", str(workdir / "out.csv")])
            assert code == 0 or code == 1 and re.fullmatch(r"error: [^\n]*\n", err.getvalue()), (
                value, err.getvalue())


class TestBlockReference:
    """``cli._polynomial_at``, the eigen route that ``gqsp`` and ``certify`` check
    the circuit against, agrees with the tests' matrix-power ``laurent_sum``."""

    def test_random_polynomials(self):
        rng = np.random.default_rng(61)
        for trial in range(40):
            k, m = (int(x) for x in rng.integers(0, 9, 2))
            coeffs = rng.normal(size=k + m + 1) + 1j * rng.normal(size=k + m + 1)
            P = FourierPolynomial(coeffs / np.sum(np.abs(coeffs)), k, m)
            U = random_unitary(rng, int(rng.integers(1, 9)))
            err = np.max(np.abs(cli._polynomial_at(P, U) - laurent_sum(P, U)))
            assert err <= 1e-12, (trial, k, m, err)

    @pytest.mark.parametrize("epsilon, delta, degree", [(0.2, 1 / 16, 57), (0.1, 1 / 32, 139)])
    def test_sign_sequences(self, epsilon, delta, degree):
        S = fourier_sign(epsilon, delta)
        assert S.degree == degree
        U = random_unitary(np.random.default_rng(67), 16)
        assert np.max(np.abs(cli._polynomial_at(S, U) - laurent_sum(S, U))) <= 1e-12


@pytest.mark.parametrize(
    "argv, kind",
    [
        (["run", "--config", None, "--format", "structured"], "run_record"),
        (["signpoly", "--epsilon", "0.5", "--delta", "0.25"], "certification"),
        (["gqsp", "--epsilon", "0.5", "--delta", "0.25"], "gqsp_angles"),
        (["certify", "--epsilon", "0.5", "--delta", "0.25"], "certification_report"),
    ],
    ids=["run", "signpoly", "gqsp", "certify"],
)
def test_every_written_document_carries_the_format_version_and_its_kind(
    tmp_path, capsys, argv, kind
):
    argv = [write_config(tmp_path) if a is None else a for a in argv]
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 0
    doc = read_json(str(out))
    assert doc["format_version"] == serialization.FORMAT_VERSION
    assert doc["kind"] == kind


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

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            [0.5],
            {"k": "x", "m": 0, "coefficients": [[0.5, 0.0]]},
            {"k": -1, "m": 1},
            {"k": 0, "m": 0, "coefficients": [[float("nan"), 0.0]]},
            # finite coefficients whose values on the completion grid overflow
            {"k": 1, "m": 1, "coefficients": [[1e308, 0.0], [0.0, 0.0], [1e308, 0.0]]},
            {"k": 0, "m": 1, "coefficients": [[0.25, 0.0], [0.25, 0.0]], "epsilon": True},
        ],
        ids=["missing_k", "list", "string_k", "negative_k", "nan_coefficient", "overflow",
             "bool_epsilon"],
    )
    def test_malformed_polynomial_exits_nonzero(self, tmp_path, capsys, doc):
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps(doc))
        assert main(["gqsp", "--poly", str(poly)]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "gqsp:" not in captured.out

    @pytest.mark.parametrize("dim", ["0", "-1"])
    def test_check_dim_below_one_exits_nonzero(self, capsys, dim):
        argv = ["gqsp", "--epsilon", "0.5", "--delta", "0.25", "--check-dim", dim]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: check dimension must be at least 1, got {dim}\n"

    def test_block_residual_past_its_bound_exits_nonzero(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_block_residual", lambda *args: 2e-7)
        assert main(["gqsp", "--epsilon", "0.5", "--delta", "0.25"]) == 1
        captured = capsys.readouterr()
        assert "block_residual=2.000e-07" in captured.out
        assert captured.err == "certification failed: block residual = 2e-07 is not <= 1e-07\n"

    def test_failed_certificate_writes_no_angle_file(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(cli, "_block_residual", lambda *args: 2e-7)
        out = tmp_path / "angles.json"
        assert main(["gqsp", "--epsilon", "0.5", "--delta", "0.25", "--out", str(out)]) == 1
        assert "wrote" not in capsys.readouterr().out
        assert not out.exists()
        assert not list(tmp_path.iterdir())


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

    def test_block_residual_past_its_bound_fails_its_check(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_block_residual", lambda *args: 2e-7)
        assert main(["certify", "--epsilon", "0.5", "--delta", "0.25"]) == 1
        assert (
            "[FAIL] gqsp round trip epsilon=0.5 delta=0.25: block residual = 2e-07 is not <= 1e-07"
            in capsys.readouterr().out
        )

    def test_two_sector_bound_past_delta_fails_its_check(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "leakage", lambda *args: 0.3)
        monkeypatch.setattr(cli, "effective_error", lambda *args: float("nan"))
        assert main(["certify", "--epsilon", "0.5", "--delta", "0.25"]) == 1
        out = capsys.readouterr().out
        assert (
            "[FAIL] two-sector leakage dim=4 delta=0.25: "
            "two-sector leakage = 0.3 is not <= 0.25\n" in out
        )
        assert (
            "[FAIL] two-sector effective evolution dim=8 delta=0.04: "
            "two-sector effective evolution = nan is not <= 0.04\n" in out
        )
        assert "certification: 2/10 passed" in out

    def test_raising_measurement_fails_only_its_own_check(self, monkeypatch, tmp_path, capsys):
        def raising(*args):
            raise NumericError("leakage diverged")

        monkeypatch.setattr(cli, "leakage", raising)
        out = tmp_path / "report.json"
        argv = ["certify", "--epsilon", "0.5", "--delta", "0.25", "--out", str(out)]
        assert main(argv) == 1
        printed = capsys.readouterr().out
        assert "[FAIL] two-sector leakage dim=4 delta=0.25: leakage diverged\n" in printed
        assert "[ok] two-sector effective evolution dim=8 delta=0.04: " in printed
        assert "certification: 6/10 passed" in printed
        checks = read_json(str(out))["checks"]
        assert [c["passed"] for c in checks] == [True, True] + [False, True] * 4

    def test_failed_check_exits_nonzero(self, capsys):
        rc = main(["certify", "--epsilon", "0.9", "--delta", "0.25"])
        captured = capsys.readouterr().out
        assert rc == 1
        assert "[FAIL] sign epsilon=0.9" in captured
