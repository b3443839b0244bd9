import ast
import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from dyncool import (
    CertificationError,
    FourierPolynomial,
    HermitianOperator,
    Projector,
    RangeError,
    ResourceError,
    SpectralDecomposition,
    StateVector,
    UnitaryOperator,
    ValidationError,
    eig,
    evolve,
    projector_below,
    reflection,
    shift_evolution_factored,
    shift_operator,
    spectral_norm,
    spectral_values,
)
from dyncool.operators import _bound, check_norm, hermitian_norm
from conftest import random_hermitian, random_projector, random_state


def taylor_expm(M, order=60):
    """Independent oracle: truncated series for exp(M)."""
    acc = np.eye(M.shape[0], dtype=complex)
    term = np.eye(M.shape[0], dtype=complex)
    for k in range(1, order + 1):
        term = term @ M / k
        acc = acc + term
    return acc


def power_iteration_norm(M, iters=500, seed=3):
    """Independent oracle: largest singular value via power iteration on M^H M."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=M.shape[1]) + 1j * rng.normal(size=M.shape[1])
    v /= np.linalg.norm(v)
    G = M.conj().T @ M
    for _ in range(iters):
        v = G @ v
        v /= np.linalg.norm(v)
    return np.sqrt(np.real(np.vdot(v, G @ v)))


class TestValidation:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            HermitianOperator([[0, 1], [0, 0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            HermitianOperator(np.zeros((2, 3)))

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            UnitaryOperator([[1, 0], [0, 2]])

    def test_rejects_non_idempotent(self):
        with pytest.raises(ValidationError):
            Projector([[0.5, 0], [0, 0]])

    @pytest.mark.parametrize(
        "build, name",
        [
            (UnitaryOperator, "UnitaryOperator"),
            (Projector, "Projector"),
            (lambda empty: SpectralDecomposition(np.zeros(0), empty), "eigenvectors"),
            (lambda empty: eig(HermitianOperator(empty)), "HermitianOperator"),
        ],
        ids=["unitary", "projector", "decomposition", "eig"],
    )
    def test_rejects_empty_matrix(self, build, name):
        with pytest.raises(ValidationError, match=f"^{name} must not be empty$"):
            build(np.zeros((0, 0)))

    def test_rejects_unnormalized_state(self):
        with pytest.raises(ValidationError):
            StateVector([1.0, 1.0])

    def test_entries_read_only(self):
        H = HermitianOperator(np.diag([1.0, -1.0]))
        with pytest.raises(ValueError):
            H.entries[0, 0] = 5.0

    def test_subnormalized_check(self):
        check_norm(hermitian_norm(np.diag([1.0, -0.5])), "operator")
        with pytest.raises(ValidationError):
            check_norm(hermitian_norm(np.diag([1.2, 0.0])), "operator")


    def test_subnormalized_bound_is_unchanged(self):
        # max |eigenvalue| replaced the SVD; the 1 + norm_slack bound is the same,
        # and the message prints both numbers exactly
        match = r"^spectral norm of h = 1\.000001 is not <= 1\.0000000001$"
        with pytest.raises(ValidationError, match=match):
            check_norm(hermitian_norm(np.diag([0.5, -(1.0 + 1e-6)])), "h")
        assert check_norm(hermitian_norm(np.diag([0.5, -(1.0 + 1e-11)])), "h") == 1.0 + 1e-11

class TestEig:
    def test_reconstruction_random_dims(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            dim = int(rng.integers(2, 17))
            H = random_hermitian(rng, dim)
            dec = eig(H)
            assert np.max(np.abs(dec.reconstruct() - H.entries)) <= 1e-9
            assert np.all(np.diff(dec.eigenvalues) >= 0)

    def test_degenerate_spectrum(self):
        dec = eig(HermitianOperator(np.eye(4)))
        assert np.allclose(dec.eigenvalues, 1.0)
        assert np.max(np.abs(dec.reconstruct() - np.eye(4))) <= 1e-12


class TestEvolve:
    def test_pauli_z_half_period(self):
        U = evolve(HermitianOperator(np.diag([1.0, -1.0])), np.pi)
        assert np.max(np.abs(U.entries + np.eye(2))) <= 1e-12

    def test_matches_taylor_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            H = random_hermitian(rng, 6, norm=1.0)
            t = float(rng.uniform(0.1, 2.3))
            U = evolve(H, t)
            assert np.max(np.abs(U.entries - taylor_expm(-1j * t * H.entries))) <= 1e-10

    def test_group_law(self):
        rng = np.random.default_rng(13)
        H = random_hermitian(rng, 5, norm=0.8)
        lhs = evolve(H, 0.7).entries @ evolve(H, 1.9).entries
        rhs = evolve(H, 2.6).entries
        assert np.max(np.abs(lhs - rhs)) <= 1e-9


class TestReflection:
    def test_single_site(self):
        P = Projector(np.diag([1.0, 0.0]))
        R = reflection(P)
        assert np.allclose(R.entries, np.diag([-1.0, 1.0]))

    def test_is_involution(self):
        rng = np.random.default_rng(17)
        P = random_projector(rng, 6, 2)
        R = reflection(P).entries
        assert np.max(np.abs(R @ R - np.eye(6))) <= 1e-12


class TestProjectorBelow:
    def test_strict_threshold(self):
        dec = eig(HermitianOperator(np.diag([-0.5, 0.5])))
        assert projector_below(dec, 0.0).rank == 1
        # boundary eigenvalue is excluded: strictly-below contract
        assert projector_below(dec, -0.5).rank == 0
        assert projector_below(dec, 0.5).rank == 1
        assert projector_below(dec, 0.6).rank == 2

    def test_complement(self):
        rng = np.random.default_rng(19)
        dec = eig(random_hermitian(rng, 8))
        P = projector_below(dec, float(np.median(dec.eigenvalues)))
        Q = P.complement()
        assert np.max(np.abs(P.entries + Q.entries - np.eye(8))) <= 1e-12


class TestSpectralNorm:
    def test_against_power_iteration(self):
        rng = np.random.default_rng(23)
        for dim in (3, 6, 10):
            M = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            ours = spectral_norm(M)
            oracle = power_iteration_norm(M)
            assert abs(ours - oracle) <= 1e-8 * oracle

    def test_known_value(self):
        assert spectral_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0, abs=1e-14)


class TestShiftOperator:
    def test_single_qubit_register_blocks(self):
        H = HermitianOperator([[2.0]])
        S = shift_operator(H, 1)
        assert np.allclose(S.entries, np.diag([2.0, 2.0 - np.pi]))

    def test_budget_enforced(self):
        with pytest.raises(ResourceError):
            shift_operator(HermitianOperator(np.eye(16)), 9)

    @pytest.mark.parametrize(
        "build, label",
        [(shift_operator, "shift operator"), (shift_evolution_factored, "factored evolution")],
    )
    def test_register_checks_are_shared(self, build, label):
        H = HermitianOperator(np.eye(16))
        with pytest.raises(RangeError, match="register size must be >= 1, got 0"):
            build(H, 0)
        with pytest.raises(ResourceError, match=f"^{label} dimension 8192 exceeds budget 4096$"):
            build(H, 9)

    @pytest.mark.parametrize("build", [shift_operator, shift_evolution_factored])
    @pytest.mark.parametrize("n", [2.5, 2.0, True, "2", None])
    def test_register_size_must_be_an_integer(self, build, n):
        # refused before ``dim << n`` is formed; a bool is not an integer here
        message = re.escape(f"register size must be an integer, got {n!r}")
        with pytest.raises(ValidationError, match=f"^{message}$"):
            build(HermitianOperator(np.eye(2)), n)

    def test_factored_form_matches_direct_exponential(self):
        rng = np.random.default_rng(29)
        for dim in (1, 2, 3, 4):
            for n in (1, 2, 3, 4):
                H = random_hermitian(rng, dim, norm=0.9)
                direct = evolve(shift_operator(H, n), -1.0).entries
                factored = shift_evolution_factored(H, n).entries
                assert np.max(np.abs(direct - factored)) <= 1e-10


SRC = Path(__file__).resolve().parent.parent / "src" / "dyncool"
# the documented bound constants besides the ``TOL`` fields
BOUND_CONSTANTS = {"_BOUND_SLACK", "_OUTER_TAIL", "_BLOCK_TOL"}


def names_a_bound(test: ast.expr) -> bool:
    """Whether a comparison in ``test`` reads a ``TOL.`` field or a bound constant."""
    return any(
        isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "TOL"
        or isinstance(n, ast.Name) and n.id in BOUND_CONSTANTS
        for compare in ast.walk(test) if isinstance(compare, ast.Compare)
        for n in ast.walk(compare)
    )


class TestBound:
    def test_returns_the_value_and_prints_both_numbers_exactly(self):
        assert _bound("x", 1.0 + 1e-10, 1.0 + 1e-10) == 1.0 + 1e-10
        with pytest.raises(ValidationError, match=r"^x = 1\.000001 is not <= 1\.0000000001$"):
            _bound("x", 1.0 + 1e-6, 1.0 + 1e-10)
        with pytest.raises(CertificationError, match=r"^x = inf is not <= 1\.79"):
            _bound("x", np.inf, np.finfo(float).max, CertificationError)

    @pytest.mark.parametrize(
        "check, error",
        [
            (lambda: _bound("x", float("nan"), 1.0), ValidationError),
            (lambda: check_norm(float("nan"), "x"), ValidationError),
            (
                lambda: spectral_values(
                    FourierPolynomial([np.nan], 0, 0), eig(HermitianOperator([[0.1]])), 0.0
                ),
                CertificationError,
            ),
        ],
        ids=["bound", "check_norm", "spectral_values"],
    )
    def test_nan_fails(self, check, error):
        with pytest.raises(error, match=" = nan is not <= "):
            check()

    @pytest.mark.parametrize(
        "build, name, kind",
        [
            (HermitianOperator, "HermitianOperator", "Hermitian"),
            (Projector, "Projector", "Hermitian"),
            (UnitaryOperator, "UnitaryOperator", "unitary"),
            (lambda m: SpectralDecomposition(np.zeros(2), m), "eigenvectors", "unitary"),
        ],
        ids=["hermitian", "projector", "unitary", "decomposition"],
    )
    def test_one_measurement_per_property(self, build, name, kind):
        match = f"^deviation of {name} from {kind} = 1\\.0 is not <= "
        with pytest.raises(ValidationError, match=match):
            build(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_every_bound_goes_through_the_one_check(self):
        trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
        assigned = {
            target.id
            for tree in trees.values()
            for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name)
        }
        assert BOUND_CONSTANTS <= assigned
        offenders = [
            f"{name}:{node.lineno}"
            for name, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, ast.If)
            and any(isinstance(stmt, ast.Raise) for stmt in node.body)
            and names_a_bound(node.test)
        ]
        assert offenders == []


class TestTracedNames:
    """The benchmark's tracer (``bench/tracing.py``) finds each function it
    times by its name in ``LAYERS``; here it is installed and uninstalled
    without running a job, so renaming or removing one of them fails this
    test and not only a traced benchmark run."""

    @staticmethod
    def traced(name):
        """The binding the tracer wraps for ``layer.function``: the function,
        or a class's ``__post_init__``."""
        layer, fn = name.split(".")
        obj = getattr(sys.modules[f"dyncool.{layer}"], fn)
        return obj.__post_init__ if isinstance(obj, type) else obj

    def test_the_benchmark_tracer_finds_every_traced_function(self):
        importlib.import_module("dyncool.cli")  # the package does not import cli itself
        path = SRC.parent.parent / "bench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("bench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        before = {name: self.traced(name) for name in tracing.FUNCTIONS}
        tracer = tracing.Tracer()
        try:
            tracer.install()
            wrapped = {name: self.traced(name) is not before[name] for name in before}
        finally:
            tracer.uninstall()
        assert wrapped == dict.fromkeys(before, True)
        assert {name: self.traced(name) for name in before} == before
