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
    shift_evolution_factored,
    shift_operator,
    spectral_norm,
    spectral_values,
)
from dyncool import AngleSequence, CoolingConfig, DyncoolError, build_hsign, run_experiment
from dyncool.cli import generate_perturbation
from dyncool.cooling import query_costs, random_initial_state
from dyncool.dyson import (
    cooling_probability,
    dyson_partial_sum,
    dyson_term,
    dyson_term_bound,
    leakage_term_bound,
    path_weight,
    per_term_leakage,
    sample_gue,
)
from dyncool.operators import TOL, _bound, check_dim, check_norm, check_register, hermitian_norm
from dyncool.serialization import matrix_from_document
from dyncool.signfun import eval_fourier_grid
from conftest import random_hermitian, random_state


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
    """The exact-reflection kick I - 2P, P the projector strictly below the
    cutoff, as ``build_hsign`` builds it in ``exact_reflection`` mode."""

    CONFIG = CoolingConfig(epsilon=0.25, steps=4, mode="exact_reflection")

    def test_single_site(self):
        dec = eig(HermitianOperator(np.diag([-0.5, 0.5])))
        assert np.allclose(build_hsign(dec, 0.0, self.CONFIG), np.diag([-1.0, 1.0]))

    def test_is_involution(self):
        rng = np.random.default_rng(17)
        dec = eig(random_hermitian(rng, 6, norm=1.0))
        R = build_hsign(dec, float(np.median(dec.eigenvalues)), self.CONFIG)
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
        assert TOL.max_total_dim == 4096
        check_register(8, 9, label)  # 8 * 2^9, at the budget
        H = HermitianOperator(np.eye(16))
        with pytest.raises(RangeError, match="register size must be at least 1, got 0"):
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

    def test_every_integer_goes_through_the_one_rule(self):
        """``_is_integer`` is called only by ``check_integer``, and ``dyson``
        checks a quadrature step count in one place and compares it nowhere."""
        def calls(tree, name):
            return sum(
                isinstance(node, ast.Call)
                and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
                for node in ast.walk(tree)
            )

        trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
        helper = next(fn for fn in ast.walk(trees["operators"])
                      if isinstance(fn, ast.FunctionDef) and fn.name == "check_integer")
        total = sum(calls(tree, "_is_integer") for tree in trees.values())
        assert total == calls(helper, "_is_integer") == 1
        step_rules = [
            node.lineno
            for node in ast.walk(trees["dyson"])
            if isinstance(node, (ast.Call, ast.Compare))
            and any(isinstance(n, ast.Name) and n.id == "n_steps" for n in ast.walk(node))
            and (isinstance(node, ast.Compare) or getattr(node.func, "id", None) == "check_integer")
        ]
        assert len(step_rules) == 1

    def test_every_real_goes_through_the_one_rule(self):
        """``check_epsilon``, ``check_delta`` and ``check_margin`` return a call of
        ``check_real``, and ``src/`` tests no scalar for finiteness elsewhere: an
        ``isfinite`` call outside ``check_real``, the array rule ``matrix_entries``
        and ``serialization._fmt_float`` is an array test, reduced by ``.all()``."""
        def named(node, name):
            return isinstance(node, ast.Call) and name in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None))

        trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
        functions = {(stem, fn.name): fn for stem, tree in trees.items()
                     for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}
        for name in ("check_epsilon", "check_delta", "check_margin"):
            returns = [n.value for n in ast.walk(functions["operators", name])
                       if isinstance(n, ast.Return)]
            assert len(returns) == 1 and named(returns[0], "check_real")
        exempt = [("operators", "check_real"), ("operators", "matrix_entries"),
                  ("serialization", "_fmt_float")]
        allowed = {id(n) for key in exempt for n in ast.walk(functions[key]) if named(n, "isfinite")}
        assert len(allowed) == 3
        reduced = {id(n.func.value) for tree in trees.values() for n in ast.walk(tree)
                   if named(n, "all") and isinstance(n.func, ast.Attribute)}
        scalar = [f"{stem}:{n.lineno}" for stem, tree in trees.items() for n in ast.walk(tree)
                  if named(n, "isfinite") and id(n) not in allowed | reduced]
        assert scalar == []

    def test_every_kick_has_two_callers(self):
        """``cooling._kick`` is called in ``src/`` only by ``_Context.step`` and
        ``cooling_step``, the one builder of the step unitary."""
        def callers(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.Call) and "_kick" in (
                    getattr(child.func, "id", None), getattr(child.func, "attr", None)
                ):
                    yield scope
                inner = getattr(child, "name", None)
                yield from callers(child, f"{scope}.{inner}" if inner else scope)

        found = [caller for path in sorted(SRC.glob("*.py"))
                 for caller in callers(ast.parse(path.read_text()), path.stem)]
        assert sorted(found) == ["cooling._Context.step", "cooling.cooling_step"]


class TestOneIntegerRule:
    """Every public entry that takes an integer refuses a float, a bool, a
    string and a numpy float with a ``ValidationError``, and a value below its
    floor with its own error class."""

    ENTRIES = {
        "CoolingConfig.steps": (lambda v: CoolingConfig(epsilon=0.25, steps=v), 0, ValidationError),
        "run_experiment.seed": (
            lambda v: run_experiment(np.diag([-0.5, 0.5]), np.zeros((2, 2)),
                                     CoolingConfig(epsilon=0.25, steps=2), seed=v, trials=1),
            -1, ValidationError,
        ),
        "run_experiment.trials": (
            lambda v: run_experiment(np.diag([-0.5, 0.5]), np.zeros((2, 2)),
                                     CoolingConfig(epsilon=0.25, steps=2), seed=0, trials=v),
            0, ValidationError,
        ),
        "query_costs": (lambda v: query_costs(0.1, 0.1, v), -1, ValidationError),
        "shift_operator": (lambda v: shift_operator(HermitianOperator(np.eye(2)), v), 0, RangeError),
        "random_initial_state": (lambda v: random_initial_state(np.random.default_rng(0), v), 0,
                                 ValidationError),
        "generate_perturbation.zero": (
            lambda v: generate_perturbation({"type": "zero"}, v, np.random.default_rng(0)), 0,
            ValidationError,
        ),
        "check_dim": (lambda v: check_dim(v, "x"), 0, ValidationError),
        "sample_gue": (lambda v: sample_gue(np.random.default_rng(0), v), 0, ValidationError),
        "FourierPolynomial.k": (lambda v: FourierPolynomial([0.0, 1.0], k=v, m=1), -1, ValidationError),
        "FourierPolynomial.m": (lambda v: FourierPolynomial([0.0, 1.0], k=1, m=v), -1, ValidationError),
        "eval_fourier_grid": (
            lambda v: eval_fourier_grid(FourierPolynomial([1.0], k=0, m=0), v), 1, ValidationError,
        ),
        "AngleSequence.k": (lambda v: AngleSequence(np.zeros(2), np.zeros(2), 0.0, k=v, m=1), -1,
                            ValidationError),
        "AngleSequence.m": (lambda v: AngleSequence(np.zeros(2), np.zeros(2), 0.0, k=1, m=v), -1,
                            ValidationError),
        "matrix_from_document": (lambda v: matrix_from_document({"dim": v, "entries": []}), 0,
                                 ValidationError),
        "dyson_term.order": (lambda v: dyson_term(np.eye(2), np.diag([1.0, 0.0]), 0.1, v), -1,
                             ValidationError),
        "dyson_term.n_steps": (
            lambda v: dyson_term(np.eye(2), np.diag([1.0, 0.0]), 0.1, 1, n_steps=v), 7,
            ValidationError,
        ),
        "dyson_partial_sum.max_order": (
            lambda v: dyson_partial_sum(np.eye(2), np.diag([1.0, 0.0]), 0.1, v), -1,
            ValidationError,
        ),
        "per_term_leakage.order": (
            lambda v: per_term_leakage(np.eye(2), np.diag([1.0, 0.0]), 0.1, v), -1,
            ValidationError,
        ),
        "dyson_term_bound": (lambda v: dyson_term_bound(v, 1.0, 0.1), -1, ValidationError),
        "leakage_term_bound": (lambda v: leakage_term_bound(v, 1.0, 0.1), -1, ValidationError),
        "path_weight.n_steps": (lambda v: path_weight((0,), 1.0, n_steps=v), 7, ValidationError),
        # a slot frequency has no floor; 1 is the integer outside {0, +2, -2}
        "path_weight.phases": (lambda v: path_weight((0, v), 1.0), 1, ValidationError),
        "cooling_probability": (
            lambda v: cooling_probability(np.array([0.0, 1.0]), np.eye(2), v), -1, RangeError,
        ),
    }

    @pytest.mark.parametrize("value", [2.5, True, "3", np.float64(3.0)],
                             ids=["float", "bool", "string", "numpy-float"])
    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_a_non_integer_is_a_validation_error(self, entry, value):
        with pytest.raises(DyncoolError) as caught:
            self.ENTRIES[entry][0](value)
        assert caught.type is ValidationError
        assert re.search(rf" must be an integer, got {re.escape(repr(value))}$", str(caught.value))

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_a_value_below_the_floor_keeps_its_error_class(self, entry):
        call, below, error = self.ENTRIES[entry]
        with pytest.raises(DyncoolError) as caught:
            call(below)
        assert caught.type is error

    # the entries whose integer is a dimension, by the label of their budget refusal
    DIMENSIONS = {
        "check_dim": "x",
        "sample_gue": "GUE",
        "random_initial_state": "state",
        "generate_perturbation.zero": "perturbation",
    }

    @pytest.mark.parametrize("entry", sorted(DIMENSIONS))
    def test_a_dimension_past_the_budget_is_a_resource_error(self, entry):
        # refused before an array of that size is formed
        message = f"^{self.DIMENSIONS[entry]} dimension 4097 exceeds budget 4096$"
        with pytest.raises(ResourceError, match=message):
            self.ENTRIES[entry][0](TOL.max_total_dim + 1)


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
