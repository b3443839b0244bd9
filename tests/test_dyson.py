"""Two-sector model verification: leakage, expansion terms, Markov limit.

Closed-form oracles: 2x2 axis-angle evolution for the leakage value, the
explicit first-order integral for cross-sector terms, and exact nested
integrals for path weights, which are integrated here by the quadrature
that `dyson_term` uses.
"""

import ast
import math

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson
from scipy.stats import linregress

from dyncool.dyson import (
    _cumsimp,
    _expansion_stack,
    _grid,
    cooling_probability,
    default_time,
    dyson_term,
    dyson_term_bound,
    effective_error,
    leakage,
    leakage_term_bound,
    per_term_leakage,
    sample_gue,
    sector_hamiltonian,
    transition_matrix,
)
from dyncool.errors import RangeError, ResolutionError, ResourceError, ValidationError
from dyncool.operators import HermitianOperator, evolve, spectral_norm

from conftest import normalized_gue, random_hermitian, random_projector
from test_operators import SRC


def interaction_unitary(A, P, delta, t):
    """exp(iRt) exp(-iHt) with R = I - 2P: the exact object the expansion approximates."""
    U = evolve(sector_hamiltonian(A, P, delta), t).entries
    return evolve(HermitianOperator(np.eye(len(P)) - 2.0 * P), -t).entries @ U


def dyson_partial_sum(A, P, delta, max_order, t, n_steps):
    """Sum of the expansion terms through max_order (order 0 is the identity)."""
    return sum(level[-1] for level in _expansion_stack(A, P, delta, max_order, t, n_steps))


def path_weight(phases, t):
    """(value, bound): the ordered integral of prod_j exp(i mu_j s_j) over
    0 <= s_1 <= ... <= s_k <= t, slot frequencies innermost first, on 2,048
    quadrature steps. The all-static path integrates to t^k / k!; any
    oscillating slot lowers the bound to t^(k-1) / (k-1)!."""
    s = _grid(t, 2048)
    acc = np.ones_like(s, dtype=complex)
    for mu in phases:
        acc = _cumsimp(np.exp(1j * mu * s) * acc, s)
    k = len(phases)
    if all(mu == 0 for mu in phases):
        bound = t**k / math.factorial(k)
    else:
        bound = t ** (k - 1) / math.factorial(k - 1)
    return complex(acc[-1]), bound


def owned_calls(path):
    """(innermost enclosing function's name, call) for every call in ``path``."""
    tree = ast.parse(path.read_text())
    # ast.walk visits outer functions first, so inner ones overwrite their claims
    owner = {
        child: fn.name
        for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for child in ast.walk(fn)
    }
    return [(owner.get(node, "<module>"), node)
            for node in ast.walk(tree) if isinstance(node, ast.Call)]


def callee(call):
    return ast.unparse(call.func).split(".")[-1]


# every public function that takes the two-sector pair (A, P), called with a good delta
TWO_SECTOR = {
    "sector_hamiltonian": lambda A, P: sector_hamiltonian(A, P, 0.1),
    "leakage": lambda A, P: leakage(A, P, 0.1),
    "effective_error": lambda A, P: effective_error(A, P, 0.1),
    "dyson_term": lambda A, P: dyson_term(A, P, 0.1, 1),
    "per_term_leakage": lambda A, P: per_term_leakage(A, P, 0.1, 1),
}

# every public function that reads a perturbation A, with a projector or eigenvalues
READS_A = {
    **{name: lambda A, call=call: call(A, np.diag([1.0, 0.0]))
       for name, call in TWO_SECTOR.items()},
    "transition_matrix": lambda A: transition_matrix([0.0, 1.0], A),
    "cooling_probability": lambda A: cooling_probability([0.0, 1.0], A, 1),
}


class TestClosedForms:
    def test_two_level_leakage_axis_angle(self):
        # H = cX - Z rotates about an axis of length a = sqrt(1 + c^2); the
        # cross amplitude after time t is -i sin(at) c / a.
        delta = 0.25
        c = 0.5 * np.sqrt(delta)
        a = np.sqrt(1.0 + c * c)
        t = default_time(delta)
        assert t == pytest.approx(np.pi)
        expected = np.sin(a * t) ** 2 * c * c / (a * a)
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        P = np.diag([1.0, 0.0])
        got = leakage(A, P, delta)
        assert abs(got - expected) <= 1e-12
        assert 5.4e-4 <= got <= 5.6e-4
        assert got <= delta

    def test_first_order_cross_term(self):
        rng = np.random.default_rng(5)
        A = random_hermitian(rng, 5, norm=1.0).entries
        P = random_projector(rng, 5, rank=2).entries
        comp = np.eye(5) - P
        cross = spectral_norm(comp @ A @ P)
        delta = 0.09
        for t in (np.pi / 2, 1.3):
            got = per_term_leakage(A, P, delta, order=1, t=t, n_steps=1024)
            expected = 0.5 * np.sqrt(delta) * abs(np.sin(t)) * cross
            assert abs(got - expected) <= 1e-8

    def test_first_order_cross_term_vanishes_at_multiples_of_pi(self):
        rng = np.random.default_rng(6)
        A = random_hermitian(rng, 4, norm=1.0).entries
        P = random_projector(rng, 4, rank=2).entries
        for mult in (1, 2, 3):
            got = per_term_leakage(A, P, 0.04, order=1, t=mult * np.pi, n_steps=4096)
            assert got <= 1e-10, f"t={mult}pi: {got:.3e}"


class TestCumulativeSimpson:
    @pytest.mark.parametrize("n_steps", [8, 9, 64, 511, 4096, 4097])
    def test_matches_scipy(self, n_steps):
        # the quadrature's numpy sum against scipy's on complex matrix stacks
        rng = np.random.default_rng(n_steps)
        s = np.linspace(0.0, 2.5, n_steps + 1)
        freq = rng.normal(size=(3, 3)) * 3.0
        y = rng.normal(size=(3, 3)) * np.exp(1j * freq * s[:, None, None]) + s[:, None, None] ** 2
        ref = (cumulative_simpson(y.real, x=s, axis=0, initial=0.0)
               + 1j * cumulative_simpson(y.imag, x=s, axis=0, initial=0.0))
        ours = _cumsimp(y, s)
        assert ours.shape == ref.shape
        assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestBoundsAndConvergence:
    def test_term_and_cross_bounds(self):
        rng = np.random.default_rng(9)
        for trial in range(6):
            A = normalized_gue(rng, 4)
            P = random_projector(rng, 4, rank=int(rng.integers(1, 4))).entries
            delta = float(rng.choice([0.25, 0.04]))
            t = default_time(delta)
            comp = np.eye(4) - P
            for order in (1, 2, 3):
                term = dyson_term(A, P, delta, order, t)
                assert spectral_norm(term.matrix) <= term.bound + term.slack
                cross = spectral_norm(comp @ term.matrix @ P)
                assert cross <= leakage_term_bound(order, t, delta) + term.slack

    @pytest.mark.parametrize("t", [-0.5, -1.0, -np.pi, -5.0])
    def test_a_negative_time_is_bounded_by_its_magnitude(self, t):
        # (kappa t)^k / k! is negative at odd k for t < 0; a bound taken at t
        # itself would make dyson_term refuse its own quadrature
        rng = np.random.default_rng(11)
        for _ in range(3):
            A = normalized_gue(rng, 4)
            P = random_projector(rng, 4, rank=int(rng.integers(1, 4))).entries
            delta = float(rng.choice([0.25, 0.04]))
            comp = np.eye(4) - P
            for order in (1, 2, 3, 4):
                term = dyson_term(A, P, delta, order, t)
                assert term.bound == dyson_term_bound(order, -t, delta)
                assert spectral_norm(term.matrix) <= term.bound + term.slack
                cross = spectral_norm(comp @ term.matrix @ P)
                assert cross <= leakage_term_bound(order, -t, delta) + term.slack

    def test_partial_sum_converges_to_interaction_unitary(self):
        rng = np.random.default_rng(13)
        A = normalized_gue(rng, 4)
        P = random_projector(rng, 4, rank=2).entries
        delta, t = 0.04, 5.0
        approx = dyson_partial_sum(A, P, delta, max_order=6, t=t, n_steps=512)
        exact = interaction_unitary(A, P, delta, t)
        assert np.linalg.norm(approx - exact, 2) <= 1e-3

    def test_under_resolved_quadrature_raises(self):
        rng = np.random.default_rng(17)
        A = normalized_gue(rng, 4)
        P = random_projector(rng, 4, rank=2).entries
        with pytest.raises(ResolutionError):
            dyson_term(A, P, 0.01, order=3, n_steps=8)

    def test_order_cap_and_delta_range(self):
        A = np.eye(2)
        P = np.diag([1.0, 0.0])
        with pytest.raises(ResourceError, match="^expansion order 9 exceeds budget 8$"):
            dyson_term(A, P, 0.1, order=9)
        with pytest.raises(RangeError):
            sector_hamiltonian(A, P, 1.5)
        with pytest.raises(RangeError):
            default_time(0.0)

    @pytest.mark.parametrize("delta", [-0.1, 2.0])
    @pytest.mark.parametrize("fn", [dyson_term, per_term_leakage])
    def test_an_explicit_time_still_checks_delta(self, fn, delta):
        with pytest.raises(RangeError, match=f"^delta must lie in \\(0, 1\\), got {delta}$"):
            fn(np.diag([1.0, -1.0]), np.diag([1.0, 0.0]), delta, 1, t=1.0)

    def test_the_order_zero_term_has_no_cross_block(self):
        assert leakage_term_bound(0, 1.0, 0.1) == 0.0

    @pytest.mark.parametrize("delta", [-0.5, 2.0])
    @pytest.mark.parametrize("bound", [dyson_term_bound, leakage_term_bound])
    def test_term_bounds_check_delta(self, bound, delta):
        with pytest.raises(RangeError, match=f"^delta must lie in \\(0, 1\\), got {delta}$"):
            bound(2, 1.0, delta)

    @pytest.mark.parametrize("name", sorted(TWO_SECTOR))
    def test_a_projector_of_another_shape_is_refused(self, name):
        message = r"^perturbation shape \(4, 4\) differs from projector shape \(2, 2\)$"
        with pytest.raises(ValidationError, match=message):
            TWO_SECTOR[name](np.eye(4), np.diag([1.0, 0.0]))

    @pytest.mark.parametrize("name", sorted(TWO_SECTOR))
    def test_a_projector_is_read_as_one(self, name):
        # 2I is Hermitian and of A's shape; leakage(A, 2I, 0.1) used to give 4.0
        with pytest.raises(ValidationError, match="^deviation of Projector from idempotent = "):
            TWO_SECTOR[name](np.array([[0.0, 0.5], [0.5, 0.0]]), 2.0 * np.eye(2))

    @pytest.mark.parametrize("name", sorted(READS_A))
    def test_a_perturbation_is_read_as_hermitian(self, name):
        # transition_matrix([0, 1], A) used to return a stochastic matrix for this A
        message = "^deviation of HermitianOperator from Hermitian = "
        with pytest.raises(ValidationError, match=message):
            READS_A[name](np.array([[0.0, 0.9], [0.1, 0.0]]))

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "call",
        [
            lambda t: dyson_term(np.eye(2), np.diag([1.0, 0.0]), 0.1, 1, t),
            lambda t: dyson_term_bound(2, t, 0.1),
            lambda t: leakage_term_bound(2, t, 0.1),
        ],
        ids=["dyson_term", "dyson_term_bound", "leakage_term_bound"],
    )
    def test_a_time_must_be_finite(self, call, t):
        with pytest.raises(RangeError, match=f"^time must be finite, got {t}$"):
            call(t)


class TestStepContracts:
    def test_leakage_below_delta_on_random_instances(self):
        rng = np.random.default_rng(21)
        for dim in (2, 4, 8):
            for _ in range(4):
                A = normalized_gue(rng, dim)
                P = random_projector(rng, dim, rank=int(rng.integers(1, dim))).entries
                for delta in (0.25, 0.04):
                    assert leakage(A, P, delta) <= delta

    def test_effective_error_below_delta(self):
        rng = np.random.default_rng(25)
        for dim in (2, 4, 8):
            for _ in range(4):
                A = normalized_gue(rng, dim)
                P = random_projector(rng, dim, rank=int(rng.integers(1, dim))).entries
                for delta in (0.25, 0.04):
                    assert effective_error(A, P, delta) <= delta

    def test_zero_perturbation_is_exact(self):
        P = np.diag([1.0, 1.0, 0.0, 0.0])
        A = np.zeros((4, 4))
        assert leakage(A, P, 0.25) <= 1e-24
        assert effective_error(A, P, 0.25) <= 1e-24


class TestPathWeight:
    def test_all_static_is_simplex_volume(self):
        for k, t in [(1, 2.0), (3, 2.0), (4, 0.7)]:
            value, bound = path_weight((0,) * k, t)
            exact = t**k / math.factorial(k)
            assert abs(value - exact) <= 1e-9
            assert bound == pytest.approx(exact)

    def test_single_oscillating_slot(self):
        for t in (0.9, np.pi, 4.2):
            value, bound = path_weight((2,), t)
            exact = (np.exp(2j * t) - 1.0) / 2j
            assert abs(value - exact) <= 1e-10
            assert abs(value) <= bound + 1e-10

    def test_mixed_paths_respect_reduced_bound(self):
        rng = np.random.default_rng(29)
        t = 3.0
        for _ in range(10):
            k = int(rng.integers(2, 5))
            phases = [int(rng.choice([0, 2, -2])) for _ in range(k)]
            if all(mu == 0 for mu in phases):
                phases[0] = 2
            value, bound = path_weight(tuple(phases), t)
            assert abs(value) <= bound + 1e-9
            assert bound == pytest.approx(t ** (k - 1) / np.prod(range(1, k)))


class TestMarkovModel:
    def test_columns_are_distributions_and_uphill_zero(self):
        rng = np.random.default_rng(33)
        lam = np.sort(rng.uniform(-1, 1, 6))
        A = normalized_gue(rng, 6)
        T = transition_matrix(lam, A)
        assert np.allclose(T.sum(axis=0), 1.0, atol=1e-12)
        for j in range(6):
            for i in range(6):
                if lam[i] > lam[j]:
                    assert T[i, j] == 0.0
        assert np.all(T >= 0.0)

    def test_matches_compressed_rotation_to_third_order(self):
        rng = np.random.default_rng(37)
        lam = np.sort(rng.uniform(-1, 1, 6))
        A = normalized_gue(rng, 6)
        scales = np.array([0.4, 0.2, 0.1, 0.05])
        devs = []
        for s in scales:
            T = transition_matrix(lam, s * A)
            exact = np.zeros_like(T)
            for j in range(6):
                mask = (lam <= lam[j]).astype(float)
                pj = np.diag(mask)
                B = pj @ (s * A / 2.0) @ pj
                col = evolve(HermitianOperator((B + B.conj().T) / 2), 1.0).entries[:, j]
                exact[:, j] = np.abs(col) ** 2
            devs.append(np.max(np.abs(T - exact)))
        fit = linregress(np.log(scales), np.log(devs))
        assert 2.7 <= fit.slope <= 3.3, f"slope {fit.slope:.3f}"

    def test_overstrong_perturbation_rejected(self):
        lam = np.arange(4.0)
        with pytest.raises(ValidationError):
            transition_matrix(lam, 10.0 * np.ones((4, 4)))


class TestRandomMatrixModel:
    def test_draws_are_hermitian_with_unit_second_moment(self):
        rng = np.random.default_rng(41)
        dim, draws = 8, 300
        m2 = np.empty(draws)
        for i in range(draws):
            A = sample_gue(rng, dim)
            assert np.allclose(A, A.conj().T)
            m2[i] = np.real(np.trace(A @ A)) / dim
        sem = np.std(m2, ddof=1) / np.sqrt(draws)
        assert abs(np.mean(m2) - 1.0) <= 3.0 * sem + 1e-12

    def test_downhill_probability_matches_count_over_4n(self):
        rng = np.random.default_rng(45)
        dim, draws, j = 8, 2000, 5
        lam = np.arange(dim, dtype=float)
        vals = np.empty(draws)
        for i in range(draws):
            vals[i] = cooling_probability(lam, sample_gue(rng, dim), j)
        predicted = j / (4.0 * dim)
        sem = np.std(vals, ddof=1) / np.sqrt(draws)
        assert abs(np.mean(vals) - predicted) <= 3.0 * sem

    def test_index_guard(self):
        with pytest.raises(RangeError):
            cooling_probability(np.arange(3.0), np.eye(3), 5)

    @pytest.mark.parametrize(
        "model", [transition_matrix, lambda lam, A: cooling_probability(lam, A, 1)],
        ids=["transition_matrix", "cooling_probability"],
    )
    def test_one_eigenvalue_per_row(self, model):
        with pytest.raises(ValidationError, match=r"^need one eigenvalue per row, got \(3,\) "
                                                  r"against \(5, 5\)$"):
            model(np.arange(3.0), np.eye(5))

    @pytest.mark.parametrize("dim", [0, -1])
    def test_dimension_floor_is_check_dim(self, dim):
        with pytest.raises(ValidationError, match=f"^GUE dimension must be at least 1, got {dim}$"):
            sample_gue(np.random.default_rng(0), dim)


class TestOneStrength:
    def test_the_kick_strength_has_one_home(self):
        """Every sqrt of a delta in ``src/`` is the one in ``dyson._coupling``."""
        sites = [
            f"{path.name}:{owner}"
            for path in sorted(SRC.glob("*.py"))
            for owner, node in owned_calls(path)
            if callee(node) == "sqrt"
            and any(ast.unparse(arg).split(".")[-1] == "delta" for arg in node.args)
        ]
        assert sites == ["dyson.py:_coupling"]

    def test_each_two_sector_input_has_one_check(self):
        """In ``dyson``, delta is checked only in ``_coupling`` and ``leakage_term_bound``
        (whose delta^(k/2) bypasses kappa), P is read as a ``Projector`` and A as a
        ``HermitianOperator`` only in ``_sectors`` (A also in ``_spectrum``), nothing is
        read by ``square_entries``, and eigenvalues are coerced only in ``_spectrum``."""
        calls = owned_calls(SRC / "dyson.py")

        def owners(keep):
            return sorted(owner for owner, node in calls if keep(node))

        def names(node):
            return {ast.unparse(arg) for arg in node.args}

        assert owners(lambda n: callee(n) == "check_delta") == ["_coupling", "leakage_term_bound"]
        assert owners(lambda n: callee(n) == "Projector") == ["_sectors"]
        assert owners(lambda n: callee(n) == "HermitianOperator" and names(n) == {"A"}) == [
            "_sectors", "_spectrum"]
        assert owners(lambda n: callee(n) == "square_entries") == []
        assert owners(lambda n: "eigenvalues" in names(n) and callee(n) != "_spectrum") == [
            "_spectrum"]
