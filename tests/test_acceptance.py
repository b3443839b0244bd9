"""Acceptance gate: ten certified properties, each with a runtime budget.

Every test measures its own quantities against the documented tolerances,
prints one [PASS]/[FAIL] line, and fails if either the property or the
budget is violated. Tolerances are stated inline next to each check.
"""

import time

import numpy as np
from scipy.stats import linregress

from dyncool import (
    C_DEG,
    CoolingConfig,
    FourierPolynomial,
    HermitianOperator,
    Projector,
    assemble_and_extract,
    cooling_probability,
    default_time,
    dyson_term,
    dyson_term_bound,
    eig,
    eval_fourier,
    evolve,
    fourier_sign,
    leakage,
    leakage_term_bound,
    effective_error,
    per_term_leakage,
    query_costs,
    sample_gue,
    shift_evolution_factored,
    shift_operator,
    spectral_norm,
    synthesize_angles,
    transition_matrix,
)
from dyncool.cooling import run_experiment

from conftest import laurent_sum, normalized_gue, random_hermitian, random_projector, random_unitary


def report(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        f"[{status}] criterion {num:02d} {name}: {detail} "
        f"({elapsed:.1f}s / budget {budget:.0f}s)"
    )
    assert ok, f"criterion {num} {name}: {detail}"
    assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s >= {budget}s"


def two_sector_instances(dims, count, seed):
    """count random (A, projector) pairs per dimension."""
    rng = np.random.default_rng(seed)
    out = {}
    for dim in dims:
        pairs = []
        for _ in range(count):
            rank = int(rng.integers(1, dim))
            pairs.append((normalized_gue(rng, dim), random_projector(rng, dim, rank)))
        out[dim] = pairs
    return out


def test_01_sign_certification():
    """|S| <= 1 (tol 1e-9) and delta-accuracy on the sign band, 1e5 grid,
    degree within C_DEG * (1/eps) * ln(1/delta)."""
    start = time.perf_counter()
    grid = np.linspace(-np.pi, np.pi, 100_001)
    worst = []
    for eps in (0.3, 0.1):
        for delta in (0.1, 0.01):
            S = fourier_sign(eps, delta)
            vals = eval_fourier(S, grid)
            assert np.max(np.abs(vals.imag)) <= 1e-12
            vals = vals.real
            max_abs = np.max(np.abs(vals))
            band = (np.abs(grid) >= eps / 2.0) & (np.abs(grid) <= np.pi - eps / 2.0)
            band_err = np.max(np.abs(vals[band] - np.sign(grid[band])))
            bound = C_DEG * (1.0 / eps) * np.log(1.0 / delta)
            worst.append(
                (
                    max_abs <= 1.0 + 1e-9
                    and band_err <= delta + 1e-9
                    and S.degree <= bound,
                    f"eps={eps} delta={delta} deg={S.degree}",
                )
            )
    elapsed = time.perf_counter() - start
    ok = all(w[0] for w in worst)
    detail = "; ".join(w[1] for w in worst)
    report(1, "sign certification", ok, detail, elapsed, 10.0)


def test_02_block_encoding_reconstruction():
    """50 random (poly deg <= 16, unitary dim <= 8): block within 1e-7 of the
    Laurent sum, with exactly m controlled-U and k controlled-U+ uses."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    probe = np.linspace(-np.pi, np.pi, 2048)
    worst_res, count_ok = 0.0, True
    for _ in range(50):
        k = int(rng.integers(0, 17))
        m = int(rng.integers(0, 17))
        dim = int(rng.integers(2, 9))
        coeffs = rng.normal(size=k + m + 1) + 1j * rng.normal(size=k + m + 1)
        P = FourierPolynomial(coeffs, k, m)
        peak = np.max(np.abs(eval_fourier(P, probe)))
        P = FourierPolynomial(coeffs * (0.9 / peak), k, m)
        angles, pair, scale = synthesize_angles(P, margin=1e-4)
        assert scale == 1.0
        U = random_unitary(rng, dim)
        result = assemble_and_extract(angles, U)
        worst_res = max(worst_res, spectral_norm(result.block - laurent_sum(P, U)))
        count_ok = count_ok and (
            result.cu_applications == m and result.cu_dag_applications == k
        )
    elapsed = time.perf_counter() - start
    ok = worst_res <= 1e-7 and count_ok
    detail = f"worst residual {worst_res:.2e}, query counts exact: {count_ok}"
    report(2, "block-encoding reconstruction", ok, detail, elapsed, 60.0)


def test_03_shift_factorization():
    """Factored register-shift evolution matches direct exponentiation."""
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for dim in (2, 3, 4):
        H = random_hermitian(rng, dim, norm=0.8)
        for n in (1, 2, 3, 4):
            factored = shift_evolution_factored(H, n).entries
            direct = evolve(shift_operator(H, n), -1.0).entries
            worst = max(worst, spectral_norm(factored - direct))
    elapsed = time.perf_counter() - start
    report(
        3,
        "shift factorization",
        worst <= 1e-10,
        f"worst deviation {worst:.2e} over dims 2-4, registers 1-4",
        elapsed,
        5.0,
    )


def test_04_leakage_sweep():
    """240 instances: leakage <= delta everywhere; at delta = 0.25 at least
    30% of instances sit below delta/10 (the bound is loose)."""
    start = time.perf_counter()
    instances = two_sector_instances((2, 4, 8, 16), 20, seed=11)
    violations, small = 0, 0
    worst_ratio = 0.0
    for delta in (0.25, 0.04, 0.01):
        for dim, pairs in instances.items():
            for A, P in pairs:
                leak = leakage(A, P, delta)
                worst_ratio = max(worst_ratio, leak / delta)
                if leak > delta:
                    violations += 1
                if delta == 0.25 and leak <= delta / 10.0:
                    small += 1
    elapsed = time.perf_counter() - start
    frac = small / 80.0
    ok = violations == 0 and frac >= 0.30
    detail = (
        f"0 of 240 exceed delta (worst leak/delta {worst_ratio:.3f}), "
        f"{frac:.0%} of delta=0.25 below delta/10"
        if ok
        else f"{violations} violations, small fraction {frac:.0%}"
    )
    report(4, "leakage sweep", ok, detail, elapsed, 60.0)


def test_05_effective_evolution_sweep():
    """Same grid: phase-corrected kept-sector block within delta of the
    compressed rotation."""
    start = time.perf_counter()
    instances = two_sector_instances((2, 4, 8, 16), 20, seed=11)
    violations, worst_ratio = 0, 0.0
    for delta in (0.25, 0.04, 0.01):
        for dim, pairs in instances.items():
            for A, P in pairs:
                err = effective_error(A, P, delta)
                worst_ratio = max(worst_ratio, err / delta)
                if err > delta:
                    violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0
    detail = f"{violations} of 240 exceed delta, worst err/delta {worst_ratio:.3f}"
    report(5, "effective evolution sweep", ok, detail, elapsed, 60.0)


def test_06_expansion_term_bounds():
    """Expansion terms and their cross-sector blocks obey the factorial
    bounds for k <= 3 (30 dim-4 instances); the first-order cross block
    vanishes at integer multiples of pi."""
    start = time.perf_counter()
    rng = np.random.default_rng(23)
    delta = 0.04
    term_bad = cross_bad = 0
    for _ in range(30):
        A = normalized_gue(rng, 4)
        P = random_projector(rng, 4, int(rng.integers(1, 4)))
        comp = np.eye(4) - P.entries
        for order in (1, 2, 3):
            term = dyson_term(A, P, delta, order)
            if spectral_norm(term.matrix) > term.bound + term.slack:
                term_bad += 1
            cross = spectral_norm(comp @ term.matrix @ P.entries)
            if cross > leakage_term_bound(order, term.time, delta) + term.slack:
                cross_bad += 1
    worst_null = 0.0
    for _ in range(5):
        A = normalized_gue(rng, 4)
        P = random_projector(rng, 4, int(rng.integers(1, 4)))
        for mult in (1, 2, 3):
            val = per_term_leakage(A, P, delta, 1, t=mult * np.pi, n_steps=4096)
            worst_null = max(worst_null, val)
    elapsed = time.perf_counter() - start
    ok = term_bad == 0 and cross_bad == 0 and worst_null <= 1e-10
    detail = (
        f"term bound violations {term_bad}/90, cross {cross_bad}/90, "
        f"worst first-order cross at t=k*pi: {worst_null:.2e}"
    )
    report(6, "expansion term bounds", ok, detail, elapsed, 120.0)


def test_07_query_scaling():
    """Total accounted queries over d iterations at delta = 1/d grow with
    log-log slope 1.5 +/- 0.1 in d, for both oracles."""
    start = time.perf_counter()
    eps = 0.1
    ds = np.array([4, 16, 64, 256])
    tot_e, tot_a = [], []
    for d in ds:
        delta = 1.0 / d
        deg = fourier_sign(eps, delta).degree
        per_e, per_a = query_costs(eps, delta, deg)
        tot_e.append(per_e * d)
        tot_a.append(per_a * d)
    slope_e = linregress(np.log(ds), np.log(tot_e)).slope
    slope_a = linregress(np.log(ds), np.log(tot_a)).slope
    elapsed = time.perf_counter() - start
    ok = abs(slope_e - 1.5) <= 0.1 and abs(slope_a - 1.5) <= 0.1
    detail = f"slopes: evolution {slope_e:.3f}, perturbation {slope_a:.3f}"
    report(7, "query scaling", ok, detail, elapsed, 5.0)


def test_08_success_probability():
    """Fraction of trajectories with zero leak events stays above the
    (1 - 1/d)^d >= 1/4 floor for d in {2, 8, 32}, 1000 trials each."""
    start = time.perf_counter()
    setup = np.random.default_rng(101)
    H = sample_gue(setup, 16)
    H = HermitianOperator(H / spectral_norm(H))
    A = normalized_gue(setup, 16)
    fracs = {}
    for d in (2, 8, 32):
        config = CoolingConfig(epsilon=0.25, steps=d)
        trajectories = run_experiment(H, A, config, seed=d, trials=1000)
        fracs[d] = np.mean([t.success for t in trajectories])
    elapsed = time.perf_counter() - start
    ok = all(f >= 0.25 for f in fracs.values())
    detail = ", ".join(f"d={d}: {f:.3f}" for d, f in fracs.items())
    report(8, "success probability", ok, detail, elapsed, 600.0)


def test_09_markov_statistics():
    """Transition-model error decays as the cube of the coupling scale;
    mean downhill probability and GUE second moments match within 3 sigma."""
    start = time.perf_counter()
    rng = np.random.default_rng(301)
    lam = np.sort(rng.uniform(-1, 1, 6))
    A = normalized_gue(rng, 6)
    devs = []
    scales = np.array([0.4, 0.2, 0.1, 0.05])
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
    slope = linregress(np.log(scales), np.log(devs)).slope

    N, draws, j = 8, 10_000, 5
    lam8 = np.linspace(-1.0, 1.0, N)
    probs = np.empty(draws)
    traces = np.empty(draws)
    offdiag = np.empty(draws)
    for i in range(draws):
        G = sample_gue(rng, N)
        probs[i] = cooling_probability(lam8, G, j)
        traces[i] = np.real(np.trace(G @ G)) / N
        offdiag[i] = np.abs(G[0, 1]) ** 2
    sem = lambda x: np.std(x, ddof=1) / np.sqrt(draws)
    prob_dev = abs(np.mean(probs) - j / (4.0 * N))
    trace_dev = abs(np.mean(traces) - 1.0)
    off_dev = abs(np.mean(offdiag) - 1.0 / N)
    elapsed = time.perf_counter() - start
    ok = (
        abs(slope - 3.0) <= 0.3
        and prob_dev <= 3.0 * sem(probs)
        and trace_dev <= 3.0 * sem(traces)
        and off_dev <= 3.0 * sem(offdiag)
    )
    detail = (
        f"error slope {slope:.2f}; downhill prob dev {prob_dev:.1e} "
        f"(3sig {3 * sem(probs):.1e}); Tr(A^2)/N dev {trace_dev:.1e} "
        f"(3sig {3 * sem(traces):.1e}); |A_01|^2 dev {off_dev:.1e} "
        f"(3sig {3 * sem(offdiag):.1e})"
    )
    report(9, "markov and ensemble statistics", ok, detail, elapsed, 120.0)


def test_10_end_to_end_cooling():
    """500 trajectories, dim 16, eps = 0.1, 32 steps: mean energy per step is
    non-increasing within 2 standard errors (paired), and the mean final
    ground overlap beats the initial one."""
    start = time.perf_counter()
    setup = np.random.default_rng(505)
    H = sample_gue(setup, 16)
    H = HermitianOperator(H / spectral_norm(H))
    A = normalized_gue(setup, 16)
    config = CoolingConfig(epsilon=0.1, steps=32)
    trajectories = run_experiment(H, A, config, seed=42, trials=500)

    energies = np.array([[s.true_energy for s in t.steps] for t in trajectories])
    initial = np.array([t.initial_energy for t in trajectories])
    series = np.column_stack([initial, energies])
    diffs = np.diff(series, axis=1)
    mean_diffs = diffs.mean(axis=0)
    sems = diffs.std(axis=0, ddof=1) / np.sqrt(len(trajectories))
    monotone = np.all(mean_diffs <= 2.0 * sems)
    worst_step = int(np.argmax(mean_diffs - 2.0 * sems))

    init_overlap = np.mean([t.initial_ground_overlap for t in trajectories])
    final_overlap = np.mean([t.final_ground_overlap for t in trajectories])
    elapsed = time.perf_counter() - start
    ok = monotone and final_overlap > init_overlap
    detail = (
        f"energy {series[:, 0].mean():.3f} -> {series[:, -1].mean():.3f}, "
        f"worst step increase {mean_diffs[worst_step]:+.2e} "
        f"(2se {2 * sems[worst_step]:.2e}); overlap {init_overlap:.3f} -> "
        f"{final_overlap:.3f}"
    )
    report(10, "end-to-end cooling", ok, detail, elapsed, 900.0)
