"""Cooling driver: measurement model, sign-operator modes, trajectories.

Oracles: Born-rule frequencies against exact squared amplitudes, the
closed-form two-coupling toy model, and signed-shift reconstruction of the
coherent branches.
"""

import gc
import itertools
import re
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import ceil, floor, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncool import cli, cooling, gqsp, operators
from dyncool.cooling import (
    MODES,
    CoolingConfig,
    StepResult,
    StoppingRule,
    Trajectory,
    build_hsign,
    cooling_step,
    qpe_project,
    query_costs,
    random_initial_state,
    run,
    run_experiment,
)
from dyncool.dyson import default_time
from dyncool.errors import MarginError, RangeError, ValidationError
from dyncool.operators import (
    HermitianOperator,
    eig,
    evolve,
    projector_below,
    spectral_norm,
)
from dyncool.signfun import apply_spectral, fourier_sign

from conftest import coherent_step, normalized_gue, prepare_joint, random_hermitian
from test_reference_trajectories import CASES, trajectory_rows


def toy_instance():
    """Four levels one bin apart, couplings only between non-adjacent pairs
    (separation two bins), so every allowed transition sits safely outside
    the sign transition band."""
    H = HermitianOperator(np.diag([-0.75, -0.25, 0.25, 0.75]))
    A = np.zeros((4, 4), dtype=complex)
    A[0, 2] = A[2, 0] = 1.0
    A[1, 3] = A[3, 1] = 1.0
    return H, A


class TestConfig:
    def test_delta_defaults_to_inverse_steps(self):
        cfg = CoolingConfig(epsilon=0.25, steps=8)
        assert cfg.delta == pytest.approx(0.125)

    def test_validation(self):
        with pytest.raises(RangeError):
            CoolingConfig(epsilon=0.9, steps=4)
        with pytest.raises(ValidationError):
            CoolingConfig(epsilon=0.2, steps=0)
        with pytest.raises(RangeError):
            CoolingConfig(epsilon=0.2, steps=4, delta=1.5)
        with pytest.raises(ValidationError):
            CoolingConfig(epsilon=0.2, steps=4, mode="magic")

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"steps": 2.5, "delta": 0.25}, "steps must be an integer, got 2.5"),
            ({"steps": True}, "steps must be an integer, got True"),
            ({"steps": "3"}, "steps must be an integer, got '3'"),
            ({"epsilon": "0.2"}, "epsilon must be a number, got '0.2'"),
            ({"delta": "0.25"}, "delta must be a number, got '0.25'"),
        ],
        ids=["float-steps", "bool-steps", "string-steps", "string-epsilon", "string-delta"],
    )
    def test_numbers_are_never_bools_or_strings(self, overrides, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            CoolingConfig(**{"epsilon": 0.2, "steps": 3, **overrides})

    @pytest.mark.parametrize("trials", [2.5, True, np.float64(3.0), 0],
                             ids=["float", "bool", "numpy-float", "zero"])
    def test_trials_pass_the_count_rule_of_steps(self, trials):
        H, A = np.diag([-0.5, 0.5]), np.zeros((2, 2))
        cfg = CoolingConfig(epsilon=0.25, steps=2)
        message = "at least 1, got 0" if trials == 0 else f"an integer, got {trials!r}"
        with pytest.raises(ValidationError, match=f"^trials must be {re.escape(message)}$"):
            run_experiment(H, A, cfg, seed=0, trials=trials)
        with pytest.raises(ValidationError, match="^steps must be at least 1, got 0$"):
            CoolingConfig(epsilon=0.25, steps=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True], ids=["negative", "float", "bool"])
    def test_experiment_seed_is_refused_before_any_trial(self, seed, monkeypatch):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(cooling, "_trajectory", no_trial)
        H, A = np.diag([-0.5, 0.5]), np.zeros((2, 2))
        message = "at least 0, got -1" if seed == -1 else f"an integer, got {seed!r}"
        message = f"^seed must be {re.escape(message)}$"
        with pytest.raises(ValidationError, match=message):
            run_experiment(H, A, CoolingConfig(epsilon=0.25, steps=2), seed=seed, trials=2)

    @pytest.mark.parametrize("target", ["x", True, None, float("nan"), float("inf"), -np.inf])
    def test_stopping_target_is_a_finite_number(self, target):
        with pytest.raises(ValidationError, match="^target_estimate must be"):
            StoppingRule(target)

    def test_epsilon_floor_keeps_labels_exact(self):
        with pytest.raises(RangeError, match=r"^epsilon must lie in \[2\^-51, 0.7\], got 1e-25$"):
            CoolingConfig(epsilon=1e-25, steps=2, mode="exact_reflection")
        for below in (np.nextafter(2.0**-51, 0.0), 2.0**-52):
            with pytest.raises(RangeError):
                CoolingConfig(epsilon=below, steps=2, mode="exact_reflection")
        # at the floor every label is the exact integer floor(lam/eps + 1/2): every
        # |lam/eps| stays below 2^52, where adding 1/2 rounds nothing. Below it,
        # 1 + 2^-52 over 2^-52 is the odd 2^52 + 1, and adding 1/2 ties to even
        edge = 1.0 + operators.TOL.norm_slack
        cfg = CoolingConfig(epsilon=2.0**-51, steps=2, mode="exact_reflection")
        values = sorted(v for u in (edge, 1.0 + 2.0**-52, 1.0 + 3 * 2.0**-52, 0.0) for v in (u, -u))
        exact = [floor(Fraction(v) / Fraction(cfg.epsilon) + Fraction(1, 2)) for v in values]
        bins = cooling._Bins(np.array(values), cfg.epsilon)
        assert bins.labels == sorted(set(exact)) and max(map(abs, exact)) < 2**52

    def test_stored_numbers_keep_their_types(self):
        cfg = CoolingConfig(epsilon=np.float64(0.25), steps=np.int64(4))
        assert type(cfg.epsilon) is np.float64 and type(cfg.steps) is np.int64


class TestQpeProject:
    def test_collapse_lands_in_one_bin(self):
        rng = np.random.default_rng(3)
        H = random_hermitian(rng, 8, norm=1.0)
        dec = eig(H)
        state = random_initial_state(rng, 8)
        bin_idx, energy, collapsed = qpe_project(dec, state, 0.25, rng)
        assert abs(np.linalg.norm(collapsed) - 1.0) <= 1e-12
        amps = dec.eigenvectors.conj().T @ collapsed
        bins = np.floor(dec.eigenvalues / 0.25 + 0.5).astype(int)
        off_bin = np.sum(np.abs(amps[bins != bin_idx]) ** 2)
        assert off_bin <= 1e-20
        assert energy == pytest.approx(np.clip(bin_idx * 0.25, -1, 1))

    def test_born_rule_frequencies(self):
        rng = np.random.default_rng(7)
        lam = np.array([-0.6, -0.1, 0.4])
        dec = eig(HermitianOperator(np.diag(lam)))
        state = np.sqrt(np.array([0.5, 0.3, 0.2])).astype(complex)
        epsilon = 0.25  # separates all three eigenvalues into distinct bins
        draws = 4000
        counts = {}
        for _ in range(draws):
            b, _, _ = qpe_project(dec, state, epsilon, rng)
            counts[b] = counts.get(b, 0) + 1
        bins = np.floor(lam / epsilon + 0.5).astype(int)
        for b, p in zip(bins, [0.5, 0.3, 0.2]):
            freq = counts.get(int(b), 0) / draws
            sigma = np.sqrt(p * (1 - p) / draws)
            assert abs(freq - p) <= 3.0 * sigma, f"bin {b}: {freq} vs {p}"

    def test_matches_per_label_reference(self):
        # many eigenvalues per bin, so the grouped sums are long enough for
        # the summation order to matter; the drawn bins must still agree
        lam = np.repeat(np.linspace(-0.9, 0.9, 4), 10) + np.linspace(0, 1e-3, 40)
        dec = eig(HermitianOperator(np.diag(lam)))
        for seed in range(50):
            state = random_initial_state(np.random.default_rng(seed), 40)
            amps = dec.eigenvectors.conj().T @ state
            weights = np.abs(amps) ** 2
            bins = np.floor(dec.eigenvalues / 0.3 + 0.5).astype(int)
            labels = np.unique(bins)
            probs = np.array([weights[bins == b].sum() for b in labels])
            ref_rng, rng = np.random.default_rng((seed, 1)), np.random.default_rng((seed, 1))
            expected = int(ref_rng.choice(labels, p=probs / probs.sum()))
            got, _, collapsed = qpe_project(dec, state, 0.3, rng)
            assert got == expected
            sel = bins == got
            ref = dec.eigenvectors[:, sel] @ amps[sel]
            assert np.linalg.norm(collapsed - ref / np.linalg.norm(ref)) <= 1e-12

    def test_bin_draw_is_rng_choice(self):
        # the inverse-CDF draw must pick what rng.choice picks and consume
        # the same stream, or every seeded trajectory would change
        source = np.random.default_rng(5)
        for trial in range(2000):
            n = int(source.integers(1, 30))
            probs = source.random(n) * (source.random(n) < 0.8)
            probs[source.integers(n)] += 1e-3
            labels = np.arange(n) - n // 2
            ours, theirs = np.random.default_rng((5, trial)), np.random.default_rng((5, trial))
            got = labels[cooling._draw_index(probs, ours)]
            assert got == theirs.choice(labels, p=probs / probs.sum())
            assert ours.bit_generator.state == theirs.bit_generator.state

    def test_epsilon_is_checked(self):
        # the bins refuse a width whose labels would leave the exact integers
        dec = eig(HermitianOperator(np.diag([-0.5, 0.5])))
        state = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(RangeError, match=r"^epsilon must lie in \[2\^-51, 0.7\], got 1e-25$"):
            qpe_project(dec, state, 1e-25, np.random.default_rng(0))

    def test_estimate_clamped_to_unit_interval(self):
        rng = np.random.default_rng(11)
        dec = eig(HermitianOperator(np.diag([0.95, -0.95])))
        state = np.array([1.0, 0.0], dtype=complex)
        bin_idx, energy, _ = qpe_project(dec, state, 0.6, rng)
        assert bin_idx == 2 and energy == 1.0
        state = np.array([0.0, 1.0], dtype=complex)
        bin_idx, energy, _ = qpe_project(dec, state, 0.6, rng)
        assert bin_idx == -2 and energy == -1.0


@st.composite
def binned_spectra(draw):
    """(epsilon, ascending eigenvalues in [-1, 1]) with repeated values,
    values within an ulp of bin edges, and centers clamped at +-1."""
    epsilon = draw(st.floats(0.05, 0.7))
    edges = [(k + 0.5) * epsilon for k in range(-int(1 / epsilon) - 1, int(1 / epsilon) + 1)]
    edge = st.sampled_from(edges).flatmap(
        lambda e: st.sampled_from([np.nextafter(e, -2.0), e, np.nextafter(e, 2.0)])
    )
    value = st.one_of(st.floats(-1.0, 1.0), edge, st.sampled_from([-1.0, 1.0]))
    values = draw(st.lists(value.filter(lambda v: -1.0 <= v <= 1.0), min_size=1, max_size=12))
    values += draw(st.lists(st.sampled_from(values), max_size=4))  # degeneracies
    return epsilon, np.sort(np.array(values, dtype=np.float64))


class TestBinSlices:
    """Bins are slices of the ascending spectrum; one observation product
    gives every weight a step needs."""

    @settings(max_examples=300, deadline=None)
    @given(binned_spectra())
    def test_slices_are_the_label_masks(self, case):
        epsilon, lam = case
        bins = cooling._Bins(lam, epsilon)
        labels = np.floor(lam / epsilon + 0.5).astype(int)
        assert bins.labels == sorted(set(labels.tolist()))
        assert bins.estimates == [float(np.clip(b * epsilon, -1.0, 1.0)) for b in bins.labels]
        for label, (start, stop) in zip(bins.labels, bins.slices):
            mask = np.zeros(lam.size, dtype=bool)
            mask[start:stop] = True
            assert np.array_equal(mask, labels == label)

    @settings(max_examples=150, deadline=None)
    @given(binned_spectra(), st.integers(0, 2**32 - 1))
    def test_observation_matches_direct_sums(self, case, seed):
        epsilon, lam = case
        cfg = CoolingConfig(epsilon=epsilon, steps=2, mode="exact_reflection")
        ctx = cooling._Context(np.diag(lam).astype(complex), np.zeros((lam.size,) * 2), cfg)
        lam, n = ctx.lam, ctx.nbins
        amps = random_initial_state(np.random.default_rng(seed), lam.size)
        weights = np.abs(amps) ** 2
        seen = ctx.observe(amps)
        assert len(seen) == 2 * n + 2
        labels = np.floor(lam / epsilon + 0.5).astype(int)
        _, inverse = np.unique(labels, return_inverse=True)
        assert np.allclose(seen[:n], np.bincount(inverse, weights=weights), rtol=0, atol=1e-14)
        assert abs(seen[n] - lam @ weights) <= 1e-14
        ground = np.count_nonzero(lam <= lam[0] + 1e-12)
        assert abs(seen[n + 1] - weights[:ground].sum()) <= 1e-14
        # each bin's leakage starts at the first eigenvalue two or more labels up
        for i, label in enumerate(ctx.bins.labels):
            leak_from = int(labels.searchsorted(label + 2))
            assert abs(seen[n + 2 + i] - weights[leak_from:].sum()) <= 1e-14
        # the Born rule of the measurement: the bin weights are a distribution, and
        # each outcome leaves the bin's part of the state, renormalized
        assert abs(sum(seen[:n]) - 1.0) <= 1e-12
        for i, label in enumerate(ctx.bins.labels):
            if seen[i] > 0.0:
                collapsed = ctx.bins.collapse(amps, i, seen[i])
                assert abs(np.linalg.norm(collapsed) - 1.0) <= 1e-12
                assert not collapsed[labels != label].any()

    @settings(max_examples=100, deadline=None)
    @given(binned_spectra(), st.integers(0, 2**32 - 1))
    def test_leak_flags_and_leakage_rows_read_one_line(self, case, seed):
        # clamped centers included: the cutoff, the leakage row and the leak flag
        # all come from the integer label, never from the clamped estimate
        epsilon, lam = case
        rng = np.random.default_rng(seed)
        cfg = CoolingConfig(epsilon=epsilon, steps=6, delta=0.9, mode="exact_reflection")
        ctx = cooling._Context(np.diag(lam).astype(complex), normalized_gue(rng, lam.size), cfg)
        bins, n = ctx.bins, ctx.nbins
        labels = np.floor(ctx.lam / epsilon + 0.5).astype(int)
        for i, label in enumerate(bins.labels):
            # one bin above the label's center, which a cap keeps at max(1, top eigenvalue)
            assert bins.cutoffs[i] == min(label * epsilon, max(1.0, ctx.lam[-1])) + epsilon
            if label * epsilon <= 1.0:
                assert bins.cutoffs[i] == label * epsilon + epsilon
            assert bins.cutoffs[i] - epsilon / 2 >= ctx.lam[bins.slices[i][1] - 1] - 1e-12
            operators.shifted_spectrum(ctx.lam, bins.cutoffs[i], epsilon)  # inside the band
            assert bins.leak_from[i] == labels.searchsorted(label + 2)
            assert np.array_equal(ctx.obs[n + 2 + i, ::2], (labels >= label + 2).astype(float))
        index = {label: i for i, label in enumerate(bins.labels)}
        traj = cooling._trajectory(ctx, rng)
        following = [s.bin_index for s in traj.steps[1:]] + [traj.final_bin]
        for step, label in zip(traj.steps, following):
            start = bins.slices[index[label]][0]
            assert ctx.obs[n + 2 + index[step.bin_index], 2 * start] == step.leak_event
            assert step.leak_event == (label >= step.bin_index + 2)

    @pytest.mark.parametrize("mode", ["exact_spectral", "gqsp_circuit"])
    def test_top_cutoff_stays_inside_the_sign_band(self, mode):
        # at epsilon 0.65 the top label 2 has center 1.3; a cutoff one bin above it
        # would put -1 at 2.95 below it, past the sign's band pi - 0.325
        H, A = np.diag([-1.0, 1.0]), np.zeros((2, 2))
        cfg = CoolingConfig(epsilon=0.65, steps=3, mode=mode)
        traj = run(H, A, cfg, np.random.default_rng(0), initial_state=np.array([0.0, 1.0]))
        assert [s.bin_index for s in traj.steps] == [2, 2, 2] and traj.final_bin == 2
        assert abs(traj.final_true_energy - 1.0) <= 1e-12
        assert cooling._MEMO.context(H, A, cfg).bins.cutoffs == pytest.approx([-0.65, 1.65])

    def test_clamped_bin_takes_its_cutoff_and_line_from_its_label(self, monkeypatch):
        # the d = 16 instance ``dyncool run`` builds from seed 9: at epsilon 0.15 the
        # bottom bin's label -7 has center -1.05, which its estimate clamps to -1.0;
        # the top bin's label 7 has center 1.05, which its cutoff caps at 1
        rng = np.random.default_rng(9)
        H = cli.generate_hamiltonian({"type": "random", "dim": 16}, rng)
        A = cli.generate_perturbation({"type": "gue"}, 16, rng)
        ctx = cooling._Context(H, A, CoolingConfig(epsilon=0.15, steps=16))
        assert ctx.bins.labels[0] == -7 and ctx.bins.estimates[0] == -1.0
        assert ctx.bins.labels[-1] == 7 and ctx.lam[-1] < 1.0
        labels = np.floor(ctx.lam / 0.15 + 0.5).astype(int)
        cutoffs = []
        sign_values = cooling._sign_values
        monkeypatch.setattr(cooling, "_sign_values", lambda dec, cutoff, config: (
            cutoffs.append(cutoff) or sign_values(dec, cutoff, config)))
        n = ctx.nbins
        for i, label in enumerate(ctx.bins.labels):
            line = (labels >= label + 2).astype(float)
            assert np.array_equal(ctx.obs[n + 2 + i, ::2], line), (label, labels)
            ctx.step(i)
            assert cutoffs[-1] == (label * 0.15 if label < 7 else 1.0) + 0.15
        assert cutoffs[0] == -7 * 0.15 + 0.15 < ctx.bins.estimates[0] + 0.15


class TestQueryCosts:
    def test_hand_checked_values(self):
        # delta=0.01: ceil(1/(0.1 pi)) = 4 repetitions; register cost
        # ceil(log2 2) * ceil(log2 100) * ceil(2) = 1*7*2 = 14
        assert query_costs(0.5, 0.01, 37) == (37 * 4 + 14, 16)
        # delta=1/16: 2 repetitions; 4*4*10 = 160
        assert query_costs(0.1, 1.0 / 16.0, 100) == (360, 8)

    def test_repetitions_are_the_step_time_count(self, monkeypatch):
        # the integers ceil(1/(pi sqrt(delta))), exact also far past 2^51, are
        # the ones the step time is pi times
        for delta in (0.9, 0.25, 1 / 16, 0.01, 1e-5, 1e-20, 1e-40, 1e-300):
            reps = ceil(1.0 / (np.pi * np.sqrt(delta)))
            assert query_costs(0.5, delta, 1)[1] == 4 * reps
            assert default_time(delta) == np.pi * reps
        monkeypatch.setattr(cooling, "_repetitions", lambda delta: 7)
        assert query_costs(0.5, 0.01, 37) == (37 * 7 + 14, 28)

    def test_validation(self):
        with pytest.raises(RangeError):
            query_costs(0.1, 0.0, 10)
        with pytest.raises(RangeError):
            query_costs(0.8, 0.1, 10)
        with pytest.raises(ValidationError):
            query_costs(0.1, 0.1, -1)

    @pytest.mark.parametrize("degree", [2.5, 2.0, True, "a", None])
    def test_degree_must_be_an_integer(self, degree):
        message = re.escape(f"degree must be an integer, got {degree!r}")
        with pytest.raises(ValidationError, match=f"^{message}$"):
            query_costs(0.1, 0.1, degree)
        assert query_costs(0.1, 0.1, np.int64(2)) == query_costs(0.1, 0.1, 2)


class TestBuildHsign:
    def test_spectral_close_to_reflection_off_band(self):
        # eigenvalues at least eps/2 away from the cutoff on both sides
        lam = np.array([-0.8, -0.45, 0.05, 0.6])
        dec = eig(HermitianOperator(np.diag(lam)))
        epsilon, delta = 0.3, 0.05
        cutoff = -0.1
        cfg_s = CoolingConfig(epsilon=epsilon, steps=4, delta=delta)
        cfg_r = CoolingConfig(epsilon=epsilon, steps=4, delta=delta, mode="exact_reflection")
        hs = build_hsign(dec, cutoff, cfg_s)
        hr = build_hsign(dec, cutoff, cfg_r)
        assert np.linalg.norm(hs - hr, 2) <= delta + 1e-9

    def test_circuit_mode_matches_spectral(self):
        rng = np.random.default_rng(13)
        H = random_hermitian(rng, 6, norm=0.9)
        dec = eig(H)
        epsilon, delta = 0.3, 0.1
        cfg_s = CoolingConfig(epsilon=epsilon, steps=4, delta=delta)
        cfg_g = CoolingConfig(epsilon=epsilon, steps=4, delta=delta, mode="gqsp_circuit")
        for cutoff in (-0.4, 0.1, 0.8):
            hs = build_hsign(dec, cutoff, cfg_s)
            hg = build_hsign(dec, cutoff, cfg_g)
            assert np.linalg.norm(hs - hg, 2) <= 1e-9

    def test_reflection_equals_projector_route(self):
        rng = np.random.default_rng(41)
        dec = eig(random_hermitian(rng, 12, norm=1.0))
        cfg = CoolingConfig(epsilon=0.25, steps=4, mode="exact_reflection")
        for cutoff in (-1.5, -0.3, 0.0, 0.4, 1.5, dec.eigenvalues[5]):
            expected = np.eye(12) - 2 * projector_below(dec, cutoff).entries
            assert np.max(np.abs(build_hsign(dec, cutoff, cfg) - expected)) <= 1e-14

    def test_range_guard(self):
        dec = eig(HermitianOperator(np.diag([-0.9, 0.9])))
        cfg = CoolingConfig(epsilon=0.3, steps=4)
        with pytest.raises(RangeError):
            build_hsign(dec, 2.5, cfg)


class TestRunInvariants:
    def test_zero_perturbation_freezes_trajectory(self):
        rng = np.random.default_rng(17)
        H = random_hermitian(rng, 8, norm=1.0)
        cfg = CoolingConfig(epsilon=0.25, steps=6)
        traj = run(H, np.zeros((8, 8)), cfg, rng)
        assert len(traj.steps) == 6
        first = traj.steps[0]
        for s in traj.steps:
            assert s.energy_estimate == first.energy_estimate
            assert abs(s.ground_overlap - first.ground_overlap) <= 1e-12
            assert abs(s.true_energy - first.true_energy) <= 1e-12
            assert s.leakage_weight <= 1e-18
            assert not s.leak_event
        assert traj.success and traj.leak_events == 0
        assert traj.final_energy_estimate == first.energy_estimate

    def test_per_step_leakage_weight_within_budget(self):
        for mode in ("exact_spectral", "exact_reflection"):
            for seed in range(6):
                rng = np.random.default_rng(seed)
                H = random_hermitian(rng, 8, norm=1.0)
                A = normalized_gue(rng, 8)
                cfg = CoolingConfig(epsilon=0.25, steps=5, mode=mode)
                traj = run(H, A, cfg, rng)
                for s in traj.steps:
                    assert s.leakage_weight <= cfg.delta + 1e-8

    def test_bookkeeping_and_cumulative_queries(self):
        rng = np.random.default_rng(19)
        H = random_hermitian(rng, 6, norm=1.0)
        A = normalized_gue(rng, 6)
        cfg = CoolingConfig(epsilon=0.25, steps=4)
        traj = run(H, A, cfg, rng)
        per_eiH = traj.steps[0].queries_eiH
        per_UA = traj.steps[0].queries_UA
        for s in traj.steps:
            assert s.queries_eiH == per_eiH * (s.step + 1)
            assert s.queries_UA == per_UA * (s.step + 1)
        assert traj.success == (traj.leak_events == 0)
        assert 0.0 <= traj.final_ground_overlap <= 1.0 + 1e-12

    def test_leak_event_flags_match_bin_sequence(self):
        # strong coupling on a two-level system produces occasional leaks
        H = HermitianOperator(np.diag([-0.5, 0.5]))
        A = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        cfg = CoolingConfig(epsilon=0.25, steps=3, delta=0.9)
        ground = np.array([1.0, 0.0], dtype=complex)
        total_events = 0
        for trial in range(400):
            rng = np.random.default_rng((123, trial))
            traj = run(H, A, cfg, rng, initial_state=ground)
            bins = [s.bin_index for s in traj.steps] + [traj.final_bin]
            for i, s in enumerate(traj.steps):
                assert s.leak_event == (bins[i + 1] >= bins[i] + 2)
            total_events += traj.leak_events
        assert total_events > 0

    def test_stopping_rule_exits_early(self):
        rng = np.random.default_rng(23)
        H = HermitianOperator(np.diag([-0.75, -0.25, 0.25, 0.75]))
        ground = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        cfg = CoolingConfig(epsilon=0.5, steps=5)
        traj = run(H, np.zeros((4, 4)), cfg, rng, initial_state=ground,
                   stopping=StoppingRule(target_estimate=-0.5))
        assert len(traj.steps) == 0
        assert traj.final_energy_estimate == pytest.approx(-0.5)

    def test_terminal_measurement_after_a_stop_sees_the_collapsed_state(self):
        # without a perturbation the state never leaves its first bin, so a
        # run that stops at step 0 must measure a stopping bin once more
        H = HermitianOperator(np.diag([-0.75, -0.25, 0.25, 0.75]))
        cfg = CoolingConfig(epsilon=0.5, steps=3)
        stops = 0
        for trial in range(40):
            rng = np.random.default_rng((29, trial))
            traj = run(H, np.zeros((4, 4)), cfg, rng, stopping=StoppingRule(0.0))
            if traj.steps:
                assert {s.bin_index for s in traj.steps} == {traj.final_bin}
            else:
                stops += 1
                assert traj.final_energy_estimate <= 0.0
        assert 0 < stops < 40

    def test_rejects_non_finite_initial_state(self):
        rng = np.random.default_rng(31)
        H = random_hermitian(rng, 4, norm=0.9)
        cfg = CoolingConfig(epsilon=0.25, steps=2)
        bad = np.array([np.nan, 0.0, 0.0, 0.0], dtype=complex)
        with pytest.raises(ValidationError):
            run(H, np.zeros((4, 4)), cfg, rng, initial_state=bad)

    def test_rejects_oversized_operators(self):
        rng = np.random.default_rng(29)
        H = random_hermitian(rng, 4, norm=1.2)
        cfg = CoolingConfig(epsilon=0.25, steps=2)
        with pytest.raises(ValidationError):
            run(H, np.zeros((4, 4)), cfg, rng)
        H = random_hermitian(rng, 4, norm=0.9)
        with pytest.raises(ValidationError):
            run(H, 3.0 * np.eye(4), cfg, rng)


def keyword_records(ctx, rng, stopping=None) -> list:
    """The step records of one ``_trajectory`` call, replayed on the same
    context primitives and built by keyword, one field at a time, drawing
    from ``rng`` one scalar at a time. After a bin of one eigenvalue the
    replay takes the context's fixed post-kick state."""
    n, bins = ctx.nbins, ctx.bins
    real, imag = [np.array([rng.normal() for _ in range(ctx.dim)]) for _ in range(2)]
    vec = real + 1j * imag
    amps = ctx.vecs_h @ (vec / np.linalg.norm(vec))
    seen = ctx.observe(amps)
    labels, kept = [], []
    for step in range(ctx.config.steps):
        idx = cooling._draw_index(seen[:n], rng)
        labels.append(bins.labels[idx])
        if stopping is not None and stopping.satisfied(bins.estimates[idx]):
            seen = ctx.observe(bins.collapse(amps, idx, seen[idx]))
            break
        start, stop = bins.slices[idx]
        entry = ctx.kick(idx)
        if isinstance(entry, cooling._Fixed):
            amps, seen = entry.amps, list(entry.seen)
        else:
            amps = entry @ (amps[start:stop] / sqrt(seen[idx]))
            seen = ctx.observe(amps)
        kept.append((step, idx, seen))
    labels.append(bins.labels[cooling._draw_index(seen[:n], rng)])
    return [
        StepResult(
            step=step,
            bin_index=labels[step],
            energy_estimate=bins.estimates[idx],
            true_energy=obs[n],
            ground_overlap=obs[n + 1],
            leakage_weight=obs[n + 2 + idx],
            queries_eiH=ctx.per_eiH * (step + 1),
            queries_UA=ctx.per_UA * (step + 1),
            leak_event=labels[step + 1] >= labels[step] + 2,
        )
        for step, idx, obs in kept
    ]


BIT_GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.Philox)


class TestDraws:
    """A trajectory draws 2 * dim normals for its initial state (none when
    one is given), then steps + 1 uniforms, however early it stops."""

    @pytest.mark.parametrize("how", ["all_steps", "stops_at_step_0", "given_state"])
    def test_rng_advances_by_the_stated_draws(self, how):
        rng = np.random.default_rng(50)
        H = random_hermitian(rng, 6, norm=1.0)
        A = normalized_gue(rng, 6)
        cfg = CoolingConfig(epsilon=0.25, steps=5)
        # estimates are clamped to [-1, 1], so a target of 1 stops at step 0
        stopping = StoppingRule(1.0) if how == "stops_at_step_0" else None
        state = random_initial_state(rng, 6) if how == "given_state" else None
        used, twin = np.random.default_rng(7), np.random.default_rng(7)
        traj = run(H, A, cfg, used, initial_state=state, stopping=stopping)
        assert len(traj.steps) == (0 if stopping else cfg.steps)
        for _ in range(0 if how == "given_state" else 2 * 6):
            twin.normal()
        for _ in range(cfg.steps + 1):
            twin.random()
        assert used.random() == twin.random()

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
    def test_drawn_state_is_the_public_draw(self, bit_generator):
        # ``run`` draws its state unchecked, bit for bit as ``random_initial_state`` does
        used = np.random.Generator(bit_generator(8))
        twin = np.random.Generator(bit_generator(8))
        for dim in (1, 6, 40):
            assert np.array_equal(cooling._haar_state(used, dim), random_initial_state(twin, dim))
        assert used.random() == twin.random()


class TestStepRecord:
    """A step record is a ``NamedTuple``: immutable, hashable, and equal to
    a plain tuple of its values."""

    RECORD = StepResult(2, 3, -0.3, -0.25, 0.5, 0.125, 30, 12, False)

    def test_fields_and_repr_are_pinned(self):
        assert StepResult._fields == (
            "step",
            "bin_index",
            "energy_estimate",
            "true_energy",
            "ground_overlap",
            "leakage_weight",
            "queries_eiH",
            "queries_UA",
            "leak_event",
        )
        assert repr(self.RECORD) == (
            "StepResult(step=2, bin_index=3, energy_estimate=-0.3, true_energy=-0.25, "
            "ground_overlap=0.5, leakage_weight=0.125, queries_eiH=30, queries_UA=12, "
            "leak_event=False)"
        )

    def test_trajectory_record_is_pinned_too(self):
        traj = Trajectory((self.RECORD,), -0.1, 0.25, 3, -0.3, -0.25, 0.5, 0, True)
        assert Trajectory._fields == (
            "steps",
            "initial_energy",
            "initial_ground_overlap",
            "final_bin",
            "final_energy_estimate",
            "final_true_energy",
            "final_ground_overlap",
            "leak_events",
            "success",
        )
        assert repr(traj) == (
            f"Trajectory(steps=({self.RECORD!r},), initial_energy=-0.1, "
            "initial_ground_overlap=0.25, final_bin=3, final_energy_estimate=-0.3, "
            "final_true_energy=-0.25, final_ground_overlap=0.5, leak_events=0, success=True)"
        )
        with pytest.raises(AttributeError):
            traj.success = False
        assert len({traj, Trajectory(**traj._asdict())}) == 1

    def test_immutable_and_hashable(self):
        with pytest.raises(AttributeError):
            self.RECORD.step = 4
        same = StepResult(**self.RECORD._asdict())
        assert hash(same) == hash(self.RECORD)
        assert len({self.RECORD, same}) == 1
        assert self.RECORD == (2, 3, -0.3, -0.25, 0.5, 0.125, 30, 12, False)

    @pytest.mark.parametrize("target", [None, -0.4])
    @pytest.mark.parametrize("mode", MODES)
    def test_trajectory_records_equal_keyword_records(self, mode, target):
        # at d=9 some bins hold one eigenvalue and some more, so both kick paths
        # run; each bit generator fills a block with the draws its scalar calls make
        rng = np.random.default_rng(48)
        H = random_hermitian(rng, 9, norm=1.0)
        A = normalized_gue(rng, 9)
        cfg = CoolingConfig(epsilon=0.2, steps=8, delta=0.9, mode=mode)
        stopping = None if target is None else StoppingRule(target)
        ctx = cooling._MEMO.context(H, A, cfg)
        lengths, rises = set(), set()
        for bit_generator, trial in itertools.product(BIT_GENERATORS, range(12)):
            twins = [np.random.Generator(bit_generator((48, trial))) for _ in range(2)]
            traj = cooling._trajectory(ctx, twins[0], stopping=stopping)
            expected = keyword_records(ctx, twins[1], stopping)
            assert all(type(s) is StepResult for s in traj.steps)
            assert traj.steps == tuple(expected)
            assert traj.leak_events == sum(s.leak_event for s in expected)
            lengths.add(len(traj.steps))
            bins = [s.bin_index for s in traj.steps] + [traj.final_bin]
            rises.update(b - a for a, b in zip(bins, bins[1:]) if b > a)
        assert 1 in rises  # a rise of one bin is not a leak, two or more are
        if target is None:
            assert lengths == {cfg.steps} and max(rises) >= 2
        else:  # some trials stop after a few steps, some run to the end
            assert any(0 < k < cfg.steps for k in lengths) and cfg.steps in lengths


class TestFixedState:
    """A bin of one eigenvalue collapses every incoming state onto the same
    eigenvector up to a phase, so the context keeps its post-kick state."""

    @staticmethod
    def context(mode, monkeypatch):
        monkeypatch.setattr(cooling, "_MEMO", cooling._Memo(cooling._MEMO_CONTEXTS))
        rng = np.random.default_rng(48)
        H = random_hermitian(rng, 9, norm=1.0)
        A = normalized_gue(rng, 9)
        cfg = CoolingConfig(epsilon=0.2, steps=8, delta=0.9, mode=mode)
        return cooling._MEMO.context(H, A, cfg)

    @pytest.mark.parametrize("mode", MODES)
    def test_fixed_state_is_the_kick_of_any_incoming_state(self, mode, monkeypatch):
        ctx = self.context(mode, monkeypatch)
        n = ctx.nbins
        widths = [stop - start for start, stop in ctx.bins.slices]
        assert 1 in widths and max(widths) > 1
        for idx, (start, stop) in enumerate(ctx.bins.slices):
            fixed = ctx.kick(idx)
            if stop - start > 1:
                assert not isinstance(fixed, cooling._Fixed)
                continue
            # the whole kick, built again independently of the context's entry
            cutoff = ctx.bins.labels[idx] * ctx.config.epsilon + ctx.config.epsilon
            signs = cooling._sign_values(ctx.dec, cutoff, ctx.config)
            unitary = cooling._kick(signs, ctx.a_rot, ctx.config.delta)
            assert np.array_equal(fixed.amps, unitary[:, start])
            assert not fixed.amps.flags.writeable
            assert fixed.cdf == tuple(cooling._cdf(fixed.seen[:n]))
            for seed in range(3):
                amps = ctx.vecs_h @ random_initial_state(np.random.default_rng(seed), ctx.dim)
                weight = ctx.observe(amps)[idx]
                kicked = unitary[:, start:stop] @ (amps[start:stop] / sqrt(weight))
                assert np.allclose(fixed.seen, ctx.observe(kicked), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("mode", MODES)
    def test_stop_after_fixed_step_draws_from_the_collapsed_state(self, mode, monkeypatch):
        # the final draw after a stop must use the collapsed state's own CDF,
        # which puts all weight on the stopping bin, not the fixed state's CDF
        ctx = self.context(mode, monkeypatch)
        stopping = StoppingRule(-0.4)
        index = {label: i for i, label in enumerate(ctx.bins.labels)}
        above = [not stopping.satisfied(e) for e in ctx.bins.estimates]
        stale_misses = 0.0  # expected final draws above the target from a stale CDF
        for trial in range(40):
            traj = cooling._trajectory(ctx, np.random.default_rng((48, trial)), stopping=stopping)
            if not 0 < len(traj.steps) < ctx.config.steps:
                continue
            assert stopping.satisfied(traj.final_energy_estimate)
            fixed = ctx.kick(index[traj.steps[-1].bin_index])
            if isinstance(fixed, cooling._Fixed):
                stale_misses += sum(w for w, up in zip(fixed.seen, above) if up)
        assert stale_misses > 2.0


class TestOneKick:
    """Every step is built by ``cooling._kick`` in H's eigenbasis; these pin it
    to the original-basis construction exp(-iT (build_hsign + (sqrt(delta)/2) A))."""

    @staticmethod
    def instance(mode):
        rng = np.random.default_rng(48)
        H = random_hermitian(rng, 9, norm=1.0)
        A = normalized_gue(rng, 9)
        cfg = CoolingConfig(epsilon=0.2, steps=8, delta=0.9, mode=mode)
        return H, A, cfg

    @staticmethod
    def reference(dec, A, cutoff, cfg):
        hsign = build_hsign(dec, cutoff, cfg)
        generator = HermitianOperator(hsign + 0.5 * np.sqrt(cfg.delta) * A)
        return evolve(generator, default_time(cfg.delta)).entries

    @pytest.mark.parametrize("mode", MODES)
    def test_memo_unitary_is_the_original_basis_step(self, mode):
        H, A, cfg = self.instance(mode)
        ctx = cooling._Context(H.entries, A, cfg)
        vecs = ctx.dec.eigenvectors
        widths = [stop - start for start, stop in ctx.bins.slices]
        assert 1 in widths and max(widths) > 1
        for idx, label in enumerate(ctx.bins.labels):
            entry = ctx.step(idx)
            block = entry.amps[:, None] if isinstance(entry, cooling._Fixed) else entry
            start, stop = ctx.bins.slices[idx]
            expected = self.reference(ctx.dec, A, label * cfg.epsilon + cfg.epsilon, cfg)
            assert block.shape == (ctx.dim, stop - start) and not block.flags.writeable
            assert np.max(np.abs(block - (vecs.conj().T @ expected @ vecs)[:, start:stop])) <= 1e-12

    @pytest.mark.parametrize("mode", MODES)
    def test_cooling_step_is_the_original_basis_step(self, mode):
        H, A, cfg = self.instance(mode)
        dec = eig(H)
        state = random_initial_state(np.random.default_rng(5), 9)
        for cutoff in cooling._Bins(dec.eigenvalues, cfg.epsilon).cutoffs:
            expected = self.reference(dec, A, cutoff, cfg)
            unitary = np.column_stack([cooling_step(dec, e, A, cutoff, cfg) for e in np.eye(9)])
            assert np.max(np.abs(unitary - expected)) <= 1e-12
            after = cooling_step(dec, state, A, cutoff, cfg)
            assert np.max(np.abs(after - expected @ state)) <= 1e-12

    def test_every_step_goes_through_the_builder(self, monkeypatch):
        class Built(Exception):
            pass

        def builder(*args):
            raise Built

        monkeypatch.setattr(cooling, "_MEMO", cooling._Memo(1))
        monkeypatch.setattr(cooling, "_kick", builder)
        H, A, cfg = self.instance("exact_spectral")
        dec = eig(H)
        with pytest.raises(Built):
            run(H, A, cfg, np.random.default_rng(0))
        with pytest.raises(Built):
            cooling_step(dec, random_initial_state(np.random.default_rng(0), 9), A, 0.0, cfg)

    BAD_A = {
        "shape": lambda A: A[:4, :4],
        "non_hermitian": lambda A: A + np.triu(np.full_like(A, 1e-6), 1),
        "norm": lambda A: 5.0 * A / spectral_norm(A),
    }

    @pytest.mark.parametrize("bad", sorted(BAD_A))
    def test_cooling_step_rejects_a_bad_perturbation(self, bad):
        H, A, cfg = self.instance("exact_spectral")
        dec = eig(H)
        state = random_initial_state(np.random.default_rng(0), 9)
        with pytest.raises(ValidationError):
            cooling_step(dec, state, self.BAD_A[bad](A), 0.0, cfg)


class TestStepCache:
    """``run`` builds the step unitary once per visited bin; a hand-written
    loop over the public ``cooling_step`` rebuilds it at every step."""

    @pytest.mark.parametrize("mode", MODES)
    def test_cached_run_equals_uncached_loop(self, mode, monkeypatch):
        rng = np.random.default_rng(6)
        H = random_hermitian(rng, 6, norm=1.0)
        A = normalized_gue(rng, 6)
        cfg = CoolingConfig(epsilon=0.3, steps=10, delta=0.8, mode=mode)
        built = []  # the bin index of every step unitary built
        step = cooling._Context.step
        monkeypatch.setattr(
            cooling._Context, "step", lambda ctx, b: built.append(b) or step(ctx, b)
        )
        traj = run(H, A, cfg, np.random.default_rng((6, 1)))
        monkeypatch.undo()

        dec = eig(H)
        S = None if mode == "exact_reflection" else fourier_sign(cfg.epsilon, cfg.delta)
        per_eiH, per_UA = query_costs(cfg.epsilon, cfg.delta, 0 if S is None else S.degree)
        rng = np.random.default_rng((6, 1))
        state = random_initial_state(rng, 6)
        bins = []
        assert len(traj.steps) == cfg.steps
        for s in traj.steps:
            b, estimate, state = qpe_project(dec, state, cfg.epsilon, rng)
            state = cooling_step(dec, state, A, estimate + cfg.epsilon, cfg)
            bins.append(b)
            tail = dec.eigenvalues >= estimate + 1.5 * cfg.epsilon
            leak = np.sum(np.abs(dec.eigenvectors[:, tail].conj().T @ state) ** 2)
            assert s.bin_index == b
            assert abs(s.true_energy - np.real(state.conj() @ H.entries @ state)) <= 1e-12
            assert abs(s.ground_overlap - abs(dec.eigenvectors[:, 0].conj() @ state) ** 2) <= 1e-12
            assert abs(s.leakage_weight - leak) <= 1e-12
            assert (s.queries_eiH, s.queries_UA) == (per_eiH * (s.step + 1), per_UA * (s.step + 1))
        final_bin, _, state = qpe_project(dec, state, cfg.epsilon, rng)
        assert traj.final_bin == final_bin
        assert abs(traj.final_true_energy - np.real(state.conj() @ H.entries @ state)) <= 1e-12
        bins.append(final_bin)
        assert [s.leak_event for s in traj.steps] == [
            bins[i + 1] >= bins[i] + 2 for i in range(cfg.steps)
        ]
        # the trajectory leaves a bin and later returns to it, so the cache is hit
        steps = bins[:-1]
        assert any(
            steps[j] != steps[i] and steps[i] in steps[j + 1 :]
            for i in range(cfg.steps) for j in range(i + 1, cfg.steps)
        )
        assert len(built) == len(set(steps))


class TestSharedContext:
    """``run`` takes its (H, A, config) preparation from a content-keyed memo."""

    @pytest.fixture(autouse=True)
    def cold_memo(self, monkeypatch):
        memo = cooling._Memo(cooling._MEMO_CONTEXTS)
        monkeypatch.setattr(cooling, "_MEMO", memo)
        return memo

    @staticmethod
    def instance(seed, dim=8):
        rng = np.random.default_rng(seed)
        return random_hermitian(rng, dim, norm=1.0).entries.copy(), normalized_gue(rng, dim)

    def test_experiment_diagonalizes_once_and_runs_no_svd(self, monkeypatch):
        H, A = self.instance(64, dim=64)
        cfg = CoolingConfig(epsilon=0.1, steps=12)
        counts = {"eig": 0, "svd": 0}
        real_eig, real_svd, real_norm = operators.eig, np.linalg.svd, np.linalg.norm

        def counting_eig(op):
            counts["eig"] += 1
            return real_eig(op)

        def counting_svd(*args, **kwargs):
            counts["svd"] += 1
            return real_svd(*args, **kwargs)

        def counting_norm(x, ord=None, *args, **kwargs):
            counts["svd"] += ord == 2 and np.ndim(x) == 2  # the 2-norm of a matrix is an SVD
            return real_norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(operators, "eig", counting_eig)
        monkeypatch.setattr(cooling, "eig", counting_eig)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(np.linalg, "norm", counting_norm)
        trajectories = run_experiment(H, A, cfg, seed=3, trials=16)
        bins = {s.bin_index for t in trajectories for s in t.steps}
        assert len(bins) > 1
        assert counts == {"eig": 1 + len(bins), "svd": 0}
        assert run_experiment(H, A, cfg, seed=3, trials=16) == trajectories
        assert counts == {"eig": 1 + len(bins), "svd": 0}

    def test_experiment_looks_up_its_context_once(self, cold_memo, monkeypatch):
        H, A = self.instance(21)
        cfg = CoolingConfig(epsilon=0.25, steps=6, delta=0.5)
        lookups = []
        context = cold_memo.context
        monkeypatch.setattr(cold_memo, "context", lambda *a: lookups.append(a) or context(*a))
        for stopping in (None, StoppingRule(0.0)):
            lookups.clear()
            trajectories = run_experiment(H, A, cfg, seed=4, trials=8, stopping=stopping)
            assert len(lookups) == 1
            assert trajectories == [
                run(H, A, cfg, np.random.default_rng((4, t)), stopping=stopping)
                for t in range(8)
            ]

    def test_evicted_context_keeps_no_steps(self):
        # a context's steps live only in it, and the memo keeps no reference
        # to a context it evicted; a caller still holding one runs unchanged
        memo = cooling._Memo(1)
        cfg = CoolingConfig(epsilon=0.25, steps=3)
        H, A = self.instance(1)
        held = memo.context(H, A, cfg)
        memo.context(*self.instance(2), cfg)  # evicts ``held``
        assert all(ctx is not held for ctx in memo.contexts.values())
        got = cooling._trajectory(held, np.random.default_rng(1))
        assert any(entry is not None for entry in held.kicks)
        assert got == cooling._trajectory(memo.context(H, A, cfg), np.random.default_rng(1))
        evicted = weakref.ref(held)
        memo.context(*self.instance(2), cfg)
        del held
        gc.collect()
        assert evicted() is None

    def test_equal_content_in_a_new_array_hits_the_same_context(self, cold_memo):
        H, A = self.instance(14)
        cfg = CoolingConfig(epsilon=0.25, steps=3)
        ctx = cold_memo.context(H, A, cfg)
        other = cold_memo.context(*self.instance(15), cfg)  # the newest, scanned first
        assert cold_memo.context(H.copy(), np.array(A), cfg) is ctx
        assert cold_memo.context(HermitianOperator(H), A, cfg) is ctx
        assert list(cold_memo.contexts.values()) == [other, ctx]  # a hit is the newest

    def test_in_place_change_is_not_served_a_stale_context(self, cold_memo):
        H, A = self.instance(5)
        cfg = CoolingConfig(epsilon=0.25, steps=6)
        first = run(H, A, cfg, np.random.default_rng(1))
        for arr in (H, A):
            saved = arr.copy()
            arr *= 0.5
            changed = run(H, A, cfg, np.random.default_rng(1))
            cold_memo.contexts.clear()
            assert run(H, A, cfg, np.random.default_rng(1)) == changed != first
            arr[...] = saved
            assert run(H, A, cfg, np.random.default_rng(1)) == first

    @pytest.mark.parametrize(
        "which, bad",
        [
            ("H", lambda H: H + np.triu(np.full_like(H, 1e-6), 1)),
            ("H", lambda H: 1.2 * H),
            ("H", lambda H: np.where(np.eye(len(H)) > 0, np.nan, H)),
            ("A", lambda A: A + np.triu(np.full_like(A, 1e-6), 1)),
            ("A", lambda A: 3.0 * A / spectral_norm(A)),
            ("A", lambda A: np.where(np.eye(len(A)) > 0, np.inf, A)),
            ("A", lambda A: A[:-1, :-1]),
        ],
        ids=[
            "H_non_hermitian", "H_norm", "H_nan",
            "A_non_hermitian", "A_norm", "A_inf", "A_shape",
        ],
    )
    def test_invalid_input_raises_on_every_call(self, cold_memo, which, bad):
        H, A = self.instance(9)
        H, A = (bad(H), A) if which == "H" else (H, bad(A))
        cfg = CoolingConfig(epsilon=0.25, steps=3)
        for _ in range(3):
            with pytest.raises(ValidationError):
                run(H, A, cfg, np.random.default_rng(0))
        assert not cold_memo.contexts

    def test_failed_synthesis_raises_on_every_call(self, cold_memo, monkeypatch):
        # a context resolves its config's angles before the memo keeps it
        def fail(*args, **kwargs):
            raise MarginError("synthesis failed")

        monkeypatch.setattr(cooling, "synthesize_angles", fail)
        cooling._angles_cached.cache_clear()
        H, A = self.instance(9)
        cfg = CoolingConfig(epsilon=0.25, steps=3, mode="gqsp_circuit")
        for _ in range(3):
            with pytest.raises(MarginError):
                run(H, A, cfg, np.random.default_rng(0))
        assert not cold_memo.contexts

    def test_raw_array_and_operator_share_a_context(self, cold_memo):
        H, A = self.instance(12)
        H *= (1.0 + 1e-11) / spectral_norm(H)  # inside the norm slack
        cfg = CoolingConfig(epsilon=0.25, steps=3)
        run(HermitianOperator(H), A, cfg, np.random.default_rng(0))
        run(H, A, cfg, np.random.default_rng(0))  # a raw array is checked with TOL as well
        assert len(cold_memo.contexts) == 1

    @staticmethod
    def spy_builds(monkeypatch) -> list:
        """The (context, bin index) of every step ``_Context.step`` builds."""
        built, step = [], cooling._Context.step
        monkeypatch.setattr(
            cooling._Context, "step", lambda ctx, b: built.append((ctx, b)) or step(ctx, b)
        )
        return built

    def test_memo_never_exceeds_its_bound(self, cold_memo, monkeypatch):
        assert cooling._MEMO_CONTEXTS == 4
        cfg = CoolingConfig(epsilon=0.2, steps=8, delta=0.8)
        for seed in range(7):
            H, A = self.instance(seed)
            run(H, A, cfg, np.random.default_rng(seed))
            assert len(cold_memo.contexts) <= cold_memo.max_contexts
        assert len(cold_memo.contexts) == 4

        # once every bin is visited, a context's entries hold the d columns of
        # one d x d complex array
        for ctx in cold_memo.contexts.values():
            entries = [ctx.kick(b) for b in range(ctx.nbins)]
            blocks = [e.amps[:, None] if isinstance(e, cooling._Fixed) else e for e in entries]
            assert all(block.shape[0] == ctx.dim for block in blocks)
            assert sum(block.shape[1] for block in blocks) == ctx.dim
            assert sum(block.nbytes for block in blocks) == ctx.dim**2 * 16

        # at a bound of two contexts, three inputs in turn evict each other: an
        # evicted context is rebuilt with its bins, and no trajectory changes
        instances = [self.instance(seed) for seed in range(3)]
        expected = [run_experiment(H, A, cfg, seed=7, trials=6) for H, A in instances]
        small = cooling._Memo(2)
        monkeypatch.setattr(cooling, "_MEMO", small)
        built = self.spy_builds(monkeypatch)
        for _ in range(2):
            for (H, A), want in zip(instances, expected):
                assert run_experiment(H, A, cfg, seed=7, trials=6) == want
                assert len(small.contexts) <= 2
        assert len({ctx for ctx, _ in built}) == 6
        assert len(built) == len(set(built))

    def test_threads_share_the_memo(self, monkeypatch):
        memo = cooling._Memo(2)
        monkeypatch.setattr(cooling, "_MEMO", memo)
        cfg = CoolingConfig(epsilon=0.2, steps=8, delta=0.8)
        instances = [self.instance(seed) for seed in range(3)]
        expected = [run_experiment(H, A, cfg, seed=1, trials=4) for H, A in instances]
        built = self.spy_builds(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(run_experiment, H, A, cfg, 1, 4) for H, A in instances * 10]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == expected * 10
        assert len(memo.contexts) <= 2
        assert built and len(built) == len(set(built))  # each context builds a bin once

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_cold_and_warm_memo_agree_on_pinned_inputs(self, name, monkeypatch):
        cold = trajectory_rows(name)

        def forbidden(*args):
            raise AssertionError("a warm memo rebuilt a step unitary")

        monkeypatch.setattr(cooling, "_kick", forbidden)
        assert trajectory_rows(name) == cold


class TestCircuitMode:
    def test_run_does_not_assemble_the_dense_product(self, monkeypatch):
        def boom(*args):
            raise AssertionError("assemble_and_extract called inside run")

        monkeypatch.setattr(gqsp, "assemble_and_extract", boom)
        monkeypatch.setattr(cooling, "assemble_and_extract", boom, raising=False)
        rng = np.random.default_rng(8)
        H = random_hermitian(rng, 6, norm=1.0)
        cfg = CoolingConfig(epsilon=0.3, steps=6, delta=0.5, mode="gqsp_circuit")
        traj = run(H, normalized_gue(rng, 6), cfg, rng)
        assert len(traj.steps) == cfg.steps


class TestToyModel:
    def test_ground_transfer_matches_closed_form(self):
        H, A = toy_instance()
        delta, d = 0.01, 5
        t = default_time(delta)
        p = np.sin(np.sqrt(delta) * t / 2.0) ** 2
        oracle = 1.0 - (1.0 - p) ** d
        init = np.zeros(4, dtype=complex)
        init[2] = 1.0
        cfg = CoolingConfig(epsilon=0.5, steps=d, delta=delta, mode="exact_reflection")
        finals = []
        for trial in range(150):
            rng = np.random.default_rng((77, trial))
            finals.append(run(H, A, cfg, rng, initial_state=init).final_ground_overlap)
        mean = np.mean(finals)
        # residual systematic error is the O(sqrt(delta)) rotating correction
        assert abs(mean - oracle) <= 0.06, f"{mean:.4f} vs oracle {oracle:.4f}"
        assert mean > 0.5


class TestModeAgreement:
    def test_spectral_and_circuit_trajectories_agree(self):
        H, A = toy_instance()
        init = np.zeros(4, dtype=complex)
        init[2] = 1.0
        for trial in range(10):
            runs = {}
            for mode in ("exact_spectral", "gqsp_circuit"):
                cfg = CoolingConfig(epsilon=0.5, steps=4, delta=0.04, mode=mode)
                rng = np.random.default_rng((55, trial))
                runs[mode] = run(H, A, cfg, rng, initial_state=init)
            a, b = runs["exact_spectral"], runs["gqsp_circuit"]
            for s, t in zip(a.steps, b.steps):
                assert s.energy_estimate == t.energy_estimate
                assert abs(s.ground_overlap - t.ground_overlap) <= 1e-6
                assert abs(s.true_energy - t.true_energy) <= 1e-6
            assert a.final_bin == b.final_bin


class TestCoherentRoute:
    def setup_state(self, dim=8, n=4, seed=31):
        rng = np.random.default_rng(seed)
        H = random_hermitian(rng, dim, norm=0.95)
        dec = eig(H)
        psi = random_initial_state(rng, dim)
        return rng, H, dec, psi, n

    def test_prepare_joint_preserves_bin_weights(self):
        rng, H, dec, psi, n = self.setup_state()
        joint = prepare_joint(dec, psi, n)
        assert abs(np.linalg.norm(joint) - 1.0) <= 1e-12
        width = 2.0 * np.pi / 2**n
        amps = dec.eigenvectors.conj().T @ psi
        bins = cooling._labels(dec.eigenvalues, width) % 2**n
        pops = np.sum(np.abs(joint) ** 2, axis=1)
        for j in range(2**n):
            expected = np.sum(np.abs(amps[bins == j]) ** 2)
            assert abs(pops[j] - expected) <= 1e-12

    def test_register_ties_round_up_as_the_bins_do(self):
        # w/2 sits exactly between registers 0 and 1; ``_labels``, which ``_Bins``
        # also uses, rounds it up to 1, where round-half-to-even gave 0
        n = 4
        w = 2.0 * np.pi / 2**n
        dec = eig(HermitianOperator(np.diag([w / 2, -w / 2, 0.2, -0.3])))
        tie = int(np.flatnonzero(dec.eigenvalues == w / 2)[0])
        assert cooling._labels(dec.eigenvalues, w)[tie] == 1
        bins = cooling._Bins(dec.eigenvalues, w)
        assert [b for b, (start, stop) in zip(bins.labels, bins.slices) if start <= tie < stop] == [1]
        blocks = prepare_joint(dec, dec.eigenvectors[:, tie], n)
        assert np.linalg.norm(blocks[1]) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(blocks[0]) == 0.0

    def test_step_preserves_register_populations(self):
        rng, H, dec, psi, n = self.setup_state()
        S = fourier_sign(2.0 * np.pi / 2**n, 0.1)
        A = normalized_gue(rng, 8)
        joint = prepare_joint(dec, psi, n)
        after = coherent_step(joint, dec, A, S, 0.1)
        assert abs(np.linalg.norm(after) - 1.0) <= 1e-10
        before_pops = np.sum(np.abs(joint) ** 2, axis=1)
        after_pops = np.sum(np.abs(after) ** 2, axis=1)
        assert np.max(np.abs(before_pops - after_pops)) <= 1e-12

    def test_branches_match_signed_shift_construction(self):
        rng, H, dec, psi, n = self.setup_state()
        reg = 2**n
        width = 2.0 * np.pi / reg
        delta = 0.1
        S = fourier_sign(width, delta)
        A = normalized_gue(rng, 8)
        start = prepare_joint(dec, psi, n)
        blocks = coherent_step(start, dec, A, S, delta)
        t = default_time(delta)
        for j in range(reg):
            if np.linalg.norm(start[j]) < 1e-12:
                continue
            signed = j if j < reg // 2 else j - reg
            hsign = apply_spectral(S, H, signed * width + width).entries
            htilde = HermitianOperator(hsign + 0.5 * np.sqrt(delta) * A)
            expected = evolve(htilde, t).entries @ start[j]
            assert np.linalg.norm(blocks[j] - expected) <= 1e-10, f"register {j}"

    def test_zero_perturbation_keeps_branch_magnitudes(self):
        rng, H, dec, psi, n = self.setup_state(seed=37)
        S = fourier_sign(2.0 * np.pi / 2**n, 0.1)
        joint = prepare_joint(dec, psi, n)
        after = coherent_step(joint, dec, np.zeros((8, 8)), S, 0.1)
        amps_before = np.abs(dec.eigenvectors.conj().T @ joint.T)
        amps_after = np.abs(dec.eigenvectors.conj().T @ after.T)
        assert np.max(np.abs(amps_before - amps_after)) <= 1e-10


class TestMalformedStates:
    """A state of the wrong size or with a non-finite entry ends in a
    ``DyncoolError`` instead of a numpy error or NaN output."""

    @staticmethod
    def instance():
        rng = np.random.default_rng(31)
        return eig(random_hermitian(rng, 8, norm=0.95)), normalized_gue(rng, 8)

    BAD_STATES = {
        "length": np.ones(5) / sqrt(5),
        "nan": np.where(np.arange(8) == 2, np.nan, 1.0 / sqrt(8)),
    }

    @pytest.mark.parametrize("bad", sorted(BAD_STATES))
    def test_state_steps_reject_a_bad_state(self, bad):
        dec, A = self.instance()
        cfg = CoolingConfig(epsilon=0.25, steps=2)
        with pytest.raises(ValidationError):
            cooling_step(dec, self.BAD_STATES[bad], A, 0.0, cfg)
        with pytest.raises(ValidationError):
            qpe_project(dec, self.BAD_STATES[bad], cfg.epsilon, np.random.default_rng(0))

    @pytest.mark.parametrize("bad", sorted(BAD_STATES))
    def test_run_rejects_a_bad_state(self, bad):
        dec, A = self.instance()
        cfg = CoolingConfig(epsilon=0.25, steps=2)
        H = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.conj().T
        with pytest.raises(ValidationError):
            run(H, A, cfg, np.random.default_rng(0), initial_state=self.BAD_STATES[bad])

    def test_state_steps_refuse_a_column_block(self):
        dec, A = self.instance()
        cfg = CoolingConfig(epsilon=0.25, steps=2)
        for cols in (np.eye(8) / sqrt(8), np.ones((8, 1)) / sqrt(8)):
            with pytest.raises(ValidationError, match=r"state must have shape \(8,\), got"):
                cooling_step(dec, cols, A, 0.0, cfg)
            with pytest.raises(ValidationError, match=r"state must have shape \(8,\), got"):
                qpe_project(dec, cols, cfg.epsilon, np.random.default_rng(0))
