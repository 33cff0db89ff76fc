"""Tests for Franson/CHSH analysis and Monte-Carlo error propagation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hst
from scipy import optimize

from afcsim import bell, model
from afcsim import states as st


def synthetic_scan(alpha=0.0, v=0.9, amplitude=300.0, n_points=12, phi0=0.0, rng=None):
    beta = np.linspace(0, 2 * math.pi, n_points, endpoint=False)
    counts = np.column_stack(
        [
            amplitude * (1 + s * v * np.cos(alpha + beta + phi0))
            for s in bell.COMBO_SIGNS
        ]
    )
    if rng is not None:
        counts = rng.poisson(counts).astype(float)
    return bell.FringeScan(alpha_rad=alpha, beta_rad=beta, counts=counts)


def _exact_s(rho):
    """CHSH S of the exact Born-rule rates at ``bell.DEFAULT_CHSH_PHASES``."""
    return bell.chsh_s([bell.correlation_e(rates) for rates in model.chsh_rates(rho, bell.DEFAULT_CHSH_PHASES)])


class TestCorrelationE:
    def test_perfect_correlation(self):
        assert bell.correlation_e([500, 0, 0, 500]) == 1.0

    def test_no_correlation(self):
        assert bell.correlation_e([250, 250, 250, 250]) == 0.0

    def test_fringe_form_identity(self):
        # counts N(1 +- V cos) reduce exactly to V cos
        for v in np.linspace(0, 1, 6):
            for theta in np.linspace(-np.pi, np.pi, 9):
                c = [
                    100 * (1 + s * v * np.cos(theta)) for s in bell.COMBO_SIGNS
                ]
                assert bell.correlation_e(c) == pytest.approx(v * np.cos(theta), abs=1e-12)

    def test_scale_invariance(self):
        counts = np.array([400.0, 120.0, 90.0, 380.0])
        assert bell.correlation_e(counts) == pytest.approx(
            bell.correlation_e(counts * 7.3), abs=1e-15
        )

    def test_all_zero_raises(self):
        with pytest.raises(ValueError):
            bell.correlation_e([0, 0, 0, 0])


class TestChshS:
    def test_maximal_violation(self):
        a, ap, b, bp = bell.DEFAULT_CHSH_PHASES
        e = [np.cos(x + y) for x, y in [(a, b), (ap, b), (a, bp), (ap, bp)]]
        assert bell.chsh_s(e) == pytest.approx(bell.TSIRELSON_BOUND, abs=1e-12)

    def test_zero(self):
        assert bell.chsh_s([0, 0, 0, 0]) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            bell.chsh_s([1.5, 0, 0, 0])

    @given(hst.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_werner_scaling_analytic(self, v):
        s = _exact_s(st.werner_state(v))
        assert s == pytest.approx(bell.TSIRELSON_BOUND * v, abs=1e-9)

    def test_tsirelson_bound_random_states(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            s = _exact_s(st.random_density_matrix(rng))
            assert s <= bell.TSIRELSON_BOUND + 1e-9


class TestChshFromCounts:
    def test_recovers_analytic_values(self):
        a, ap, b, bp = bell.DEFAULT_CHSH_PHASES
        rows = []
        for x, y in [(a, b), (ap, b), (a, bp), (ap, bp)]:
            rows.append([1e6 * (1 + s * 0.9 * np.cos(x + y)) for s in bell.COMBO_SIGNS])
        result = bell.chsh_from_counts(np.array(rows), n_trials=100, seed=1)
        assert result.s_value == pytest.approx(2 * math.sqrt(2) * 0.9, abs=1e-9)
        assert result.sigma_s < 0.01
        assert bell.bell_violation_sigmas(result) > 50

    def test_one_resampling_gives_both_error_bars(self):
        counts = np.array([
            [412.0, 61.0, 55.0, 398.0],
            [47.0, 405.0, 420.0, 52.0],
            [350.0, 110.0, 120.0, 340.0],
            [330.0, 120.0, 130.0, 320.0],
        ])
        result = bell.chsh_from_counts(counts, n_trials=60, seed=8)
        # one Monte-Carlo call per statistic, on the same seed, through the
        # scalar per-trial functions
        def e_values(draws):
            return np.array([[bell.correlation_e(r) for r in m] for m in draws])

        e_sigmas = bell.monte_carlo_errors(counts, e_values, n_trials=60, seed=8)
        sigma_s = bell.monte_carlo_errors(
            counts, lambda d: np.array([bell.chsh_s(e) for e in e_values(d)]), n_trials=60, seed=8
        )
        assert result.e_sigmas == tuple(e_sigmas)
        # np.std sums a column of the (trials, 5) samples in another order
        # than a 1-D array: the last bits of sigma_S may differ
        assert result.sigma_s == pytest.approx(sigma_s, rel=1e-15, abs=0)

    def test_values_match_the_scalar_functions(self):
        # E per setting row and S, bit for bit, as correlation_e and chsh_s
        # give them
        rng = np.random.default_rng(14)
        for _ in range(200):
            counts = rng.integers(0, rng.choice([5, 500, 10**6]), size=(4, 4)).astype(float)
            counts[:, 0] += 1  # no all-zero setting
            result = bell.chsh_from_counts(counts, n_trials=2, seed=0)
            e_values = [bell.correlation_e(row) for row in counts]
            assert result.e_values == tuple(e_values)
            assert result.s_value == bell.chsh_s(e_values)

    def test_all_zero_setting_raises(self):
        counts = np.array([[50.0] * 4, [0.0] * 4, [60.0] * 4, [70.0] * 4])
        with pytest.raises(ValueError, match="^all-zero counts; correlation undefined$"):
            bell.chsh_from_counts(counts, n_trials=20, seed=0)

    def test_violation_sigmas_arithmetic(self):
        r = bell.ChshResult(2.549, 0.020, bell.DEFAULT_CHSH_PHASES, (0.9, -0.9, 0.9, 0.9), (0.01,) * 4)
        assert bell.bell_violation_sigmas(r) == pytest.approx(27.45, abs=0.01)
        r2 = bell.ChshResult(2.0, 0.02, bell.DEFAULT_CHSH_PHASES, (0.7, -0.7, 0.7, -0.1), (0.01,) * 4)
        assert bell.bell_violation_sigmas(r2) == 0.0

    def test_tsirelson_sanity_guard(self):
        with pytest.raises(ValueError, match="quantum bound"):
            bell.ChshResult(2.95, 0.01, bell.DEFAULT_CHSH_PHASES, (1, -1, 1, 1), (0.0,) * 4)


class TestMonteCarloErrors:
    def test_zero_counts_zero_spread(self):
        sigma = bell.monte_carlo_errors(np.zeros(8), lambda d: d.sum(axis=1), n_trials=100, seed=3)
        assert sigma == 0.0

    def test_poisson_scaling(self):
        # sigma of a mean-like statistic shrinks as 1/sqrt(k) under count scaling
        base = np.full(16, 200.0)
        stat = lambda d: d.sum(axis=1) / d.shape[1]
        sigmas = []
        for k in (1, 4, 16):
            sigmas.append(bell.monte_carlo_errors(base * k, stat, n_trials=400, seed=5) / k)
        assert sigmas[0] / sigmas[1] == pytest.approx(2.0, rel=0.2)
        assert sigmas[1] / sigmas[2] == pytest.approx(2.0, rel=0.2)

    def test_deterministic(self):
        base = np.array([100.0, 50.0, 25.0, 200.0])
        stat = lambda d: np.array([bell.correlation_e(c) for c in d])
        a = bell.monte_carlo_errors(base, stat, n_trials=100, seed=9)
        b = bell.monte_carlo_errors(base, stat, n_trials=100, seed=9)
        assert a == b

    def test_structure_preserving(self):
        base = np.full((4, 4), 100.0)
        sig = bell.monte_carlo_errors(base, lambda d: d.sum(axis=2), n_trials=100, seed=2)
        assert sig.shape == (4,)

    def test_per_record_draws(self):
        # each record's trials come one record after the other; one record
        # gets the draws of the default order
        records = np.array([[[100.0, 50.0], [25.0, 200.0]], [[80.0, 10.0], [300.0, 5.0]]])
        seen = []

        def stat(d):
            seen.append(d.copy())
            return d.sum(axis=(2, 3))

        bell.monte_carlo_errors(records, stat, n_trials=6, seed=4, per_record=True)
        bell.monte_carlo_errors(records[:1], stat, n_trials=6, seed=4, per_record=True)
        bell.monte_carlo_errors(records[:1], stat, n_trials=6, seed=4)
        rng = np.random.default_rng(4)
        expected = np.stack([rng.poisson(rec, size=(6, 2, 2)) for rec in records], axis=1)
        np.testing.assert_array_equal(seen[0], expected)
        np.testing.assert_array_equal(seen[1], seen[2])
        np.testing.assert_array_equal(seen[1], expected[:, :1])

    def test_statistic_must_return_one_row_per_trial(self):
        with pytest.raises(ValueError, match=r"\(20,\) or \(20, k\)"):
            bell.monte_carlo_errors(np.full(3, 50.0), lambda d: d.sum(), n_trials=20, seed=0)

    def test_stream_matches_per_trial_draws(self):
        chsh = np.array([
            [412.0, 61.0, 55.0, 398.0],
            [47.0, 405.0, 420.0, 52.0],
            [395.0, 58.0, 66.0, 410.0],
            [401.0, 49.0, 61.0, 388.0],
        ])
        n_cycles = 1e7

        def chsh_per_trial(counts):
            e = [bell.correlation_e(row) for row in counts]
            return np.array([*e, bell.chsh_s(e)])

        def g2_per_trial(counts):
            c, s, i = counts
            return (c / n_cycles) / ((s / n_cycles) * (i / n_cycles))

        def g2_batched(draws):
            c, s, i = draws.T
            return (c / n_cycles) / ((s / n_cycles) * (i / n_cycles))

        cases = (
            (chsh, chsh_per_trial, bell._e_and_s_from_count_matrix),
            (np.array([85.0, 4.2e4, 3.9e5]), g2_per_trial, g2_batched),
        )
        for base, per_trial, batched in cases:
            for seed in (0, 11):
                # reference: one Poisson draw per trial, in trial order
                rng = np.random.default_rng(seed)
                samples = [np.asarray(per_trial(rng.poisson(base))) for _ in range(100)]
                expected = np.std(np.stack(samples), axis=0, ddof=1)
                sigma = bell.monte_carlo_errors(base, batched, n_trials=100, seed=seed)
                assert np.array_equal(sigma, expected)

    def test_non_finite_trial_dropped_with_warning(self):
        base = np.array([120.0, 80.0, 200.0])
        calls = []

        def stat(draws):
            calls.append(draws.copy())
            out = draws[:, 0] / draws.sum(axis=1)
            out[2] = np.nan
            return out

        with pytest.warns(RuntimeWarning, match="dropped 1 of 50"):
            sigma = bell.monte_carlo_errors(base, stat, n_trials=50, seed=4)
        assert len(calls) == 1
        kept = [c[0] / c.sum() for k, c in enumerate(calls[0]) if k != 2]
        assert sigma == np.std(kept, ddof=1)

    def test_all_non_finite_trials_raise(self):
        with pytest.raises(ValueError, match="0 of 20"):
            bell.monte_carlo_errors(
                np.full(3, 50.0), lambda d: np.full((len(d), 2), np.nan), n_trials=20, seed=0
            )

    def test_empty_chsh_setting_is_a_dropped_trial(self):
        # a resampled setting with no counts has no correlation: that trial
        # is dropped with a warning instead of failing the error bar
        counts = np.array([[1.0, 0.0, 0.0, 0.0], [50.0] * 4, [60.0] * 4, [70.0] * 4])
        with pytest.warns(RuntimeWarning, match="non-finite"):
            sigma = bell.monte_carlo_errors(
                counts, bell._e_and_s_from_count_matrix, n_trials=200, seed=1
            )
        assert np.isfinite(sigma).all()


class TestFitVisibility:
    def test_exact_round_trip(self):
        scan = synthetic_scan(v=0.9)
        for k in range(4):
            fit = bell.fit_visibility(scan, k, n_trials=10, seed=1)
            assert fit.converged
            assert fit.visibility == pytest.approx(0.9, abs=1e-6)

    def test_phase_offset_recovered(self):
        scan = synthetic_scan(v=0.8, phi0=0.4)
        fit = bell.fit_visibility(scan, "A1B1", n_trials=10, seed=1)
        assert fit.phase_offset_rad == pytest.approx(0.4, abs=1e-6)

    def test_poisson_error_scale(self):
        # mean ~300 counts/point over 12 points: sigma_V of 1-2 percentage points
        rng = np.random.default_rng(12)
        scan = synthetic_scan(v=0.9, amplitude=300.0, rng=rng)
        fit = bell.fit_visibility(scan, 0, n_trials=200, seed=4)
        assert 0.005 < fit.sigma_visibility < 0.03
        assert fit.visibility == pytest.approx(0.9, abs=5 * fit.sigma_visibility)

    def test_visibility_clamped(self):
        rng = np.random.default_rng(3)
        scan = synthetic_scan(v=0.995, amplitude=40.0, rng=rng)
        fit = bell.fit_visibility(scan, 3, n_trials=10, seed=2)
        assert 0.0 <= fit.visibility <= 1.0

    def test_error_shrinks_with_counts(self):
        rng = np.random.default_rng(7)
        small = bell.fit_visibility(synthetic_scan(amplitude=200, rng=rng), 0, n_trials=150, seed=5)
        big = bell.fit_visibility(synthetic_scan(amplitude=20000, rng=rng), 0, n_trials=150, seed=5)
        assert big.sigma_visibility < small.sigma_visibility / 5

    @staticmethod
    def _bounded_reference(beta, counts, alpha, sign):
        # tight-tolerance bounded fit over (A, V, phi0), best of four
        # starting phases so that one start lies within pi/4 of the optimum,
        # then polished by one more run from the best solution
        def fit(x0):
            return optimize.least_squares(
                lambda p: bell._fringe_model(beta, p[0], p[1], p[2], alpha, sign) - counts,
                x0=x0,
                bounds=([0.0, 0.0, -2 * math.pi], [np.inf, 1.0, 2 * math.pi]),
                xtol=1e-15, ftol=1e-15, gtol=1e-15,
            )

        def gradient(a, v, phi0):
            # half the gradient of the cost over (A, V, phi0)
            cos = sign * np.cos(alpha + beta + phi0)
            sin = sign * np.sin(alpha + beta + phi0)
            r = a * (1 + v * cos) - counts
            return np.array([r @ (1 + v * cos), a * (r @ cos), -a * v * (r @ sin)])

        starts = np.linspace(-math.pi, math.pi, 4, endpoint=False)
        best = min((fit([max(counts.mean(), 1e-9), 0.5, s]) for s in starts), key=lambda r: r.cost)
        a, v, phi0 = fit(best.x).x
        # The cost is flat to rounding within a few 1e-9 of its minimum, so
        # the fit stops up to that far short.  The optimum is where the gradient
        # vanishes: over (A, phi0) on the V = 1 face if the cost there still
        # falls past V = 1 (the problem is convex in the linear coefficients
        # (A, A V cos phi0, A V sin phi0)), else over (A, V, phi0).
        if v > 0.999:
            a1, phi1 = optimize.root(lambda p: gradient(p[0], 1.0, p[1])[[0, 2]], [a, phi0]).x
            if gradient(a1, 1.0, phi1)[1] <= 0:
                return np.array([a1, 1.0, phi1])
        return optimize.root(lambda p: gradient(*p), [a, v, phi0]).x

    @given(
        v=hst.floats(min_value=0.0, max_value=0.99),
        phi0=hst.floats(min_value=-math.pi, max_value=math.pi),
        alpha=hst.floats(min_value=-math.pi, max_value=math.pi),
        amplitude=hst.floats(min_value=20.0, max_value=1e5),
        combo=hst.integers(min_value=0, max_value=3),
        noise_seed=hst.one_of(hst.none(), hst.integers(min_value=0, max_value=2**32 - 1)),
    )
    @example(v=0.03125, phi0=-1.125, alpha=0.03125, amplitude=20.0, combo=1, noise_seed=0)
    @example(v=0.98828125, phi0=2.8125, alpha=0.0, amplitude=20.0, combo=0, noise_seed=0)
    @settings(max_examples=100, deadline=None)
    def test_matches_bounded_reference(self, v, phi0, alpha, amplitude, combo, noise_seed):
        rng = None if noise_seed is None else np.random.default_rng(noise_seed)
        scan = synthetic_scan(alpha=alpha, v=v, amplitude=amplitude, phi0=phi0, rng=rng)
        fit = bell.fit_visibility(scan, combo, n_trials=2, seed=0)
        ref = self._bounded_reference(
            scan.beta_rad, scan.counts[:, combo], alpha, bell.COMBO_SIGNS[combo]
        )
        assert fit.converged
        assert fit.visibility == pytest.approx(ref[1], abs=1e-8)
        # phi0 is compared through the complex visibility V exp(i phi0): the
        # cost is flat in phi0 as V -> 0, so the reference optimizer stops
        # with a phase error of order (rounding) / V that the exact
        # solution does not have.
        z_fit = fit.visibility * np.exp(1j * fit.phase_offset_rad)
        assert abs(z_fit - ref[1] * np.exp(1j * ref[2])) <= 1e-8

    def test_outside_box_takes_bounded_path(self, monkeypatch):
        calls = []
        real = optimize.least_squares

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(optimize, "least_squares", spy)
        # a noiseless V = 1.05 fringe goes negative, which FringeScan
        # rejects, so the fit routine is called directly
        beta = np.linspace(0, 2 * math.pi, 12, endpoint=False)
        counts = 300.0 * (1 - 1.05 * np.cos(0.3 + beta + 0.4))
        (params,), (ok,) = bell._fit_rows(beta, counts[None], 0.3, -1.0)
        assert calls
        assert ok
        assert params[1] == 1.0
        assert params[2] == pytest.approx(0.4, abs=1e-6)

    def test_in_box_data_never_reach_the_optimizer(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("bounded optimizer called on in-box data")

        monkeypatch.setattr(optimize, "least_squares", forbidden)
        rng = np.random.default_rng(21)
        for scan in (synthetic_scan(v=0.9), synthetic_scan(v=0.85, phi0=1.1, amplitude=400.0, rng=rng)):
            for k in range(4):
                fit = bell.fit_visibility(scan, k, n_trials=100, seed=k)
                assert fit.converged and np.isfinite(fit.sigma_visibility)

    def test_batched_trial_fits_match_per_row_fits(self):
        # one multi-right-hand-side solve against one fit per row, with
        # rows on both sides of the V = 1 face
        rng = np.random.default_rng(5)
        scan = synthetic_scan(v=0.99, amplitude=30.0)
        draws = rng.poisson(scan.counts[:, 2], size=(60, scan.beta_rad.size))
        per_row = np.array(
            [bell._fit_rows(scan.beta_rad, row[None], 0.0, -1.0)[0][0, 1] for row in draws]
        )
        assert 0 < np.sum(per_row == 1.0) < len(draws)
        batched, converged = bell._fit_rows(scan.beta_rad, draws, 0.0, -1.0)
        assert converged.all()
        np.testing.assert_allclose(batched[:, 1], per_row, rtol=1e-12, atol=0)

    def test_bad_data_rejected(self):
        beta = np.linspace(0, 1.0, 4)
        counts = np.ones((4, 4)) * 50
        scan = bell.FringeScan(alpha_rad=0.0, beta_rad=beta, counts=counts)
        with pytest.raises(ValueError, match="phase points"):
            bell.fit_visibility(scan, 0, n_trials=100, seed=0)


class TestFringeScanIO:
    def test_csv_round_trip(self, tmp_path):
        scan = synthetic_scan(v=0.85, rng=np.random.default_rng(1))
        path = tmp_path / "scan.csv"
        scan.to_csv(path)
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_allclose(back[:, 0], scan.beta_rad, atol=1e-9)
        np.testing.assert_allclose(back[:, 1:], scan.counts)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            bell.FringeScan(0.0, np.linspace(0, 4, 6), -np.ones((6, 4)))
