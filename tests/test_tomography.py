"""Tests for maximum-likelihood tomography."""

import numpy as np
import pytest
from scipy import optimize
from scipy import stats as sps

from afcsim import states as st
from afcsim import tomography as tom
from afcsim.datasets import fixture_path, load_density_matrices, load_tomography_counts


def poisson_log_likelihood(n_v, exposures, rho):
    """The fit's objective, sum_v [n_v ln mu_v - mu_v], at the state rho."""
    mu = np.clip(tom.expected_counts(rho, exposures), 1e-300, None)
    return float(np.sum(np.asarray(n_v, dtype=float) * np.log(mu) - mu))


@pytest.fixture(scope="module")
def golden_record():
    return load_tomography_counts()


@pytest.fixture(scope="module")
def reference_after():
    return load_density_matrices()[1]


@pytest.fixture(scope="module")
def state_metrics(reference_after):
    return lambda rho: tom.state_metrics(rho, reference_after)


class TestBasisProjectors:
    def test_ee_projector(self):
        np.testing.assert_allclose(tom.basis_projector(1), np.diag([1, 0, 0, 0]), atol=1e-15)

    def test_dd_projector_uniform(self):
        p = tom.basis_projector(11)
        assert tom.BASES[10][0] == "D"
        np.testing.assert_allclose(p, np.full((4, 4), 0.25), atol=1e-15)

    def test_rr_orthogonal_to_bell(self):
        # <RR|Psi+> = (1 + i^2) / (2 sqrt 2) = 0
        overlap = np.trace(tom.basis_projector(16) @ st.projector(st.bell_psi_plus()))
        assert abs(overlap) == pytest.approx(0.0, abs=1e-14)

    def test_index_range(self):
        with pytest.raises(ValueError):
            tom.basis_projector(0)
        with pytest.raises(ValueError):
            tom.basis_projector(17)

    def test_signal_major_ordering(self):
        assert tom.BASES[1][0] == "e"
        assert tom.BASES[1][1] == "l"
        assert tom.BASES[4][0] == "l"
        assert tom.BASES[4][1] == "e"


class TestMeasuredMask:
    def test_matches_fixture_dash_pattern(self):
        # the '-' cells of the bundled table, read from the file itself
        lines = fixture_path("tomography_counts.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines if line[:1].isdigit()]
        expected = np.array([[tok != "-" for tok in row[3:7]] for row in rows]).T
        np.testing.assert_array_equal(tom.measured_mask(), expected)

    def test_slot_bases_always_measured(self):
        mask = tom.measured_mask()
        for v in (1, 2, 5, 6):  # ee, el, le, ll
            assert mask[:, v - 1].all()

    def test_rr_only_in_rr_setting(self):
        mask = tom.measured_mask()
        assert list(mask[:, 15]) == [False, False, False, True]

    def test_slot_table_places_nine_bases_per_setting(self):
        # the corner cells are the time-slot bases (ee, el, le, ll) in every
        # setting, and no two cells of a setting share a basis
        for table in tom.SLOT_BASIS:
            corners = [tom.BASES[v] for v in table[::2, ::2].ravel()]
            assert corners == [("e", "e"), ("e", "l"), ("l", "e"), ("l", "l")]
            assert len(set(table.ravel())) == 9


class TestAssembleCounts:
    def test_fixture_row_sums(self, golden_record):
        n_v = golden_record.sum(axis=0)
        assert n_v[0] == 1252  # ee over four settings
        assert n_v[15] == 106  # RR from one setting

    def test_grid_assembly_round_trip(self, golden_record):
        # rebuild 3x3 grids from the fixture's per-setting columns, then
        # re-assemble and compare
        slot_of = {"e": 0, "l": 2}
        grids = np.zeros((4, 3, 3))
        for s, (signal_mid, idler_mid) in enumerate(tom.SETTING_LABELS):
            for v in range(1, 17):
                signal, idler = tom.BASES[v - 1]
                if signal not in ("e", "l", signal_mid) or idler not in ("e", "l", idler_mid):
                    continue  # not measurable in this setting
                grids[s, slot_of.get(signal, 1), slot_of.get(idler, 1)] = golden_record[s, v - 1]
        rebuilt = tom.assemble_counts(grids)
        np.testing.assert_allclose(rebuilt, golden_record)

    def test_all_zero_settings(self):
        rec = tom.assemble_counts(np.zeros((4, 3, 3)))
        assert rec.sum(axis=0).sum() == 0


class TestExpectedCounts:
    def test_bell_state_pattern(self):
        c = np.full(16, 1000.0)
        mu = tom.expected_counts(st.projector(st.bell_psi_plus()), c)
        assert mu[0] == pytest.approx(500.0)  # ee
        assert mu[1] == pytest.approx(0.0, abs=1e-10)  # el
        assert mu[15] == pytest.approx(0.0, abs=1e-10)  # RR

    def test_maximally_mixed_uniform(self):
        c = np.full(16, 1000.0)
        mu = tom.expected_counts(np.eye(4) / 4, c)
        np.testing.assert_allclose(mu, 250.0, atol=1e-10)

    def test_forward_model_tracks_fixture(self, golden_record, reference_after):
        mu = tom.expected_counts(
            st.nearest_psd(reference_after), tom.basis_exposures(golden_record)
        )
        assert sps.spearmanr(mu, golden_record.sum(axis=0)).statistic > 0.9

    def test_fixture_rr_count_predicted(self, golden_record, reference_after):
        # the anomalously low n_16 follows from the R-state sign convention
        mu = tom.expected_counts(
            st.nearest_psd(reference_after), tom.basis_exposures(golden_record)
        )
        assert mu[15] == pytest.approx(106, abs=15)


class TestParameterization:
    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            rho = st.random_density_matrix(rng)
            back = tom.rho_from_params(tom.params_from_rho(rho, floor=0.0))
            assert st.trace_distance(back, rho) < 1e-10

    def test_always_physical(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            rho = tom.rho_from_params(rng.normal(size=16))
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(rho).min() >= -1e-14
            np.testing.assert_allclose(rho, rho.conj().T, atol=1e-14)


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        n = rng.poisson(np.full(16, 400.0)).astype(float)
        c = np.full(16, 1500.0)
        h = 1e-6
        for _ in range(30):
            x = rng.normal(size=16)
            _, grad = tom.log_likelihood_and_gradient(x, n, c)
            for k in rng.choice(16, size=4, replace=False):
                xp, xm = x.copy(), x.copy()
                xp[k] += h
                xm[k] -= h
                num = (
                    tom.log_likelihood_and_gradient(xp, n, c)[0]
                    - tom.log_likelihood_and_gradient(xm, n, c)[0]
                ) / (2 * h)
                assert grad[k] == pytest.approx(num, rel=1e-5, abs=1e-7)


    def test_batched_gradient_matches_finite_differences(self):
        # a (B, 16) stack against central differences of the batched
        # likelihood, one parameter at a time for all rows at once
        rng = np.random.default_rng(14)
        n = rng.poisson(np.full((12, 16), 400.0)).astype(float)
        c = rng.uniform(800.0, 2500.0, size=(12, 16))
        x = rng.normal(size=(12, 16))
        ll, grad = tom.log_likelihood_and_gradient(x, n, c)
        assert ll.shape == (12,) and grad.shape == (12, 16)
        h = 1e-6
        for k in range(16):
            step = np.zeros(16)
            step[k] = h
            num = (
                tom.log_likelihood_and_gradient(x + step, n, c)[0]
                - tom.log_likelihood_and_gradient(x - step, n, c)[0]
            ) / (2 * h)
            np.testing.assert_allclose(grad[:, k], num, rtol=1e-5, atol=1e-7)
        for row in range(12):
            f, g = tom.log_likelihood_and_gradient(x[row], n[row], c[row])
            assert isinstance(f, float)
            assert f == pytest.approx(ll[row], rel=1e-14)
            np.testing.assert_allclose(g, grad[row], rtol=1e-12, atol=1e-12)

    def test_hessian_matches_differences_of_the_gradient(self):
        rng = np.random.default_rng(15)
        n = rng.poisson(np.full(16, 400.0)).astype(float)
        c = np.full(16, 1500.0)
        x = rng.normal(size=(8, 16))
        _, _, hess = tom._likelihood(x, n, c, order=2)
        h = 1e-6
        for k in range(16):
            step = np.zeros(16)
            step[k] = h
            num = (
                tom.log_likelihood_and_gradient(x + step, n, c)[1]
                - tom.log_likelihood_and_gradient(x - step, n, c)[1]
            ) / (2 * h)
            np.testing.assert_allclose(hess[:, :, k], num, rtol=1e-5, atol=1e-6)


class TestMleReconstruct:
    def test_noiseless_bell_round_trip(self):
        c = np.full(16, 4000.0) * tom.basis_weights()
        n = tom.expected_counts(st.projector(st.bell_psi_plus()), c)
        res = tom.mle_reconstruct(n, c)
        assert st.fidelity(res.rho, st.projector(st.bell_psi_plus())) > 0.9999

    def test_exact_counts_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            rho_true = st.random_density_matrix(rng)
            c = np.full(16, 5000.0) * tom.basis_weights()
            res = tom.mle_reconstruct(tom.expected_counts(rho_true, c), c)
            assert st.trace_distance(res.rho, rho_true) < 1e-4

    def test_likelihood_nondecreasing(self, golden_record):
        # run the Newton ascent from a deliberately bad start (the maximally
        # mixed state) and track L
        exposures = tom.basis_exposures(golden_record)
        lls = []
        x = tom.params_from_rho(np.eye(4) / 4)
        n_v = golden_record.sum(axis=0)
        f, g = tom.log_likelihood_and_gradient(x, n_v, exposures)
        lls.append(f)
        # the 4096-count normalization of mle_reconstruct_batch
        scale = n_v.sum() / 4096.0
        t, _, converged = tom._newton_maximize(x[None], n_v[None] / scale, exposures[None] / scale)
        assert poisson_log_likelihood(n_v, exposures, tom.rho_from_params(t[0])) >= f
        assert converged[0]

    def test_exposure_scaling_invariance(self, golden_record):
        exposures = tom.basis_exposures(golden_record)
        res1 = tom.mle_reconstruct(golden_record.sum(axis=0), exposures)
        res2 = tom.mle_reconstruct(golden_record.sum(axis=0) * 3.0, exposures * 3.0)
        assert st.trace_distance(res1.rho, res2.rho) < 1e-6

    def test_golden_reconstruction(self, golden_record, reference_after):
        res = tom.mle_reconstruct(golden_record.sum(axis=0), tom.basis_exposures(golden_record))
        assert res.converged
        assert st.fidelity(res.rho, reference_after) >= 0.97

    def test_golden_metrics_in_published_windows(self, golden_record):
        res = tom.mle_reconstruct(golden_record.sum(axis=0), tom.basis_exposures(golden_record))
        rho = res.rho
        assert st.fidelity(rho, st.projector(st.bell_psi_plus())) == pytest.approx(
            0.8657, abs=3 * 0.0131
        )
        assert st.purity(rho) == pytest.approx(0.7751, abs=3 * 0.0239)
        assert st.entanglement_of_formation(rho) == pytest.approx(0.6594, abs=3 * 0.0294)

    def test_resampled_fits_reach_the_optimum(self, golden_record):
        # independent reference: BFGS at gtol 1e-12 on the same likelihood,
        # started from the maximally mixed state
        rng = np.random.default_rng(2001)
        draws = rng.poisson(golden_record, size=(50, 4, 16))
        for draw in draws:
            exposures = tom.basis_exposures(draw)
            scale = draw.sum() / 4096.0
            n, c = draw.sum(axis=0) / scale, exposures / scale

            def negated(x):
                f, grad = tom.log_likelihood_and_gradient(x, n, c)
                return -f, -grad

            ref = optimize.minimize(
                negated, tom.params_from_rho(np.eye(4) / 4), jac=True, method="BFGS",
                options={"gtol": 1e-12},
            )
            rho_ref = st.nearest_psd(tom.rho_from_params(ref.x))
            res = tom.mle_reconstruct(draw.sum(axis=0), exposures)
            assert res.converged
            assert st.trace_distance(res.rho, rho_ref) < 1e-5

    def test_resampled_fits_reach_the_optimum_in_one_batch(self, golden_record):
        # the same 50 draws and BFGS reference, solved as one (50, 16) batch
        rng = np.random.default_rng(2001)
        draws = rng.poisson(golden_record, size=(50, 4, 16))
        fits = tom.mle_reconstruct_batch(draws.sum(axis=1), tom.basis_exposures(draws))
        assert fits.rho.shape == (50, 4, 4)
        for draw, rho, converged in zip(draws, fits.rho, fits.converged):
            exposures = tom.basis_exposures(draw)
            scale = draw.sum() / 4096.0
            n, c = draw.sum(axis=0) / scale, exposures / scale

            def negated(x):
                f, grad = tom.log_likelihood_and_gradient(x, n, c)
                return -f, -grad

            ref = optimize.minimize(
                negated, tom.params_from_rho(np.eye(4) / 4), jac=True, method="BFGS",
                options={"gtol": 1e-12},
            )
            rho_ref = st.nearest_psd(tom.rho_from_params(ref.x))
            assert converged
            assert st.trace_distance(rho, rho_ref) < 1e-5

    def test_batched_and_single_solves_agree(self, golden_record):
        rng = np.random.default_rng(9)
        draws = rng.poisson(golden_record, size=(30, 4, 16))
        n, c = draws.sum(axis=1), tom.basis_exposures(draws)
        fits = tom.mle_reconstruct_batch(n, c)
        for k, (rho, converged) in enumerate(zip(fits.rho, fits.converged)):
            single = tom.mle_reconstruct(n[k], c[k])
            assert single.converged and converged
            assert st.trace_distance(rho, single.rho) < 1e-10
            assert poisson_log_likelihood(n[k], c[k], rho) == pytest.approx(
                poisson_log_likelihood(n[k], c[k], single.rho), rel=1e-12
            )

    def test_uncertified_fit_is_reported_and_dropped(
        self, golden_record, state_metrics, monkeypatch
    ):
        # with the step cap at 7, some resampled fits do not certify: they
        # report converged=False and leave the error bars with a warning
        monkeypatch.setattr(tom, "_MAX_NEWTON", 7)
        rng = np.random.default_rng(3)
        draws = rng.poisson(golden_record, size=(30, 4, 16))
        fits = tom.mle_reconstruct_batch(draws.sum(axis=1), tom.basis_exposures(draws))
        flags = fits.converged
        assert 2 <= sum(flags) < len(flags)
        assert all(fits.iterations[~flags] == 7)
        with pytest.warns(RuntimeWarning, match="dropped"):
            _, summary = tom.reconstruct_with_errors([golden_record], state_metrics, n_trials=30, seed=3)
        assert all(np.isfinite(m["sigma"]) for m in summary.values())

    def test_batch_rejects_bad_rows(self, golden_record):
        n = np.tile(golden_record.sum(axis=0), (3, 1))
        c = np.tile(tom.basis_exposures(golden_record), (3, 1))
        n[1] = 0.0
        with pytest.raises(ValueError, match="no counts"):
            tom.mle_reconstruct_batch(n, c)
        with pytest.raises(ValueError, match=r"\(B, 16\)"):
            tom.mle_reconstruct_batch(n[0], c[0])

    def test_nonpositive_exposures_rejected(self, golden_record):
        bad = tom.basis_exposures(golden_record)
        bad[3] = 0.0
        with pytest.raises(ValueError, match="exposures"):
            tom.mle_reconstruct(golden_record.sum(axis=0), bad)


class TestReconstructWithErrors:
    def test_error_bars_scale(self, golden_record, state_metrics):
        _, summary = tom.reconstruct_with_errors([golden_record], state_metrics, n_trials=40, seed=1)
        sigma = summary["fidelity_bell"]["sigma"]
        assert 0.003 < sigma < 0.04  # published scale: ~1.3 percentage points

        scaled = golden_record * 100.0
        _, summary_big = tom.reconstruct_with_errors([scaled], state_metrics, n_trials=40, seed=1)
        ratio = sigma / summary_big["fidelity_bell"]["sigma"]
        assert ratio == pytest.approx(10.0, rel=0.5)

    def test_deterministic(self, golden_record, state_metrics):
        _, a = tom.reconstruct_with_errors([golden_record], state_metrics, n_trials=10, seed=7)
        _, b = tom.reconstruct_with_errors([golden_record], state_metrics, n_trials=10, seed=7)
        assert a == b

    def test_reference_metric_included(self, golden_record, reference_after):
        _, summary = tom.reconstruct_with_errors(
            [golden_record],
            lambda rho: tom.state_metrics(rho, reference=reference_after),
            n_trials=5,
            seed=2,
        )
        assert summary["fidelity_reference"]["value"] >= 0.97
