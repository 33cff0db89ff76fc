"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion; any failure raises with the measured value.  The end-to-end
criteria (7, 8) use the shipped calibrated configuration and its fixed
seed, so their outcomes are deterministic.
"""

import math
import time

import numpy as np
import pytest

from afcsim import bell
from afcsim import memory as mem
from afcsim import pipeline as pl
from afcsim import states as st
from afcsim import tomography as tom
from afcsim.config import reference_calibration_config
from afcsim.datasets import (
    load_density_matrices,
    load_efficiency_grid,
    load_tomography_counts,
)
from afcsim.model import chsh_rates, project_pair, umzi_povm

BELL_PROJ = st.projector(st.bell_psi_plus())


def _report(n, detail):
    print(f"\nACCEPTANCE {n}: PASS — {detail}")


@pytest.fixture(scope="module")
def cfg():
    return reference_calibration_config()


@pytest.fixture(scope="module")
def chsh_runs(cfg):
    return {
        "before": next(pl.run_scans(cfg, [(pl.chsh_scan, 0, False)]))[0],
        "after": next(pl.run_scans(cfg, [(pl.chsh_scan, 0, True)]))[0],
    }


def test_criterion_01_afc_efficiency_formula():
    value = mem.afc_efficiency(1.5, 2.0, 1.7)
    assert value == pytest.approx(0.00844, abs=0.00001), value
    _report(1, f"afc_efficiency(1.5, 2, 1.7) = {value:.6f} in 0.00844 +- 0.00001")


def test_criterion_02_storage_time_mapping():
    t = mem.storage_time_ns(6.58)
    assert 151.5 <= t <= 152.5, t
    _report(2, f"storage_time(6.58 MHz) = {t:.3f} ns in [151.5, 152.5]")


def test_criterion_03_golden_matrix_metrics():
    before, after = load_density_matrices()
    f_bell = st.fidelity(before, BELL_PROJ)
    p = st.purity(before)
    e = st.entanglement_of_formation(before)
    f_io = st.fidelity(before, after)
    assert f_bell == pytest.approx(0.9133, abs=3 * 0.0032), f_bell
    assert p == pytest.approx(0.8400, abs=3 * 0.0055), p
    assert e == pytest.approx(0.7609, abs=3 * 0.0080), e
    assert f_io == pytest.approx(0.9523, abs=3 * 0.0208), f_io
    _report(
        3,
        f"F={f_bell:.4f} (91.33+-0.96%), P={p:.4f} (84.00+-1.65%), "
        f"EoF={e:.4f} (76.09+-2.40%), F_in/out={f_io:.4f} (95.23+-6.24%)",
    )


def test_criterion_04_tomography_round_trip():
    rng = np.random.default_rng(2024)
    start = time.time()
    worst = 0.0
    for _ in range(100):
        rho_true = st.random_density_matrix(rng)
        exposures = np.full(16, 5000.0) * tom.basis_weights()
        counts = tom.expected_counts(rho_true, exposures)
        res = tom.mle_reconstruct(counts, exposures)
        worst = max(worst, st.trace_distance(res.rho, rho_true))
    elapsed = time.time() - start
    assert worst < 1e-4, worst
    assert elapsed < 60.0, elapsed
    _report(4, f"100 exact-count round trips, worst trace distance {worst:.2e} in {elapsed:.1f}s")


def test_criterion_05_golden_tomography():
    record = load_tomography_counts()
    res = tom.mle_reconstruct(record.sum(axis=0), tom.basis_exposures(record))
    _, after = load_density_matrices()
    f_ref = st.fidelity(res.rho, after)
    f_bell = st.fidelity(res.rho, BELL_PROJ)
    p = st.purity(res.rho)
    e = st.entanglement_of_formation(res.rho)
    assert f_ref >= 0.97, f_ref
    assert f_bell == pytest.approx(0.8657, abs=3 * 0.0131), f_bell
    assert p == pytest.approx(0.7751, abs=3 * 0.0239), p
    assert e == pytest.approx(0.6594, abs=3 * 0.0294), e
    _report(
        5,
        f"reconstruction fidelity {f_ref:.4f} >= 0.97; F={f_bell:.4f}, P={p:.4f}, "
        f"EoF={e:.4f} all within 3 sigma of the published out-column",
    )


def _exact_s(rho):
    """CHSH S of the exact Born-rule rates at ``bell.DEFAULT_CHSH_PHASES``."""
    return bell.chsh_s([bell.correlation_e(rates) for rates in chsh_rates(rho, bell.DEFAULT_CHSH_PHASES)])


def test_criterion_06_chsh_analytic_ceiling():
    s_bell = _exact_s(BELL_PROJ)
    assert abs(s_bell - 2 * math.sqrt(2)) < 1e-9, s_bell
    worst = 0.0
    for v in np.linspace(0.0, 1.0, 21):
        s = _exact_s(st.werner_state(v))
        worst = max(worst, abs(s - 2 * math.sqrt(2) * v))
    assert worst < 1e-9, worst
    _report(6, f"S(Bell) = 2*sqrt(2) and Werner S = 2*sqrt(2)*V, worst dev {worst:.1e}")


def test_criterion_07_end_to_end_calibrated(cfg, chsh_runs):
    start = time.time()
    s_after = chsh_runs["after"].s_value
    s_before = chsh_runs["before"].s_value
    g2_corr = pl.acquire_g2(cfg, 0, 0, cfg.desk_scale.g2_cycles, ("acc7", "corr"), stored=True)
    g2_uncorr = pl.acquire_g2(cfg, 0, 1, cfg.desk_scale.g2_cycles, ("acc7", "uncorr"), stored=True)
    elapsed = time.time() - start
    assert s_after == pytest.approx(2.549, abs=3 * 0.020), s_after
    assert s_before == pytest.approx(2.518, abs=3 * 0.02), s_before
    assert 14.0 <= g2_corr.g2 <= 26.0, g2_corr.g2
    assert 0.8 <= g2_uncorr.g2 <= 1.2, g2_uncorr.g2
    assert elapsed < 300.0
    _report(
        7,
        f"S_after={s_after:.4f} (2.549+-0.060), S_before={s_before:.4f} (2.518+-0.060), "
        f"g2_corr={g2_corr.g2:.1f} in [14,26], g2_uncorr={g2_uncorr.g2:.3f} in [0.8,1.2]",
    )


def test_criterion_08_franson_visibility_quartet(cfg):
    start = time.time()
    ((_, fits),) = pl.run_scans(cfg, [(pl.fringe_scan, 0, 0.0, True)])
    elapsed = time.time() - start
    targets = (0.8879, 0.8956, 0.8654, 0.9176)
    devs = []
    for fit, target in zip(fits, targets):
        assert abs(fit.visibility - target) <= 0.05, (fit.visibility, target)
        devs.append(fit.visibility - target)
    assert elapsed < 300.0
    _report(
        8,
        "fitted V quartet "
        + ", ".join(f"{100*f.visibility:.2f}%" for f in fits)
        + f" within 5pp of published (devs {['%+.2f' % (100*d) for d in devs]})",
    )


def test_criterion_09_povm_completeness():
    rng = np.random.default_rng(99)
    worst_id = 0.0
    for _ in range(1000):
        elems = umzi_povm(rng.uniform(-np.pi, np.pi))
        worst_id = max(worst_id, np.max(np.abs(elems.sum(axis=(0, 1)) - np.eye(2))))
    assert worst_id < 1e-12, worst_id
    worst_sum, worst_neg = 0.0, 0.0
    for _ in range(1000):
        rho = st.random_density_matrix(rng)
        table = project_pair(rho, rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
        worst_sum = max(worst_sum, abs(table.sum() - 1.0))
        worst_neg = min(worst_neg, table.min())
    assert worst_sum < 1e-10, worst_sum
    assert worst_neg > -1e-12, worst_neg
    _report(
        9,
        f"1000 phases: POVM completeness dev {worst_id:.1e}; 1000 states: "
        f"table sum dev {worst_sum:.1e}, min entry {worst_neg:.1e}",
    )


def test_criterion_10_mle_gradient_check():
    rng = np.random.default_rng(7)
    n = rng.poisson(np.full(16, 600.0)).astype(float)
    c = np.full(16, 2500.0)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        x = rng.normal(size=16)
        _, grad = tom.log_likelihood_and_gradient(x, n, c)
        k = int(rng.integers(16))
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        num = (
            tom.log_likelihood_and_gradient(xp, n, c)[0]
            - tom.log_likelihood_and_gradient(xm, n, c)[0]
        ) / (2 * h)
        rel = abs(grad[k] - num) / max(abs(num), 1e-8)
        worst = max(worst, rel)
    assert worst < 1e-5, worst
    _report(10, f"analytic vs central-difference gradient, worst relative error {worst:.1e}")


def test_criterion_11_efficiency_decay_fit():
    grid = load_efficiency_grid()
    fit = mem.fit_decay_model(grid.times_ns, grid.efficiency_pct[:, 0])
    assert fit.excluded_times_ns == (170.0,), fit.excluded_times_ns
    assert set(fit.fitted_times_ns) == {90.0, 110.0, 130.0, 150.0, 152.0, 190.0, 210.0, 230.0}
    assert fit.max_residual_pct <= 0.1, fit.max_residual_pct
    _report(
        11,
        f"channel-1 decay fit max residual {fit.max_residual_pct:.3f} pp <= 0.1 on the "
        f"monotone subsequence; 170 ns row excluded and flagged",
    )


def test_criterion_12_monte_carlo_error_scaling():
    # sigma_S from Poisson resampling must halve when all counts scale x4
    a, ap, b, bp = bell.DEFAULT_CHSH_PHASES
    base = np.array(
        [
            [300 * (1 + s * 0.9 * np.cos(x + y)) for s in bell.COMBO_SIGNS]
            for x, y in ((a, b), (ap, b), (a, bp), (ap, bp))
        ]
    )

    def s_stat(draws):
        return np.array(
            [bell.chsh_s([bell.correlation_e(row) for row in counts.reshape(4, 4)]) for counts in draws]
        )

    start = time.time()
    sigma_1 = bell.monte_carlo_errors(base, s_stat, n_trials=400, seed=3)
    sigma_4 = bell.monte_carlo_errors(base * 4.0, s_stat, n_trials=400, seed=4)
    ratio = float(sigma_1 / sigma_4)
    elapsed = time.time() - start
    assert ratio == pytest.approx(2.0, abs=0.4), ratio
    assert elapsed < 120.0
    _report(12, f"sigma_S shrink under x4 counts: {ratio:.2f} in 2.0 +- 0.4")
