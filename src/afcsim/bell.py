"""Franson fringe analysis, CHSH statistics, and Monte-Carlo error bars.

Conventions: the four analyzer port combinations are ordered
(A1B1, A1B2, A2B1, A2B2) throughout; A is the idler-side analyzer (phase
alpha), B the signal side (phase beta).  Middle-middle coincidence counts
follow A * (1 + (-1)^(i+j) V cos(alpha + beta + phi0)).
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "COMBO_LABELS",
    "COMBO_SIGNS",
    "DEFAULT_CHSH_PHASES",
    "TSIRELSON_BOUND",
    "FringeScan",
    "ChshResult",
    "VisibilityFit",
    "correlation_e",
    "chsh_s",
    "chsh_from_counts",
    "fit_visibility",
    "monte_carlo_errors",
    "bell_violation_sigmas",
]

COMBO_LABELS = ("A1B1", "A1B2", "A2B1", "A2B2")
COMBO_SIGNS = (1.0, -1.0, -1.0, 1.0)  # (-1)^(i+j)

# (alpha, alpha', beta, beta') for the CHSH test
DEFAULT_CHSH_PHASES = (0.0, math.pi / 2, math.pi / 4, -math.pi / 4)

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class FringeScan:
    """Three-fold coincidence counts versus the signal-analyzer phase beta,
    at fixed idler phase alpha.  ``counts[n, k]`` is the count for beta_rad[n]
    and port combination COMBO_LABELS[k]."""

    alpha_rad: float
    beta_rad: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        beta = np.asarray(self.beta_rad, dtype=float)
        counts = np.asarray(self.counts, dtype=float)
        if counts.shape != (beta.size, 4):
            raise ValueError("counts must have shape (n_beta, 4)")
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "beta_rad", beta)
        object.__setattr__(self, "counts", counts)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["beta_rad", "c11", "c12", "c21", "c22"])
            for b, row in zip(self.beta_rad, self.counts):
                writer.writerow([f"{b:.10g}"] + [int(c) for c in row])


@dataclass(frozen=True)
class ChshResult:
    s_value: float
    sigma_s: float
    settings: tuple[float, float, float, float]
    e_values: tuple[float, float, float, float]
    e_sigmas: tuple[float, float, float, float]

    def __post_init__(self):
        if abs(self.s_value) > TSIRELSON_BOUND + 3.0 * max(self.sigma_s, 0.0):
            raise ValueError(
                f"S = {self.s_value} past the quantum bound beyond 3 sigma; "
                "upstream counts are inconsistent"
            )

    def as_dict(self) -> dict:
        return {
            "S": self.s_value,
            "sigma_S": self.sigma_s,
            "settings_rad": list(self.settings),
            "E": list(self.e_values),
            "sigma_E": list(self.e_sigmas),
            "violation_sigmas": bell_violation_sigmas(self),
        }


def correlation_e(counts) -> float:
    """Correlation coefficient (C11 - C12 - C21 + C22) / (sum of all four)."""
    c = np.asarray(counts, dtype=float).reshape(4)
    total = c.sum()
    if total <= 0:
        raise ValueError("all-zero counts; correlation undefined")
    return float((c[0] - c[1] - c[2] + c[3]) / total)


def chsh_s(e_values) -> float:
    """S = |E(a,b) - E(a',b) + E(a,b') + E(a',b')|.

    The four correlations must be ordered ((a,b), (a',b), (a,b'), (a',b')).
    """
    e = np.asarray(e_values, dtype=float).reshape(4)
    if np.any(np.abs(e) > 1.0 + 1e-9):
        raise ValueError("correlation coefficients must lie in [-1, 1]")
    return float(abs(e[0] - e[1] + e[2] + e[3]))


def _e_and_s_from_count_matrix(counts: np.ndarray) -> np.ndarray:
    """[E0, E1, E2, E3, S] of each (4, 4) count matrix in a ``(..., 4, 4)``
    stack, as :func:`correlation_e` and :func:`chsh_s` compute them; a
    setting with no counts gives NaN instead of raising."""
    c = np.asarray(counts, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = (c[..., 0] - c[..., 1] - c[..., 2] + c[..., 3]) / c.sum(axis=-1)
    s = np.abs(e[..., 0] - e[..., 1] + e[..., 2] + e[..., 3])
    return np.concatenate([e, s[..., None]], axis=-1)


def chsh_from_counts(
    counts,
    *,
    n_trials: int,
    seed: int,
) -> ChshResult:
    """CHSH statistic from a (4, 4) count matrix: one row per setting pair
    ((a,b), (a',b), (a,b'), (a',b')) of ``DEFAULT_CHSH_PHASES``, columns
    ordered as COMBO_LABELS.

    Errors come from a Poisson parametric bootstrap over all 16 counts.
    """
    c = np.asarray(counts, dtype=float).reshape(4, 4)
    values = _e_and_s_from_count_matrix(c)
    if np.isnan(values).any():
        raise ValueError("all-zero counts; correlation undefined")
    sig = monte_carlo_errors(c, _e_and_s_from_count_matrix, n_trials=n_trials, seed=seed)
    return ChshResult(
        s_value=float(values[4]),
        sigma_s=float(sig[4]),
        settings=DEFAULT_CHSH_PHASES,
        e_values=tuple(float(x) for x in values[:4]),
        e_sigmas=tuple(float(x) for x in sig[:4]),
    )


def monte_carlo_errors(counts, statistic, n_trials: int, seed: int, per_record: bool = False):
    """Standard deviation of a statistic under Poisson count resampling.

    Every raw count is resampled as Poisson with mean equal to the observed
    value, ``n_trials`` times in one draw.  ``statistic`` receives the whole
    ``(n_trials, *counts.shape)`` array and returns one row per trial,
    ``(n_trials,)`` or ``(n_trials, k)``; the sample standard deviation over
    trials is returned (shape ``()`` or ``(k,)``).  Deterministic per seed.
    ``per_record`` draws the records of ``counts``' first axis in turn, so a
    record's draws ignore the others (one record's are the default draws).

    A trial whose row is not finite everywhere (a fit that failed, a ratio
    with a zero denominator) is dropped with a ``RuntimeWarning`` that
    gives the count; fewer than two finite trials raise ``ValueError``.
    """
    if n_trials < 2:
        raise ValueError("need at least two trials")
    base = np.asarray(counts, dtype=float)
    if np.any(base < 0):
        raise ValueError("counts must be nonnegative")
    rng = np.random.default_rng(seed)
    # The generator fills the (trial, *count) array in C order, so trial k gets
    # the k-th of n_trials successive draws; per record, (record, trial, ...).
    if per_record:
        draws = rng.poisson(base[:, None], (len(base), n_trials, *base.shape[1:])).swapaxes(0, 1)
    else:
        draws = rng.poisson(base, size=(n_trials, *base.shape))
    samples = np.asarray(statistic(draws), dtype=float)
    if samples.ndim not in (1, 2) or len(samples) != n_trials:
        raise ValueError(
            f"statistic must return ({n_trials},) or ({n_trials}, k), got {samples.shape}"
        )
    finite = np.isfinite(samples).reshape(n_trials, -1).all(axis=1)
    if not finite.all():
        n_finite = int(finite.sum())
        if n_finite < 2:
            raise ValueError(
                f"only {n_finite} of {n_trials} Monte-Carlo trials gave a finite statistic"
            )
        warnings.warn(
            f"dropped {n_trials - n_finite} of {n_trials} Monte-Carlo trials "
            "with a non-finite statistic",
            RuntimeWarning,
            stacklevel=2,
        )
        samples = samples[finite]
    return np.std(samples, axis=0, ddof=1)


def bell_violation_sigmas(result: ChshResult) -> float:
    """(S - 2) / sigma_S: how many standard deviations past the classical
    bound."""
    if result.sigma_s <= 0:
        raise ValueError("sigma_S must be positive")
    return (result.s_value - 2.0) / result.sigma_s


@dataclass(frozen=True)
class VisibilityFit:
    visibility: float
    phase_offset_rad: float
    amplitude: float
    sigma_visibility: float
    converged: bool


def _fringe_model(beta, amplitude, visibility, phi0, alpha, sign):
    return amplitude * (1.0 + sign * visibility * np.cos(alpha + beta + phi0))


def _fringe_design(beta):
    return np.column_stack([np.ones_like(beta), np.cos(beta), np.sin(beta)])


def _fit_rows(beta, counts, alpha, sign):
    """Exact least-squares fit of (A, V, phi0) to every row of a
    ``(rows, n_beta)`` count stack; returns ``(rows, 3)`` params and a
    ``(rows,)`` converged flag.

    The model is linear in (c0, c1, c2) on the (1, cos beta, sin beta)
    basis, with A = c0, V = hypot(c1, c2) / c0 and phi0 from atan2, so one
    multi-right-hand-side solve gives every row's optimum whenever it lies
    in the box A > 0, V <= 1.  The box is a convex cone in (c0, c1, c2) and
    the objective is convex there, so a solution outside it moves the
    optimum onto the V = 1 face: only such rows go through a bounded
    ``least_squares`` over (A, phi0) at V = 1.
    """
    coef, *_ = np.linalg.lstsq(_fringe_design(beta), counts.T, rcond=None)
    amplitude = coef[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        visibility = np.hypot(coef[1], coef[2]) / amplitude
    phi0 = np.arctan2(-coef[2] * sign, coef[1] * sign) - alpha
    phi0 = (phi0 + math.pi) % (2 * math.pi) - math.pi
    params = np.column_stack([amplitude, visibility, phi0])
    converged = np.ones(len(params), dtype=bool)
    for row in np.flatnonzero(~((amplitude > 0) & (visibility <= 1.0))):
        from scipy import optimize

        res = optimize.least_squares(
            lambda p: _fringe_model(beta, p[0], 1.0, p[1], alpha, sign) - counts[row],
            x0=[max(amplitude[row], 1e-9), phi0[row]],
            bounds=([0.0, -2 * math.pi], [np.inf, 2 * math.pi]),
            # complex-step derivatives are exact to rounding; forward
            # differences would stop the fit ~1e-9 rad short of its optimum
            jac="cs",
        )
        params[row] = res.x[0], 1.0, res.x[1]
        converged[row] = res.success
    return params, converged


def fit_visibility(
    scan: FringeScan,
    combo: int | str,
    n_trials: int,
    seed: int,
) -> VisibilityFit:
    """Least-squares Franson fringe fit for one port combination.

    Fits counts = A (1 + (-1)^(i+j) V cos(alpha + beta + phi0)) over
    (A, V, phi0) with A >= 0 and V clamped to [0, 1].  On the known fringe
    period the fit is exact and linear; a bounded optimizer runs only when
    the linear solution has A <= 0 or V > 1.  sigma_V is a Poisson
    Monte-Carlo error over the same fit.  Insufficient data (fewer than 5
    phases or a span under pi) raises ValueError; optimizer failure is
    reported through the ``converged`` flag instead.
    """
    k = COMBO_LABELS.index(combo) if isinstance(combo, str) else int(combo)
    beta = scan.beta_rad
    if beta.size < 5 or np.ptp(beta) < math.pi:
        raise ValueError("need at least 5 phase points spanning at least pi")
    counts = scan.counts[:, k]
    sign = COMBO_SIGNS[k]

    (params,), (ok,) = _fit_rows(beta, counts[None], scan.alpha_rad, sign)

    def visibilities(draws):
        # a trial whose bounded fit fails is NaN, which drops it
        fits, converged = _fit_rows(beta, draws, scan.alpha_rad, sign)
        return np.where(converged, fits[:, 1], np.nan)

    sigma_v = monte_carlo_errors(counts, visibilities, n_trials=n_trials, seed=seed)
    return VisibilityFit(
        visibility=float(params[1]),
        phase_offset_rad=float(params[2]),
        amplitude=float(params[0]),
        sigma_visibility=float(sigma_v),
        converged=bool(ok),
    )

