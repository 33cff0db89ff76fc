"""Two-qubit state tomography from energy-basis projection counts.

The 16 measurement bases are the pairwise combinations of |e>, |l>,
|D> = (|e>+|l>)/sqrt(2) and |R> = (|e>+i|l>)/sqrt(2), indexed v = 1..16 in
signal-major order ((e,e), (e,l), (e,D), (e,R), (l,e), ...).  Counts come
from four energy-basis settings ("DD", "DR", "RD", "RR", labeled by the
(signal, idler) middle-slot states selected by the analyzer phases 0 and
-pi/2); a basis is measurable in a setting when each photon's state is
either a time-slot state (e/l, available in every setting) or matches that
side's middle-slot state.

The reconstruction maximizes the Poisson likelihood
sum_v [n_v ln mu_v - mu_v], mu_v = exposure_v tr(rho Pi_v), over physical
states through the triangular parameterization rho(T) = T^dag T / tr(T^dag T)
(16 real parameters; James et al., PRA 64, 052312, 2001).  In T the
likelihood is smooth and unconstrained; a damped Newton ascent with the
analytic gradient and Hessian maximizes it from the linear-inversion
estimate, for a whole stack of count records at once, and stops each record
on a gradient tolerance.  Error bars resample the per-setting counts through
:func:`afcsim.bell.monte_carlo_errors` and fit every resampled record in one
batched solve.

A count record is a plain float array ``counts[setting, v - 1]`` of shape
``(4, 16)``, or ``(..., 4, 16)`` for a stack, with 0 in every cell its
setting cannot measure; its 16 totals are ``counts.sum(axis=-2)``.  One
table, :data:`SLOT_BASIS`, maps each setting's (signal slot, idler slot)
cell to its basis; the measured pattern, the count assembly and the
exposure estimate all read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from afcsim import bell
from afcsim.states import (
    KET_D,
    KET_E,
    KET_L,
    KET_R,
    _dagger,
    bell_psi_plus,
    entanglement_of_formation,
    fidelity,
    nearest_psd,
    projector,
    purity,
)

__all__ = [
    "BASIS_STATE_ORDER",
    "BASES",
    "SETTING_LABELS",
    "SETTING_PHASES",
    "SLOT_BASIS",
    "ReconstructionResult",
    "basis_projector",
    "measured_mask",
    "assemble_counts",
    "basis_weights",
    "basis_exposures",
    "expected_counts",
    "log_likelihood_and_gradient",
    "mle_reconstruct",
    "mle_reconstruct_batch",
    "state_metrics",
    "storage_pair_metrics",
    "reconstruct_with_errors",
    "rho_from_params",
    "params_from_rho",
]

BASIS_STATE_ORDER = ("e", "l", "D", "R")
# Basis v = 1..16 is BASES[v - 1], its (signal, idler) letter pair.
BASES = tuple((s, i) for s in BASIS_STATE_ORDER for i in BASIS_STATE_ORDER)
SETTING_LABELS = ("DD", "DR", "RD", "RR")  # (signal letter, idler letter)
SETTING_PHASES = {"D": 0.0, "R": -math.pi / 2}

_SINGLE_KETS = {"e": KET_E, "l": KET_L, "D": KET_D, "R": KET_R}

# Middle-slot post-selection weight of each single-photon projection: time
# slots carry 1/4 (one port, one slot), energy-basis middle slots 1/2.
_STATE_WEIGHT = {"e": 0.25, "l": 0.25, "D": 0.5, "R": 0.5}


def _basis_ket(v: int) -> np.ndarray:
    if not 1 <= v <= 16:
        raise ValueError(f"basis index {v} out of range 1..16")
    signal, idler = BASES[v - 1]
    return np.kron(_SINGLE_KETS[signal], _SINGLE_KETS[idler])


def basis_projector(v: int) -> np.ndarray:
    """Product projector |psi_s psi_i><psi_s psi_i| for basis v."""
    return projector(_basis_ket(v))


# SLOT_BASIS[s, slot_s, slot_i] is the basis (v - 1) that setting s counts
# in its (signal slot, idler slot) cell, slots ordered (early, middle,
# late): early = e, late = l, middle = that side's D or R.
SLOT_BASIS = np.array(
    [
        [[BASES.index((sig, idl)) for idl in ("e", idl_mid, "l")] for sig in ("e", sig_mid, "l")]
        for sig_mid, idl_mid in SETTING_LABELS
    ]
)
_SETTING_ROWS = np.arange(4)[:, None, None]


def measured_mask() -> np.ndarray:
    """Boolean (4, 16): which bases each setting can project onto."""
    mask = np.zeros((4, 16), dtype=bool)
    mask[_SETTING_ROWS, SLOT_BASIS] = True
    return mask


_MEASURED = measured_mask()


def assemble_counts(grids) -> np.ndarray:
    """The ``(4, 16)`` count record of four per-setting 3x3 slot grids.

    ``grids[s, slot_s, slot_i]`` holds setting s's clock-triggered
    coincidence counts of the energy-basis port pair, settings ordered as
    SETTING_LABELS; :data:`SLOT_BASIS` places each cell in its basis, and
    the cells a setting cannot measure stay 0.
    """
    counts = np.zeros((4, 16))
    counts[_SETTING_ROWS, SLOT_BASIS] = grids
    return counts


# the four time-slot bases (ee, el, le, ll): the corner cells of every setting
_TIME_SLOT_BASES = SLOT_BASIS[0, ::2, ::2].ravel()


def basis_weights() -> np.ndarray:
    """Post-selection weight w_v of each basis projector (product of the two
    single-photon weights)."""
    return np.array([_STATE_WEIGHT[signal] * _STATE_WEIGHT[idler] for signal, idler in BASES])


_WEIGHTS = basis_weights()


def basis_exposures(counts) -> np.ndarray:
    """exposure_v = sum over measuring settings of T_s * w_v, ``(..., 16)``
    from a ``(..., 4, 16)`` count record.

    T_s, the effective pair exposure of setting s, is estimated from the
    four time-slot bases (ee, el, le, ll) measured in every setting: their
    post-selection weights sum to 1/16 of a trace, independent of the
    state, so T_s = 16 * (slot-diagonal subtotal).
    """
    t_s = 16.0 * np.asarray(counts)[..., _TIME_SLOT_BASES].sum(axis=-1)
    return (_MEASURED * t_s[..., None]).sum(axis=-2) * _WEIGHTS


_KETS = np.stack([_basis_ket(v) for v in range(1, 17)])
_PROJECTORS = np.stack([projector(ket) for ket in _KETS])


def expected_counts(rho, exposures) -> np.ndarray:
    """Born-rule forward model mu_v = exposure_v * tr(rho Pi_v)."""
    m = np.asarray(rho, dtype=complex)
    c = np.asarray(exposures, dtype=float)
    if np.any(c <= 0):
        raise ValueError("exposures must be positive")
    probs = np.einsum("vij,ji->v", _PROJECTORS, m).real
    return c * probs


# --- T-parameterization ---------------------------------------------------
#
# rho(T) = T^dag T / tr(T^dag T) with T upper triangular: 4 real diagonal
# parameters, then the real and imaginary parts of the 6 strictly-upper
# entries in row-major order.  Cholesky of rho gives L L^dag, so T = L^dag
# is the exact inverse map.  Every function here broadcasts over leading
# batch axes.

_DIAG = np.arange(4)
_ROW, _COL = np.triu_indices(4, k=1)


def _t_from_params(t: np.ndarray) -> np.ndarray:
    m = np.zeros(t.shape[:-1] + (4, 4), dtype=complex)
    m[..., _DIAG, _DIAG] = t[..., :4]
    m[..., _ROW, _COL] = t[..., 4::2] + 1j * t[..., 5::2]
    return m


def rho_from_params(t: np.ndarray) -> np.ndarray:
    m = _t_from_params(np.asarray(t, dtype=float))
    a = _dagger(m) @ m
    return a / np.trace(a, axis1=-2, axis2=-1).real[..., None, None]


def params_from_rho(rho: np.ndarray, floor: float = 1e-6) -> np.ndarray:
    """Inverse map via Cholesky of the eigenvalue-floored matrix."""
    vals, vecs = np.linalg.eigh(np.asarray(rho, dtype=complex))
    vals = np.clip(vals, floor, None)
    m = (vecs * vals[..., None, :]) @ _dagger(vecs)
    m /= np.trace(m, axis1=-2, axis2=-1).real[..., None, None]
    # lower-triangular L with L L^dag = m; T = L^dag has a real positive diagonal
    t_mat = _dagger(np.linalg.cholesky(m))
    upper = t_mat[..., _ROW, _COL]
    params = np.empty(m.shape[:-2] + (16,))
    params[..., :4] = t_mat[..., _DIAG, _DIAG].real
    params[..., 4::2] = upper.real
    params[..., 5::2] = upper.imag
    return params


# T psi_v is linear in t: row v of _T_KETS maps t to (Re, Im) of T psi_v,
# so tr(T^dag T Pi_v) = |_T_KETS[v] t|^2 and its Hessian in t is
# 2 _T_KETS[v]^T _T_KETS[v].
_T_BASIS = _t_from_params(np.eye(16))  # (parameter, row, col)
_T_KETS = np.concatenate(
    [part(np.einsum("kij,vj->vik", _T_BASIS, _KETS)) for part in (np.real, np.imag)], axis=1
)  # (basis v, 8, parameter)
_T_GRAMS = np.einsum("vak,val->vkl", _T_KETS, _T_KETS)


def _likelihood(t, n, c, order: int):
    """Poisson log-likelihood in T and, for ``order`` 1 or 2, its gradient
    and Hessian.  ``t`` is ``(..., 16)``; ``n`` and ``c`` broadcast with it.

    With q_v = tr(T^dag T Pi_v) and tau = tr(T^dag T) = |t|^2 the model
    probability p_v = q_v / tau is a ratio of quadratic forms, so
    dp_v = (dq_v - 2 p_v t) / tau and
    d2p_v = 2 (Q_v - p_v I - t dp_v^T - dp_v t^T) / tau, Q_v = _T_GRAMS[v].
    """
    u = np.einsum("vak,...k->...va", _T_KETS, t)
    tau = np.einsum("...k,...k->...", t, t)
    p = np.einsum("...va,...va->...v", u, u) / tau[..., None]
    mu = np.clip(c * p, 1e-300, None)
    ll = np.sum(n * np.log(mu) - mu, axis=-1)
    if order == 0:
        return (ll,)
    # dL/dp_v = (n_v / mu_v - 1) c_v
    coeff = (n / mu - 1.0) * c
    dp = (2.0 * np.einsum("...va,vak->...vk", u, _T_KETS) - 2.0 * p[..., None] * t[..., None, :])
    dp /= tau[..., None, None]
    grad = np.einsum("...v,...vk->...k", coeff, dp)
    if order == 1:
        return ll, grad
    # d2L = sum_v coeff_v d2p_v - sum_v (n_v / p_v^2) dp_v dp_v^T
    t_grad = t[..., :, None] * grad[..., None, :]
    hess = 2.0 * (
        np.einsum("...v,vkl->...kl", coeff, _T_GRAMS)
        - np.einsum("...v,...v->...", coeff, p)[..., None, None] * np.eye(16)
        - t_grad
        - np.swapaxes(t_grad, -1, -2)
    ) / tau[..., None, None]
    curv = n * (c / mu) ** 2
    hess -= np.einsum("...v,...vk,...vl->...kl", curv, dp, dp)
    return ll, grad, hess


def log_likelihood_and_gradient(t_params: np.ndarray, n_v, exposures):
    """Poisson log-likelihood and its analytic gradient in the 16 real
    T parameters.

    ``t_params`` may carry leading batch axes: a ``(B, 16)`` stack gives
    ``(B,)`` likelihoods and ``(B, 16)`` gradients, with ``n_v`` and
    ``exposures`` broadcast against it.
    """
    ll, grad = _likelihood(
        np.asarray(t_params, dtype=float),
        np.asarray(n_v, dtype=float),
        np.asarray(exposures, dtype=float),
        order=1,
    )
    return (float(ll) if np.ndim(ll) == 0 else ll), grad


@dataclass(frozen=True)
class ReconstructionResult:
    """MLE fits, one or a stack.

    From :func:`mle_reconstruct_batch`: ``rho`` is the ``(B, 4, 4)`` stack
    of repaired density matrices, ``iterations`` the ``(B,)`` Newton step
    counts and ``converged`` the ``(B,)`` certification flags.  From
    :func:`mle_reconstruct`: one ``(4, 4)`` matrix, an ``int`` and a
    ``bool``.
    """

    rho: np.ndarray
    iterations: np.ndarray | int
    converged: np.ndarray | bool


def _hermitian_basis() -> np.ndarray:
    """16 orthonormal Hermitian 4x4 matrices: diagonal units, then the
    symmetric and antisymmetric pair of each upper entry."""
    basis = []
    for i in range(4):
        m = np.zeros((4, 4), dtype=complex)
        m[i, i] = 1
        basis.append(m)
    for i, j in zip(_ROW, _COL):
        m = np.zeros((4, 4), dtype=complex)
        m[i, j] = m[j, i] = 1 / math.sqrt(2)
        basis.append(m)
        m = np.zeros((4, 4), dtype=complex)
        m[i, j] = -1j / math.sqrt(2)
        m[j, i] = 1j / math.sqrt(2)
        basis.append(m)
    return np.stack(basis)


_HERM_BASIS = _hermitian_basis()
_HERM_DESIGN = np.einsum("vij,bji->vb", _PROJECTORS, _HERM_BASIS).real


def _linear_inversion(n_v, exposures) -> np.ndarray:
    """Least-squares start: solve tr(rho Pi_v) ~ n_v / c_v over Hermitian
    unit-trace matrices, for ``(16,)`` or ``(B, 16)`` rows in one solve."""
    target = np.asarray(n_v, dtype=float) / np.asarray(exposures, dtype=float)
    coef, *_ = np.linalg.lstsq(_HERM_DESIGN, target.T, rcond=None)
    rho = np.einsum("b...,bij->...ij", coef, _HERM_BASIS)
    rho = 0.5 * (rho + _dagger(rho))
    tr = np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.abs(tr) < 1e-12, np.eye(4) / 4.0, rho / tr)


# Newton solve settings.  The likelihood is normalized to 4096 counts and
# t to unit norm, so the gradient tolerance is an absolute number.
_GTOL = 1e-8
_MAX_NEWTON = 200
_MAX_HALVINGS = 40
_ARMIJO = 1e-4
# Curvatures are floored at max|grad| (a gradient-regularized Newton step,
# which keeps the step short across the non-concave region near
# rank-deficient states) and at this fraction of the row's largest
# curvature (the scale gauge t -> s t is an exactly flat direction).
_CURVATURE_FLOOR = 1e-10
# A predicted gain this small is below the rounding of L (~1e-11 at 4096
# counts), so the sufficient-increase test cannot resolve it and the full
# step is taken.
_GAIN_FLOOR = 1e-10


def _newton_maximize(t, n, c):
    """Damped Newton ascent of the likelihood for a ``(B, 16)`` stack.

    Each step solves with the Hessian's eigenvalues flipped to positive
    curvature and floored at max|grad|, then backtracks per row until the
    Armijo sufficient-increase test holds.  A row leaves the active set once
    max|grad| <= _GTOL (converged) or when no step length increases L.
    Returns (t, iterations, converged).
    """
    t = t / np.linalg.norm(t, axis=-1, keepdims=True)
    iterations = np.zeros(len(t), dtype=int)
    converged = np.zeros(len(t), dtype=bool)
    active = np.arange(len(t))
    ll, grad, hess = _likelihood(t, n, c, order=2)
    for it in range(_MAX_NEWTON + 1):
        grad_max = np.abs(grad).max(axis=-1)
        done = grad_max <= _GTOL
        converged[active[done]] = True
        keep = ~done
        active, ll, grad, hess, grad_max = active[keep], ll[keep], grad[keep], hess[keep], grad_max[keep]
        if active.size == 0 or it == _MAX_NEWTON:
            break
        vals, vecs = np.linalg.eigh(-hess)
        vals = np.abs(vals)
        floor = np.maximum(grad_max, _CURVATURE_FLOOR * vals.max(axis=-1))
        vals = np.maximum(vals, floor[:, None])
        step = np.einsum("...kj,...j->...k", vecs, np.einsum("...kj,...k->...j", vecs, grad) / vals)
        gain = np.einsum("...k,...k->...", grad, step)

        t_row, n_row, c_row = t[active], n[active], c[active]
        new_t, new_ll = t_row.copy(), np.empty(active.size)
        size = np.ones(active.size)
        retry = np.ones(active.size, dtype=bool)
        for _ in range(_MAX_HALVINGS + 1):
            new_t[retry] = t_row[retry] + size[retry, None] * step[retry]
            (new_ll[retry],) = _likelihood(new_t[retry], n_row[retry], c_row[retry], order=0)
            retry = (new_ll - ll < _ARMIJO * size * gain) & (gain > _GAIN_FLOOR)
            if not retry.any():
                break
            size[retry] *= 0.5

        # rows with no increasing step are stuck: they leave unconverged
        active, new_t = active[~retry], new_t[~retry]
        new_t /= np.linalg.norm(new_t, axis=-1, keepdims=True)
        t[active] = new_t
        iterations[active] += 1
        ll, grad, hess = _likelihood(new_t, n[active], c[active], order=2)
    return t, iterations, converged


def mle_reconstruct_batch(counts, exposures) -> ReconstructionResult:
    """Maximum-likelihood reconstruction of a ``(B, 16)`` stack of count
    rows in one batched solve.

    Each row is normalized to 4096 counts (the likelihood is homogeneous in
    counts and exposures, so the argmax and the stopping test are scale
    invariant) and started from its eigenvalue-floored linear inversion.  A
    damped Newton ascent in the 16 T parameters then runs until
    max|dL/dt| <= 1e-8 at unit |t|.  Returns one ReconstructionResult of
    ``(B, ...)`` arrays; a row that does not get there within 200 Newton
    steps has ``converged`` False, and ``iterations`` holds each row's
    Newton step count.
    """
    n_raw = np.asarray(counts, dtype=float)
    c_raw = np.asarray(exposures, dtype=float)
    if n_raw.ndim != 2 or n_raw.shape[1:] != (16,) or c_raw.shape != n_raw.shape:
        raise ValueError("need (B, 16) counts and exposures")
    if np.any(c_raw <= 0):
        raise ValueError("exposures must be positive (informational completeness)")
    total = n_raw.sum(axis=1, keepdims=True)
    if np.any(total <= 0):
        raise ValueError("no counts; likelihood has no interior maximum")

    scale = total / 4096.0
    n, c = n_raw / scale, c_raw / scale
    t, iterations, converged = _newton_maximize(params_from_rho(_linear_inversion(n, c)), n, c)
    return ReconstructionResult(nearest_psd(rho_from_params(t)), iterations, converged)


def mle_reconstruct(counts, exposures) -> ReconstructionResult:
    """Maximum-likelihood state reconstruction: one row of
    :func:`mle_reconstruct_batch`.

    Parameters
    ----------
    counts : length-16 array
        Observed totals n_v on the 16 bases, ``record.sum(axis=0)`` of a
        count record.
    exposures : length-16 array
        Effective exposures (setting exposure x post-selection weight);
        see :func:`basis_exposures`.

    Returns
    -------
    ReconstructionResult with one valid (PSD, unit-trace) ``(4, 4)``
    state; ``iterations`` counts Newton steps.
    """
    n_raw = np.asarray(counts, dtype=float)
    c_raw = np.asarray(exposures, dtype=float)
    if n_raw.shape != (16,) or c_raw.shape != (16,):
        raise ValueError("need 16 counts and 16 exposures")
    fit = mle_reconstruct_batch(n_raw[None], c_raw[None])
    return ReconstructionResult(fit.rho[0], int(fit.iterations[0]), bool(fit.converged[0]))


_BELL_PROJECTOR = projector(bell_psi_plus())


def state_metrics(rho, reference) -> dict:
    """The golden Table 3 metrics of one reconstructed state: fidelity to
    |Psi+>, purity, entanglement of formation, and fidelity to
    ``reference``."""
    return {
        "fidelity_bell": fidelity(rho, _BELL_PROJECTOR),
        "purity": purity(rho),
        "entanglement_of_formation": entanglement_of_formation(rho),
        "fidelity_reference": fidelity(rho, reference),
    }


def storage_pair_metrics(rho_in, rho_out) -> dict:
    """The Table 1 metrics of a before/after-storage pair: each state's
    fidelity to |Psi+>, purity and entanglement of formation, and the
    input/output fidelity."""
    return {
        "fidelity_bell_in": fidelity(rho_in, _BELL_PROJECTOR),
        "fidelity_bell_out": fidelity(rho_out, _BELL_PROJECTOR),
        "purity_in": purity(rho_in),
        "purity_out": purity(rho_out),
        "eof_in": entanglement_of_formation(rho_in),
        "eof_out": entanglement_of_formation(rho_out),
        "fidelity_in_out": fidelity(rho_in, rho_out),
    }


def reconstruct_with_errors(counts, metrics, n_trials: int, seed: int):
    """MLE reconstruction of an ``(R, 4, 16)`` stack of count records with
    joint Poisson Monte-Carlo error bars on ``metrics``.

    ``metrics(*rhos)`` maps the R reconstructed density matrices, or R
    equal-length stacks of them, to a dict of scalars or of arrays over the
    stack: :func:`state_metrics` with its reference bound for one record,
    :func:`storage_pair_metrics` for a before/after pair.  Each record is
    fitted on its own for the central values.  For the error bars every
    count of the stack is resampled as Poisson with mean equal to the
    observation, record by record, so that one record's draws ignore the
    others (:func:`afcsim.bell.monte_carlo_errors`; unmeasured cells stay
    0), exposures are re-estimated, all R x ``n_trials`` resampled records
    are fitted in one :func:`mle_reconstruct_batch` solve, and one
    ``metrics`` call scores the R stacks of trial fits.  A trial with any
    fit that does not converge is dropped, with a warning.

    Returns (one ReconstructionResult per record,
    {metric: {"value": ..., "sigma": ...}}).
    """
    counts = np.asarray(counts, dtype=float)
    fits = [mle_reconstruct(rec.sum(axis=0), basis_exposures(rec)) for rec in counts]
    n_records = len(fits)

    def statistic(draws):
        # (trials, R, 4, 16) -> one (trials * R, 16) solve, each trial's R rows adjacent
        stack = draws.reshape(-1, 4, 16)
        trial_fits = mle_reconstruct_batch(stack.sum(axis=1), basis_exposures(stack))
        # (R, trials, 4, 4): one contiguous stack per record
        rhos = np.ascontiguousarray(np.moveaxis(trial_fits.rho.reshape(-1, n_records, 4, 4), 1, 0))
        out = np.stack(list(metrics(*rhos).values()), axis=-1)
        out[~trial_fits.converged.reshape(-1, n_records).all(axis=1)] = np.nan
        return out

    sigmas = bell.monte_carlo_errors(counts, statistic, n_trials, seed, per_record=True)
    values = metrics(*(f.rho for f in fits))
    summary = {
        key: {"value": float(value), "sigma": float(sigma)}
        for (key, value), sigma in zip(values.items(), sigmas)
    }
    return fits, summary
