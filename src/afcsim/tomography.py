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
likelihood is smooth and unconstrained, so scipy's L-BFGS-B maximizes it
from the linear-inversion estimate, with the analytic gradient.  Error bars
resample the per-setting counts through :func:`afcsim.bell.monte_carlo_errors`.
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
    TwoQubitState,
    bell_psi_plus,
    entanglement_of_formation,
    fidelity,
    nearest_psd,
    projector,
    purity,
)

__all__ = [
    "BASIS_STATE_ORDER",
    "SETTING_LABELS",
    "SETTING_PHASES",
    "TomographyBasis",
    "CountRecord",
    "ReconstructionResult",
    "basis_states",
    "basis_projector",
    "measured_mask",
    "assemble_counts",
    "setting_exposures",
    "basis_weights",
    "basis_exposures",
    "expected_counts",
    "log_likelihood",
    "log_likelihood_and_gradient",
    "mle_reconstruct",
    "reconstruct_with_errors",
    "gram_condition_number",
    "rho_from_params",
    "params_from_rho",
]

BASIS_STATE_ORDER = ("e", "l", "D", "R")
SETTING_LABELS = ("DD", "DR", "RD", "RR")  # (signal letter, idler letter)
SETTING_PHASES = {"D": 0.0, "R": -math.pi / 2}

_SINGLE_KETS = {"e": KET_E, "l": KET_L, "D": KET_D, "R": KET_R}

# Middle-slot post-selection weight of each single-photon projection: time
# slots carry 1/4 (one port, one slot), energy-basis middle slots 1/2.
_STATE_WEIGHT = {"e": 0.25, "l": 0.25, "D": 0.5, "R": 0.5}


@dataclass(frozen=True)
class TomographyBasis:
    index: int  # v = 1..16
    signal_state: str
    idler_state: str


def basis_states(v: int) -> TomographyBasis:
    if not 1 <= v <= 16:
        raise ValueError(f"basis index {v} out of range 1..16")
    return TomographyBasis(
        index=v,
        signal_state=BASIS_STATE_ORDER[(v - 1) // 4],
        idler_state=BASIS_STATE_ORDER[(v - 1) % 4],
    )


def basis_projector(v: int) -> np.ndarray:
    """Product projector |psi_s psi_i><psi_s psi_i| for basis v."""
    b = basis_states(v)
    ket = np.kron(_SINGLE_KETS[b.signal_state], _SINGLE_KETS[b.idler_state])
    return projector(ket)


def measured_mask() -> np.ndarray:
    """Boolean (4, 16): which bases each setting can project onto."""
    mask = np.zeros((4, 16), dtype=bool)
    for s, label in enumerate(SETTING_LABELS):
        sig_mid, idl_mid = label[0], label[1]
        for v in range(1, 17):
            b = basis_states(v)
            ok_s = b.signal_state in ("e", "l") or b.signal_state == sig_mid
            ok_i = b.idler_state in ("e", "l") or b.idler_state == idl_mid
            mask[s, v - 1] = ok_s and ok_i
    return mask


_MEASURED = measured_mask()


@dataclass(frozen=True)
class CountRecord:
    """Counts on the 16 bases, with the per-setting breakdown.

    ``per_setting[s, v-1]`` is NaN when basis v is not measurable in setting
    s; ``n_v`` sums the measurable entries.
    """

    per_setting: np.ndarray

    def __post_init__(self):
        ps = np.asarray(self.per_setting, dtype=float)
        if ps.shape != (4, 16):
            raise ValueError("per_setting must have shape (4, 16)")
        if not np.array_equal(~np.isnan(ps), _MEASURED):
            raise ValueError("per-setting counts present/absent pattern is wrong")
        with np.errstate(invalid="ignore"):
            if np.nanmin(ps) < 0:
                raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "per_setting", ps)

    @property
    def n_v(self) -> np.ndarray:
        return np.nansum(self.per_setting, axis=0)

    @classmethod
    def from_setting_arrays(cls, per_setting) -> "CountRecord":
        return cls(per_setting=np.asarray(per_setting, dtype=float))


def assemble_counts(setting_grids: dict[str, np.ndarray]) -> CountRecord:
    """Build the 16-basis record from four per-setting 3x3 slot grids.

    ``setting_grids[label][slot_s, slot_i]`` holds the clock-triggered
    coincidence counts of the energy-basis port pair, slots ordered (early,
    middle, late).  Slot <-> state: early = e, late = l, middle = that
    side's D or R.  Bases measured in several settings accumulate.
    """
    per_setting = np.full((4, 16), np.nan)
    slot_letter = ("e", None, "l")
    for s, label in enumerate(SETTING_LABELS):
        if label not in setting_grids:
            raise ValueError(f"setting {label} missing")
        grid = np.asarray(setting_grids[label], dtype=float)
        if grid.shape != (3, 3):
            raise ValueError(f"setting {label} grid must be 3x3 (slot_s, slot_i)")
        for slot_s in range(3):
            for slot_i in range(3):
                letter_s = slot_letter[slot_s] or label[0]
                letter_i = slot_letter[slot_i] or label[1]
                v = BASIS_STATE_ORDER.index(letter_s) * 4 + BASIS_STATE_ORDER.index(letter_i)
                per_setting[s, v] = grid[slot_s, slot_i]
    return CountRecord(per_setting=per_setting)


def setting_exposures(record: CountRecord) -> np.ndarray:
    """Effective pair exposure per setting.

    Estimated from the four time-slot bases (ee, el, le, ll) measured in
    every setting: their post-selection weights sum to 1/16 of a trace,
    independent of the state, so T_s = 16 * (slot-diagonal subtotal).
    """
    slot_bases = [0, 1, 4, 5]  # ee, el, le, ll
    subtotals = record.per_setting[:, slot_bases].sum(axis=1)
    return 16.0 * subtotals


def basis_weights() -> np.ndarray:
    """Post-selection weight w_v of each basis projector (product of the two
    single-photon weights)."""
    return np.array(
        [
            _STATE_WEIGHT[basis_states(v).signal_state]
            * _STATE_WEIGHT[basis_states(v).idler_state]
            for v in range(1, 17)
        ]
    )


def basis_exposures(record: CountRecord) -> np.ndarray:
    """exposure_v = sum over measuring settings of T_s * w_v."""
    t_s = setting_exposures(record)
    w = basis_weights()
    return (_MEASURED * t_s[:, None]).sum(axis=0) * w


_PROJECTORS = None


def _projector_stack() -> np.ndarray:
    global _PROJECTORS
    if _PROJECTORS is None:
        _PROJECTORS = np.stack([basis_projector(v) for v in range(1, 17)])
    return _PROJECTORS


def expected_counts(rho, exposures) -> np.ndarray:
    """Born-rule forward model mu_v = exposure_v * tr(rho Pi_v)."""
    m = np.asarray(rho.matrix if hasattr(rho, "matrix") else rho, dtype=complex)
    c = np.asarray(exposures, dtype=float)
    if np.any(c <= 0):
        raise ValueError("exposures must be positive")
    probs = np.einsum("vij,ji->v", _projector_stack(), m).real
    return c * probs


def gram_condition_number() -> float:
    """Informational-completeness guard for the 16-projector set.

    Returns the condition number (singular-value ratio) of the design
    matrix whose rows are the vectorized projectors; its Gram is the
    overlap matrix tr(Pi_v Pi_w).  This is the conditioning that governs
    the stability of linear inversion; about 10.4 for this basis set.
    """
    flat = _projector_stack().reshape(16, 16)
    return float(np.linalg.cond(flat))


# --- T-parameterization ---------------------------------------------------
#
# rho(T) = T^dag T / tr(T^dag T) with T upper triangular: 4 real diagonal
# parameters plus 6 complex (12 real) strictly-upper entries.  Cholesky of
# rho gives L L^dag, so T = L^dag is the exact inverse map.

_UPPER = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def _t_from_params(t: np.ndarray) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    m[np.diag_indices(4)] = t[:4]
    for k, (r, c) in enumerate(_UPPER):
        m[r, c] = t[4 + 2 * k] + 1j * t[5 + 2 * k]
    return m


def rho_from_params(t: np.ndarray) -> np.ndarray:
    m = _t_from_params(np.asarray(t, dtype=float))
    a = m.conj().T @ m
    return a / np.trace(a).real


def params_from_rho(rho: np.ndarray, floor: float = 1e-6) -> np.ndarray:
    """Inverse map via Cholesky of the eigenvalue-floored matrix."""
    vals, vecs = np.linalg.eigh(np.asarray(rho, dtype=complex))
    vals = np.clip(vals, floor, None)
    m = (vecs * vals) @ vecs.conj().T
    m /= np.trace(m).real
    chol = np.linalg.cholesky(m)  # lower triangular L with L L^dag = m
    t_mat = chol.conj().T  # upper triangular, T^dag T = m, real positive diag
    params = np.zeros(16)
    params[:4] = np.diag(t_mat).real
    for k, (r, c) in enumerate(_UPPER):
        params[4 + 2 * k] = t_mat[r, c].real
        params[5 + 2 * k] = t_mat[r, c].imag
    return params


def log_likelihood(n_v, exposures, rho) -> float:
    mu = np.clip(expected_counts(rho, exposures), 1e-300, None)
    n = np.asarray(n_v, dtype=float)
    return float(np.sum(n * np.log(mu) - mu))


def log_likelihood_and_gradient(t_params: np.ndarray, n_v, exposures):
    """Poisson log-likelihood and its analytic gradient in the 16 real
    T parameters."""
    n = np.asarray(n_v, dtype=float)
    c = np.asarray(exposures, dtype=float)
    t_mat = _t_from_params(np.asarray(t_params, dtype=float))
    a = t_mat.conj().T @ t_mat
    tau = np.trace(a).real
    rho = a / tau
    projs = _projector_stack()
    probs = np.einsum("vij,ji->v", projs, rho).real
    mu = np.clip(c * probs, 1e-300, None)
    ll = float(np.sum(n * np.log(mu) - mu))

    # dL/drho = sum_v (n_v / mu_v - 1) c_v Pi_v; project out the trace
    # constraint and pull back through rho = T^dag T / tau:
    # dL/dt_k = 2 Re tr(K T^dag P_k) / tau, K = G - tr(G rho) I.
    coeff = (n / mu - 1.0) * c
    g = np.tensordot(coeff, projs, axes=(0, 0))
    k_mat = g - np.trace(g @ rho).real * np.eye(4)
    base = k_mat @ t_mat.conj().T  # (K T^dag)
    grad = np.zeros(16)
    grad[:4] = 2.0 * np.real(np.diag(base)) / tau
    for k, (r, c_idx) in enumerate(_UPPER):
        grad[4 + 2 * k] = 2.0 * np.real(base[c_idx, r]) / tau
        grad[5 + 2 * k] = -2.0 * np.imag(base[c_idx, r]) / tau
    return ll, grad


@dataclass(frozen=True)
class ReconstructionResult:
    rho: TwoQubitState
    log_likelihood: float
    iterations: int
    converged: bool


def _linear_inversion(n_v, exposures) -> np.ndarray:
    """Least-squares start: solve tr(rho Pi_v) ~ n_v / c_v over Hermitian
    unit-trace matrices."""
    herm_basis = []
    for i in range(4):
        m = np.zeros((4, 4), dtype=complex)
        m[i, i] = 1
        herm_basis.append(m)
    for i in range(4):
        for j in range(i + 1, 4):
            m = np.zeros((4, 4), dtype=complex)
            m[i, j] = m[j, i] = 1 / math.sqrt(2)
            herm_basis.append(m)
            m = np.zeros((4, 4), dtype=complex)
            m[i, j] = -1j / math.sqrt(2)
            m[j, i] = 1j / math.sqrt(2)
            herm_basis.append(m)
    basis = np.stack(herm_basis)
    projs = _projector_stack()
    design = np.einsum("vij,bji->vb", projs, basis).real
    target = np.asarray(n_v, dtype=float) / np.asarray(exposures, dtype=float)
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    rho = np.tensordot(coef, basis, axes=(0, 0))
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    if abs(tr) < 1e-12:
        return np.eye(4) / 4.0
    return rho / tr


def mle_reconstruct(
    counts,
    exposures,
    *,
    init: np.ndarray | None = None,
) -> ReconstructionResult:
    """Maximum-likelihood state reconstruction.

    scipy's L-BFGS-B maximizes the Poisson likelihood over the 16 T
    parameters with the analytic gradient; ``converged`` is the solver's
    ``success`` and ``iterations`` its ``nit``.

    Parameters
    ----------
    counts : CountRecord or length-16 array
        Observed totals n_v on the 16 bases.
    exposures : length-16 array
        Effective exposures (setting exposure x post-selection weight);
        see :func:`basis_exposures`.
    init :
        Optional 4x4 starting matrix; defaults to eigenvalue-floored linear
        inversion.

    Returns
    -------
    ReconstructionResult with a valid (PSD, unit-trace) state.
    """
    n_raw = counts.n_v if isinstance(counts, CountRecord) else np.asarray(counts, dtype=float)
    c_raw = np.asarray(exposures, dtype=float)
    if n_raw.shape != (16,) or c_raw.shape != (16,):
        raise ValueError("need 16 counts and 16 exposures")
    if np.any(c_raw <= 0):
        raise ValueError("exposures must be positive (informational completeness)")
    if n_raw.sum() <= 0:
        raise ValueError("no counts; likelihood has no interior maximum")

    # The likelihood is homogeneous in (counts, exposures); normalize to a
    # fixed total so convergence (and the argmax) is exactly scale invariant.
    scale = n_raw.sum() / 4096.0
    n = n_raw / scale
    c = c_raw / scale

    from scipy import optimize

    def negated(x):
        f, grad = log_likelihood_and_gradient(x, n, c)
        return -f, -grad

    rho0 = init if init is not None else _linear_inversion(n, c)
    # The default ftol (2.2e-9 relative, ~4e-5 absolute at this
    # normalization) stops up to 2e-2 trace distance short of the optimum on
    # resampled counts; at 1e-15 the fits land within ~2e-6 of it.
    res = optimize.minimize(
        negated,
        params_from_rho(rho0),
        jac=True,
        method="L-BFGS-B",
        options={"ftol": 1e-15, "gtol": 1e-8},
    )
    rho = nearest_psd(rho_from_params(res.x))
    return ReconstructionResult(
        rho=rho,
        log_likelihood=log_likelihood(n_raw, c_raw, rho.matrix),
        iterations=int(res.nit),
        converged=bool(res.success),
    )


def reconstruct_with_errors(
    record: CountRecord,
    n_trials: int = 100,
    seed: int = 0,
    reference: np.ndarray | None = None,
):
    """MLE reconstruction with Poisson Monte-Carlo error bars.

    Resamples every per-setting count as Poisson with mean equal to the
    observation (:func:`afcsim.bell.monte_carlo_errors`), re-estimates
    exposures, reconstructs each trial, and reports the central value and
    sigma of the derived metrics (fidelity to |Psi+>, purity, entanglement
    of formation, and fidelity to ``reference`` when given).
    """
    bell_proj = projector(bell_psi_plus())
    base = mle_reconstruct(record, basis_exposures(record))

    def metrics(rho) -> dict:
        out = {
            "fidelity_bell": fidelity(rho, bell_proj),
            "purity": purity(rho),
            "entanglement_of_formation": entanglement_of_formation(rho),
        }
        if reference is not None:
            out["fidelity_reference"] = fidelity(rho, reference)
        return out

    def statistic(per_setting):
        rec = CountRecord(per_setting=np.where(_MEASURED, per_setting, np.nan))
        rho = mle_reconstruct(rec, basis_exposures(rec)).rho
        return np.array(list(metrics(rho).values()))

    sigmas = bell.monte_carlo_errors(
        np.nan_to_num(record.per_setting), statistic, n_trials=n_trials, seed=seed
    )
    summary = {
        key: {"value": value, "sigma": float(sigma)}
        for (key, value), sigma in zip(metrics(base.rho).items(), sigmas)
    }
    return base, summary
