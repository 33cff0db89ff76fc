"""The per-cycle laws the samplers draw from, and the predictions written
through them.

Each law is a pure function of the config or of plain values: the UMZI
POVM and a setting's Born-rule table (:func:`project_pair`), a band's
pair rate (:func:`process_rate`), the click geometry and landing chances
of a jittered click (:func:`slot_classes`, :func:`landing_table`,
:func:`landing_row`, :func:`landing_reach`), the Poisson law of a cycle's
signal-click pairs (:func:`pairs_law`), the law of a lone pair's classes
(:func:`lone_law`), and a g2 run's rates and occupancy law
(:func:`g2_rates`, :func:`occupancy_law`).  :mod:`afcsim.pipeline` and
:mod:`afcsim.analyzer` draw from them and count; :func:`threefold_rates`
and :func:`chsh_rates` predict counts with no draw.

What depends only on a phase or on the config is built once per process
(:func:`memoized`): a phase's POVM, the landing table and reach, the
lone-law factors, the Poisson law of K, and :mod:`afcsim.pipeline`'s
detectors with no dark count.  Each is a pure function of the values it
is keyed by (floats, frozen configs, never an object's identity), its
arrays are read-only, and at most 64 are kept in a thread-safe
``lru_cache``, so any later call gets what a fresh build gives.  The
Born-rule table of a setting is built per acquisition.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING

import numpy as np

from afcsim.memory import CHANNEL_OFFSETS_GHZ, storage_survival
from afcsim.source import analytic_state, pair_rate_per_cycle

if TYPE_CHECKING:
    from afcsim.config import ExperimentConfig

__all__ = [
    "SLOT_EARLY",
    "SLOT_MIDDLE",
    "SLOT_LATE",
    "memoized",
    "umzi_povm",
    "umzi_povm_hex",
    "project_pair",
    "channel_band",
    "process_rate",
    "idler_only_processes",
    "JITTER_REACH_SIGMAS",
    "click_geometry",
    "reach_cycles",
    "gauss_mass",
    "slot_classes",
    "landing_reach",
    "landing_table",
    "LONE_SHAPE",
    "lone_law",
    "lone_factors",
    "pairs_law",
    "landing_row",
    "g2_rates",
    "occupancy_law",
    "threefold_rates",
    "chsh_rates",
]

SLOT_EARLY, SLOT_MIDDLE, SLOT_LATE = 0, 1, 2


def memoized(build):
    """``build``, a pure function of hashable values, memoized by the
    values of its arguments (:func:`functools.lru_cache`, safe to share
    across threads): each result is built once and is read-only where it
    is an array or a tuple of arrays, and the 64 most recently used are
    kept.  ``__wrapped__`` is ``build`` itself."""

    def read_only(*key):
        value = build(*key)
        for array in value if isinstance(value, tuple) else (value,):
            if isinstance(array, np.ndarray):
                array.flags.writeable = False
        return value

    return functools.update_wrapper(functools.lru_cache(maxsize=64)(read_only), build)


def umzi_povm(phase_rad: float) -> np.ndarray:
    """The six POVM elements, shape (2, 3, 2, 2) indexed [port, slot].

    Ports are 0-indexed (index k-1 for port k); slots follow SLOT_EARLY,
    SLOT_MIDDLE, SLOT_LATE.  The elements of a phase are built once
    (:func:`memoized`, keyed by the phase's exact float value, so -0.0 is
    not 0.0) and are read-only.
    """
    return umzi_povm_hex(float(phase_rad).hex())


@memoized
def umzi_povm_hex(phase_hex: str) -> np.ndarray:
    """:func:`umzi_povm` of the phase whose ``float.hex`` is ``phase_hex``."""
    phase_rad = float.fromhex(phase_hex)
    e = np.array([1.0, 0.0], dtype=complex)
    l = np.array([0.0, 1.0], dtype=complex)
    out = np.zeros((2, 3, 2, 2), dtype=complex)
    for k in (1, 2):
        u = e + (-1) ** k * np.exp(-1j * phase_rad) * l
        out[k - 1, SLOT_EARLY] = 0.25 * np.outer(e, e.conj())
        out[k - 1, SLOT_MIDDLE] = 0.25 * np.outer(u, u.conj())
        out[k - 1, SLOT_LATE] = 0.25 * np.outer(l, l.conj())
    return out


def project_pair(rho, alpha_rad: float, beta_rad: float) -> np.ndarray:
    """Joint outcome probabilities, shape (2, 3, 2, 3) indexed
    [idler_port, idler_slot, signal_port, signal_slot].

    alpha is the idler-side UMZI phase, beta the signal side.  The state
    lives in the (signal x idler) tensor ordering of the ee/el/le/ll basis,
    so the joint element is kron(E_signal, E_idler).  Entries sum to 1.

    All 36 joint elements are one broadcast product, entry for entry the
    single multiply ``np.kron`` makes, and one batched ``matmul`` and trace.
    """
    m = np.asarray(rho, dtype=complex)
    e_idler = umzi_povm(alpha_rad)
    e_signal = umzi_povm(beta_rad)
    # [ip, isl, sp, ssl, i, k, j, l] = E_signal[sp, ssl][i, j] * E_idler[ip, isl][k, l]
    ops = (
        e_signal[None, None, :, :, :, None, :, None]
        * e_idler[:, :, None, None, None, :, None, :]
    ).reshape(2, 3, 2, 3, 4, 4)
    return np.trace(m @ ops, axis1=-2, axis2=-1).real.copy()


def channel_band(channel: int, bandwidth_ghz: float):
    center = CHANNEL_OFFSETS_GHZ[channel]
    return (center - bandwidth_ghz / 2.0, center + bandwidth_ghz / 2.0)


def process_rate(cfg: ExperimentConfig, processes) -> float:
    """The mean pairs per cycle of the ``(band, fraction)`` processes, the
    rates :func:`afcsim.source.emission_arrays` draws them at."""
    mu = pair_rate_per_cycle(cfg.source)
    return sum(f * mu * (hi - lo) / cfg.source.pair_bandwidth_ghz for (lo, hi), f in processes)


def idler_only_processes(cfg: ExperimentConfig, channel: int, share: float):
    """The ``(band, fraction)`` processes of the pairs of a channel that
    give no signal click, in draw order: the idler filter's fringe below
    and above the signal band (none when the two filters match), then a
    share 1 - ``share`` of the signal-band pairs (none, and no draw, when
    ``share`` is 1).  A g2 run passes the recall survival, whose lost pairs
    have no signal photon to detect; a threefold acquisition passes the
    recall survival times the detector efficiency."""
    sig = channel_band(channel, cfg.filters.signal_bandwidth_ghz)
    processes = [(sig, 1.0 - share)]
    if cfg.filters.idler_bandwidth_ghz > cfg.filters.signal_bandwidth_ghz:
        full = channel_band(channel, cfg.filters.idler_bandwidth_ghz)
        processes[:0] = [((full[0], sig[0]), 1.0), ((sig[1], full[1]), 1.0)]
    return processes


# detector jitter is Gaussian: the click geometry below, and the callers
# that bound how far a click may land from its photon, reach clicks
# displaced by up to this many standard deviations, beyond which lies a
# share of 1.5e-23 of the clicks
JITTER_REACH_SIGMAS = 10


def click_geometry(cfg: ExperimentConfig):
    """(period, slot spacing, coincidence window, detector jitter sigma) in
    ps: the arguments of the click geometry (:func:`slot_classes`,
    :func:`landing_table`, :func:`landing_reach`)."""
    return (
        cfg.clock_period_ns * 1e3,
        cfg.source.pump.pulse_interval_ns * 1e3,
        cfg.coincidence.window_ps,
        cfg.detectors.jitter_sigma_ps,
    )


def reach_cycles(extent_ps: float, sigma_ps: float, period_ps: float) -> int:
    """The cycles d > 0 with dP <= extent + 10 sigma, P the period: how far
    a click whose photon lies within ``extent_ps`` of a region may land from
    it in whole periods, its jitter below ``JITTER_REACH_SIGMAS`` sigma."""
    return math.floor((extent_ps + JITTER_REACH_SIGMAS * sigma_ps) / period_ps)


def gauss_mass(lo: float, hi: float) -> float:
    """P(lo <= Z < hi) for a standard normal Z, from :func:`math.erfc` on
    the side of zero away from the interval, so that a tail interval keeps
    its relative precision."""
    root2 = math.sqrt(2)
    if lo >= 0:
        return (math.erfc(lo / root2) - math.erfc(hi / root2)) / 2
    if hi <= 0:
        return (math.erfc(-hi / root2) - math.erfc(-lo / root2)) / 2
    return 1 - (math.erfc(-lo / root2) + math.erfc(hi / root2)) / 2


def slot_classes(period_ps: float, spacing_ps: float, window_ps: float):
    """The click offsets after a cycle's reference that count toward each
    class of that cycle, as lists of ``(lo, hi)`` pieces: class k < 3 is
    slot k's window, class 3 (unclassified) the offsets outside them that
    lie between the previous cycle's last window and the next cycle's
    first.

    As :func:`afcsim.analyzer._slot_keys` and
    :func:`afcsim.analyzer._offset_slots` classify a click: the nearest
    slot center, 0, s or 2s for the slot spacing s, within the cycle's
    edges at -(P/2 - s) and P/2 + s for the period P, and within W/2 of it
    for the window W.
    """
    half_ps = window_ps / 2
    edges = (spacing_ps - period_ps / 2, spacing_ps / 2, 1.5 * spacing_ps, period_ps / 2 + spacing_ps)
    windows = [
        (max(k * spacing_ps - half_ps, edges[k]), min(k * spacing_ps + half_ps, edges[k + 1]))
        for k in range(3)
    ]
    bounds = [windows[2][1] - period_ps, *(x for window in windows for x in window), windows[0][0] + period_ps]
    gaps = [(lo, hi) for lo, hi in zip(bounds[::2], bounds[1::2]) if lo < hi]
    return [[window] for window in windows] + [gaps]


@memoized
def landing_reach(period_ps: float, spacing_ps: float, window_ps: float, sigma_ps: float) -> int:
    """w: the cycles on each side of a photon's cycle toward which its
    click may count in a slot window.  A click lies at most
    ``JITTER_REACH_SIGMAS`` sigma from its slot, 0, s or 2s, and the
    windows of the cycle d later span the offsets [dP - b, dP + b'] with b'
    = min(2s + W/2, P/2 + s) (:func:`slot_classes`) and 2s + b = b', so it
    reaches them when |d| P <= b' + 10 sigma.  Within w = 0 (at the
    calibration, and at 400 ps jitter) a click counts in its own cycle's
    classes or in none."""
    return reach_cycles(slot_classes(period_ps, spacing_ps, window_ps)[2][0][1], sigma_ps, period_ps)


@memoized
def landing_table(period_ps: float, spacing_ps: float, window_ps: float, sigma_ps: float) -> np.ndarray:
    """``table[k, j]``: the chance that the click of a photon in slot k
    counts toward class j of its own cycle (:func:`slot_classes`).

    The jitter is Gaussian of deviation sigma, so an entry is the
    :func:`gauss_mass` of the class's pieces less the slot's offset.
    Where :func:`landing_reach` is 0, a row misses 1 only by the clicks
    beyond 10 sigma.  With no jitter every click counts toward its own slot.
    """
    if sigma_ps == 0:
        return np.eye(3, 4)
    classes = slot_classes(period_ps, spacing_ps, window_ps)
    return np.array(
        [
            [sum(gauss_mass((lo - k * spacing_ps) / sigma_ps, (hi - k * spacing_ps) / sigma_ps) for lo, hi in pieces)
             for pieces in classes]
            for k in range(3)
        ]
    )


# a lone pair's classes: [idler port, idler slot, signal port, signal slot,
# the class its signal click counts toward, the class its idler click counts
# toward or 4 when the idler detector misses it]
LONE_SHAPE = (2, 3, 2, 3, 4, 5)


def lone_law(cfg: ExperimentConfig, cells: np.ndarray) -> np.ndarray:
    """The chances of a lone pair's classes, shape ``LONE_SHAPE``: its
    Born-rule cell (``cells``, the clipped and normalized table of
    :func:`afcsim.analyzer._cell_lookup`), times each side's landing chance
    (:func:`landing_table`), the idler's times eta or, for no idler click,
    1 - eta."""
    signal, idler = lone_factors(*click_geometry(cfg), cfg.detectors.efficiency)
    return cells[..., None, None] * signal * idler


@memoized
def lone_factors(period_ps: float, spacing_ps: float, window_ps: float, sigma_ps: float, eta: float):
    """The landing factors of :func:`lone_law`, broadcast to
    ``LONE_SHAPE``: the signal's landing chances, then the idler's."""
    landing = landing_table(period_ps, spacing_ps, window_ps, sigma_ps)
    idler = np.hstack([eta * landing, np.full((3, 1), 1.0 - eta)])
    return landing[:, :, None], idler[:, None, None, None, :]


@memoized
def pairs_law(mu: float) -> np.ndarray:
    """P(K = k), k = 0, 1, ...: the Poisson law of a cycle's number K of
    signal-click pairs, of mean ``mu``, up to the first k >= mu of chance
    below 2**-64; the tail beyond it falls to the most likely k
    (:func:`afcsim.pipeline._multinomial`)."""
    law = []
    while True:
        k = len(law)
        law.append(math.exp(k * math.log(mu) - mu - math.lgamma(k + 1)) if mu else float(k == 0))
        if k >= mu and law[-1] < 2.0**-64:
            return np.array(law)


def landing_row(cfg: ExperimentConfig) -> np.ndarray:
    """p(d) for d in [-w - 1, w + 1]: the chance that the jitter of a click
    whose photon arrives at a cycle's clock reference makes it count toward
    the cycle d later.

    A click at time t after the clock reference counts toward cycle k when
    |t - kP| <= h, with h = min(W, P) / 2 for the coincidence window W and
    the period P, so p(d) = (erf((dP + h) / sigma sqrt 2) - erf((dP - h) /
    sigma sqrt 2)) / 2 for the detector jitter sigma.  Beyond w = floor((h +
    10 sigma) / P) cycles lies a jitter of more than ``JITTER_REACH_SIGMAS``
    sigmas, a share of 1.5e-23 of the clicks.  At the calibration (P = 16 ns,
    W = 600 ps, sigma = 40 ps) w = 0; with no jitter p = [1].
    """
    period_ps = cfg.clock_period_ns * 1e3
    half_ps = min(cfg.coincidence.window_ps, period_ps) / 2
    sigma_ps = cfg.detectors.jitter_sigma_ps
    if sigma_ps == 0:
        return np.ones(1)
    w = reach_cycles(half_ps, sigma_ps, period_ps)
    scale = sigma_ps * math.sqrt(2)
    row = [
        math.erf((d * period_ps + half_ps) / scale) - math.erf((d * period_ps - half_ps) / scale)
        for d in range(-w - 1, w + 2)
    ]
    return np.array(row) / 2


def g2_rates(cfg: ExperimentConfig, signal_channel: int, idler_channel: int, stored: bool):
    """(A, B, C, split): the per-cycle Poisson means of the processes that
    fill a g2 run's signal and idler windows
    (:func:`afcsim.pipeline.acquire_g2`).  Pair numbers are Poissonian and
    every mark of a pair (recall, detection, jitter) is independent, so by
    Poisson colouring (Kingman, *Poisson Processes*, 1993) the clicks that
    count toward each cycle form independent Poisson processes:

    - A: the pairs whose two clicks count toward the cycle, r eta^2 sum
      p(d)^2 for one channel and none for two, r = lambda_sig s being the
      recalled pairs per cycle and p the landing row (:func:`landing_row`);
    - B: signal clicks alone, r q (1 - q) for one channel and r q for two,
      q = eta sum p, plus the memory noise (thinned by eta) and the dark
      counts that fall in the window;
    - C: idler clicks alone, r (1 - q) q plus the idler-only pairs
      (:func:`idler_only_processes`) times q for one channel, the idler
      channel's pairs times q for two, plus the dark counts in the window.

    ``split[i, j]`` is the mean number per cycle of the pairs emitted in it
    whose signal click counts toward the cycle d_s = i - w - 1 later and
    whose idler click toward d_i = j - w - 1 later, d_s != d_i; its
    diagonal is zero.
    """
    det = cfg.detectors
    p = landing_row(cfg)
    q = det.efficiency * p.sum()  # a photon's click counts toward some cycle
    survival = storage_survival(cfg.bank, signal_channel) if stored else 1.0
    noise_hz = cfg.bank.noise_rate_hz if stored else 0.0
    recalled = process_rate(cfg, [(channel_band(signal_channel, cfg.filters.signal_bandwidth_ghz), survival)])
    split = np.zeros((p.size, p.size))
    if idler_channel == signal_channel:
        np.multiply.outer(p, p, out=split)
        both = recalled * det.efficiency**2 * np.trace(split)
        np.fill_diagonal(split, 0.0)
        split *= recalled * det.efficiency**2
        signal_only = recalled * q * (1 - q)
        idler_only = (recalled * (1 - q) + process_rate(cfg, idler_only_processes(cfg, idler_channel, survival))) * q
    else:
        both, signal_only = 0.0, recalled * q
        idler_only = process_rate(cfg, [(channel_band(idler_channel, cfg.filters.idler_bandwidth_ghz), 1.0)]) * q
    # dark counts and memory noise are uniform in time: a window of 2h holds
    # the rate times 2h of them
    window_s = min(cfg.coincidence.window_ps, cfg.clock_period_ns * 1e3) * 1e-12
    signal_only += (det.dark_count_rate_hz + det.efficiency * noise_hz) * window_s
    idler_only += det.dark_count_rate_hz * window_s
    return both, signal_only, idler_only, split


def occupancy_law(a: float, b: float, c: float) -> np.ndarray:
    """The chances that a cycle's (signal, idler) windows hold (a click, a
    click), (a click, none), (none, a click) and (none, none), for
    independent Poisson numbers of clicks of means A, B and C as in
    :func:`g2_rates`.  The last is the remainder, as
    :meth:`numpy.random.Generator.multinomial` takes it."""
    law = [
        -math.expm1(-a) + math.exp(-a) * math.expm1(-b) * math.expm1(-c),
        math.exp(-a - c) * -math.expm1(-b),
        math.exp(-a - b) * -math.expm1(-c),
    ]
    return np.array(law + [max(0.0, 1.0 - sum(law))])


def threefold_rates(cfg: ExperimentConfig, channel: int, alpha_rad: float, beta_rad: float, stored: bool) -> np.ndarray:
    """Expected threefold counts per integrated cycle, shape ``(2, 3, 2,
    3)`` in the layout of :func:`project_pair`, including the leading
    double-pair accidental term.

    True coincidences come from the signal-band pairs whose two photons are
    detected, at the Born-rule rate of each (port, slot) cell.  Accidentals
    pair an idler click and a signal click of two different pairs in one
    cycle, at the product of the per-(port, slot) marginals of the two
    sides.  Times the cycles an acquisition integrates, this is the
    infinite-statistics prediction for the same
    :func:`afcsim.pipeline.acquire_threefold` call without dark counts or
    memory noise; with negligible pair rate it reduces to the bare
    Born-rule rates of project_pair.
    """
    lam_sig = process_rate(cfg, [(channel_band(channel, cfg.filters.signal_bandwidth_ghz), 1.0)])
    lam_idl = process_rate(cfg, [(channel_band(channel, cfg.filters.idler_bandwidth_ghz), 1.0)])
    eff = cfg.detectors.efficiency
    cs = eff * (storage_survival(cfg.bank, channel) if stored else 1.0)
    table = project_pair(analytic_state(cfg.source), alpha_rad, beta_rad)
    p_idler = table.sum(axis=(2, 3))  # per idler (port, slot)
    p_signal = table.sum(axis=(0, 1))  # per signal (port, slot)
    true = lam_sig * cs * eff * table
    acc = np.multiply.outer(lam_idl * eff * p_idler, lam_sig * cs * p_signal)
    return true + acc


def chsh_rates(rho, phases) -> np.ndarray:
    """The exact Born-rule probabilities of the four interfering (middle,
    middle) cells, ordered (A1B1, A1B2, A2B1, A2B2), at each CHSH setting
    ((a,b), (a',b), (a,b'), (a',b')) of the phases (alpha, alpha', beta,
    beta'): up to a factor, the ``(4, 4)`` count matrix that
    :func:`afcsim.bell.chsh_from_counts` takes, at infinite statistics."""
    a, ap, b, bp = phases
    settings = ((a, b), (ap, b), (a, bp), (ap, bp))
    return np.array([project_pair(rho, *s)[:, SLOT_MIDDLE, :, SLOT_MIDDLE].ravel() for s in settings])
