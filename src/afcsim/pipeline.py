"""End-to-end simulated acquisitions: source -> memory -> analyzers ->
detectors -> counting, plus per-channel run reports.

Acquisitions come in two flavors: ``stored=True`` sends the signal photon
through its memory channel (recall thinning by the boosted survival, fixed
1/Delta delay, memory noise floor) while ``stored=False`` bypasses the
memory (the before-storage characterization path).  Statistics that do not
depend on losses (g2, E, S, V) are unaffected by the desk-scale boost,
which only buys counting statistics.

Everything is deterministic given (config, seed): independent acquisitions
derive child generators from stable string tags, so channels and settings
can be computed in any order or in parallel workers.  Each threefold scan
(the CHSH, fringe or tomography settings of one channel and stage) runs its
settings on a thread pool, one thread per CPU this process may run on and
no more than the settings; every other acquisition (the g2 runs, the
stream-keeping DD acquisition of fig7) runs on the calling thread.  An
acquisition drops each pair-level array at its last use, so a thread
holds about 29 MB at its peak at CHSH size (~500k pairs) instead of 81 MB.
"""

from __future__ import annotations

import math
import os
import zlib
from dataclasses import dataclass

import numpy as np

from afcsim import bell
from afcsim import tomography as tom
from afcsim.analyzer import (
    SLOT_MIDDLE,
    ThreefoldCounts,
    detect,
    g2_cross,
    g2_tallies,
    middle_middle,
    project_pair,
    sample_pair_outcomes,
    threefold_counts,
)
from afcsim.config import ConfigError, ExperimentConfig
from afcsim.memory import CHANNEL_OFFSETS_GHZ, storage_survival
from afcsim.source import analytic_state, emission_arrays, pair_rate_per_cycle

__all__ = [
    "derive_rng",
    "channel_band",
    "boosted_survival",
    "Acquisition",
    "acquire_threefold",
    "G2Run",
    "acquire_g2",
    "run_chsh",
    "run_fringe",
    "run_tomography_counts",
    "dd_tomography_acquisition",
    "analytic_mm_counts",
    "channel_report",
    "run_report",
]


def derive_rng(seed: int, *tags) -> np.random.Generator:
    """Deterministic child generator for a (seed, tag...) path."""
    entropy = [int(seed)] + [zlib.crc32(str(t).encode()) for t in tags]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _seed(cfg: ExperimentConfig, *tags) -> int:
    """Integer seed drawn from the (config seed, tag...) path."""
    return int(derive_rng(cfg.seed, *tags).integers(2**31))


def channel_band(channel: int, bandwidth_ghz: float):
    center = CHANNEL_OFFSETS_GHZ[channel]
    return (center - bandwidth_ghz / 2.0, center + bandwidth_ghz / 2.0)


def boosted_survival(cfg: ExperimentConfig, channel: int) -> float:
    """Signal-chain survival through the memory with the desk-scale boost,
    capped below 1."""
    return min(storage_survival(cfg.bank, channel) * cfg.desk_scale.efficiency_boost, 0.95)


def _recall(cfg: ExperimentConfig, channel: int, tags, n_signal: int, stored: bool, duration_ps):
    """The memory step of the signal chain.

    Returns (keep, delay_ps, noise_times_ps, noise_ports): which of the
    ``n_signal`` signal photons the boosted recall survival keeps, the fixed
    1/Delta recall delay, and the memory-noise arrivals injected at the
    boosted noise rate.  A bypassed memory (``stored=False``) keeps every
    photon, adds no delay and no noise.
    """
    if not stored:
        return np.ones(n_signal, dtype=bool), 0.0, np.empty(0), np.empty(0, dtype=np.int64)
    rng_store = derive_rng(cfg.seed, *tags, "storage")
    keep = rng_store.random(n_signal) < boosted_survival(cfg, channel)
    delay_ps = cfg.bank.channels[channel].storage_time_ns * 1e3
    rng_noise = derive_rng(cfg.seed, *tags, "memnoise")
    rate_hz = cfg.bank.noise_rate_hz * cfg.desk_scale.efficiency_boost
    n_noise = rng_noise.poisson(rate_hz * duration_ps * 1e-12)
    # the ports come after the times from this stream, which feeds nothing
    # else, so a caller that ignores them sees the same times
    noise_t = rng_noise.uniform(0, duration_ps, n_noise)
    return keep, delay_ps, noise_t, rng_noise.integers(0, 2, n_noise)


@dataclass(frozen=True)
class Acquisition:
    """One analyzer acquisition: port/slot-resolved threefold counts plus
    bookkeeping, and optionally the raw detection streams."""

    threefold: ThreefoldCounts
    n_pairs_sampled: int
    measure_time_s: float
    delay_ps: float
    streams: dict[str, np.ndarray] | None = None


def acquire_threefold(
    cfg: ExperimentConfig,
    channel: int,
    alpha_rad: float,
    beta_rad: float,
    n_cycles: int,
    tags: tuple,
    stored: bool,
    keep_streams: bool = False,
) -> Acquisition:
    """Simulate one UMZI-analyzed acquisition at phases (alpha, beta).

    Pairs are emitted in the channel's idler-filter band, joint (port, slot)
    outcomes are Born-rule sampled from the source state, the signal photon
    is thinned by the memory band and (when stored) the boosted recall
    survival, and both sides pass the click-level detector model before
    clock-triggered threefold counting.
    """
    rng_em = derive_rng(cfg.seed, *tags, "emission")
    rng_out = derive_rng(cfg.seed, *tags, "outcome")

    # Each pair-level array is dropped at its last use: a before-storage
    # CHSH acquisition samples ~500k pairs, and the scans run several
    # acquisitions at once (see _scan).
    band = channel_band(channel, cfg.filters.idler_bandwidth_ghz)
    cycles, offsets = emission_arrays(cfg.source, n_cycles, rng_em, band)
    n_pairs = len(cycles)
    center = CHANNEL_OFFSETS_GHZ[channel]
    in_signal_band = np.abs(offsets - center) <= cfg.filters.signal_bandwidth_ghz / 2.0
    del offsets
    rho = analytic_state(cfg.source)
    i_port, i_slot, s_port, s_slot = sample_pair_outcomes(
        rho, alpha_rad, beta_rad, n_pairs, rng_out
    )
    idler_a1 = i_port == 0
    del i_port

    period_ps = cfg.clock_period_ns * 1e3
    spacing_ps = cfg.source.pump.pulse_interval_ns * 1e3
    duration_ps = n_cycles * period_ps

    idler_t = cycles * period_ps
    idler_t += i_slot * spacing_ps
    del i_slot

    recalled, delay_ps, noise_t, noise_port = _recall(
        cfg, channel, tags, n_pairs, stored, duration_ps
    )
    keep = in_signal_band & recalled
    del in_signal_band, recalled
    signal_t = np.compress(keep, cycles) * period_ps
    del cycles
    signal_t += delay_ps
    signal_t += np.compress(keep, s_slot) * spacing_ps
    signal_port = np.compress(keep, s_port)
    del keep, s_port, s_slot
    if noise_t.size:
        signal_t = np.concatenate([signal_t, noise_t])
        signal_port = np.concatenate([signal_port, noise_port])

    signal_b1 = signal_port == 0
    del signal_port
    arrivals = {
        "A1": np.compress(idler_a1, idler_t),
        "A2": np.compress(~idler_a1, idler_t),
        "B1": np.compress(signal_b1, signal_t),
        "B2": np.compress(~signal_b1, signal_t),
    }
    del idler_t, idler_a1, signal_t, signal_b1
    det_seed = _seed(cfg, *tags, "detector")
    streams = detect(arrivals, cfg.detectors, duration_ps * 1e-12, det_seed)
    del arrivals
    # each side's port 1 clicks, then its port 2 clicks: threefold_counts
    # takes events in any order
    a1, a2, b1, b2 = (streams[name] for name in ("A1", "A2", "B1", "B2"))
    # int8 ports: one byte per click, held while counting runs
    idler_ports = np.repeat(np.int8([0, 1]), [a1.size, a2.size])
    signal_ports = np.repeat(np.int8([0, 1]), [b1.size, b2.size])
    idler_clicks = np.concatenate([a1, a2])
    signal_clicks = np.concatenate([b1, b2])
    del a1, a2, b1, b2
    if not keep_streams:
        streams = None
    tf = threefold_counts(
        idler_clicks,
        idler_ports,
        signal_clicks,
        signal_ports,
        cfg.clock_period_ns,
        cfg.coincidence,
        slot_spacing_ns=cfg.source.pump.pulse_interval_ns,
        signal_ref_ps=delay_ps,
        n_cycles=n_cycles,
    )
    return Acquisition(
        threefold=tf,
        n_pairs_sampled=n_pairs,
        measure_time_s=duration_ps * 1e-12,
        delay_ps=delay_ps,
        streams=streams,
    )


@dataclass(frozen=True)
class G2Run:
    g2: float
    sigma_g2: float
    coincidences: int
    signal_singles: int
    idler_singles: int


def acquire_g2(
    cfg: ExperimentConfig,
    signal_channel: int,
    idler_channel: int,
    n_cycles: int,
    tags: tuple,
    stored: bool = True,
) -> G2Run:
    """Cross-correlation run with single-temporal-mode pairs and direct
    detection (no analyzers).

    The signal stream comes from pairs in ``signal_channel``'s memory band,
    the idler stream from pairs whose idlers pass ``idler_channel``'s
    filter.  For distinct channels the two sets are independent Poisson
    streams, so only accidental coincidences remain.  A run in which either
    side has no click raises :class:`ConfigError`: g2 is undefined there.
    """
    period_ps = cfg.clock_period_ns * 1e3
    duration_ps = n_cycles * period_ps

    rng_sig = derive_rng(cfg.seed, *tags, "sig-emission")
    sig_band = channel_band(signal_channel, cfg.filters.signal_bandwidth_ghz)
    sig_cycles, _ = emission_arrays(cfg.source, n_cycles, rng_sig, sig_band)

    if idler_channel == signal_channel:
        # idlers of the same pairs, plus the wider-filter fringe around them
        rng_extra = derive_rng(cfg.seed, *tags, "idl-fringe")
        full = channel_band(idler_channel, cfg.filters.idler_bandwidth_ghz)
        extra_width = cfg.filters.idler_bandwidth_ghz - cfg.filters.signal_bandwidth_ghz
        idl_cycles = [sig_cycles]
        if extra_width > 0:
            lo = (full[0], sig_band[0])
            hi = (sig_band[1], full[1])
            for b in (lo, hi):
                c, _ = emission_arrays(cfg.source, n_cycles, rng_extra, b)
                idl_cycles.append(c)
        idl_cycles = np.sort(np.concatenate(idl_cycles))
    else:
        rng_idl = derive_rng(cfg.seed, *tags, "idl-emission")
        idl_band = channel_band(idler_channel, cfg.filters.idler_bandwidth_ghz)
        idl_cycles, _ = emission_arrays(cfg.source, n_cycles, rng_idl, idl_band)

    idler_t = idl_cycles.astype(float) * period_ps

    keep, delay_ps, noise_t, _ = _recall(
        cfg, signal_channel, tags, len(sig_cycles), stored, duration_ps
    )
    recalled_t = np.compress(keep, sig_cycles) * period_ps + delay_ps
    signal_t = np.sort(np.concatenate([recalled_t, noise_t]))

    det_seed = _seed(cfg, *tags, "detector")
    streams = detect(
        {"A": idler_t, "B": signal_t}, cfg.detectors, duration_ps * 1e-12, det_seed
    )
    tallies = g2_tallies(
        streams["B"],
        streams["A"],
        cfg.clock_period_ns,
        cfg.coincidence,
        n_cycles,
        signal_ref_ps=delay_ps,
    )
    try:
        value = g2_cross(tallies)
    except ValueError as err:
        raise ConfigError(
            f"g2 of signal channel {signal_channel + 1} and idler channel {idler_channel + 1} "
            f"over {n_cycles} cycles: {err}"
        ) from err

    def stat(draws):
        c, s, i = draws.T
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = (c / n_cycles) / ((s / n_cycles) * (i / n_cycles))
        return np.where((s > 0) & (i > 0), ratio, np.nan)

    sigma = bell.monte_carlo_errors(
        np.array([tallies.coincidences, tallies.signal_singles, tallies.idler_singles], dtype=float),
        stat,
        n_trials=cfg.desk_scale.mc_trials,
        seed=_seed(cfg, *tags, "mc"),
    )
    return G2Run(
        g2=value,
        sigma_g2=float(sigma),
        coincidences=tallies.coincidences,
        signal_singles=tallies.signal_singles,
        idler_singles=tallies.idler_singles,
    )


def _stage(stored: bool) -> str:
    return "after" if stored else "before"


def _acquire_setting(cfg, channel, stored, kind, key, alpha, beta, n_cycles, keep_streams=False):
    """:func:`acquire_threefold` at one setting of a scan, tagged
    ``(kind, channel, stage, *key)``."""
    tags = (kind, channel, _stage(stored), *key)
    return acquire_threefold(cfg, channel, alpha, beta, n_cycles, tags, stored, keep_streams)


def _worker_count(n_settings: int) -> int:
    """Threads for a scan of ``n_settings``: one per CPU this process may
    run on, and no more than the settings."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, n_settings)


def _scan(cfg: ExperimentConfig, channel: int, stored: bool, kind: str, settings, n_cycles: int):
    """One acquisition per ``(key, alpha, beta)`` setting; returns the
    ``(settings, 2, 3, 2, 3)`` stack of their threefold counts.

    The settings run on a thread pool (numpy releases the GIL in the bulk
    work), and the stack is in setting order.  Each acquisition draws from
    generators derived from its own tags, so the stack does not depend on
    the number of threads or on the order they finish in."""
    from concurrent.futures import ThreadPoolExecutor

    def counts(setting):
        return _acquire_setting(cfg, channel, stored, kind, *setting, n_cycles).threefold.counts

    with ThreadPoolExecutor(_worker_count(len(settings))) as pool:
        return np.array(list(pool.map(counts, settings)))


def run_chsh(
    cfg: ExperimentConfig,
    channel: int,
    stored: bool,
) -> tuple[bell.ChshResult, np.ndarray]:
    """Fixed-setting CHSH test: four acquisitions at the setting pairs
    ((a,b), (a',b), (a,b'), (a',b')) of ``bell.DEFAULT_CHSH_PHASES``,
    middle-middle counts only.  A run whose counts leave S undefined (a
    setting with no middle-middle count) raises :class:`ConfigError`."""
    a, ap, b, bp = bell.DEFAULT_CHSH_PHASES
    settings = [
        ((label,), alpha, beta)
        for label, (alpha, beta) in zip(
            ("ab", "apb", "abp", "apbp"), ((a, b), (ap, b), (a, bp), (ap, bp))
        )
    ]
    n_cycles = cfg.desk_scale.chsh_cycles_per_setting
    stack = _scan(cfg, channel, stored, "chsh", settings, n_cycles)
    counts = middle_middle(stack).reshape(-1, 4).astype(float)
    try:
        result = bell.chsh_from_counts(
            counts,
            n_trials=cfg.desk_scale.mc_trials,
            seed=_seed(cfg, "chsh-mc", channel, _stage(stored)),
        )
    except ValueError as err:
        raise ConfigError(
            f"CHSH of channel {channel + 1} {_stage(stored)} storage over {n_cycles} cycles "
            f"per setting: {err}"
        ) from err
    return result, counts


def run_fringe(
    cfg: ExperimentConfig,
    channel: int,
    alpha_rad: float,
    stored: bool,
) -> tuple[bell.FringeScan, list[bell.VisibilityFit]]:
    """Franson fringe scan over beta at fixed alpha, with the four
    per-combination visibility fits."""
    betas = np.linspace(0.0, 2.0 * math.pi, cfg.desk_scale.fringe_points, endpoint=False)
    settings = [((round(alpha_rad, 9), n), alpha_rad, float(beta)) for n, beta in enumerate(betas)]
    stack = _scan(cfg, channel, stored, "fringe", settings, cfg.desk_scale.fringe_cycles_per_point)
    counts = middle_middle(stack).reshape(-1, 4)
    scan = bell.FringeScan(alpha_rad=alpha_rad, beta_rad=betas, counts=counts)
    fits = [
        bell.fit_visibility(
            scan,
            k,
            n_trials=cfg.desk_scale.mc_trials,
            seed=_seed(cfg, "fringe-mc", channel, _stage(stored), k),
        )
        for k in range(4)
    ]
    return scan, fits


def _tomography_setting(label: str):
    """``(key, alpha, beta)`` of a tomography setting, labeled by its
    (signal, idler) middle-slot states: beta is the signal-side phase."""
    return (label,), tom.SETTING_PHASES[label[1]], tom.SETTING_PHASES[label[0]]


def run_tomography_counts(cfg: ExperimentConfig, channel: int, stored: bool) -> np.ndarray:
    """The ``(4, 16)`` count record of the four energy-basis tomography
    acquisitions for one channel.

    Counts enter the record from the port-2/port-2 detector pair,
    slot-resolved into the nine measurable bases per setting.
    """
    settings = [_tomography_setting(label) for label in tom.SETTING_LABELS]
    n_cycles = cfg.desk_scale.tomography_cycles_per_setting
    stack = _scan(cfg, channel, stored, "tomo", settings, n_cycles)
    # counts[port_i=2, slot_i, port_s=2, slot_s] -> grid[slot_s, slot_i]
    grids = stack[:, 1, :, 1, :].transpose(0, 2, 1)
    return tom.assemble_counts(grids)


def dd_tomography_acquisition(cfg: ExperimentConfig, channel: int) -> Acquisition:
    """The after-storage DD acquisition of :func:`run_tomography_counts`,
    with its detection streams."""
    n_cycles = cfg.desk_scale.tomography_cycles_per_setting
    setting = _tomography_setting("DD")
    return _acquire_setting(cfg, channel, True, "tomo", *setting, n_cycles, keep_streams=True)


def analytic_mm_counts(
    cfg: ExperimentConfig,
    channel: int,
    alpha_rad: float,
    beta_rad: float,
    n_cycles: int,
    stored: bool,
) -> np.ndarray:
    """Expected middle-middle counts (A1B1, A1B2, A2B1, A2B2) including the
    leading double-pair accidental term.

    This is the infinite-statistics prediction for an
    :func:`acquire_threefold` run; with negligible pair rate it reduces to
    the bare Born-rule rates of project_pair.
    """
    mu_full = pair_rate_per_cycle(cfg.source)
    lam_sig = mu_full * cfg.filters.signal_bandwidth_ghz / cfg.source.pair_bandwidth_ghz
    lam_idl = mu_full * cfg.filters.idler_bandwidth_ghz / cfg.source.pair_bandwidth_ghz
    eff = cfg.detectors.efficiency
    cs = eff * (boosted_survival(cfg, channel) if stored else 1.0)
    ci = eff

    table = project_pair(analytic_state(cfg.source), alpha_rad, beta_rad)
    p_i_mid = table[:, SLOT_MIDDLE].sum(axis=(1, 2))  # marginal per idler port
    p_s_mid = table[:, :, :, SLOT_MIDDLE].sum(axis=(0, 1))  # per signal port
    true = lam_sig * cs * ci * middle_middle(table)
    acc = np.outer(lam_idl * ci * p_i_mid, lam_sig * cs * p_s_mid)
    return (n_cycles * (true + acc)).reshape(-1)


# --- reports --------------------------------------------------------------


def _fit_dict(fit: bell.VisibilityFit) -> dict:
    return {
        "V": fit.visibility,
        "sigma_V": fit.sigma_visibility,
        "phase_offset_rad": fit.phase_offset_rad,
        "amplitude": fit.amplitude,
        "converged": fit.converged,
    }


def channel_report(cfg: ExperimentConfig, channel: int) -> dict:
    """All statistics for one spectral channel, before and after storage."""
    report: dict = {"channel": channel + 1}
    records = {}
    for stored in (False, True):
        stage = _stage(stored)
        chsh, chsh_counts = run_chsh(cfg, channel, stored)
        scan, fits = run_fringe(cfg, channel, 0.0, stored)
        records[stage] = run_tomography_counts(cfg, channel, stored)
        g2_corr = acquire_g2(
            cfg, channel, channel, cfg.desk_scale.g2_cycles, ("g2", channel, stage), stored
        )
        a1b1 = float(chsh_counts[0, 0])
        time_per_setting = cfg.desk_scale.chsh_cycles_per_setting * cfg.clock_period_ns * 1e-9
        rate = a1b1 / time_per_setting
        report[stage] = {
            "chsh": chsh.as_dict(),
            "g2_correlated": {"value": g2_corr.g2, "sigma": g2_corr.sigma_g2},
            "visibilities": {
                label: _fit_dict(fit) for label, fit in zip(bell.COMBO_LABELS, fits)
            },
            "coincidence_rate_hz": {
                "A1B1_measure_window": rate,
                "A1B1_wall_clock": rate * cfg.duty_cycle.measure_fraction,
                "sigma": math.sqrt(max(a1b1, 1.0)) / time_per_setting,
            },
        }
    other = (channel + 1) % len(cfg.bank.channels)
    g2_uncorr = acquire_g2(
        cfg, channel, other, cfg.desk_scale.g2_cycles, ("g2x", channel, other), True
    )
    report["g2_uncorrelated"] = {
        "idler_channel": other + 1,
        "value": g2_uncorr.g2,
        "sigma": g2_uncorr.sigma_g2,
    }

    fits, tomo = tom.reconstruct_with_errors(
        [records["before"], records["after"]],
        tom.storage_pair_metrics,
        n_trials=cfg.desk_scale.mc_trials,
        seed=_seed(cfg, "tomo-pair", channel),
    )
    report["tomography"] = tomo
    report["density_matrices"] = {
        stage: _matrix_to_lists(fit.rho) for stage, fit in zip(("before", "after"), fits)
    }
    return report


def _matrix_to_lists(m: np.ndarray) -> dict:
    return {
        "real": [[float(x) for x in row] for row in m.real],
        "imag": [[float(x) for x in row] for row in m.imag],
    }


def run_report(cfg: ExperimentConfig, channels=None) -> dict:
    """Full multi-channel run report (the ``simulate`` verb's payload)."""
    channels = list(range(len(cfg.bank.channels))) if channels is None else list(channels)
    measure_time = (
        cfg.desk_scale.chsh_cycles_per_setting * 4
        + cfg.desk_scale.fringe_points * cfg.desk_scale.fringe_cycles_per_point
        + cfg.desk_scale.tomography_cycles_per_setting * 4
        + cfg.desk_scale.g2_cycles
    ) * cfg.clock_period_ns * 1e-9
    report = {
        "seed": cfg.seed,
        "desk_scale": {
            "efficiency_boost": cfg.desk_scale.efficiency_boost,
            "note": (
                "signal-chain survival and memory noise rate are scaled by "
                "efficiency_boost; loss-independent statistics are unaffected"
            ),
        },
        "timing": {
            "measure_window_time_per_stage_s": measure_time,
            "wall_clock_time_per_stage_s": measure_time / cfg.duty_cycle.measure_fraction,
            "duty_measure_fraction": cfg.duty_cycle.measure_fraction,
            "note": "acquisition statistics are set by desk_scale cycle counts; "
            "reported rates use measure-window time",
        },
        "channels": [channel_report(cfg, ch) for ch in channels],
    }
    return report
