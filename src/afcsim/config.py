"""Experiment configuration: the calibrated run, overridden by one JSON file.

``ExperimentConfig()`` is the calibrated experiment; each of its values is
written once, as a dataclass field default.  A config file only overrides
that table: ``{}`` is the calibrated run, and each ``memory.channels``
object overrides its own channel.  Sections mirror the model types
(source, memory, detectors, coincidence, duty cycle, filters, desk-scale
sampling): a section's keys and their types are the fields of its
dataclass.  What the model fixes is not configuration: the channel grid
and passband are :mod:`afcsim.memory` constants, and the analyzers' arm
delay is the source pulse interval (:mod:`afcsim.analyzer`), so there is
no ``analyzers`` section.  Unknown keys and values of the wrong JSON type
are hard errors with the offending JSON path, so a typo cannot silently
mis-calibrate a run.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass, field
from pathlib import Path

from afcsim.analyzer import CoincidenceConfig, DetectorConfig
from afcsim.memory import CHANNEL_BANDWIDTH_GHZ, MemoryBank
from afcsim.source import SourceModel

__all__ = [
    "ConfigError",
    "DutyCycle",
    "Filters",
    "DeskScale",
    "ExperimentConfig",
    "load_config",
    "reference_calibration_config",
]


class ConfigError(ValueError):
    """Configuration file is invalid; message carries the JSON path."""


@dataclass(frozen=True)
class DutyCycle:
    """The memory's preparation cycle: photons are measured for
    ``measure_ms`` of every ``period_ms``; the rest of the period (comb
    preparation and the wait after it) only scales wall-clock times."""

    measure_ms: float = 280.0
    period_ms: float = 500.0

    def __post_init__(self):
        if not 0 < self.measure_ms <= self.period_ms:
            raise ConfigError(
                f"duty_cycle.measure_ms: {self.measure_ms} ms must lie in "
                f"(0, period_ms = {self.period_ms} ms]"
            )

    @property
    def measure_fraction(self) -> float:
        return self.measure_ms / self.period_ms


@dataclass(frozen=True)
class Filters:
    """Per-side selection bandwidths.  The signal band is the band of every
    acquisition, stored or not, so it must fit in a memory channel's
    passband."""

    signal_bandwidth_ghz: float = 4.0
    idler_bandwidth_ghz: float = 6.2

    def __post_init__(self):
        if self.signal_bandwidth_ghz <= 0 or self.idler_bandwidth_ghz <= 0:
            raise ConfigError("filters: bandwidths must be positive")
        if self.idler_bandwidth_ghz < self.signal_bandwidth_ghz:
            raise ConfigError("filters: idler bandwidth must cover the signal band")
        if self.signal_bandwidth_ghz > CHANNEL_BANDWIDTH_GHZ:
            raise ConfigError(
                f"filters.signal_bandwidth_ghz: {self.signal_bandwidth_ghz} GHz is "
                f"wider than the {CHANNEL_BANDWIDTH_GHZ} GHz memory passband"
            )


@dataclass(frozen=True)
class DeskScale:
    """Sampling-scale knobs for desk-size runs.

    ``efficiency_boost`` multiplies the signal-chain survival (and the
    memory noise rate, preserving noise-to-signal) so that far fewer clock
    cycles reproduce the count totals of the long physical acquisitions;
    all loss-independent statistics (g2, E, S, V) are unaffected.  The boost
    is recorded in every run report.
    """

    efficiency_boost: float = 100.0
    chsh_cycles_per_setting: int = 10_000_000
    fringe_points: int = 13
    fringe_cycles_per_point: int = 3_500_000
    tomography_cycles_per_setting: int = 5_000_000
    g2_cycles: int = 6_000_000
    mc_trials: int = 100

    def __post_init__(self):
        if self.efficiency_boost < 1.0:
            raise ConfigError("desk_scale: efficiency_boost must be >= 1")
        for name in (
            "chsh_cycles_per_setting",
            "fringe_cycles_per_point",
            "tomography_cycles_per_setting",
            "g2_cycles",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"desk_scale: {name} must be positive")
        if self.fringe_points < 5:
            raise ConfigError("desk_scale: fringe fits need at least 5 points")
        if self.mc_trials < 2:
            raise ConfigError("desk_scale: mc_trials must be >= 2")


@dataclass(frozen=True)
class ExperimentConfig:
    bank: MemoryBank = field(default_factory=MemoryBank)
    source: SourceModel = field(default_factory=SourceModel)
    detectors: DetectorConfig = field(default_factory=DetectorConfig)
    coincidence: CoincidenceConfig = field(default_factory=CoincidenceConfig)
    duty_cycle: DutyCycle = field(default_factory=DutyCycle)
    filters: Filters = field(default_factory=Filters)
    desk_scale: DeskScale = field(default_factory=DeskScale)
    seed: int = 20260810

    def __post_init__(self):
        # a seed is one 32-bit word of random-stream entropy; one outside
        # the range is rejected, not folded into it
        if not 0 <= self.seed < 2**32:
            raise ConfigError(f"seed: {self.seed} is outside [0, 2**32)")

    @property
    def clock_period_ns(self) -> float:
        return self.source.pump.period_ns


# The JSON section that does not mirror one dataclass: ``memory`` builds
# the MemoryBank and its five AfcChannels.
_MEMORY_KEYS = ("transmission_efficiency", "noise_rate_hz")  # MemoryBank fields
_CHANNEL_KEYS = ("d1", "finesse", "d0")  # AfcChannel fields set per channel

_JSON_TYPE_NAMES = {
    bool: "boolean",
    int: "number",
    float: "number",
    str: "string",
    list: "array",
    dict: "object",
    type(None): "null",
}


def _json_type(value) -> str:
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)  # Python's json accepts NaN and Infinity
    return _JSON_TYPE_NAMES.get(type(value), type(value).__name__)


def _expect_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {_json_type(value)}")
    return value


def _reject_unknown(section: dict, path: str, known) -> None:
    extra = set(section) - set(known)
    if extra:
        raise ConfigError(f"{path}: unknown key(s) {sorted(extra)}")


def _field_types(cls) -> dict:
    """Field name -> resolved annotation of a config dataclass."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _value(kind, value, path: str, base=None):
    """Check one JSON value against a field's type: int fields take only
    integers, float fields any finite number, dataclass fields an object
    that overrides ``base``, the field's current value."""
    if dataclasses.is_dataclass(kind):
        return _override(base, value, path)
    number = (
        isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    )
    if kind is int and not (number and isinstance(value, int)):
        raise ConfigError(f"{path}: expected an integer, got {_json_type(value)}")
    if kind is float and not number:
        raise ConfigError(f"{path}: expected a number, got {_json_type(value)}")
    return value


def _override(base, data, path: str, keys=None, **fixed):
    """Copy of config dataclass ``base`` with the fields the JSON object
    ``data`` gives.

    Accepted keys are the dataclass fields (or ``keys``, a subset of them),
    each checked against its field type; omitted keys keep ``base``'s
    values.  ``fixed`` supplies fields that do not come from this object.
    """
    _expect_object(data, path)
    types = _field_types(type(base))
    _reject_unknown(data, path, types if keys is None else keys)
    kwargs = {
        key: _value(types[key], value, f"{path}.{key}", getattr(base, key))
        for key, value in data.items()
    }
    try:
        return dataclasses.replace(base, **kwargs, **fixed)
    except ConfigError:
        raise  # already names its section
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from err


def _override_bank(base: MemoryBank, data) -> MemoryBank:
    """The memory section: bank-wide keys, one teeth spacing for all five
    channels, and per-channel comb shapes, each object overriding its own
    channel.  The channel grid is not here: it is a constant of the memory
    model."""
    _expect_object(data, "memory")
    _reject_unknown(data, "memory", (*_MEMORY_KEYS, "teeth_spacing_mhz", "channels"))
    specs = data.get("channels", [{}] * 5)
    if not isinstance(specs, list) or len(specs) != 5:
        raise ConfigError("memory.channels: a list of exactly five channels required")
    shared = {}
    if "teeth_spacing_mhz" in data:
        spacing = _value(float, data["teeth_spacing_mhz"], "memory.teeth_spacing_mhz")
        shared["teeth_spacing_mhz"] = spacing
    channels = tuple(
        _override(channel, spec, f"memory.channels[{i}]", _CHANNEL_KEYS, **shared)
        for i, (channel, spec) in enumerate(zip(base.channels, specs))
    )
    bank = {key: data[key] for key in _MEMORY_KEYS if key in data}
    return _override(base, bank, "memory", _MEMORY_KEYS, channels=channels)


def config_from_dict(raw) -> ExperimentConfig:
    """The calibrated configuration with the overrides of parsed JSON.

    Top-level keys are the ExperimentConfig fields, except that ``memory``
    holds the bank.
    """
    base = ExperimentConfig()
    _expect_object(raw, "<root>")
    types = _field_types(ExperimentConfig)
    _reject_unknown(raw, "<root>", (set(types) - {"bank"}) | {"memory"})
    kwargs = {
        key: _value(types[key], value, key, getattr(base, key))
        for key, value in raw.items()
        if key != "memory"
    }
    if "memory" in raw:
        kwargs["bank"] = _override_bank(base.bank, raw["memory"])
    return dataclasses.replace(base, **kwargs)


def load_config(path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"{path}: cannot read the config file ({err})") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: not valid JSON ({err})") from err
    return config_from_dict(raw)


def reference_calibration_config() -> ExperimentConfig:
    """The shipped calibrated configuration: the dataclass defaults."""
    return ExperimentConfig()
