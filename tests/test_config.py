"""Configuration loading and validation tests."""

import dataclasses
import json
import operator

import pytest

from afcsim.analyzer import CoincidenceConfig, DetectorConfig
from afcsim.config import (
    ConfigError,
    DeskScale,
    DutyCycle,
    ExperimentConfig,
    Filters,
    config_from_dict,
    load_config,
    reference_calibration_config,
)
from afcsim.memory import AfcChannel
from afcsim.source import PumpConfig, SourceModel


def minimal_dict(**overrides):
    base = {
        "memory": {
            "channels": [{"d1": 1.1} for _ in range(5)],
        }
    }
    base.update(overrides)
    return base


def nested(path, value):
    """{"a": {"b": value}} for the dotted path "a.b"."""
    for key in reversed(path.split(".")):
        value = {key: value}
    return value


class TestLoading:
    def test_minimal_config(self):
        cfg = config_from_dict(minimal_dict())
        assert cfg.source.pump.period_ns == 16.0
        assert len(cfg.bank.channels) == 5

    def test_shipped_config_valid(self):
        cfg = reference_calibration_config()
        assert cfg.source.pair_emission_probability_per_cycle < 1.0
        assert cfg.bank.noise_rate_hz > 0

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_dict(seed=7)))
        cfg = load_config(path)
        assert cfg.seed == 7

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    @pytest.mark.parametrize("content", [None, b"\xff\xfe{}"], ids=["missing", "not-utf8"])
    def test_unreadable_file(self, tmp_path, content):
        path = tmp_path / "cfg.json"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ConfigError, match="cannot read the config file"):
            load_config(path)


class TestStrictKeys:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key.*typo"):
            config_from_dict(minimal_dict(typo=1))

    def test_unknown_nested_key(self):
        raw = minimal_dict(source={"pump": {"perod_ns": 16.0}})
        with pytest.raises(ConfigError, match=r"source\.pump.*perod_ns"):
            config_from_dict(raw)

    def test_unknown_channel_key(self):
        raw = minimal_dict()
        raw["memory"]["channels"][3]["dd1"] = 2.0
        with pytest.raises(ConfigError, match=r"channels\[3\]"):
            config_from_dict(raw)


class TestInvariants:
    @pytest.mark.parametrize("measure_ms", [0, -20.0, 500.5])
    def test_duty_cycle_measure_window_in_range(self, measure_ms):
        # 0 < measure_ms <= period_ms (500 ms by default)
        with pytest.raises(ConfigError, match=r"duty_cycle\.measure_ms"):
            config_from_dict(minimal_dict(duty_cycle={"measure_ms": measure_ms}))
        with pytest.raises(ConfigError, match="duty_cycle"):
            DutyCycle(measure_ms=measure_ms, period_ms=500.0)

    def test_duty_cycle_measure_window_may_fill_the_period(self):
        assert DutyCycle(measure_ms=500.0, period_ms=500.0).measure_fraction == 1.0

    def test_five_channels_required(self):
        raw = {"memory": {"channels": [{"d1": 1.0}] * 4}}
        with pytest.raises(ConfigError, match="five channels"):
            config_from_dict(raw)

    def test_coincidence_window_covers_bin(self):
        raw = minimal_dict(coincidence={"window_ps": 50.0, "histogram_bin_ps": 100.0})
        with pytest.raises(ConfigError, match="coincidence"):
            config_from_dict(raw)

    def test_idler_filter_covers_signal(self):
        raw = minimal_dict(filters={"signal_bandwidth_ghz": 4.0, "idler_bandwidth_ghz": 2.0})
        with pytest.raises(ConfigError, match="filters"):
            config_from_dict(raw)

    def test_signal_filter_fits_memory_passband(self, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(minimal_dict(filters={"signal_bandwidth_ghz": 6.0})))
        match = r"filters\.signal_bandwidth_ghz.*4\.0 GHz memory passband"
        with pytest.raises(ConfigError, match=match):
            load_config(path)

    def test_efficiency_boost_is_an_unknown_key(self):
        # stored acquisitions integrate longer; no key rescales the recall
        raw = minimal_dict(desk_scale={"efficiency_boost": 100})
        match = r"desk_scale: unknown key\(s\) \['efficiency_boost'\]"
        with pytest.raises(ConfigError, match=match):
            config_from_dict(raw)

    def test_seed_override(self):
        cfg = reference_calibration_config()
        cfg2 = dataclasses.replace(cfg, seed=123)
        assert cfg2.seed == 123

    @pytest.mark.parametrize("seed", [-1, 2**32, 2**32 + 5, -(2**32) + 5])
    def test_seed_outside_32_bits(self, seed):
        with pytest.raises(ConfigError, match=rf"^seed: {seed} is outside \[0, 2\*\*32\)$"):
            config_from_dict(minimal_dict(seed=seed))

    def test_32_bit_seed_range_accepted(self):
        assert [ExperimentConfig(seed=s).seed for s in (0, 2**32 - 1)] == [0, 2**32 - 1]


class TestSchema:
    @pytest.mark.parametrize(
        "section, attribute, cls",
        [
            ("source", "source", SourceModel),
            ("source.pump", "source.pump", PumpConfig),
            ("detectors", "detectors", DetectorConfig),
            ("coincidence", "coincidence", CoincidenceConfig),
            ("duty_cycle", "duty_cycle", DutyCycle),
            ("filters", "filters", Filters),
            ("desk_scale", "desk_scale", DeskScale),
        ],
    )
    def test_section_keys_are_the_dataclass_fields(self, section, attribute, cls):
        # every field loads under its own name and round-trips its default
        raw = minimal_dict(**nested(section, dataclasses.asdict(cls())))
        assert operator.attrgetter(attribute)(config_from_dict(raw)) == cls()
        with pytest.raises(ConfigError, match="unknown key.*not_a_field"):
            config_from_dict(minimal_dict(**nested(f"{section}.not_a_field", 1.0)))

    def test_omitted_keys_take_the_dataclass_defaults(self):
        assert config_from_dict({}) == ExperimentConfig() == reference_calibration_config()

    def test_defaults_are_the_shipped_calibration(self):
        # the calibrated source, memory noise, comb depths, fringe scale and
        # seed: changing the calibration is a change of its own
        cfg = ExperimentConfig()
        assert cfg.source.pair_emission_probability_per_cycle == 0.5628
        assert cfg.source.white_noise_fraction == 0.025
        assert cfg.source.pump.extinction_ratio_db == 19.0
        assert cfg.source.pump.intensity_imbalance == 1.077
        assert cfg.source.pump.phase_jitter_sigma_rad == 0.148318
        assert cfg.bank.noise_rate_hz == 50.0
        assert cfg.desk_scale.fringe_cycles_per_point == 3_500_000
        assert cfg.seed == 20260810
        assert [ch.d1 for ch in cfg.bank.channels] == [1.108148, 1.094456, 1.108148, 1.16283, 1.244853]

    def test_channel_overrides_keep_that_channels_calibration(self):
        cfg = config_from_dict({"memory": {"channels": [{}, {}, {}, {"finesse": 2.5}, {}]}})
        calibrated = ExperimentConfig().bank.channels
        assert cfg.bank.channels[3] == AfcChannel(d1=1.16283, finesse=2.5)
        assert cfg.bank.channels[:3] + cfg.bank.channels[4:] == calibrated[:3] + calibrated[4:]
        # a teeth spacing without channels applies to the five calibrated ones
        cfg = config_from_dict({"memory": {"teeth_spacing_mhz": 5.0}})
        assert cfg.bank.channels == tuple(
            dataclasses.replace(ch, teeth_spacing_mhz=5.0) for ch in calibrated
        )

    @pytest.mark.parametrize(
        "path, value",
        [
            ("source.pump.extinction_ratio_db", 22.0),
            ("memory.noise_rate_hz", 0.0),
            ("desk_scale.mc_trials", 7),
            ("seed", 3),
        ],
    )
    def test_one_key_override_changes_only_that_key(self, path, value):
        def replaced(obj, keys):
            head, *rest = keys
            inner = replaced(getattr(obj, head), rest) if rest else value
            return dataclasses.replace(obj, **{head: inner})

        # the memory section holds the ExperimentConfig's bank
        attributes = ["bank" if key == "memory" else key for key in path.split(".")]
        expected = replaced(ExperimentConfig(), attributes)
        assert config_from_dict(nested(path, value)) == expected != ExperimentConfig()

    def test_teeth_spacing_applies_to_all_channels(self):
        raw = minimal_dict()
        raw["memory"]["teeth_spacing_mhz"] = 5.0
        cfg = config_from_dict(raw)
        assert {ch.teeth_spacing_mhz for ch in cfg.bank.channels} == {5.0}

    @pytest.mark.parametrize(
        "path, value",
        [
            ("source.pump.pulse_width_fwhm_ps", 300.0),
            ("source.signal_center_wavelength_nm", 1531.93),
            ("source.idler_center_wavelength_nm", 1549.37),
            ("analyzers.idler.splitting_ratio", 0.5),
            ("analyzers.signal.splitting_ratio", 0.5),
            pytest.param(
                "analyzers",
                {"idler": {"arm_delay_ns": 1.25}, "signal": {"arm_delay_ns": 1.25}},
                id="analyzers-shipped_section",
            ),
            ("duty_cycle.prepare_ms", 200.0),
            ("duty_cycle.wait_ms", 20.0),
            ("memory.channel_spacing_ghz", 15.0),
            ("memory.channel_bandwidth_ghz", 4.0),
            ("run_duration_s", 60.0),
        ],
    )
    def test_knobs_that_reach_no_statistic_are_rejected(self, tmp_path, path, value):
        raw = minimal_dict()
        if path.startswith("memory."):
            raw["memory"][path.split(".")[1]] = value
        else:
            raw.update(nested(path, value))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        # a deleted section is rejected whole, a deleted knob by its own name
        top = path.split(".")[0]
        top_keys = {f.name for f in dataclasses.fields(ExperimentConfig)} | {"memory"}
        rejected = path.rsplit(".", 1)[-1] if top in top_keys else top
        with pytest.raises(ConfigError, match=rejected):
            load_config(cfg_path)


class TestValueTypes:
    # the cases probed through the CLI are in test_cli.py
    @pytest.mark.parametrize(
        "overrides, where",
        [
            ({"detectors": {"efficiency": True}}, r"detectors\.efficiency: expected a number, got boolean"),
            ({"source": {"pump": 16.0}}, r"source\.pump: expected an object, got number"),
            ({"desk_scale": None}, r"desk_scale: expected an object, got null"),
            ({"detectors": {"dark_count_rate_hz": float("nan")}}, "expected a number, got nan"),
            ({"source": {"pair_bandwidth_ghz": float("inf")}}, "expected a number, got inf"),
        ],
    )
    def test_wrong_json_type_names_its_path(self, overrides, where):
        with pytest.raises(ConfigError, match=where):
            config_from_dict(minimal_dict(**overrides))

    @pytest.mark.parametrize(
        "memory, where",
        [
            ({"channels": {"d1": 1.1}}, r"memory\.channels: a list of exactly five"),
            ({"channels": [[1.1]] * 5}, r"memory\.channels\[0\]: expected an object"),
            ({"channels": [{"d1": 1.1}] * 5, "noise_rate_hz": "0"}, r"memory\.noise_rate_hz"),
            ({"channels": [{"d1": 1.1}] * 5, "teeth_spacing_mhz": None}, r"memory\.teeth_spacing_mhz"),
        ],
    )
    def test_wrong_memory_types_name_their_path(self, memory, where):
        with pytest.raises(ConfigError, match=where):
            config_from_dict({"memory": memory})

    def test_integer_accepted_for_float_field(self):
        cfg = config_from_dict(minimal_dict(detectors={"dark_count_rate_hz": 0}, seed=7))
        assert cfg.detectors.dark_count_rate_hz == 0
        assert cfg.seed == 7
