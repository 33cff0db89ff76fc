"""CLI surface tests: verbs, artifacts, exit codes."""

import argparse
import ctypes
import importlib
import itertools
import json
import os
import subprocess
import sys
import types
from pathlib import Path
from unittest.mock import patch

import pytest

from afcsim import cli


FAST_DESK_SCALE = dict(
    chsh_cycles_per_setting=300_000,
    fringe_points=9,
    fringe_cycles_per_point=120_000,
    tomography_cycles_per_setting=250_000,
    g2_cycles=300_000,
    mc_trials=8,
)


@pytest.fixture()
def fast_config_file(tmp_path):
    path = tmp_path / "fast.json"
    path.write_text(json.dumps({"desk_scale": FAST_DESK_SCALE}))
    return str(path)


@pytest.fixture()
def zero_pair_config_file(tmp_path):
    # no pair is emitted: every correlation, S and g2 is undefined
    cfg = {
        "source": {"pair_emission_probability_per_cycle": 0},
        "desk_scale": dict(FAST_DESK_SCALE, g2_cycles=100_000),
    }
    path = tmp_path / "zero_pairs.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestSimulate:
    def test_single_channel_run(self, tmp_path, fast_config_file):
        out = tmp_path / "out"
        code = cli.main(
            ["simulate", "--config", fast_config_file, "--out", str(out), "--channels", "1"]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["channels"]) == 1
        assert (out / "channel1_density_after.txt").exists()

    def test_bad_config_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"memory": {"channels": []}}')
        code = cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_zero_pair_simulate_exit_2(self, tmp_path, capsys, zero_pair_config_file):
        # the first CHSH setting has no middle-middle count, so S is undefined
        argv = ["simulate", "--config", zero_pair_config_file, "--channels", "1", "--trials", "5"]
        assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "error: CHSH of channel 1 before storage over 300000 cycles per setting" in err
        assert "all-zero counts" in err
        assert not (tmp_path / "o" / "report.json").exists()

    @pytest.mark.parametrize(
        "overrides, path",
        [
            ({"detectors": {"efficiency": "0.7"}}, "detectors.efficiency"),
            ({"coincidence": {"window_ps": None}}, "coincidence.window_ps"),
            ({"memory": {"channels": [{"d1": "1.1"}] * 5}}, "memory.channels[0].d1"),
            ({"seed": [1]}, "seed"),
            ({"seed": 1.9}, "seed"),
            ({"seed": True}, "seed"),
            ({"source": []}, "source"),
            ({"desk_scale": {"fringe_points": 13.5}}, "desk_scale.fringe_points"),
        ],
    )
    def test_wrongly_typed_value_exit_2(self, tmp_path, capsys, overrides, path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(overrides))
        code = cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"error: {path}: expected" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (
                {"analyzers": {"idler": {"arm_delay_ns": 1.25}, "signal": {"arm_delay_ns": 1.25}}},
                "<root>: unknown key(s) ['analyzers']",
            ),
            ({"duty_cycle": {"prepare_ms": 200.0}}, "duty_cycle: unknown key(s) ['prepare_ms']"),
            ({"duty_cycle": {"wait_ms": 20.0}}, "duty_cycle: unknown key(s) ['wait_ms']"),
            ({"duty_cycle": {"measure_ms": 0}}, "duty_cycle.measure_ms: 0 ms"),
        ],
    )
    def test_model_constants_and_empty_measure_window_exit_2(
        self, tmp_path, capsys, overrides, message
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(overrides))
        code = cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_bad_channel_label_exit_2(self, tmp_path, fast_config_file):
        code = cli.main(
            ["simulate", "--config", fast_config_file, "--out", str(tmp_path / "o"),
             "--channels", "9"]
        )
        assert code == 2

    @pytest.mark.parametrize("verb", [["simulate"], ["reproduce", "fig3"]])
    @pytest.mark.parametrize("channels", ["", ","])
    def test_empty_channel_list_exit_2(self, tmp_path, capsys, fast_config_file, verb, channels):
        argv = verb + ["--config", fast_config_file, "--out", str(tmp_path / "o"), "--channels", channels]
        assert cli.main(argv) == 2
        assert "error: --channels: no channel labels" in capsys.readouterr().err
        assert not (tmp_path / "o" / "report.json").exists()


def test_setup_does_not_import_scipy_optimize():
    # the optimizers are imported where they are called, so start-up
    # (import, shipped config, fixture checksums) does not pay for them
    code = (
        "import sys, afcsim.cli\n"
        "from afcsim.config import reference_calibration_config\n"
        "from afcsim.datasets import verify_checksums\n"
        "reference_calibration_config()\n"
        "verify_checksums()\n"
        "assert 'scipy.optimize' not in sys.modules\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_simulate_does_not_import_scipy_optimize(tmp_path):
    # the tomography fits are numpy only; the fringe counts are high enough
    # that no fit takes the bounded (scipy) fallback
    desk_scale = dict(
        chsh_cycles_per_setting=300_000,
        fringe_points=9,
        fringe_cycles_per_point=1_500_000,
        tomography_cycles_per_setting=250_000,
        g2_cycles=300_000,
    )
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"desk_scale": desk_scale}))
    code = (
        "import sys\n"
        "from afcsim import cli\n"
        f"argv = ['simulate', '--config', {str(config)!r}, '--out', {str(tmp_path / 'out')!r},\n"
        "        '--channels', '1', '--trials', '3']\n"
        "assert cli.main(argv) == 0\n"
        "assert 'scipy.optimize' not in sys.modules\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


class _RecordingMallopt:
    """Stands in for libc's ``mallopt``: records each call, returns ``result``."""

    def __init__(self, result=1):
        self.result = result
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return self.result


def _no_libc(name):
    raise OSError("cannot load the C library")


def _libc_without_mallopt(name):
    # macOS's and musl's C libraries have no mallopt
    return types.SimpleNamespace()


class TestKeepHeapMapped:
    # M_MMAP_THRESHOLD (-3) = 32 MiB, then M_TRIM_THRESHOLD (-1) = 256 MiB,
    # then M_ARENA_MAX (-8) = 1
    POLICY = [(-3, 33_554_432), (-1, 268_435_456), (-8, 1)]

    @staticmethod
    def _libc(mallopt):
        def cdll(name):
            assert name is None
            return types.SimpleNamespace(mallopt=mallopt)

        return cdll

    @staticmethod
    def _table4(tmp_path):
        return cli.main(["analyze-golden", "table4", "--out", str(tmp_path / "o")])

    def test_import_sets_nothing(self):
        mallopt = _RecordingMallopt()
        with patch.object(ctypes, "CDLL", self._libc(mallopt)):
            importlib.reload(cli)
        assert mallopt.calls == []

    def test_main_sets_both_thresholds(self, tmp_path):
        mallopt = _RecordingMallopt()
        with patch.object(ctypes, "CDLL", self._libc(mallopt)):
            assert self._table4(tmp_path) == 0
        assert mallopt.calls == self.POLICY
        assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
        assert mallopt.restype is ctypes.c_int

    def test_refused_value_stops_the_policy(self, tmp_path):
        # glibc returns 0 for an mmap threshold above its maximum
        mallopt = _RecordingMallopt(result=0)
        with patch.object(ctypes, "CDLL", self._libc(mallopt)):
            assert self._table4(tmp_path) == 0
        assert mallopt.calls == self.POLICY[:1]
        assert (tmp_path / "o").is_dir()

    @pytest.mark.parametrize("cdll", [_no_libc, _libc_without_mallopt])
    def test_missing_mallopt_runs_the_verb(self, tmp_path, cdll):
        with patch.object(ctypes, "CDLL", cdll):
            assert self._table4(tmp_path) == 0
        assert (tmp_path / "o").is_dir()


class TestAnalyzeGolden:
    def test_table4(self, tmp_path):
        code = cli.main(["analyze-golden", "table4", "--out", str(tmp_path)])
        assert code == 0
        metrics = json.loads((tmp_path / "table4_metrics.json").read_text())
        assert metrics["metrics"]["fidelity_in"] == pytest.approx(0.9134, abs=1e-3)

    def test_table2(self, tmp_path):
        code = cli.main(["analyze-golden", "table2", "--out", str(tmp_path)])
        assert code == 0
        fit = json.loads((tmp_path / "table2_decay_fit.json").read_text())
        assert fit["non_monotone_times_flagged_ns"] == [170.0]
        assert (tmp_path / "table2_decay_fit.csv").exists()

    def test_table3(self, tmp_path):
        code = cli.main(
            ["analyze-golden", "table3", "--out", str(tmp_path), "--trials", "8"]
        )
        assert code == 0
        summary = json.loads((tmp_path / "table3_reconstruction.json").read_text())
        assert summary["checks"]["fidelity_to_reference"]

    @pytest.mark.parametrize("trials", ["0", "1"])
    def test_table3_too_few_trials_exit_2(self, tmp_path, capsys, trials):
        code = cli.main(["analyze-golden", "table3", "--out", str(tmp_path), "--trials", trials])
        assert code == 2
        assert "error: --trials" in capsys.readouterr().err
        assert not (tmp_path / "table3_reconstruction.json").exists()


class TestReproduce:
    def test_fig4_artifacts(self, tmp_path, fast_config_file):
        code = cli.main(
            ["reproduce", "fig4", "--config", fast_config_file, "--out", str(tmp_path)]
        )
        # reduced statistics may or may not hit the 5pp window; artifacts must exist
        assert code in (0, 1)
        assert (tmp_path / "fig4_fringe_alpha0.csv").exists()
        assert (tmp_path / "fig4_correlation_alpha0.csv").exists()
        summary = json.loads((tmp_path / "fig4_summary.json").read_text())
        assert set(summary["alpha_scans"]) == {"alpha0", "alpha_pi_2"}

    def test_fig7_artifacts(self, tmp_path, fast_config_file):
        code = cli.main(
            ["reproduce", "fig7", "--config", fast_config_file, "--out", str(tmp_path)]
        )
        assert code in (0, 1)
        rows = (tmp_path / "fig7_twofold_histogram.csv").read_text().splitlines()
        assert rows[0] == "delta_t_ps,count"
        assert len(rows) > 50

    def test_table2_alias(self, tmp_path):
        code = cli.main(["reproduce", "table2", "--out", str(tmp_path)])
        assert code == 0

    @pytest.mark.parametrize("figure", ["fig4", "fig5", "fig7"])
    def test_single_channel_figure_rejects_several_channels(self, tmp_path, capsys, figure):
        code = cli.main(["reproduce", figure, "--out", str(tmp_path / "o"), "--channels", "2,3"])
        assert code == 2
        assert f"error: --channels: {figure} is a single-channel figure" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_zero_pair_g2_exit_2(self, tmp_path, capsys, zero_pair_config_file):
        # the g2 run has no idler click, so g2 is undefined
        argv = ["reproduce", "fig3", "--config", zero_pair_config_file, "--channels", "1"]
        assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "error: g2 of signal channel 1 and idler channel 1 over 100000 cycles" in err
        assert "zero singles" in err

    def test_zero_pair_fig4_exit_2(self, tmp_path, capsys, zero_pair_config_file):
        # the fringe scan has no middle-middle count, so E is undefined
        argv = ["reproduce", "fig4", "--config", zero_pair_config_file, "--trials", "5"]
        assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        message = "Franson correlation of channel 1 after storage in the alpha0 scan"
        assert f"error: {message} over 120000 cycles per point" in err
        assert "all-zero counts" in err
        assert not (tmp_path / "o" / "fig4_summary.json").exists()

    def test_zero_pair_fig5_exit_2(self, tmp_path, capsys, zero_pair_config_file):
        # the tomography record has no count, so the MLE has no exposure
        argv = ["reproduce", "fig5", "--config", zero_pair_config_file]
        assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        message = "tomography of channel 1 before storage over 250000 cycles per setting"
        assert f"error: {message}" in err
        assert "exposures must be positive" in err
        assert not list((tmp_path / "o").glob("fig5_*"))

    def test_unknown_figure_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["reproduce", "fig9", "--out", str(tmp_path)])


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["analyze-golden", "table2", "--seed", "3"], "--seed"),
        (["analyze-golden", "table2", "--trials", "50"], "--trials"),
        (["analyze-golden", "table4", "--seed", "3"], "--seed"),
        (["analyze-golden", "table4", "--trials", "50"], "--trials"),
        (["reproduce", "table2", "--config", "cfg.json"], "--config"),
        (["reproduce", "table2", "--seed", "3"], "--seed"),
        (["reproduce", "table2", "--channels", "1"], "--channels"),
        (["reproduce", "table2", "--trials", "50"], "--trials"),
        (["reproduce", "fig5", "--trials", "50"], "--trials"),
        (["reproduce", "fig7", "--trials", "50"], "--trials"),
    ],
)
def test_option_the_artifact_never_reads_exit_2(tmp_path, capsys, argv, flag):
    code = cli.main(argv + ["--out", str(tmp_path / "o")])
    assert code == 2
    assert f"error: {argv[0]} {argv[1]} does not read {flag}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


class TestSeedRange:
    # 4294967301 and -4294967291 agree with 5 in their low 32 bits
    @pytest.mark.parametrize("seed", ["4294967301", "-4294967291", "-1", "4294967296"])
    @pytest.mark.parametrize(
        "verb, name",
        [
            (["simulate", "--channels", "1"], "seed"),  # checked by the config
            (["reproduce", "fig4"], "seed"),
            (["analyze-golden", "table3"], "--seed"),
        ],
    )
    def test_seed_outside_32_bits_exit_2(self, tmp_path, capsys, verb, name, seed):
        code = cli.main(verb + ["--seed", seed, "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"error: {name}: {seed} is outside [0, 2**32)" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_seed_outside_32_bits_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"seed": -1}')
        code = cli.main(["reproduce", "fig3", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error: seed: -1 is outside [0, 2**32)" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestRejectedBeforeOut:
    def test_unreadable_config_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        code = cli.main(["reproduce", "fig3", "--config", str(missing), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"error: {missing}: cannot read the config file" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--channels", "9"], "--channels: channel labels run 1..5"),
            (["simulate", "--trials", "1"], "desk_scale: mc_trials must be >= 2"),
            (["reproduce", "table1", "--channels", "0"], "--channels: channel labels run 1..5"),
            (["analyze-golden", "table3", "--trials", "1"], "--trials: Monte-Carlo error bars"),
        ],
    )
    def test_no_out_directory_for_a_rejected_run(self, tmp_path, capsys, argv, message):
        assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def _readme_artifacts() -> dict:
    """(verb, artifact) -> (options read, takes one channel), from the
    option table of README's CLI section."""
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    start = lines.index("| artifact | `--config` | `--seed` | `--channels` | `--trials` |")
    table = {}
    for line in itertools.takewhile(lambda text: text.startswith("|"), lines[start + 2 :]):
        names, *cells = (cell.strip() for cell in line.strip("|").split("|"))
        entry = ({name for name, cell in zip(cli._RUN_OPTIONS, cells) if cell != "no"}, "one label" in cells)
        for name in names.split(", "):
            verb, _, artifact = name.strip("`").partition(" ")
            table[(verb, artifact or None)] = entry
    return table


def test_artifact_table_parser_and_readme_agree():
    table = {key: (set(reads), one_channel) for key, (reads, one_channel, _) in cli._ARTIFACTS.items()}
    assert _readme_artifacts() == table
    (verbs,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    parsed = {}
    for verb, sub in verbs.choices.items():
        positionals = [a.choices for a in sub._actions if not a.option_strings]
        options = {a.dest for a in sub._actions if a.option_strings} & set(cli._RUN_OPTIONS)
        for artifact in positionals[0] if positionals else [None]:
            parsed[(verb, artifact)] = options
    assert set(parsed) == set(table)
    for key, (reads, _) in table.items():
        assert reads <= parsed[key], key
