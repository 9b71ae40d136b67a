"""Command-line interface: exit codes, report content, file outputs.

All invocations go through main(argv) in-process so exit codes and
stdout/stderr routing are asserted exactly as a shell would see them.
"""

import dataclasses
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import rispeb.allocation
import rispeb.cli
import rispeb.fim
import rispeb.sweep
import rispeb.waveform
from rispeb.channel import build_pathset
from rispeb.cli import main
from rispeb.config import DEFAULT_CONFIG_RESOURCE, default_config, dump_config, loads_config
from rispeb.fim import count_resolvable_paths
from rispeb.sweep import CDF_HEADER, MAP_HEADER


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Whole `rispeb point` reports on the default scenario, byte for byte:
# every path line's digits and dB rounding, the FIM and the bound.
FROZEN_REPORTS = {
    ("3.5", "5.0", "--kbar", "1"): """\
position_m: 3.5, 5
mode: ris
allocation_bits: 10000
path los: delay 20.3583 ns (6.10328 m), |gain| 0.000139601 (-77.10 dB)
path ris[0]: delay 51.6926 ns (15.497 m), |gain| 4.01323e-06 (-107.93 dB)
path ris[1]: delay 51.3915 ns (15.4068 m), |gain| 4.91451e-07 (-126.17 dB)
path ris[2]: delay 52.0187 ns (15.5948 m), |gain| 8.42095e-08 (-141.49 dB)
path ris[3]: delay 53.5867 ns (16.0649 m), |gain| 4.02784e-08 (-147.90 dB)
path ris[4]: delay 56.0317 ns (16.7979 m), |gain| 2.98373e-08 (-150.50 dB)
resolvable_paths: 2 of 6
fim_m2: [[758.926078, 1077.7336], [1077.7336, 1533.81884]]
peb_m: 0.949073577
""",
    ("3.5", "5.0", "--kbar", "2"): """\
position_m: 3.5, 5
mode: ris
allocation_bits: 10010
path los: delay 20.3583 ns (6.10328 m), |gain| 0.000139601 (-77.10 dB)
path ris[0]: delay 51.6926 ns (15.497 m), |gain| 4.01323e-06 (-107.93 dB)
path ris[1]: delay 51.3915 ns (15.4068 m), |gain| 4.91451e-07 (-126.17 dB)
path ris[2]: delay 52.0187 ns (15.5948 m), |gain| 8.42095e-08 (-141.49 dB)
path ris[3]: delay 53.5867 ns (16.0649 m), |gain| 3.85697e-06 (-108.28 dB)
path ris[4]: delay 56.0317 ns (16.7979 m), |gain| 2.98373e-08 (-150.50 dB)
resolvable_paths: 2 of 6
fim_m2: [[755.80629, 1068.23718], [1068.23718, 1516.84931]]
peb_m: 0.653993191
""",
    ("7.0", "3.0", "--mode", "reflector"): """\
position_m: 7, 3
mode: reflector
path los: delay 25.4035 ns (7.61577 m), |gain| 0.000111876 (-79.03 dB)
path reflector: delay 61.325 ns (18.3848 m), |gain| 1.39032e-05 (-97.14 dB)
resolvable_paths: 2 of 2
fim_m2: [[1240.36432, 536.337816], [536.337816, 258.873139]]
peb_m: 0.211743542
""",
    ("3.5", "9.45", "--mode", "scatterer"): """\
position_m: 3.5, 9.45
mode: scatterer
path los: delay 33.6143 ns (10.0773 m), |gain| 8.45488e-05 (-81.46 dB)
path scatterer: delay 37.1751 ns (11.1448 m), |gain| 4.1247e-06 (-107.69 dB)
resolvable_paths: 1 of 2
fim_m2: [[101.690383, 277.395233], [277.395233, 758.617704]]
peb_m: inf  # single resolvable delay, no unique fix
""",
}


class TestPoint:
    @pytest.mark.parametrize("argv", list(FROZEN_REPORTS), ids=" ".join)
    def test_frozen_report(self, capsys, argv):
        code, out, err = run(capsys, "point", *argv)
        assert code == 0
        assert err == ""
        assert out == FROZEN_REPORTS[argv]

    def test_default_scenario_report(self, capsys):
        code, out, _ = run(capsys, "point", "3.5", "5.0")
        assert code == 0
        assert "position_m: 3.5, 5" in out
        assert "mode: ris" in out
        assert "allocation_bits: 10000" in out
        assert "path los: " in out
        assert "path ris[0]: " in out
        assert "resolvable_paths: " in out
        assert "fim_m2: [[" in out
        assert "peb_m: 0.949073577" in out

    def test_reflector_mode_has_no_allocation(self, capsys):
        code, out, _ = run(capsys, "point", "7.0", "3.0",
                           "--mode", "reflector")
        assert code == 0
        assert "mode: reflector" in out
        assert "allocation_bits" not in out
        assert "path reflector: " in out

    def test_unresolvable_point_reports_inf(self, capsys):
        # Next to the scatterer both delays merge into one cluster.
        code, out, _ = run(capsys, "point", "3.5", "9.45",
                           "--mode", "scatterer")
        assert code == 0
        assert "resolvable_paths: 1 of 2" in out
        assert "peb_m: inf" in out

    def test_aliased_delays_rejected(self, capsys):
        # At 10 GHz the two delays differ by 3.8678 m, beyond the
        # 3.8373 m the 129-subcarrier kernel separates without aliasing.
        code, out, err = run(capsys, "point", "3.45", "7.95",
                             "--mode", "reflector", "--bandwidth", "1e10")
        assert code == 2
        assert out == ""
        assert "aliasing" in err

    def test_base_station_position_rejected(self, capsys):
        code, _, err = run(capsys, "point", "0.0", "0.0")
        assert code == 2
        assert err.startswith("error: ")


class TestSelect:
    def test_reports_budget_and_bound(self, capsys):
        code, out, _ = run(capsys, "select", "3.5", "5.0")
        assert code == 0
        assert "allocation_bits: 10000" in out
        assert "active_count: 1 (budget 1)" in out
        assert "peb_m: 0.949073577" in out

    def test_kbar_override(self, capsys):
        code, out, _ = run(capsys, "select", "3.5", "5.0", "--kbar", "2")
        assert code == 0
        assert "allocation_bits: 10010" in out
        assert "active_count: 2 (budget 2)" in out

    def test_aliased_delays_rejected(self, capsys):
        """At 5 GHz the paths at (3.5, 5) span 10.69 m, beyond the 7.67 m
        the kernel separates without aliasing: select stops as point does."""
        code, out, err = run(capsys, "select", "3.5", "5.0", "--bandwidth", "5e9")
        assert code == 2
        assert out == ""
        assert err.startswith("error: path lengths span")
        assert run(capsys, "point", "3.5", "5.0", "--bandwidth", "5e9") == (2, "", err)

    def test_requires_ris_mode(self, capsys):
        code, _, err = run(capsys, "select", "3.5", "5.0",
                           "--mode", "reflector")
        assert code == 2
        assert "mode = ris" in err


class TestBadInput:
    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "point", "3.5", "5.0",
                           "--config", "/nonexistent/run.cfg")
        assert code == 2
        assert "error: " in err

    def test_negative_bandwidth_override(self, capsys):
        code, _, err = run(capsys, "point", "3.5", "5.0",
                           "--bandwidth", "-5.0")
        assert code == 2
        assert "error: " in err

    @pytest.mark.parametrize("command", ["point", "select"])
    @pytest.mark.parametrize("bandwidth", ["nan", "inf"])
    def test_nonfinite_bandwidth_override(self, capsys, command, bandwidth):
        code, out, err = run(capsys, command, "3.5", "5.0", "--bandwidth", bandwidth)
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_negative_budget_override(self, capsys):
        """The budget is checked even where the mode does not use it."""
        code, out, err = run(capsys, "point", "3.5", "5.0",
                             "--mode", "reflector", "--kbar", "-1")
        assert code == 2
        assert out == ""
        assert "k_bar" in err

    @pytest.mark.parametrize("key", ["power_dbm", "noise_figure_db"])
    def test_overflowing_decibels(self, capsys, tmp_path, key):
        """A dB value whose linear value overflows a float is bad input."""
        path = tmp_path / "loud.cfg"
        dump_config(default_config(), path)
        text = re.sub(rf"^{key} = .*$", f"{key} = 4000", path.read_text(), flags=re.M)
        path.write_text(text)
        code, out, err = run(capsys, "point", "3.5", "5.0", "--config", str(path))
        assert code == 2
        assert out == ""
        assert f"waveform.{key}" in err


@pytest.fixture
def small_config(tmp_path):
    config = dataclasses.replace(default_config(), nx=10, ny=10,
                                 out_dir=str(tmp_path / "out"))
    path = tmp_path / "small.cfg"
    dump_config(config, path)
    return path, config


def assert_first_aliased_cell_named(capsys, path, config):
    scene, grid = config.scene(), config.grid()
    wave = dataclasses.replace(config.waveform(), bandwidth_hz=1e10)
    first = None
    for x in grid.xs:
        for y in grid.ys:
            paths = build_pathset(scene, None, [x, y], wave, "reflector")
            try:
                count_resolvable_paths(paths, wave)
            except ValueError:
                first = first or (x, y)
    assert first is not None
    code, out, err = run(capsys, "sweep", "--config", str(path),
                         "--mode", "reflector", "--bandwidth", "1e10")
    assert code == 2
    assert out == ""
    assert f"cell ({first[0]:.9g}, {first[1]:.9g}): path lengths span" in err
    assert not os.path.exists(config.out_dir)


class TestSweep:
    def test_writes_map_and_cdf(self, capsys, small_config):
        path, config = small_config
        code, out, err = run(capsys, "sweep", "--config", str(path))
        assert code == 0
        assert out == ""
        map_path = f"{config.out_dir}/peb_map_ris.csv"
        cdf_path = f"{config.out_dir}/peb_cdf_ris.csv"
        assert f"wrote {map_path}" in err
        assert f"wrote {cdf_path}" in err
        map_lines = open(map_path).read().splitlines()
        assert map_lines[0] == MAP_HEADER
        assert len(map_lines) == 101
        assert open(cdf_path).readline().strip() == CDF_HEADER

    def test_rerun_is_byte_identical(self, capsys, small_config):
        path, config = small_config
        assert run(capsys, "sweep", "--config", str(path))[0] == 0
        first = open(f"{config.out_dir}/peb_map_ris.csv", "rb").read()
        assert run(capsys, "sweep", "--config", str(path))[0] == 0
        assert open(f"{config.out_dir}/peb_map_ris.csv", "rb").read() == first

    def test_aliased_cell_is_named(self, capsys, small_config):
        """At 10 GHz some reflector cells alias: the sweep stops with exit 2,
        writes nothing and names the first such cell in grid order."""
        assert_first_aliased_cell_named(capsys, *small_config)

    def test_aliased_cell_is_named_in_parallel(self, capsys, small_config, tmp_path,
                                               monkeypatch):
        """Two workers evaluate and count blocks of three cells; the cell
        named is still the first in grid order."""
        monkeypatch.setattr(rispeb.sweep, "_COUNT_ENTRIES", 6)
        _, config = small_config
        config = dataclasses.replace(config, workers=2)
        path = tmp_path / "parallel.cfg"
        dump_config(config, path)
        assert_first_aliased_cell_named(capsys, path, config)

    def test_mode_override_names_outputs(self, capsys, small_config):
        path, config = small_config
        code, _, err = run(capsys, "sweep", "--config", str(path),
                           "--mode", "reflector")
        assert code == 0
        assert f"wrote {config.out_dir}/peb_map_reflector.csv" in err


class TestValidate:
    def test_checks_pass(self, capsys):
        code, out, _ = run(capsys, "validate")
        assert code == 0
        assert "check phase_gain: ok" in out
        assert "check fim_oracle: ok" in out
        assert "check selection_oracle: ok" in out
        assert "check sweep_oracle: ok" in out
        assert "check kernel_oracle: ok" in out

    def test_detects_injected_kernel_fault(self, capsys, monkeypatch):
        true_kernel = rispeb.fim.delay_kernel
        monkeypatch.setattr(rispeb.fim, "delay_kernel",
                            lambda cfg, delta: -true_kernel(cfg, delta))
        code, out, _ = run(capsys, "validate")
        assert code == 1
        assert "check fim_oracle: FAIL" in out
        assert "check phase_gain: ok" in out

    @pytest.mark.parametrize("fault", ["no_taylor_branch", "flipped_closed_form"])
    def test_detects_injected_closed_form_fault(self, capsys, monkeypatch, fault):
        """The closed form with its Taylor branch dropped loses about 1e-9
        of the peak near |x| = 1.6e-5; with its sign flipped (the series
        kept) it is wrong everywhere else. kernel_oracle sees either."""
        true_constants = rispeb.waveform._kernel_constants

        def faulty(cfg):
            constants = true_constants(cfg)
            if fault == "no_taylor_branch":
                return constants._replace(switch=0.0)
            return constants._replace(scale=-constants.scale)

        monkeypatch.setattr(rispeb.waveform, "_kernel_constants", faulty)
        with np.errstate(invalid="ignore", divide="ignore"):
            code, out, _ = run(capsys, "validate")
        assert code == 1
        assert "check kernel_oracle: FAIL" in out
        assert "check phase_gain: ok" in out

    def test_detects_injected_sweep_fault(self, capsys, monkeypatch):
        """A sweep that scores the patterns in reverse order names the
        wrong winner; select_ris, which has its own argmin, is unaffected."""
        true_score = rispeb.sweep._score
        monkeypatch.setattr(
            rispeb.sweep, "_score",
            lambda scene, points, cfg, patterns, steer_at: true_score(
                scene, points, cfg, patterns[::-1], steer_at))
        code, out, _ = run(capsys, "validate")
        assert code == 1
        assert "check sweep_oracle: FAIL" in out
        assert "check selection_oracle: ok" in out

    def test_detects_injected_selection_bound_fault(self, capsys, monkeypatch):
        """A core that scales every bound by 1 + 1e-9 keeps every argmin:
        selection_oracle sees it in the bound that select_ris returns."""
        true_score = rispeb.allocation._score

        def scaled(*args):
            values, delays, steering = true_score(*args)
            return values * (1.0 + 1e-9), delays, steering

        monkeypatch.setattr(rispeb.allocation, "_score", scaled)
        code, out, _ = run(capsys, "validate")
        assert code == 1
        assert "check selection_oracle: FAIL" in out


class TestConfigStability:
    def test_dumped_config_reproduces_point_report(self, capsys, tmp_path):
        code, default_out, _ = run(capsys, "point", "4.2", "6.1")
        assert code == 0
        path = tmp_path / "dumped.cfg"
        dump_config(default_config(), path)
        code, dumped_out, _ = run(capsys, "point", "4.2", "6.1",
                                  "--config", str(path))
        assert code == 0
        assert dumped_out == default_out


SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(*code):
    """A new interpreter with src on the path: python followed by code."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *code], env=env, capture_output=True,
                          text=True, timeout=120)


class TestProcessReuse:
    """main reuses one parser and the packaged config within a process."""

    SEQUENCE = (("point", "3.5", "5", "--kbar", "2"), ("point", "3.5", "5"),
                ("point", "bad", "1"), ("point", "3", "5", "--bandwidth", "-1"),
                ("select", "8", "4"))

    def test_each_call_matches_a_fresh_process(self, capsys):
        """Each command, one after the other in this process, prints what
        it prints alone in a new one and exits as it does, argparse errors
        and overrides included; the overrides leave the default config
        as the package file gives it."""
        seen = []
        for argv in self.SEQUENCE:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            seen.append((code, capsys.readouterr().out))
        assert [code for code, _ in seen] == [0, 0, 2, 2, 0]
        for argv, (code, out) in zip(self.SEQUENCE, seen):
            alone = run_fresh("-m", "rispeb.cli", *argv)
            assert (code, out) == (alone.returncode, alone.stdout), argv
        text = resources.files("rispeb").joinpath(DEFAULT_CONFIG_RESOURCE).read_text(
            encoding="utf-8")
        assert default_config() == loads_config(text)

    def test_config_file_calls_match_a_fresh_process(self, capsys, tmp_path):
        """A --config file's parse is shared within the process; no
        override of one call reaches the next."""
        path = str(tmp_path / "run.cfg")
        dump_config(dataclasses.replace(default_config(), out_dir=str(tmp_path)), path)
        sequence = (("point", "3.5", "5", "--config", path, "--kbar", "2"),
                    ("point", "3.5", "5", "--config", path),
                    ("select", "8", "4", "--config", path),
                    ("point", "8", "4", "--mode", "reflector", "--config", path))
        seen = []
        for argv in sequence:
            seen.append((main(list(argv)), capsys.readouterr().out))
        assert [code for code, _ in seen] == [0, 0, 0, 0]
        assert seen[0][1] != seen[1][1]
        for argv, (code, out) in zip(sequence, seen):
            alone = run_fresh("-m", "rispeb.cli", *argv)
            assert (code, out) == (alone.returncode, alone.stdout), argv

    def test_parser_is_built_at_most_once(self, capsys, monkeypatch):
        built = []
        build = rispeb.cli.build_parser

        def counted():
            built.append(1)
            return build()

        monkeypatch.setattr(rispeb.cli, "build_parser", counted)
        for _ in range(3):
            for argv in self.SEQUENCE[:2]:
                assert main(list(argv)) == 0
        assert len(built) <= 1

    def test_no_process_pool_is_imported(self):
        """Only a sweep with workers > 1 needs multiprocessing."""
        done = run_fresh("-c", "import sys, rispeb, rispeb.cli; print(sorted("
                         "{'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"
