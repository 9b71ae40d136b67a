"""Command-line interface: exit codes, report content, file outputs.

All invocations go through main(argv) in-process so exit codes and
stdout/stderr routing are asserted exactly as a shell would see them.
"""

import dataclasses

import pytest

import rispeb.fim
from rispeb.cli import main
from rispeb.config import default_config, dump_config
from rispeb.sweep import CDF_HEADER, MAP_HEADER


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPoint:
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
        assert "peb_m: 0.942385068" in out

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
        assert "peb_m: 0.942385068" in out

    def test_kbar_override(self, capsys):
        code, out, _ = run(capsys, "select", "3.5", "5.0", "--kbar", "2")
        assert code == 0
        assert "allocation_bits: 10010" in out
        assert "active_count: 2 (budget 2)" in out

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


@pytest.fixture
def small_config(tmp_path):
    config = dataclasses.replace(default_config(), nx=10, ny=10,
                                 out_dir=str(tmp_path / "out"))
    path = tmp_path / "small.cfg"
    dump_config(config, path)
    return path, config


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

    def test_detects_injected_kernel_fault(self, capsys, monkeypatch):
        true_kernel = rispeb.fim.delay_kernel
        monkeypatch.setattr(rispeb.fim, "delay_kernel",
                            lambda cfg, delta: -true_kernel(cfg, delta))
        code, out, _ = run(capsys, "validate")
        assert code == 1
        assert "check fim_oracle: FAIL" in out
        assert "check phase_gain: ok" in out


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
