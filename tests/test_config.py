"""Configuration parsing, validation, and round-tripping."""

import dataclasses

import pytest

from rispeb.config import (
    ConfigError,
    RunConfig,
    default_config,
    dump_config,
    dumps_config,
    load_config,
    loads_config,
)


class TestDefault:
    def test_frozen_scenario_fields(self, cfg):
        assert cfg.wall_offset_m == 10.0
        assert cfg.ris_centers_x_m == (1.5, 2.5, 3.5, 4.5, 5.5)
        assert cfg.ris_elements == 100
        assert (cfg.reflector_h1_m, cfg.reflector_h2_m) == (1.0, 6.0)
        assert cfg.reflector_gamma == 0.3
        assert (cfg.scatter_x_m, cfg.scatter_rcs_m2) == (3.5, 0.01)
        assert cfg.carrier_hz == 28e9
        assert cfg.bandwidth_hz == 1e8
        assert cfg.subcarrier_count == 129
        assert cfg.power_dbm == 0.0
        assert cfg.noise_figure_db == 0.0
        assert (cfg.x_min_m, cfg.x_max_m) == (-5.0, 15.0)
        assert (cfg.y_min_m, cfg.y_max_m) == (0.5, 9.5)
        assert (cfg.nx, cfg.ny) == (100, 100)
        assert cfg.mode == "ris"
        assert cfg.k_bar == 1
        assert cfg.peb_cap_m == 5.0
        assert cfg.workers == 1
        assert cfg.out_dir == "out"

    def test_derived_scene(self, cfg, scene):
        assert scene.ris_spacing == 1.0
        assert len(scene.ris) == 5
        assert scene.reflector is not None and scene.scatterer is not None

    def test_derived_waveform(self, cfg, wave):
        assert wave.tx_power_w == 1e-3
        assert abs(wave.noise_psd_w_hz - 1.380649e-23 * 290.0) < 1e-40

    def test_derived_constraints(self, cfg):
        constraints = cfg.selection_constraints()
        assert constraints.k_bar == 1
        assert abs(constraints.min_gap - 2.99792458) < 1e-12
        assert constraints.peb_cap == 5.0

    def test_derived_grid(self, cfg):
        grid = cfg.grid()
        assert grid.x_range == (-5.0, 15.0)
        assert grid.y_range == (0.5, 9.5)
        assert grid.cell_count == 10000


class TestRoundTrip:
    def test_default_round_trips(self, cfg):
        assert loads_config(dumps_config(cfg)) == cfg

    def test_round_trip_without_optional_groups(self, cfg):
        bare = dataclasses.replace(
            cfg, reflector_h1_m=None, reflector_h2_m=None,
            reflector_gamma=None, scatter_x_m=None, scatter_rcs_m2=None)
        text = dumps_config(bare)
        assert "reflector" not in text and "scatter" not in text
        reparsed = loads_config(text)
        assert reparsed == bare
        assert reparsed.scene().reflector is None
        assert reparsed.scene().scatterer is None

    def test_round_trip_with_only_reflector(self, cfg):
        only = dataclasses.replace(cfg, scatter_x_m=None, scatter_rcs_m2=None)
        text = dumps_config(only)
        assert "scatter" not in text and "reflector_gamma" in text
        reparsed = loads_config(text)
        assert reparsed == only
        assert reparsed.scene().scatterer is None

    def test_round_trip_awkward_floats(self, cfg):
        tweaked = dataclasses.replace(cfg, bandwidth_hz=0.1 + 0.2,
                                      power_dbm=-17.3)
        assert loads_config(dumps_config(tweaked)) == tweaked

    def test_file_round_trip(self, cfg, tmp_path):
        path = tmp_path / "run.cfg"
        dump_config(cfg, path)
        assert load_config(path) == cfg


def broken(replace_key=None, value=None, drop_key=None, extra=None):
    text = dumps_config(default_config())
    lines = []
    for line in text.splitlines():
        key = line.split(" = ")[0] if " = " in line else None
        if drop_key is not None and key == drop_key:
            continue
        if replace_key is not None and key == replace_key:
            lines.append(f"{replace_key} = {value}")
            continue
        lines.append(line)
        if extra is not None and line == extra[0]:
            lines.append(extra[1])
    return "\n".join(lines)


class TestErrors:
    def test_missing_key_names_it(self):
        with pytest.raises(ConfigError, match=r"missing key grid\.nx"):
            loads_config(broken(drop_key="nx"), source="run.cfg")

    def test_unknown_key_names_it(self):
        with pytest.raises(ConfigError, match=r"unknown key run\.threads"):
            loads_config(broken(extra=("[run]", "threads = 4")))

    def test_missing_section(self):
        text = "\n".join(line for line in dumps_config(default_config())
                         .splitlines() if line not in ("[grid]",))
        with pytest.raises(ConfigError, match=r"unknown key|missing section"):
            loads_config(text)

    def test_bad_number_names_key(self):
        with pytest.raises(ConfigError,
                           match=r"waveform\.carrier_hz.*expected a number"):
            loads_config(broken(replace_key="carrier_hz", value="fast"))

    def test_nonfinite_number_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            loads_config(broken(replace_key="wall_offset_m", value="inf"))

    def test_bad_mode_lists_choices(self):
        with pytest.raises(ConfigError, match="ris, reflector, scatterer"):
            loads_config(broken(replace_key="mode", value="mirror"))

    def test_negative_noise_figure(self):
        with pytest.raises(ConfigError, match="noise_figure_db"):
            loads_config(broken(replace_key="noise_figure_db", value="-1.0"))

    def test_negative_budget(self):
        with pytest.raises(ConfigError, match="k_bar"):
            loads_config(broken(replace_key="k_bar", value="-1"))

    def test_zero_workers(self):
        with pytest.raises(ConfigError, match="workers"):
            loads_config(broken(replace_key="workers", value="0"))

    def test_grid_reaching_wall(self):
        with pytest.raises(ConfigError, match="below the wall"):
            loads_config(broken(replace_key="y_max_m", value="10.0"))

    def test_partial_optional_group(self):
        for dropped, message in (
                ("reflector_h2_m", "sets reflector_h1_m but not reflector_h2_m$"),
                ("scatter_rcs_m2", "sets scatter_x_m but not scatter_rcs_m2$")):
            with pytest.raises(ConfigError, match=message):
                loads_config(broken(drop_key=dropped))

    def test_scene_validation_surfaces_as_config_error(self):
        with pytest.raises(ConfigError, match="increasing"):
            loads_config(broken(replace_key="ris_centers_x_m",
                                value="5.5, 1.5"))

    def test_source_appears_in_message(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(broken(replace_key="nx", value="one"))
        with pytest.raises(ConfigError, match="bad.cfg"):
            load_config(path)

    def test_inline_comments_allowed(self):
        text = broken(replace_key="k_bar", value="2  # two active")
        assert loads_config(text).k_bar == 2
