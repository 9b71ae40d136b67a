"""Configuration parsing, validation, and round-tripping."""

import configparser
import dataclasses
import math
import os
import re
import shutil
from importlib import resources

import pytest

import rispeb.config
from rispeb.config import (
    DEFAULT_CONFIG_RESOURCE,
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

    def test_round_trip_without_ris(self, cfg):
        bare = dataclasses.replace(cfg, ris_centers_x_m=())
        text = dumps_config(bare)
        assert "ris_centers_x_m = \n" in text
        reparsed = loads_config(text)
        assert reparsed == bare
        assert reparsed.scene().ris == ()


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
        with pytest.raises(ConfigError, match=r"^run\.cfg: run\.workers"):
            loads_config(broken(replace_key="workers", value="0"), source="run.cfg")

    @pytest.mark.parametrize("key, value", [
        ("workers", 0), ("mode", "mirror"), ("peb_cap_m", math.inf),
        ("scatter_rcs_m2", math.nan), ("scatter_x_m", math.inf),
        ("reflector_h1_m", -math.inf), ("power_dbm", math.nan),
        ("power_dbm", 4000.0), ("noise_figure_db", 4000.0),
    ])
    def test_replace_rejects(self, key, value):
        """An override made with dataclasses.replace is checked as a
        parsed file is."""
        with pytest.raises(ConfigError):
            dataclasses.replace(default_config(), **{key: value})

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

    @pytest.mark.parametrize("value", ["1.5,,2.5, 3.5", "1.5, 2.5,", ", 1.5", "1.5, ,2.5"])
    def test_empty_list_item_names_the_key(self, value):
        """An empty item is an error, not a surface silently dropped."""
        with pytest.raises(ConfigError, match=r"^run\.cfg: scene\.ris_centers_x_m: empty item"):
            loads_config(broken(replace_key="ris_centers_x_m", value=value),
                         source="run.cfg")

    @pytest.mark.parametrize("value", ["", "   # no surfaces"])
    def test_empty_list_is_a_scene_without_ris(self, value):
        config = loads_config(broken(replace_key="ris_centers_x_m", value=value))
        assert config.ris_centers_x_m == ()
        assert config.scene().ris == ()

    def test_inline_comments_allowed(self):
        text = broken(replace_key="k_bar", value="2  # two active")
        assert loads_config(text).k_bar == 2


def own_text(tmp_path, k_bar=1):
    """Config text that no other test parses: its out_dir is tmp_path."""
    return dumps_config(dataclasses.replace(default_config(), k_bar=k_bar,
                                            out_dir=str(tmp_path)))


class TestParseCache:
    """Each config text is parsed once per process; the file is read on
    every call, so an edit takes effect on the next one."""

    def test_one_file_is_parsed_once(self, tmp_path, monkeypatch):
        path = tmp_path / "run.cfg"
        path.write_text(own_text(tmp_path))
        built = []
        parser_class = configparser.ConfigParser

        def counted(*args, **kwargs):
            built.append(1)
            return parser_class(*args, **kwargs)

        monkeypatch.setattr(rispeb.config.configparser, "ConfigParser", counted)
        first = load_config(path)
        assert load_config(path) == first
        assert len(built) == 1

    def test_rewritten_file_with_old_size_and_mtime_is_reread(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(own_text(tmp_path, k_bar=1))
        before = os.stat(path)
        assert load_config(path).k_bar == 1
        path.write_text(own_text(tmp_path, k_bar=2))
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = os.stat(path)
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        assert load_config(path).k_bar == 2

    def test_error_names_the_path_of_every_call(self, tmp_path):
        first = tmp_path / "first.cfg"
        first.write_text(broken(replace_key="nx", value="one"))
        second = tmp_path / "second.cfg"
        shutil.copyfile(first, second)
        for path in (first, first, second):
            with pytest.raises(ConfigError,
                               match="^" + re.escape(str(path)) + r": grid\.nx"):
                load_config(path)

    def test_default_equals_a_fresh_parse_of_the_package_text(self):
        text = resources.files("rispeb").joinpath(DEFAULT_CONFIG_RESOURCE).read_text(
            encoding="utf-8")
        # A source no other call uses, so this is a parse, not a cache hit.
        fresh = loads_config(text, source="package text, parsed again")
        assert fresh is not default_config()
        assert fresh == default_config()
