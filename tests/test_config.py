"""Configuration parsing, validation, and round-tripping."""

import configparser
import dataclasses
import math
import os
import re
import shutil
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rispeb.config
from rispeb.allocation import SelectionConstraints
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
from rispeb.geometry import ReflectorDescriptor, Scene
from rispeb.sweep import GridSpec
from rispeb.waveform import WaveformConfig


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

    def test_derived_grid(self, cfg):
        grid = cfg.grid()
        assert grid.x_range == (-5.0, 15.0)
        assert grid.y_range == (0.5, 9.5)
        assert grid.cell_count == 10000

    def test_model_objects_built_once(self, cfg):
        assert cfg.scene() is cfg.scene()
        assert cfg.waveform() is cfg.waveform()
        assert cfg.grid() is cfg.grid()
        assert cfg.selection_constraints() is cfg.selection_constraints()
        assert isinstance(cfg.selection_constraints(), SelectionConstraints)

    def test_replace_builds_and_validates_its_own_models(self, cfg):
        moved = dataclasses.replace(cfg, wall_offset_m=12.0, bandwidth_hz=2e8, nx=7)
        assert moved.scene().wall_offset == 12.0
        assert moved.waveform().bandwidth_hz == 2e8
        assert moved.grid().nx == 7
        assert moved.selection_constraints().min_gap == pytest.approx(2.99792458 / 2)
        # The original keeps its own objects.
        assert cfg.scene().wall_offset == 10.0 and cfg.waveform().bandwidth_hz == 1e8
        with pytest.raises(ConfigError, match="below the wall"):
            dataclasses.replace(cfg, wall_offset_m=9.0)
        with pytest.raises(ConfigError, match="bandwidth"):
            dataclasses.replace(cfg, bandwidth_hz=-1.0)


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

    def test_replace_holds_centers_as_a_tuple(self, cfg):
        listed = dataclasses.replace(cfg, ris_centers_x_m=[1.5, 2.5, 3.5, 4.5, 5.5])
        assert listed.ris_centers_x_m == (1.5, 2.5, 3.5, 4.5, 5.5)
        assert listed == cfg and hash(listed) == hash(cfg)
        assert loads_config(dumps_config(listed)) == cfg

    def test_replace_holds_numpy_floats_as_floats(self, cfg):
        tweaked = dataclasses.replace(cfg, power_dbm=np.float64(1.5),
                                      ris_centers_x_m=np.array([1.5, 3.5]))
        assert type(tweaked.power_dbm) is float
        assert all(type(center) is float for center in tweaked.ris_centers_x_m)
        assert loads_config(dumps_config(tweaked)) == tweaked

    @settings(max_examples=300, deadline=None)
    @given(key=st.sampled_from([f.name for f in dataclasses.fields(RunConfig)]),
           value=st.one_of(
               st.none(), st.booleans(), st.integers(-3, 200),
               st.floats(-20.0, 20.0), st.sampled_from([math.nan, math.inf, -math.inf]),
               st.floats(-20.0, 20.0).map(np.float64), st.integers(0, 200).map(np.int64),
               st.sampled_from([[1.5, 2.5, 3.5, 4.5, 5.5], [True, 2.5], (2.5, 7.0), ()]),
               st.sampled_from(["ris", "reflector", " ris", "out", "out dir", "a#b",
                                "a #b", "a\nb", "", 5.0])))
    def test_every_accepted_replace_hashes_and_round_trips(self, key, value):
        """Whatever dataclasses.replace accepts hashes and reads back equal
        from its dumped text."""
        try:
            config = dataclasses.replace(default_config(), **{key: value})
        except (ConfigError, TypeError):
            return
        hash(config)
        assert loads_config(dumps_config(config)) == config


class TestDumpOrder:
    def test_sections_and_keys_in_the_packaged_file_order(self):
        """dumps_config writes sections and keys in the order of
        default_scenario.cfg, both as configparser reads them."""
        def order(text):
            parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                               interpolation=None)
            parser.read_string(text)
            return [(name, list(parser[name])) for name in parser.sections()]

        packaged = resources.files("rispeb").joinpath(DEFAULT_CONFIG_RESOURCE).read_text(
            encoding="utf-8")
        assert order(dumps_config(default_config())) == order(packaged)
        assert [name for name, _ in order(packaged)] == ["scene", "waveform", "grid", "run"]


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
        with pytest.raises(ConfigError, match=r"^run\.cfg: missing key grid\.nx$"):
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

    @pytest.mark.parametrize("overrides, message", [
        ({"k_bar": 1.5}, "run.k_bar must be an integer"),
        ({"k_bar": True}, "run.k_bar must be an integer"),
        ({"workers": 2.5}, "run.workers must be an integer"),
        ({"workers": True}, "run.workers must be an integer"),
        ({"ris_centers_x_m": (), "ris_elements": 1.5}, "scene.ris_elements must be an integer"),
        ({"ris_centers_x_m": (), "ris_elements": True}, "scene.ris_elements must be an integer"),
        ({"peb_cap_m": True}, "run.peb_cap_m: expected a number, got True"),
        ({"power_dbm": True}, "waveform.power_dbm: expected a number, got True"),
        ({"ris_centers_x_m": (True, 2.5)}, "scene.ris_centers_x_m: expected a number, got True"),
        ({"out_dir": 5}, "run.out_dir: expected one line of text, got 5"),
        ({"k_bar": "2"}, "run.k_bar must be an integer"),
        ({"nx": 10.0}, "grid.nx must be an integer"),
        ({"ny": True}, "grid.ny must be an integer"),
        ({"subcarrier_count": 32.0}, "waveform.subcarrier_count must be an integer"),
    ], ids=["k_bar_float", "k_bar_bool", "workers_float", "workers_bool", "ris_elements_float",
            "ris_elements_bool", "peb_cap_bool", "power_bool", "center_bool", "out_dir_number",
            "k_bar_str", "nx_float", "ny_bool", "subcarrier_count_float"])
    def test_replace_rejects_what_a_file_cannot_hold(self, overrides, message):
        """Counts are integers and numbers are not bools; neither waits for
        a selection or a sweep to fail, and every message names its key."""
        with pytest.raises(ConfigError) as caught:
            dataclasses.replace(default_config(), **overrides)
        assert str(caught.value) == message

    @pytest.mark.parametrize("overrides, key", [
        ({"bandwidth_hz": 0.0}, "waveform.bandwidth_hz"),
        ({"carrier_hz": -1.0}, "waveform.carrier_hz"),
        ({"subcarrier_count": 128}, "waveform.subcarrier_count"),
        ({"nx": 1}, "grid.nx"),
        ({"wall_offset_m": -1.0}, "scene.wall_offset_m"),
        ({"reflector_gamma": 2.0}, "scene.reflector_gamma"),
        ({"reflector_h1_m": 7.0}, "scene.reflector_h1_m"),
        ({"scatter_rcs_m2": -1.0}, "scene.scatter_rcs_m2"),
        ({"x_max_m": -10.0}, "grid.x_max_m"),
        ({"y_min_m": 9.8}, "grid.y_min_m"),
        ({"ris_centers_x_m": (1.0, 2.0, 4.0)}, "scene.ris_centers_x_m"),
        ({"ris_centers_x_m": (2.0, 1.0)}, "scene.ris_centers_x_m"),
        ({"power_dbm": -4000.0}, "waveform.power_dbm"),
    ], ids=["zero_bandwidth", "negative_carrier", "even_subcarrier_count", "one_sample",
            "negative_wall", "gamma_above_one", "h1_above_h2", "negative_rcs", "x_max_below_min",
            "y_min_above_max", "uneven_centers", "decreasing_centers", "power_underflow"])
    def test_model_errors_name_their_key(self, overrides, key):
        """A value the model objects refuse, not RunConfig's own checks,
        names its key too, in a file's error as in an override's."""
        with pytest.raises(ConfigError) as caught:
            dataclasses.replace(default_config(), **overrides)
        assert key in str(caught.value)
        text = dumps_config(default_config())
        for name, value in overrides.items():
            value = ", ".join(map(str, value)) if isinstance(value, tuple) else value
            text = re.sub(rf"(?m)^{name} = .*$", f"{name} = {value}", text)
        with pytest.raises(ConfigError) as caught:
            loads_config(text, source="bad.cfg")
        assert str(caught.value).startswith("bad.cfg: ") and key in str(caught.value)

    @pytest.mark.parametrize("build, rule", [
        (lambda: Scene(wall_offset=-1.0), "wall offset must be positive and finite"),
        (lambda: ReflectorDescriptor(h1=7.0, h2=6.0, gamma=0.3), "reflector needs finite h1 < h2"),
        (lambda: ReflectorDescriptor(h1=1.0, h2=6.0, gamma=2.0),
         "reflection coefficient must lie in [0, 1]"),
        (lambda: GridSpec(x_range=(0.0, -10.0), y_range=(0.5, 9.5), nx=2, ny=2),
         "x_max must exceed x_min"),
        (lambda: WaveformConfig(carrier_hz=28e9, bandwidth_hz=1e8, subcarrier_count=129,
                                tx_power_w=0.0), "tx_power_w must be positive and finite"),
    ], ids=["wall", "h1_above_h2", "gamma", "x_range", "power"])
    def test_model_errors_state_their_rule(self, build, rule):
        """A library caller, who sets the model objects' fields, reads the
        rule in the model's own terms."""
        with pytest.raises(ValueError) as caught:
            build()
        assert str(caught.value) == rule

    def test_integer_keys_are_held_as_ints(self):
        """A numpy integer is held as the int a file would give."""
        config = dataclasses.replace(default_config(), k_bar=np.int64(2), nx=np.int32(10))
        assert type(config.k_bar) is int and type(config.nx) is int
        assert config == dataclasses.replace(default_config(), k_bar=2, nx=10)

    def test_empty_out_dir_is_rejected(self):
        """A sweep would compute its whole map before failing to write it."""
        with pytest.raises(ConfigError, match=r"^run\.out_dir must not be empty$"):
            dataclasses.replace(default_config(), out_dir="")
        with pytest.raises(ConfigError, match=r"^run\.cfg: run\.out_dir must not be empty$"):
            loads_config(broken(replace_key="out_dir", value=""), source="run.cfg")

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

    @pytest.mark.parametrize("overrides, message", [
        ({"wall_offset_m": None}, "missing key scene.wall_offset_m"),
        ({"carrier_hz": None}, "missing key waveform.carrier_hz"),
        ({"reflector_h1_m": None}, "section [scene] sets reflector_h2_m but not reflector_h1_m"),
        ({"scatter_rcs_m2": None}, "section [scene] sets scatter_x_m but not scatter_rcs_m2"),
        ({"scatter_x_m": None, "scatter_rcs_m2": None, "reflector_gamma": None},
         "section [scene] sets reflector_h1_m but not reflector_gamma"),
    ])
    def test_replace_checks_presence(self, overrides, message):
        """dataclasses.replace applies a file's presence rules: every key
        set, each optional group whole or left out."""
        with pytest.raises(ConfigError) as caught:
            dataclasses.replace(default_config(), **overrides)
        assert str(caught.value) == message

    def test_unknown_section_names_it(self):
        text = dumps_config(default_config()) + "\n[notes]\nauthor = someone\n"
        with pytest.raises(ConfigError, match=r"^run\.cfg: unknown section \[notes\]$"):
            loads_config(text, source="run.cfg")

    def test_grid_reaching_wall(self):
        with pytest.raises(ConfigError, match="below the wall"):
            loads_config(broken(replace_key="y_max_m", value="10.0"))

    def test_partial_optional_group(self):
        for dropped, message in (
                ("reflector_h2_m", "sets reflector_h1_m but not reflector_h2_m$"),
                ("scatter_rcs_m2", "sets scatter_x_m but not scatter_rcs_m2$")):
            with pytest.raises(ConfigError, match=r"^run\.cfg: section \[scene\] " + message):
                loads_config(broken(drop_key=dropped), source="run.cfg")

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


class TestRisElements:
    """The element count is checked whether or not the scene has surfaces."""

    @pytest.mark.parametrize("centers", [(), (1.5, 2.5)], ids=["no_ris", "two_ris"])
    @pytest.mark.parametrize("count", [0, -3])
    def test_replace_rejects_fewer_than_one(self, centers, count):
        with pytest.raises(ConfigError, match=r"^scene\.ris_elements must be at least 1$"):
            dataclasses.replace(default_config(), ris_centers_x_m=centers,
                                ris_elements=count)

    def test_file_without_ris_names_the_key(self):
        text = broken(replace_key="ris_centers_x_m", value="").replace(
            "ris_elements = 100", "ris_elements = 0")
        with pytest.raises(ConfigError, match=r"^run\.cfg: scene\.ris_elements"):
            loads_config(text, source="run.cfg")


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
