"""Run configuration: flat INI-style files with explicit units in key names.

Every physical quantity carries its unit in the key name (bandwidth_hz,
power_dbm) because unit slips are the dominant failure mode in this kind
of link-budget code. dBm/dB values are converted to SI exactly once, when
the model objects are built. A bundled default_scenario.cfg encodes the
reference experiment scenario.
"""

from __future__ import annotations

import configparser
import functools
import math
from dataclasses import dataclass
from importlib import resources

from .allocation import SelectionConstraints, gap_threshold
from .channel import MODES
from .geometry import ReflectorDescriptor, RisDescriptor, ScatterDescriptor, Scene
from .sweep import GridSpec
from .waveform import WaveformConfig, noise_psd_from_figure

DEFAULT_CONFIG_RESOURCE = "data/default_scenario.cfg"


class ConfigError(ValueError):
    """Invalid, missing, or unknown configuration content."""


@dataclass(frozen=True)
class RunConfig:
    """Complete description of one run: scene, waveform, grid, and task.

    Stores boundary units as given (dBm, dB); scene()/waveform()/grid()
    build the validated model objects in SI units. Construction validates
    (ConfigError), so dataclasses.replace checks an override as loads_config
    checks a file.
    """

    wall_offset_m: float
    ris_centers_x_m: tuple[float, ...]
    ris_elements: int
    reflector_h1_m: float | None
    reflector_h2_m: float | None
    reflector_gamma: float | None
    scatter_x_m: float | None
    scatter_rcs_m2: float | None
    carrier_hz: float
    bandwidth_hz: float
    subcarrier_count: int
    power_dbm: float
    noise_figure_db: float
    x_min_m: float
    x_max_m: float
    y_min_m: float
    y_max_m: float
    nx: int
    ny: int
    mode: str
    k_bar: int
    peb_cap_m: float
    workers: int
    out_dir: str

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"run.mode: expected one of {', '.join(MODES)}, "
                              f"got {self.mode!r}")
        if self.k_bar < 0:
            raise ConfigError("run.k_bar must be nonnegative")
        if self.workers < 1:
            raise ConfigError("run.workers must be at least 1")
        if not 0.0 < self.peb_cap_m < math.inf:
            raise ConfigError("run.peb_cap_m must be positive and finite")
        if not self.noise_figure_db >= 0.0:
            raise ConfigError("waveform.noise_figure_db must be >= 0")
        for key in ("power_dbm", "noise_figure_db"):
            try:
                10.0 ** (getattr(self, key) / 10.0)
            except OverflowError:
                raise ConfigError(f"waveform.{key} overflows a float in linear units") from None
        try:
            scene = self.scene()
            self.waveform()
            grid = self.grid()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if grid.y_range[1] >= scene.wall_offset:
            raise ConfigError("grid.y_max_m must lie below the wall")

    def scene(self) -> Scene:
        ris = tuple(
            RisDescriptor(center_x=cx, element_count=self.ris_elements)
            for cx in self.ris_centers_x_m
        )
        reflector = None
        if self.reflector_gamma is not None:
            reflector = ReflectorDescriptor(
                h1=self.reflector_h1_m, h2=self.reflector_h2_m,
                gamma=self.reflector_gamma,
            )
        scatterer = None
        if self.scatter_rcs_m2 is not None:
            scatterer = ScatterDescriptor(
                x=self.scatter_x_m, rcs=self.scatter_rcs_m2,
            )
        return Scene(wall_offset=self.wall_offset_m, ris=ris,
                     reflector=reflector, scatterer=scatterer)

    def waveform(self) -> WaveformConfig:
        return WaveformConfig(
            carrier_hz=self.carrier_hz,
            bandwidth_hz=self.bandwidth_hz,
            subcarrier_count=self.subcarrier_count,
            tx_power_w=1e-3 * 10.0 ** (self.power_dbm / 10.0),
            noise_psd_w_hz=noise_psd_from_figure(self.noise_figure_db),
        )

    def grid(self) -> GridSpec:
        return GridSpec(x_range=(self.x_min_m, self.x_max_m),
                        y_range=(self.y_min_m, self.y_max_m),
                        nx=self.nx, ny=self.ny)

    def selection_constraints(self) -> SelectionConstraints:
        return SelectionConstraints(
            k_bar=self.k_bar,
            min_gap=gap_threshold(self.scene(), self.waveform()),
            peb_cap=self.peb_cap_m,
        )


def _parse_float(raw: str, where: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where}: value must be finite, got {raw!r}")
    return value


def _parse_int(raw: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected an integer, got {raw!r}") from None


def _parse_float_list(raw: str, where: str) -> tuple[float, ...]:
    """Comma-separated numbers. An empty value is the empty tuple; an empty
    item among others is an error, not a dropped entry."""
    if not raw.strip():
        return ()
    items = [item.strip() for item in raw.split(",")]
    if not all(items):
        raise ConfigError(f"{where}: empty item in {raw!r}")
    return tuple(_parse_float(item, where) for item in items)


def _parse_text(raw: str, where: str) -> str:
    return raw.strip()


# Every key of every section in file order, with its parser and, for keys
# that may be left out, the optional group they belong to: a group is set
# entirely or not at all.
_SCHEMA = {
    "scene": (
        ("wall_offset_m", _parse_float, None),
        ("ris_centers_x_m", _parse_float_list, None),
        ("ris_elements", _parse_int, None),
        ("reflector_h1_m", _parse_float, "reflector"),
        ("reflector_h2_m", _parse_float, "reflector"),
        ("reflector_gamma", _parse_float, "reflector"),
        ("scatter_x_m", _parse_float, "scatter"),
        ("scatter_rcs_m2", _parse_float, "scatter"),
    ),
    "waveform": (
        ("carrier_hz", _parse_float, None),
        ("bandwidth_hz", _parse_float, None),
        ("subcarrier_count", _parse_int, None),
        ("power_dbm", _parse_float, None),
        ("noise_figure_db", _parse_float, None),
    ),
    "grid": (
        ("x_min_m", _parse_float, None),
        ("x_max_m", _parse_float, None),
        ("y_min_m", _parse_float, None),
        ("y_max_m", _parse_float, None),
        ("nx", _parse_int, None),
        ("ny", _parse_int, None),
    ),
    "run": (
        ("mode", _parse_text, None),
        ("k_bar", _parse_int, None),
        ("peb_cap_m", _parse_float, None),
        ("workers", _parse_int, None),
        ("out_dir", _parse_text, None),
    ),
}


# Distinct (text, source) pairs whose parse a process keeps. A program that
# queries a few files over and over finds them here; one that walks many
# files keeps only the latest.
_PARSE_CACHE_SIZE = 32


def loads_config(text: str, source: str = "<string>") -> RunConfig:
    """Parse configuration text; errors name the offending section.key.

    A plain function around the cached parse, so that perfbench's tracer,
    which wraps functions, still counts calls. A RunConfig is frozen, so
    calls with equal text and source share one; an exception is never
    cached, so an error names the source of every call that raises it.
    """
    return _parse(text, source)


@functools.lru_cache(maxsize=_PARSE_CACHE_SIZE)
def _parse(text: str, source: str) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       interpolation=None)
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None

    sections = {}
    for name, fields in _SCHEMA.items():
        if not parser.has_section(name):
            raise ConfigError(f"{source}: missing section [{name}]")
        items = sections[name] = dict(parser.items(name))
        known = [key for key, _, _ in fields]
        for key in items:
            if key not in known:
                raise ConfigError(f"{source}: unknown key {name}.{key}")
        groups = {}
        for key, _, group in fields:
            if group is None and key not in items:
                raise ConfigError(f"{source}: missing key {name}.{key}")
            if group is not None:
                groups.setdefault(group, []).append(key)
        for keys in groups.values():
            present = [key for key in keys if key in items]
            if present and present != keys:
                missing = ", ".join(sorted(set(keys) - set(present)))
                raise ConfigError(f"{source}: section [{name}] sets "
                                  f"{present[0]} but not {missing}")

    values = {
        key: parse(sections[name][key], f"{source}: {name}.{key}")
        if key in sections[name] else None
        for name, fields in _SCHEMA.items() for key, parse, _ in fields
    }
    try:
        return RunConfig(**values)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def load_config(path) -> RunConfig:
    """Read the file on every call; its text is parsed only when it is new
    to the process, so an edited file takes effect on its next load."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads_config(fh.read(), source=str(path))


def default_config() -> RunConfig:
    """The packaged scenario. A plain function around the cached parse, so
    that perfbench's tracer, which wraps functions, still counts calls."""
    return _packaged_default()


@functools.cache
def _packaged_default() -> RunConfig:
    """The packaged scenario, parsed once per process: it is package data,
    and a RunConfig is frozen, so every caller can share it."""
    ref = resources.files("rispeb").joinpath(DEFAULT_CONFIG_RESOURCE)
    return loads_config(ref.read_text(encoding="utf-8"),
                        source=DEFAULT_CONFIG_RESOURCE)


def _fmt_value(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(repr(item) for item in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def dumps_config(config: RunConfig) -> str:
    """Render a config as text that reparses to an identical RunConfig.

    Keys of an optional group that is not set are left out.
    """
    lines = []
    for name, fields in _SCHEMA.items():
        lines.append(f"[{name}]")
        for key, _, _ in fields:
            value = getattr(config, key)
            if value is not None:
                lines.append(f"{key} = {_fmt_value(value)}")
        lines.append("")
    return "\n".join(lines)


def dump_config(config: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(dumps_config(config))
