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
import numbers
import re
from dataclasses import dataclass, field, fields
from importlib import resources

from .allocation import SelectionConstraints, gap_threshold
from .channel import MODES
from .geometry import ReflectorDescriptor, RisDescriptor, ScatterDescriptor, Scene, _is_integer
from .sweep import GridSpec
from .waveform import WaveformConfig, noise_psd_from_figure

DEFAULT_CONFIG_RESOURCE = "data/default_scenario.cfg"


class ConfigError(ValueError):
    """Invalid, missing, or unknown configuration content."""


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


def _number(value, where: str) -> float:
    """A number key's value as a RunConfig holds it: a finite float, as a
    file would give it. A bool is refused, though it is an int."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{where}: value must be finite, got {value!r}")
    return float(value)


def _held(parse, value, where: str):
    """value as a RunConfig holds the key that parse reads: as a file would
    give it, so that the config hashes and round-trips through
    dumps_config. An integer key refuses a bool, though it is an int."""
    if parse is _parse_int:
        if not _is_integer(value):
            raise ConfigError(f"{where} must be an integer")
        return int(value)
    if parse is _parse_float:
        return _number(value, where)
    if parse is _parse_float_list:
        return tuple(_number(item, where) for item in value)
    if parse is _parse_text and not (isinstance(value, str) and value == value.strip()
                                     and len(value.splitlines()) <= 1
                                     and not re.search(r"\s#", value)):
        # A file would not read it back the same.
        raise ConfigError(f"{where}: expected one line of text, got {value!r}")
    return value


def _key(section: str, parse, group: str | None = None):
    """A RunConfig field: the key of its name in [section], read by parse."""
    return field(metadata={"section": section, "parse": parse, "group": group})


@dataclass(frozen=True)
class RunConfig:
    """Complete description of one run: scene, waveform, grid, and task.

    Stores boundary units as given (dBm, dB). Construction checks that
    every key is set and each optional group set whole or left out (None),
    holds integer keys as ints, number keys as floats and the RIS centers
    as a tuple of them, then builds and validates the model objects in SI
    units once (ConfigError); scene()/waveform()/grid()/
    selection_constraints() return them, the same objects on every call.
    dataclasses.replace constructs anew, so it checks an override as
    loads_config checks a file, and what it accepts hashes and
    round-trips through dumps_config.

    The fields are the file's keys in its order. Each names its section,
    parser and optional group (set whole or left out) in its metadata.
    """

    wall_offset_m: float = _key("scene", _parse_float)
    ris_centers_x_m: tuple[float, ...] = _key("scene", _parse_float_list)
    ris_elements: int = _key("scene", _parse_int)
    reflector_h1_m: float | None = _key("scene", _parse_float, "reflector")
    reflector_h2_m: float | None = _key("scene", _parse_float, "reflector")
    reflector_gamma: float | None = _key("scene", _parse_float, "reflector")
    scatter_x_m: float | None = _key("scene", _parse_float, "scatter")
    scatter_rcs_m2: float | None = _key("scene", _parse_float, "scatter")
    carrier_hz: float = _key("waveform", _parse_float)
    bandwidth_hz: float = _key("waveform", _parse_float)
    subcarrier_count: int = _key("waveform", _parse_int)
    power_dbm: float = _key("waveform", _parse_float)
    noise_figure_db: float = _key("waveform", _parse_float)
    x_min_m: float = _key("grid", _parse_float)
    x_max_m: float = _key("grid", _parse_float)
    y_min_m: float = _key("grid", _parse_float)
    y_max_m: float = _key("grid", _parse_float)
    nx: int = _key("grid", _parse_int)
    ny: int = _key("grid", _parse_int)
    mode: str = _key("run", _parse_text)
    k_bar: int = _key("run", _parse_int)
    peb_cap_m: float = _key("run", _parse_float)
    workers: int = _key("run", _parse_int)
    out_dir: str = _key("run", _parse_text)

    def __post_init__(self):
        for name, entries in _SCHEMA.items():
            groups = {}
            for key, parse, group in entries:
                value = getattr(self, key)
                if group is not None:
                    groups.setdefault(group, []).append(key)
                elif value is None:
                    raise ConfigError(f"missing key {name}.{key}")
                if value is not None:
                    object.__setattr__(self, key, _held(parse, value, f"{name}.{key}"))
            for keys in groups.values():
                present = [key for key in keys if getattr(self, key) is not None]
                if present and present != keys:
                    missing = ", ".join(sorted(set(keys) - set(present)))
                    raise ConfigError(f"section [{name}] sets {present[0]} but not {missing}")
        if self.mode not in MODES:
            raise ConfigError(f"run.mode: expected one of {', '.join(MODES)}, "
                              f"got {self.mode!r}")
        if not self.out_dir:
            # A sweep would compute its map before failing to write it.
            raise ConfigError("run.out_dir must not be empty")
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
        if self.ris_elements < 1:
            raise ConfigError("scene.ris_elements must be at least 1")
        try:
            models = self._build()
        except ValueError as exc:
            # The model's message names what a key sets by that key.
            raise ConfigError(_MODEL_TERM.sub(lambda term: _KEY_OF[term[0]], str(exc))) from None
        scene, _, grid, _ = models
        if grid.y_range[1] >= scene.wall_offset:
            raise ConfigError("grid.y_max_m must lie below the wall")
        # Kept, not fields: the accessors hand out these objects, so a
        # config builds each once and cache keys holding them compare by
        # identity first.
        object.__setattr__(self, "_models", models)

    def scene(self) -> Scene:
        return self._models[0]

    def waveform(self) -> WaveformConfig:
        return self._models[1]

    def grid(self) -> GridSpec:
        return self._models[2]

    def selection_constraints(self) -> SelectionConstraints:
        return self._models[3]

    def _build(self) -> tuple[Scene, WaveformConfig, GridSpec, SelectionConstraints]:
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
        scene = Scene(wall_offset=self.wall_offset_m, ris=ris,
                      reflector=reflector, scatterer=scatterer)
        waveform = WaveformConfig(
            carrier_hz=self.carrier_hz,
            bandwidth_hz=self.bandwidth_hz,
            subcarrier_count=self.subcarrier_count,
            tx_power_w=1e-3 * 10.0 ** (self.power_dbm / 10.0),
            noise_psd_w_hz=noise_psd_from_figure(self.noise_figure_db),
        )
        grid = GridSpec(x_range=(self.x_min_m, self.x_max_m),
                        y_range=(self.y_min_m, self.y_max_m),
                        nx=self.nx, ny=self.ny)
        constraints = SelectionConstraints(k_bar=self.k_bar,
                                           min_gap=gap_threshold(scene, waveform))
        return scene, waveform, grid, constraints


# Section -> [(key, parser, group)], in RunConfig's field order: the file's.
_SCHEMA: dict[str, list[tuple]] = {}
for _field in fields(RunConfig):
    _SCHEMA.setdefault(_field.metadata["section"], []).append(
        (_field.name, _field.metadata["parse"], _field.metadata["group"]))

# What the model objects' messages call the quantity a key sets, by the
# key in full: every key's own name, and the model's own terms for the
# keys it names otherwise. The power is a key in dBm but a field in W.
_KEY_OF = {key: f"{name}.{key}" for name, entries in _SCHEMA.items() for key, _, _ in entries}
_KEY_OF.update({
    "wall offset": "scene.wall_offset_m", "RIS centers": "scene.ris_centers_x_m",
    "h1": "scene.reflector_h1_m", "h2": "scene.reflector_h2_m",
    "reflection coefficient": "scene.reflector_gamma",
    "radar cross section": "scene.scatter_rcs_m2",
    "tx_power_w": "waveform.power_dbm, in W,",
    **{f"{axis}_{end}": f"grid.{axis}_{end}_m" for axis in "xy" for end in ("min", "max")},
})
_MODEL_TERM = re.compile(r"\b(?:" + "|".join(map(re.escape, _KEY_OF)) + r")\b")


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

    for name in parser.sections():
        if name not in _SCHEMA:
            raise ConfigError(f"{source}: unknown section [{name}]")
    sections = {}
    for name, entries in _SCHEMA.items():
        if not parser.has_section(name):
            raise ConfigError(f"{source}: missing section [{name}]")
        items = sections[name] = dict(parser.items(name))
        known = [key for key, _, _ in entries]
        for key in items:
            if key not in known:
                raise ConfigError(f"{source}: unknown key {name}.{key}")

    # Absent keys are None: RunConfig reports the missing ones.
    values = {
        key: parse(sections[name][key], f"{source}: {name}.{key}")
        if key in sections[name] else None
        for name, entries in _SCHEMA.items() for key, parse, _ in entries
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
    # str of a float is its repr, which reparses to the same float.
    return ", ".join(map(str, value)) if isinstance(value, tuple) else str(value)


def dumps_config(config: RunConfig) -> str:
    """Render a config as text that reparses to an identical RunConfig.

    Keys of an optional group that is not set are left out.
    """
    lines = []
    for name, entries in _SCHEMA.items():
        lines.append(f"[{name}]")
        for key, _, _ in entries:
            value = getattr(config, key)
            if value is not None:
                lines.append(f"{key} = {_fmt_value(value)}")
        lines.append("")
    return "\n".join(lines)


def dump_config(config: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(dumps_config(config))
