"""Command-line front end: point analysis, grid sweeps, selection, checks.

All diagnostics go to stderr; reports go to stdout and CSV files go to the
output directory, so runs compose cleanly in shell pipelines. Exit code 0
means no errors; 1 means a validation tolerance was violated; 2 means bad
input (config, arguments, degenerate position, unwritable output).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .allocation import ChosenBound, select_ris
from .channel import MODES, build_pathset
from .checks import CHECKS
from .config import _PARSE_CACHE_SIZE, ConfigError, RunConfig, default_config, load_config
from .fim import count_resolvable_paths, fim_total, peb
from .geometry import SPEED_OF_LIGHT
from .sweep import peb_cdf, peb_map, write_cdf_csv, write_map_csv

_VALIDATE_SEED = 20260819


def _amplitude_db(magnitude: float) -> float:
    if magnitude <= 0.0:
        return -math.inf
    return 20.0 * math.log10(magnitude)


def _load(args) -> RunConfig:
    """The configured run (args.config's file, read on every call, or
    the packaged scenario) with the command-line overrides applied.

    The replacement validates them as a config file would be, and is
    kept: a process that repeats a query gets the same RunConfig, with
    the same scene and waveform, for the same base config and overrides.
    An override that fails raises on every call, and an edited file is a
    new base config.
    """
    config = load_config(args.config) if args.config else default_config()
    overrides = tuple((key, value) for key, value in (
        ("mode", args.mode), ("k_bar", args.kbar),
        ("bandwidth_hz", args.bandwidth), ("out_dir", args.out),
    ) if value is not None)
    return _override(config, overrides) if overrides else config


@functools.lru_cache(maxsize=_PARSE_CACHE_SIZE)
def _override(config: RunConfig, overrides: tuple) -> RunConfig:
    """config with the (key, value) overrides; an exception is never
    cached."""
    return replace(config, **dict(overrides))


def _point_report(config: RunConfig, x) -> str:
    """The report of `rispeb point` at x. In RIS mode the allocation is
    select_ris's, and the chosen pathset, FIM and bound are read from its
    ChosenBound; a bound that is not one has them built afresh, as the
    baseline modes do. The resolvable-path count is computed here."""
    scene = config.scene()
    cfg = config.waveform()
    lines = [f"position_m: {x[0]:.6g}, {x[1]:.6g}", f"mode: {config.mode}"]
    allocation = bound = None
    if config.mode == "ris":
        allocation, bound = select_ris(scene, x, cfg, config.selection_constraints())
        lines.append(f"allocation_bits: {allocation.bits}")
    if isinstance(bound, ChosenBound):
        paths, total, bound = bound.paths, bound.total, bound.value
    else:
        paths = build_pathset(scene, allocation, x, cfg, config.mode)
        total, bound = fim_total(paths, cfg), None
    # Plain floats format as the numpy scalars of Path views would, faster.
    for kind, index, tau, mag in zip(paths.kinds, paths.indices, paths.tau.tolist(),
                                     np.abs(paths.alpha).tolist()):
        label = kind if index is None else f"{kind}[{index}]"
        lines.append(
            f"path {label}: delay {tau * 1e9:.6g} ns"
            f" ({tau * SPEED_OF_LIGHT:.6g} m), |gain| {mag:.6g}"
            f" ({_amplitude_db(mag):.2f} dB)"
        )
    count = count_resolvable_paths(paths, cfg)
    lines.append(f"resolvable_paths: {count} of {len(paths)}")
    (a, b), (c, d) = total.tolist()
    lines.append(f"fim_m2: [[{a:.9g}, {b:.9g}], [{c:.9g}, {d:.9g}]]")
    if count <= 1:
        lines.append("peb_m: inf  # single resolvable delay, no unique fix")
    else:
        lines.append(f"peb_m: {peb(total).value if bound is None else bound:.9g}")
    return "\n".join(lines)


def cmd_point(config: RunConfig, x) -> int:
    print(_point_report(config, x))
    return 0


def cmd_select(config: RunConfig, x) -> int:
    if config.mode != "ris":
        raise ConfigError("select requires mode = ris")
    scene = config.scene()
    cfg = config.waveform()
    constraints = config.selection_constraints()
    allocation, value = select_ris(scene, x, cfg, constraints)
    print(f"allocation_bits: {allocation.bits}")
    print(f"active_count: {sum(allocation.active)} (budget {constraints.k_bar})")
    print(f"peb_m: {value.value:.9g}")
    return 0


def cmd_sweep(config: RunConfig) -> int:
    scene = config.scene()
    cfg = config.waveform()
    constraints = config.selection_constraints() if config.mode == "ris" else None
    result = peb_map(scene, config.grid(), cfg, config.mode, constraints,
                     cap=config.peb_cap_m, workers=config.workers)
    os.makedirs(config.out_dir, exist_ok=True)
    map_path = os.path.join(config.out_dir, f"peb_map_{config.mode}.csv")
    cdf_path = os.path.join(config.out_dir, f"peb_cdf_{config.mode}.csv")
    write_map_csv(result, map_path)
    write_cdf_csv(peb_cdf(result), cdf_path)
    print(f"wrote {map_path}", file=sys.stderr)
    print(f"wrote {cdf_path}", file=sys.stderr)
    return 0


def cmd_validate(config: RunConfig) -> int:
    rng = np.random.default_rng(_VALIDATE_SEED)
    failures = 0
    for name, check, tol in CHECKS:
        worst = check(config, rng)
        status = "ok" if worst <= tol else "FAIL"
        failures += status == "FAIL"
        print(f"check {name}: {status} (worst {worst:.3g}, tolerance {tol:g})")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a run configuration file")
    common.add_argument("--mode", choices=MODES,
                        help="override the configured mode")
    common.add_argument("--kbar", type=int,
                        help="override the activation budget")
    common.add_argument("--bandwidth", type=float,
                        help="override the bandwidth in Hz")
    common.add_argument("--out", help="override the output directory")

    parser = argparse.ArgumentParser(
        prog="rispeb",
        description="Position error bounds for RIS-aided downlink "
                    "localization",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_point = sub.add_parser("point", parents=[common],
                             help="analyze a single user position")
    p_point.add_argument("x", type=float)
    p_point.add_argument("y", type=float)
    p_select = sub.add_parser("select", parents=[common],
                              help="pick the best RIS activation at a point")
    p_select.add_argument("x", type=float)
    p_select.add_argument("y", type=float)
    sub.add_parser("sweep", parents=[common],
                   help="run a grid sweep and write map/CDF CSV files")
    sub.add_parser("validate", parents=[common],
                   help="run internal consistency checks")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built on the first call of main in a process
    and reused: parsing leaves no state in it."""
    return build_parser()


@functools.cache
def _commands() -> dict[str, argparse.ArgumentParser]:
    """_parser's subparsers, by command name."""
    return next(action.choices for action in _parser()._actions
                if isinstance(action, argparse._SubParsersAction))


def _parse(argv) -> argparse.Namespace:
    """argv parsed as _parser().parse_args parses it, in one pass when
    argv starts with a command: the top-level pass would hand every word
    after it to that command's subparser unread. Any other argv, and one
    that leaves words over, gets the full pass, whose help and errors
    are the ones a shell sees."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _commands().get(argv[0]) if argv else None
    if parser is not None:
        args, extra = parser.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extra:
            return args
    return _parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        config = _load(args)
        if args.command == "point":
            return cmd_point(config, np.array([args.x, args.y]))
        if args.command == "select":
            return cmd_select(config, np.array([args.x, args.y]))
        if args.command == "sweep":
            return cmd_sweep(config)
        return cmd_validate(config)
    # ConfigError and DegeneratePositionError are ValueErrors.
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
