#!/usr/bin/env python3
"""Per-path information directions at chosen user positions.

For each position and mode, lists every nonzero path's unit direction
(the axis along which that path's delay constrains the position) and its
direct information intensity |gain|^2 * S(0). Geometric dilution is
visible directly: nearly parallel arrows mean a poorly conditioned fix.
Writes one CSV row per arrow.
"""

import argparse
import os
import sys

import numpy as np

from rispeb.channel import MODES
from rispeb.config import default_config, load_config
from rispeb.sweep import info_directions

HEADER = "mode,x,y,arrow,dir_x,dir_y,intensity"
DEFAULT_POINTS = "3.5,5.0;7.0,3.0;-3.0,5.0"


def parse_points(raw: str):
    """The positions of --points; ValueError, naming the item, for one
    that is not two comma-separated numbers."""
    points = []
    for chunk in raw.split(";"):
        try:
            x, y = (float(v) for v in chunk.split(","))
        except ValueError:
            raise ValueError(f"point {chunk!r} is not an x,y pair") from None
        points.append(np.array([x, y]))
    return points


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", help="run configuration file "
                                     "(default: packaged scenario)")
    ap.add_argument("--points", default=DEFAULT_POINTS,
                    help="semicolon-separated x,y pairs "
                         f"(default: {DEFAULT_POINTS})")
    ap.add_argument("--out", help="output directory override")
    args = ap.parse_args(argv)
    # Bad input (ConfigError, DegeneratePositionError and a position above
    # the wall are ValueErrors) exits 2, as rispeb's does.
    try:
        return run(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run(args) -> int:
    config = load_config(args.config) if args.config else default_config()
    out_dir = args.out if args.out is not None else config.out_dir
    scene, wave = config.scene(), config.waveform()
    # Every position is analyzed before the CSV is opened, so bad input
    # writes nothing.
    arrows = [(point, mode, info_directions(scene, point, wave, mode))
              for point in parse_points(args.points) for mode in MODES]

    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, "info_directions.csv")
    with open(out_path, "w", encoding="ascii", newline="") as fh:
        fh.write(HEADER + "\n")
        for point, mode, point_arrows in arrows:
            print(f"({point[0]:g}, {point[1]:g}) {mode}: "
                  f"{len(point_arrows)} arrows")
            for i, (direction, intensity) in enumerate(point_arrows):
                print(f"  arrow {i}: direction ({direction[0]:+.4f}, "
                      f"{direction[1]:+.4f}), intensity {intensity:.6g}")
                fh.write(f"{mode},{point[0]:.9g},{point[1]:.9g},{i},"
                         f"{direction[0]:.9g},{direction[1]:.9g},"
                         f"{intensity:.9g}\n")
    print(f"wrote {out_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
