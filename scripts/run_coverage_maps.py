#!/usr/bin/env python3
"""Produce the full map/CDF experiment family for all three modes.

Writes, per mode, a position-error-bound map and its region CDF; plus
RIS-mode resolvable-path-count maps at 100 MHz and at 1 GHz, whatever
the configured bandwidth. Prints a coverage summary table and how many cells of the RIS
map chose each allocation bit pattern. All outputs are CSV files under
the configured output directory.
"""

import argparse
import collections
import dataclasses
import os
import sys

from rispeb.channel import MODES
from rispeb.config import default_config, load_config
from rispeb.sweep import (
    path_count_map,
    peb_cdf,
    peb_map,
    write_cdf_csv,
    write_map_csv,
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", help="run configuration file "
                                     "(default: packaged scenario)")
    ap.add_argument("--out", help="output directory override")
    ap.add_argument("--workers", type=int, help="parallel workers override")
    args = ap.parse_args(argv)
    # Bad input (ConfigError is a ValueError) exits 2, as rispeb's does.
    try:
        return run(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run(args) -> int:
    config = load_config(args.config) if args.config else default_config()
    # The replacement validates the overrides (ConfigError on a bad one).
    config = dataclasses.replace(config, **{key: value for key, value in (
        ("out_dir", args.out), ("workers", args.workers)) if value is not None})

    scene, wave, grid = config.scene(), config.waveform(), config.grid()
    os.makedirs(config.out_dir, exist_ok=True)

    print(f"{'mode':<10} {'<=1.0 m':>8} {'<=2.5 m':>8} {'finite':>8}")
    patterns = collections.Counter()
    for mode in MODES:
        constraints = config.selection_constraints() if mode == "ris" else None
        result = peb_map(scene, grid, wave, mode, constraints,
                         cap=config.peb_cap_m, workers=config.workers)
        cdf = peb_cdf(result)
        map_path = os.path.join(config.out_dir, f"peb_map_{mode}.csv")
        cdf_path = os.path.join(config.out_dir, f"peb_cdf_{mode}.csv")
        write_map_csv(result, map_path)
        write_cdf_csv(cdf, cdf_path)
        print(f"{mode:<10} {cdf.coverage(1.0):>8.3f} {cdf.coverage(2.5):>8.3f}"
              f" {cdf.finite_fraction:>8.3f}")
        print(f"wrote {map_path}", file=sys.stderr)
        print(f"wrote {cdf_path}", file=sys.stderr)
        if mode == "ris":
            patterns.update(result.allocation_bits.ravel())

    print("ris allocation bits: " + ", ".join(
        f"{bits or 'none'} {count}" for bits, count in sorted(patterns.items())))

    for label, bandwidth in (("100MHz", 1e8), ("1GHz", 1e9)):
        counts = path_count_map(
            scene, grid, dataclasses.replace(wave, bandwidth_hz=bandwidth),
            "ris", workers=config.workers)
        count_path = os.path.join(config.out_dir,
                                  f"path_count_map_{label}.csv")
        write_map_csv(counts, count_path)
        print(f"max resolvable paths at {label}: {counts.max_path_count}")
        print(f"wrote {count_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
