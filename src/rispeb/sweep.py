"""Grid sweeps over candidate user positions.

Produces the four output families used in the experiments: resolvable-path
maps, position-error-bound maps, empirical CDFs over a deployment region,
and per-path information directions at a single point. Cells are evaluated
independently (optionally in parallel) and gathered by index, so serial
and parallel runs emit identical bytes.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .allocation import SelectionConstraints, build_allocation, select_ris
from .channel import MODES, build_pathset
from .fim import count_resolvable_paths, fim_total, peb
from .geometry import DegeneratePositionError, Scene
from .waveform import WaveformConfig, delay_kernel_peak

DEFAULT_PEB_CAP = 5.0

FLAG_OK = "ok"
FLAG_CAPPED = "capped"
FLAG_INF = "inf"
FLAG_INVALID = "invalid"

MAP_HEADER = "x,y,peb_m,flag,path_count,allocation_bits"
CDF_HEADER = "peb_m,cdf"


@dataclass(frozen=True)
class GridSpec:
    """Rectangular evaluation grid, inclusive of both range endpoints."""

    x_range: tuple[float, float]
    y_range: tuple[float, float]
    nx: int
    ny: int

    def __post_init__(self):
        for lo, hi in (self.x_range, self.y_range):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("grid ranges must be finite")
            if hi <= lo:
                raise ValueError("grid range max must exceed min")
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid needs at least 2 samples per axis")

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x_range[0], self.x_range[1], self.nx)

    @property
    def ys(self) -> np.ndarray:
        return np.linspace(self.y_range[0], self.y_range[1], self.ny)

    @property
    def cell_count(self) -> int:
        return self.nx * self.ny


@dataclass(frozen=True)
class MapResult:
    """Per-cell sweep output on a grid.

    peb holds raw bound values (may exceed the cap or be infinite); flags
    disambiguate the two unbounded cases: "inf" marks cells where no unique
    position estimate exists or the information matrix is singular, while
    "capped" marks finite bounds beyond the display cap. "invalid" marks
    cells skipped because they coincide with an anchor.
    """

    grid: GridSpec
    mode: str
    peb: np.ndarray
    flags: np.ndarray
    path_count: np.ndarray
    allocation_bits: np.ndarray

    def __post_init__(self):
        shape = (self.grid.nx, self.grid.ny)
        for arr in (self.peb, self.flags, self.path_count, self.allocation_bits):
            if arr.shape != shape:
                raise ValueError("map arrays must match the grid shape")

    @property
    def max_path_count(self) -> int:
        return int(self.path_count.max())


@dataclass(frozen=True)
class CdfResult:
    """Empirical CDF of map values over all grid cells.

    levels are the distinct finite bound values in increasing order and
    fractions[i] is the fraction of all cells (finite or not) with value
    <= levels[i], so infinite and invalid cells sit in the tail mass and
    the final fraction equals the finite fraction of the region.
    """

    levels: np.ndarray
    fractions: np.ndarray
    total_cells: int

    def __post_init__(self):
        if self.levels.shape != self.fractions.shape:
            raise ValueError("levels and fractions must align")
        if np.any(np.diff(self.levels) <= 0.0):
            raise ValueError("levels must be strictly increasing")
        if np.any(np.diff(self.fractions) < 0.0) or (
            self.fractions.size and self.fractions[-1] > 1.0 + 1e-12
        ):
            raise ValueError("fractions must be nondecreasing and at most 1")

    def coverage(self, level: float) -> float:
        """Fraction of all cells with a finite bound at or below level."""
        idx = int(np.searchsorted(self.levels, level, side="right")) - 1
        if idx < 0:
            return 0.0
        return float(self.fractions[idx])

    @property
    def finite_fraction(self) -> float:
        return float(self.fractions[-1]) if self.fractions.size else 0.0


def _evaluate_cell(scene, cfg, mode, constraints, cap, count_only, p):
    """One cell: (peb, flag, resolvable path count, allocation bit string)."""
    try:
        if mode == "ris":
            if constraints is None:
                allocation = build_allocation(scene, p, cfg, (1,) * len(scene.ris))
            else:
                allocation, _ = select_ris(scene, p, cfg, constraints)
            paths = build_pathset(scene, allocation, p, cfg, mode)
            bits = allocation.bits
        else:
            paths = build_pathset(scene, None, p, cfg, mode)
            bits = ""
    except DegeneratePositionError:
        return math.nan, FLAG_INVALID, 0, ""
    count = count_resolvable_paths(paths, cfg)
    if count_only:
        return math.nan, FLAG_OK, count, bits
    if count <= 1:
        # One resolvable delay pins the user to a circle, not a point.
        return math.inf, FLAG_INF, count, bits
    value = peb(fim_total(paths, cfg)).value
    if math.isinf(value):
        return value, FLAG_INF, count, bits
    if value > cap:
        return value, FLAG_CAPPED, count, bits
    return value, FLAG_OK, count, bits


def _sweep(scene, grid, cfg, mode, constraints, cap, workers,
           count_only) -> MapResult:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if grid.y_range[1] >= scene.wall_offset:
        raise ValueError("grid must stay strictly below the wall")
    evaluate = functools.partial(_evaluate_cell, scene, cfg, mode, constraints,
                                 cap, count_only)
    ys = grid.ys
    points = (np.array([x, y]) for x in grid.xs for y in ys)
    if workers is not None and workers > 1:
        # One column of cells per task; results come back in grid order.
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(evaluate, points, chunksize=grid.ny))
    else:
        cells = list(map(evaluate, points))
    values, flags, counts, bits = zip(*cells)
    shape = (grid.nx, grid.ny)
    return MapResult(grid=grid, mode=mode,
                     peb=np.array(values, dtype=float).reshape(shape),
                     flags=np.array(flags, dtype=object).reshape(shape),
                     path_count=np.array(counts, dtype=int).reshape(shape),
                     allocation_bits=np.array(bits, dtype=object).reshape(shape))


def path_count_map(scene: Scene, grid: GridSpec, cfg: WaveformConfig,
                   mode: str, workers: int | None = None) -> MapResult:
    """Resolvable-path count per cell; RIS mode activates every surface
    with phases optimal for the cell."""
    return _sweep(scene, grid, cfg, mode, None, DEFAULT_PEB_CAP, workers,
                  count_only=True)


def peb_map(scene: Scene, grid: GridSpec, cfg: WaveformConfig, mode: str,
            constraints: SelectionConstraints | None = None, *,
            cap: float | None = None, workers: int | None = None) -> MapResult:
    """Position-error-bound map.

    RIS mode runs the activation search per cell with the cell itself as
    the assumed user position when constraints are given, and activates
    every surface otherwise. Baseline modes evaluate their fixed pathset.
    """
    if cap is None:
        cap = constraints.peb_cap if constraints is not None else DEFAULT_PEB_CAP
    return _sweep(scene, grid, cfg, mode, constraints, cap, workers,
                  count_only=False)


def peb_cdf(result: MapResult) -> CdfResult:
    """Empirical CDF over every cell of a bound map."""
    values = result.peb.ravel()
    if values.size == 0:
        raise ValueError("empty map")
    finite = values[np.isfinite(values)]
    levels, counts = np.unique(finite, return_counts=True)
    fractions = np.cumsum(counts) / values.size
    return CdfResult(levels=levels, fractions=fractions,
                     total_cells=int(values.size))


def info_directions(scene: Scene, x, cfg: WaveformConfig, mode: str):
    """Per-path (unit direction, direct information intensity) at x.

    Intensity is |alpha|^2 times the zero-lag delay kernel; zero-gain
    paths (shadowed reflector) are dropped.
    """
    if mode == "ris":
        allocation = build_allocation(scene, x, cfg, (1,) * len(scene.ris))
        paths = build_pathset(scene, allocation, x, cfg, mode)
    else:
        paths = build_pathset(scene, None, x, cfg, mode)
    peak = delay_kernel_peak(cfg)
    return [
        (path.direction.copy(), abs(path.alpha) ** 2 * peak)
        for path in paths
        if path.alpha != 0
    ]


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def write_map_csv(result: MapResult, path) -> None:
    """One row per cell, x-major: x,y,peb_m,flag,path_count,allocation_bits."""
    xs, ys = result.grid.xs, result.grid.ys
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(MAP_HEADER + "\n")
        for ix, x in enumerate(xs):
            for iy, y in enumerate(ys):
                row = (
                    _fmt(float(x)), _fmt(float(y)),
                    _fmt(result.peb[ix, iy]), result.flags[ix, iy],
                    str(result.path_count[ix, iy]),
                    result.allocation_bits[ix, iy],
                )
                fh.write(",".join(row) + "\n")


def write_cdf_csv(cdf: CdfResult, path) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(CDF_HEADER + "\n")
        for level, fraction in zip(cdf.levels, cdf.fractions):
            fh.write(f"{_fmt(float(level))},{_fmt(float(fraction))}\n")
