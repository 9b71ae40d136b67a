"""Grid sweeps over candidate user positions.

Produces the four output families used in the experiments: resolvable-path
maps, position-error-bound maps, empirical CDFs over a deployment region,
and per-path information directions at a single point. The grid is
flattened once into x-major cells, the order of the CSV rows, and each
block of consecutive cells is one batch of the array core (paths, FIM
and bound broadcast over the block's cells, and in RIS mode over the
feasible activation patterns, enumerated once per sweep). A block holds
no more than 8,192 delays (cells x paths), and no more cells than keep
the core's largest array within its entry budget: 4,096 cells of a
baseline map, 1,213 of a k_bar=1 RIS map. Each block also counts its
cells' resolvable paths and flags them, so that it returns finished
cells. Blocks are evaluated in order (optionally in parallel, one block
per task) and gathered by index, so serial and parallel runs emit
identical bytes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .allocation import (_BATCH_ENTRIES, DEFAULT_PEB_CAP, SelectionConstraints, _patterns,
                         _score, build_allocation)
from .channel import MODES, _path_table, build_pathset
from .fim import _AliasedDelays, _count_clusters, fim_total, peb
from .geometry import DegeneratePositionError, Scene
from .waveform import WaveformConfig, delay_kernel_peak

# Delays (cells x paths) at most per block of cells that a sweep
# evaluates and counts. On the 100x100 1 GHz RIS count map the whole grid
# in one block peaks at 4.9 MB of temporaries against 1.5 MB, and one
# column per block takes a fifth more time.
_COUNT_ENTRIES = 8192

FLAG_OK = "ok"
FLAG_CAPPED = "capped"
FLAG_INF = "inf"
FLAG_INVALID = "invalid"
# Flags by the index that blocks return, so that cells share one str per flag.
_FLAGS = np.array([FLAG_OK, FLAG_INVALID, FLAG_INF, FLAG_CAPPED], dtype=object)

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


def _block_cells(scene, mode, patterns) -> int:
    """Cells per block of a sweep: at most _COUNT_ENTRIES delays (cells x
    paths), and where patterns are scored, at most
    allocation._BATCH_ENTRIES entries of the (cells x patterns x paths x
    paths) arrays of the core."""
    paths = len(_path_table(scene, mode).kinds)
    cells = _COUNT_ENTRIES // paths
    if patterns is not None:
        cells = min(cells, _BATCH_ENTRIES // (len(patterns) * paths ** 2))
    return max(1, cells)


def _evaluate_block(scene, cfg, mode, patterns, count_only, cap, points):
    """Finished cells of one block of the grid, as arrays over the rows of
    points: the bound (nan when count_only), the index of the flag in
    _FLAGS, the resolvable-path count and the allocation bit strings.

    The block is one batch of the array core. If a cell coincides with an
    anchor, the block is split in halves, recursively, down to that cell,
    which is invalid: no bound, no path, no bits. A cell whose delays
    alias stops the sweep with a ValueError naming it.
    """
    try:
        values, bits, delays, exists = _evaluate_batch(scene, cfg, mode, patterns,
                                                       count_only, points)
    except DegeneratePositionError:
        if len(points) == 1:
            return np.array([math.nan]), np.array([1]), np.array([0]), np.array([""], dtype=object)
        half = len(points) // 2
        parts = [_evaluate_block(scene, cfg, mode, patterns, count_only, cap, p)
                 for p in (points[:half], points[half:])]
        return tuple(np.concatenate(field) for field in zip(*parts))
    try:
        counts = _count_clusters(delays, exists, cfg)
    except _AliasedDelays as exc:
        # A plain ValueError: _AliasedDelays does not survive pickling
        # back from a worker.
        x, y = points[exc.row]
        raise ValueError(f"cell ({_fmt(x)}, {_fmt(y)}): {exc}") from None
    if count_only:
        return values, np.zeros(len(points), dtype=int), counts, bits
    # One resolvable delay pins the user to a circle, not a point.
    values = np.where(counts <= 1, math.inf, values)
    return values, np.select([np.isinf(values), values > cap], [2, 3], 0), counts, bits


def _evaluate_batch(scene, cfg, mode, patterns, count_only, points):
    """The bounds (nan when count_only), allocation bit strings, path
    delays and whether each path exists (nonzero gain) of cells that
    coincide with no anchor."""
    nan = np.full(len(points), math.nan)
    if mode == "ris" and count_only:
        # Every RIS path has a nonzero gain: the counts need the delays only.
        delays = _path_table(scene, mode).delays(points)[1]
        return (nan, np.array(["1" * len(scene.ris)] * len(points), dtype=object), delays,
                np.ones(delays.shape, dtype=bool))
    if mode == "ris":
        scores, delays, _ = _score(scene, points, cfg, patterns, points)
        best = np.argmin(scores, axis=1)
        names = np.array(["".join(map(str, row)) for row in patterns.astype(int)],
                         dtype=object)
        return (scores[np.arange(len(points)), best], names[best], delays,
                np.ones(delays.shape, dtype=bool))
    paths = build_pathset(scene, None, points, cfg, mode)
    return ((nan if count_only else peb(fim_total(paths, cfg)).value),
            np.array([""] * len(points), dtype=object), paths.tau, paths.alpha != 0)


def _sweep(scene, grid, cfg, mode, constraints, cap, workers,
           count_only) -> MapResult:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if grid.y_range[1] >= scene.wall_offset:
        raise ValueError("grid must stay strictly below the wall")
    patterns = _patterns(len(scene.ris), constraints) if mode == "ris" and not count_only else None
    evaluate = functools.partial(_evaluate_block, scene, cfg, mode, patterns, count_only, cap)
    points = np.stack(np.meshgrid(grid.xs, grid.ys, indexing="ij"), axis=-1).reshape(-1, 2)
    size = _block_cells(scene, mode, patterns)
    blocks = [points[start:start + size] for start in range(0, len(points), size)]
    # A pool starts all its workers at once: start no more than blocks.
    workers = min(workers or 1, len(blocks))
    if workers > 1:
        # Imported here: the pool pulls in multiprocessing, which no other
        # run needs. One block of cells per task; results come back in
        # grid order.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(evaluate, blocks))
    else:
        cells = list(map(evaluate, blocks))
    values, flags, counts, bits = map(np.concatenate, zip(*cells))
    shape = (grid.nx, grid.ny)
    return MapResult(grid=grid, mode=mode, peb=values.reshape(shape),
                     flags=_FLAGS[flags].reshape(shape), path_count=counts.reshape(shape),
                     allocation_bits=bits.reshape(shape))


def path_count_map(scene: Scene, grid: GridSpec, cfg: WaveformConfig,
                   mode: str, workers: int | None = None) -> MapResult:
    """Resolvable-path count per cell; RIS mode activates every surface
    with phases optimal for the cell."""
    return _sweep(scene, grid, cfg, mode, None, DEFAULT_PEB_CAP, workers,
                  count_only=True)


def peb_map(scene: Scene, grid: GridSpec, cfg: WaveformConfig, mode: str,
            constraints: SelectionConstraints | None = None, *,
            cap: float = DEFAULT_PEB_CAP, workers: int | None = None) -> MapResult:
    """Position-error-bound map; cells above cap are flagged capped.

    RIS mode runs the activation search per cell with the cell itself as
    the assumed user position when constraints are given, and activates
    every surface otherwise. Baseline modes evaluate their fixed pathset.
    """
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
    ys = [_fmt(y) for y in result.grid.ys.tolist()]
    columns = zip(result.grid.xs.tolist(), result.peb.tolist(), result.flags.tolist(),
                  result.path_count.tolist(), result.allocation_bits.tolist())
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(MAP_HEADER + "\n")
        for x, values, flags, counts, bits in columns:
            x = _fmt(x)
            fh.write("".join(f"{x},{y},{value:.9g},{flag},{count},{b}\n"
                             for y, value, flag, count, b in zip(ys, values, flags, counts, bits)))


def write_cdf_csv(cdf: CdfResult, path) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(CDF_HEADER + "\n")
        fh.write("".join(f"{level:.9g},{fraction:.9g}\n" for level, fraction
                         in zip(cdf.levels.tolist(), cdf.fractions.tolist())))
