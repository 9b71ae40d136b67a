"""Grid sweeps over candidate user positions.

Produces the four output families used in the experiments: resolvable-path
maps, position-error-bound maps, empirical CDFs over a deployment region,
and per-path information directions at a single point. The grid is
flattened once into x-major cells, the order of the CSV rows, and each
block of consecutive cells is one batch of the array core (paths, FIM
and bound broadcast over the block's cells, and in RIS mode over the
feasible activation patterns, enumerated once per sweep). A block holds
no more than 8,192 delays (cells x paths), and in RIS mode no more
cells than keep cells x patterns x paths^2 within the core's entry
budget: 4,096 cells of a baseline map, 1,213 of a k_bar=1 RIS map.
Each block also counts its cells' resolvable paths and flags them, so
that it returns finished cells. Blocks are evaluated in order
(optionally in parallel, one block per task) and gathered by index, so
serial and parallel runs emit identical bytes. The CSV writers make one
%-format call per grid column or per 4,096 CDF rows: one call per file
would hold every field and the whole text of the file at once.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .allocation import _BATCH_ENTRIES, SelectionConstraints, _choose, _patterns, build_allocation
from .channel import MODES, _path_table, build_pathset
from .fim import _AliasedDelays, _count_clusters, fim_total, peb
from .geometry import DegeneratePositionError, Scene, _is_integer
from .waveform import WaveformConfig, delay_kernel_peak

# Delays (cells x paths) at most per block of cells that a sweep
# evaluates and counts. On the 100x100 1 GHz RIS count map the whole grid
# in one block peaks at 4.9 MB of temporaries against 1.5 MB, and one
# column per block takes a fifth more time.
_COUNT_ENTRIES = 8192
_CDF_ROWS = 4096  # rows per format call of write_cdf_csv

# Default PEB cap (m) of peb_map: cells above it are flagged capped.
DEFAULT_PEB_CAP = 5.0

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
        for axis, (lo, hi) in zip("xy", (self.x_range, self.y_range)):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("grid ranges must be finite")
            # x_min and x_max name the range's ends, as the config keys do.
            if hi <= lo:
                raise ValueError(f"{axis}_max must exceed {axis}_min")
        if not (_is_integer(self.nx) and _is_integer(self.ny)):
            raise ValueError("grid sample counts must be integers")
        # The message names its field, which a config's error names by key.
        for name in ("nx", "ny"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be at least 2, a sample at each end of the axis")

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
    Construction raises ValueError for levels that are not finite or not
    strictly increasing, and for fractions that are NaN, decrease, or lie
    outside [0, 1 + 1e-12].
    """

    levels: np.ndarray
    fractions: np.ndarray
    total_cells: int

    def __post_init__(self):
        if self.levels.shape != self.fractions.shape:
            raise ValueError("levels and fractions must align")
        # Finite first: a NaN difference compares false, and inf - inf warns.
        if not np.isfinite(self.levels).all():
            raise ValueError("levels must be finite")
        if np.any(np.diff(self.levels) <= 0.0):
            raise ValueError("levels must be strictly increasing")
        # NaN fails both comparisons; the range first keeps inf out of diff.
        if not (np.all((self.fractions >= 0.0) & (self.fractions <= 1.0 + 1e-12))
                and np.all(np.diff(self.fractions) >= 0.0)):
            raise ValueError("fractions must be nondecreasing, at least 0 and at most 1")

    def coverage(self, level: float) -> float:
        """Fraction of all cells with a finite bound at or below level, a
        real number that is not NaN; anything else (a bool, a string)
        raises ValueError."""
        if isinstance(level, bool) or not isinstance(level, numbers.Real) or math.isnan(level):
            raise ValueError(f"coverage level must be a real number, not {level!r}")
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
    allocation._BATCH_ENTRIES // (patterns x paths^2), so that a block is
    one pattern batch of the core."""
    paths = len(_path_table(scene, mode).kinds)
    cells = _COUNT_ENTRIES // paths
    if patterns is not None:
        cells = min(cells, _BATCH_ENTRIES // (len(patterns) * paths ** 2))
    return max(1, cells)


def _evaluate_block(scene, cfg, mode, patterns, cap, points):
    """Finished cells of one block of the grid, as arrays over the rows of
    points: the bound, the index of the flag in _FLAGS, the
    resolvable-path count and the allocation bit strings.

    The block is one batch of the array core: a baseline pathset, the
    pattern allocation._choose picks per cell, or, with no patterns, the
    delays of every surface. cap None marks a count map: its bounds
    are nan and its cells ok. If a cell coincides with an anchor, the
    block is split in halves, recursively, down to that cell, which is
    invalid: no bound, no path, no bits. A cell whose delays alias stops
    the sweep with a ValueError naming it.
    """
    nan = np.full(len(points), math.nan)
    try:
        if mode != "ris":
            paths = build_pathset(scene, None, points, cfg, mode)
            values = nan if cap is None else peb(fim_total(paths, cfg)).value
            bits = np.array([""] * len(points), dtype=object)
            delays, exists = paths.tau, paths.alpha != 0
        elif patterns is None:
            values, delays = nan, _path_table(scene, mode).delays(points)[1]
            bits = np.array(["1" * len(scene.ris)] * len(points), dtype=object)  # shares one str
        else:
            values, best, scored = _choose(scene, points, cfg, patterns)
            names = np.array(["".join(map(str, row)) for row in patterns.astype(int)],
                             dtype=object)
            bits, delays = names[best], scored.paths.tau[:, 0]
    except DegeneratePositionError:
        if len(points) == 1:
            return np.array([math.nan]), np.array([1]), np.array([0]), np.array([""], dtype=object)
        half = len(points) // 2
        parts = [_evaluate_block(scene, cfg, mode, patterns, cap, p)
                 for p in (points[:half], points[half:])]
        return tuple(np.concatenate(field) for field in zip(*parts))
    if mode == "ris":
        exists = np.ones(delays.shape, dtype=bool)  # every RIS gain is nonzero
    try:
        counts = _count_clusters(delays, exists, cfg)
    except _AliasedDelays as exc:
        # A plain ValueError: _AliasedDelays does not survive pickling
        # back from a worker.
        x, y = points[exc.row]
        raise ValueError(f"cell ({x:.9g}, {y:.9g}): {exc}") from None
    if cap is None:
        return values, np.zeros(len(points), dtype=int), counts, bits
    # One resolvable delay pins the user to a circle, not a point.
    values = np.where(counts <= 1, math.inf, values)
    return values, np.select([np.isinf(values), values > cap], [2, 3], 0), counts, bits


def _sweep(scene, grid, cfg, mode, constraints, cap, workers) -> MapResult:
    """The map of mode over grid; cap None makes it a count map."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if workers is not None and (not _is_integer(workers) or workers < 1):
        raise ValueError("workers must be None or a positive integer")
    if grid.y_range[1] >= scene.wall_offset:
        raise ValueError("grid must stay strictly below the wall")
    patterns = None if mode != "ris" or cap is None else _patterns(len(scene.ris), constraints)
    evaluate = functools.partial(_evaluate_block, scene, cfg, mode, patterns, cap)
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
    """Resolvable-path count per cell, with no bound (peb nan, flag ok
    except at an anchor); RIS mode activates every surface with phases
    optimal for the cell. workers is None (serial) or a positive integer."""
    return _sweep(scene, grid, cfg, mode, None, None, workers)


def peb_map(scene: Scene, grid: GridSpec, cfg: WaveformConfig, mode: str,
            constraints: SelectionConstraints | None = None, *,
            cap: float = DEFAULT_PEB_CAP, workers: int | None = None) -> MapResult:
    """Position-error-bound map; cells above cap are flagged capped.

    RIS mode runs the activation search per cell with the cell itself as
    the assumed user position when constraints are given, and activates
    every surface otherwise. Baseline modes evaluate their fixed pathset.
    cap must be positive; NaN is rejected too. workers is None (serial)
    or a positive integer.
    """
    if not cap > 0.0:
        raise ValueError("PEB cap must be positive")
    return _sweep(scene, grid, cfg, mode, constraints, cap, workers)


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
    allocation = (build_allocation(scene, x, cfg, (1,) * len(scene.ris))
                  if mode == "ris" else None)
    paths = build_pathset(scene, allocation, x, cfg, mode)
    keep = paths.alpha != 0
    intensity = np.abs(paths.alpha[keep]) ** 2 * delay_kernel_peak(cfg)
    return list(zip(paths.direction[keep], intensity))


def write_map_csv(result: MapResult, path) -> None:
    """One row per cell, x-major: x,y,peb_m,flag,path_count,allocation_bits;
    one %-format call per grid column of ny rows, not per file."""
    ny = result.grid.ny
    rows = "%s,%s,%.9g,%s,%s,%s\n" * ny
    fields = [None] * (6 * ny)
    fields[1::6] = ["%.9g" % y for y in result.grid.ys.tolist()]
    columns = (result.peb, result.flags, result.path_count, result.allocation_bits)
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(MAP_HEADER + "\n")
        for i, x in enumerate(result.grid.xs.tolist()):
            fields[0::6] = ["%.9g" % x] * ny
            for k, column in enumerate(columns, 2):
                fields[k::6] = column[i].tolist()
            fh.write(rows % tuple(fields))


def write_cdf_csv(cdf: CdfResult, path) -> None:
    """One peb_m,cdf row per level; one %-format call per _CDF_ROWS rows."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(CDF_HEADER + "\n")
        for start in range(0, cdf.levels.size, _CDF_ROWS):
            pairs = np.stack((cdf.levels[start:start + _CDF_ROWS],
                              cdf.fractions[start:start + _CDF_ROWS]), axis=-1)
            fh.write("%.9g,%.9g\n" * len(pairs) % tuple(pairs.ravel().tolist()))
