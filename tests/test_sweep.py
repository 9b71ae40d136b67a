"""Grid sweeps, CDFs, and CSV serialization."""

import concurrent.futures
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rispeb.sweep as sweep_module
from rispeb.allocation import SelectionConstraints, gap_threshold, select_ris
from rispeb.channel import _path_table, build_pathset
from rispeb.checks import best_pattern, conditioning_error
from rispeb.fim import count_resolvable_paths, fim_total, peb
from rispeb.geometry import Scene
from rispeb.sweep import (
    CDF_HEADER,
    DEFAULT_PEB_CAP,
    FLAG_CAPPED,
    FLAG_INF,
    FLAG_INVALID,
    FLAG_OK,
    MAP_HEADER,
    CdfResult,
    GridSpec,
    MapResult,
    info_directions,
    path_count_map,
    peb_cdf,
    peb_map,
    write_cdf_csv,
    write_map_csv,
)

SMALL = GridSpec(x_range=(2.0, 6.0), y_range=(3.0, 5.0), nx=3, ny=2)


def budget(k_bar, scene, wave):
    return SelectionConstraints(k_bar=k_bar, min_gap=gap_threshold(scene, wave))


class TestGridSpec:
    def test_axes_include_endpoints(self):
        grid = GridSpec(x_range=(-5.0, 15.0), y_range=(0.5, 9.5), nx=100, ny=100)
        assert grid.xs[0] == -5.0 and grid.xs[-1] == 15.0
        assert grid.ys[0] == 0.5 and grid.ys[-1] == 9.5
        assert grid.cell_count == 10000

    def test_rejects_reversed_range(self):
        with pytest.raises(ValueError, match="exceed"):
            GridSpec(x_range=(1.0, -1.0), y_range=(0.0, 1.0), nx=2, ny=2)

    def test_rejects_single_sample_axis(self):
        with pytest.raises(ValueError, match="at least 2"):
            GridSpec(x_range=(0.0, 1.0), y_range=(0.0, 1.0), nx=1, ny=2)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            GridSpec(x_range=(0.0, math.inf), y_range=(0.0, 1.0), nx=2, ny=2)

    @pytest.mark.parametrize("nx, ny", [(2.5, 3), (3, 3.0), (True, 3), (3, True)])
    def test_rejects_noninteger_counts(self, nx, ny):
        with pytest.raises(ValueError, match="must be integers"):
            GridSpec(x_range=(0.0, 1.0), y_range=(0.0, 1.0), nx=nx, ny=ny)

    def test_takes_numpy_integer_counts(self):
        grid = GridSpec(x_range=(0.0, 1.0), y_range=(0.0, 1.0), nx=np.int64(3), ny=np.int32(2))
        assert grid.xs.tolist() == [0.0, 0.5, 1.0] and grid.cell_count == 6


class TestMapResult:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            MapResult(grid=SMALL, mode="reflector",
                      peb=np.zeros((2, 2)), flags=np.empty((3, 2), object),
                      path_count=np.zeros((3, 2), int),
                      allocation_bits=np.empty((3, 2), object))

    def test_reflector_map_basics(self, scene, wave):
        result = peb_map(scene, SMALL, wave, "reflector")
        assert result.peb.shape == (3, 2)
        assert set(result.flags.ravel()) <= {FLAG_OK, FLAG_CAPPED, FLAG_INF,
                                             FLAG_INVALID}
        assert np.all(result.path_count >= 1)
        assert all(bits == "" for bits in result.allocation_bits.ravel())

    def test_deterministic(self, scene, wave):
        a = peb_map(scene, SMALL, wave, "reflector")
        b = peb_map(scene, SMALL, wave, "reflector")
        assert np.array_equal(a.peb, b.peb)
        assert np.array_equal(a.flags, b.flags)

    def test_unknown_mode(self, scene, wave):
        with pytest.raises(ValueError, match="mode"):
            peb_map(scene, SMALL, wave, "mirror")

    def test_grid_must_stay_below_wall(self, scene, wave):
        tall = GridSpec(x_range=(0.0, 1.0), y_range=(1.0, 10.0), nx=2, ny=2)
        with pytest.raises(ValueError, match="wall"):
            peb_map(scene, tall, wave, "reflector")

    def test_ris_without_constraints_activates_all(self, scene, wave):
        result = peb_map(scene, SMALL, wave, "ris")
        assert all(bits == "11111" for bits in result.allocation_bits.ravel())

    @pytest.mark.parametrize("cap", [0.0, -1.0, math.nan])
    def test_rejects_cap_that_is_not_positive(self, scene, wave, cap):
        """A NaN cap would flag every finite bound ok."""
        with pytest.raises(ValueError, match="PEB cap"):
            peb_map(scene, SMALL, wave, "reflector", cap=cap)

    def test_capped_flag_on_tiny_cap(self, scene, wave):
        result = peb_map(scene, SMALL, wave, "reflector", cap=1e-9)
        finite = np.isfinite(result.peb)
        assert finite.any()
        assert all(result.flags[idx] == FLAG_CAPPED
                   for idx in zip(*np.nonzero(finite)))


class TestDegenerateCells:
    def test_anchor_cell_marked_invalid(self, scene, wave):
        grid = GridSpec(x_range=(-1.0, 1.0), y_range=(0.0, 2.0), nx=3, ny=3)
        result = peb_map(scene, grid, wave, "reflector")
        assert result.flags[1, 0] == FLAG_INVALID
        assert math.isnan(result.peb[1, 0])
        assert result.path_count[1, 0] == 0
        others = [result.flags[ix, iy] for ix in range(3) for iy in range(3)
                  if (ix, iy) != (1, 0)]
        assert FLAG_INVALID not in others

    def test_anchor_cell_marked_invalid_under_selection(self, scene, wave):
        """The coincident cell drops out of its block's batch alone: the
        block's other cells are still scored."""
        grid = GridSpec(x_range=(-1.0, 1.0), y_range=(0.0, 2.0), nx=3, ny=3)
        result = peb_map(scene, grid, wave, "ris", budget(1, scene, wave))
        assert result.flags[1, 0] == FLAG_INVALID
        assert math.isnan(result.peb[1, 0])
        assert result.path_count[1, 0] == 0
        assert result.allocation_bits[1, 0] == ""
        for ix in range(3):
            for iy in range(3):
                if (ix, iy) != (1, 0):
                    assert result.flags[ix, iy] != FLAG_INVALID
                    assert result.path_count[ix, iy] >= 1
                    assert len(result.allocation_bits[ix, iy]) == len(scene.ris)

    @staticmethod
    def _count_batches(monkeypatch, owner, name, points_at):
        """Patch owner.name, a core call of the sweep, to record the cell
        count of every batch it is given (points is its points_at-th
        argument); returns that list."""
        sizes = []
        core = getattr(owner, name)

        def counted(*args):
            sizes.append(len(args[points_at]))
            return core(*args)

        monkeypatch.setattr(owner, name, counted)
        return sizes

    @pytest.mark.parametrize("k_bar", [None, 1])
    def test_anchor_cell_is_found_by_halving_its_block(self, scene, wave, monkeypatch, k_bar):
        """A block of 420 cells holding the BS cell is split in halves
        down to that cell: O(log cells) batches, not one per cell."""
        grid = GridSpec(x_range=(-5.0, 15.0), y_range=(0.0, 9.5), nx=21, ny=20)
        if k_bar is None:
            sizes = self._count_batches(monkeypatch, sweep_module, "build_pathset", 2)
            result = peb_map(scene, grid, wave, "reflector")
        else:
            sizes = self._count_batches(monkeypatch, sweep_module, "_choose", 1)
            result = peb_map(scene, grid, wave, "ris", budget(k_bar, scene, wave))
        assert sizes[0] == grid.cell_count
        assert len(sizes) <= 1 + 2 * math.ceil(math.log2(grid.cell_count))
        invalid = np.argwhere(result.flags == FLAG_INVALID).tolist()
        assert invalid == [[5, 0]]
        assert math.isnan(result.peb[5, 0]) and result.path_count[5, 0] == 0
        assert result.allocation_bits[5, 0] == ""

    def test_ris_count_map_halves_to_the_anchor_cell(self, scene, wave, monkeypatch):
        """The RIS count map reads only the path table's delays; its block
        holding the BS cell is halved the same way, and every other cell
        activates every surface."""
        grid = GridSpec(x_range=(-5.0, 15.0), y_range=(0.0, 9.5), nx=21, ny=20)
        table = type(_path_table(scene, "ris"))
        sizes = self._count_batches(monkeypatch, table, "delays", 1)
        result = path_count_map(scene, grid, wave, "ris")
        assert sizes[0] == grid.cell_count
        assert len(sizes) <= 1 + 2 * math.ceil(math.log2(grid.cell_count))
        invalid = np.argwhere(result.flags == FLAG_INVALID).tolist()
        assert invalid == [[5, 0]]
        assert math.isnan(result.peb[5, 0]) and result.path_count[5, 0] == 0
        assert result.allocation_bits[5, 0] == ""
        others = np.ones(result.flags.shape, dtype=bool)
        others[5, 0] = False
        assert np.all(result.flags[others] == FLAG_OK)
        assert np.all(np.isnan(result.peb))
        assert np.all(result.path_count[others] >= 1)
        assert np.all(result.allocation_bits[others] == "11111")

    @pytest.mark.parametrize("workers", [None, 2])
    def test_aliased_cell_is_named_after_a_halved_block(self, scene, wave, monkeypatch,
                                                        workers):
        """At 10 GHz the first aliased cell in grid order is (2, 0). The
        BS cell (0, 0) sits in an earlier block of three that is halved;
        it is not the cell named."""
        grid = GridSpec(x_range=(-2.0, 2.0), y_range=(0.0, 3.0), nx=5, ny=4)
        monkeypatch.setattr(sweep_module, "_block_cells", lambda *args: 3)
        wide = dataclasses.replace(wave, bandwidth_hz=1e10)
        with pytest.raises(ValueError, match=r"^cell \(2, 0\): path lengths span"):
            peb_map(scene, grid, wide, "reflector", workers=workers)

    def test_single_resolvable_delay_is_unbounded(self, scene, wave):
        near_scatterer = GridSpec(x_range=(3.4, 3.6), y_range=(9.4, 9.5),
                                  nx=2, ny=2)
        result = peb_map(scene, near_scatterer, wave, "scatterer")
        assert np.all(result.path_count == 1)
        assert all(flag == FLAG_INF for flag in result.flags.ravel())
        assert np.all(np.isinf(result.peb))


class TestSelectionMap:
    @pytest.mark.parametrize("k_bar", [0, 1, 2])
    def test_cells_match_select_ris(self, scene, wave, k_bar):
        """A cell's bits and bound are those of the exhaustive search at
        the cell (what select_ris must return), one pathset per pattern."""
        grid = GridSpec(x_range=(-5.0, 15.0), y_range=(0.5, 9.5), nx=6, ny=5)
        constraints = budget(k_bar, scene, wave)
        result = peb_map(scene, grid, wave, "ris", constraints)
        for ix, x in enumerate(grid.xs):
            for iy, y in enumerate(grid.ys):
                bound, bits = best_pattern(scene, np.array([x, y]), wave, constraints)
                assert result.allocation_bits[ix, iy] == "".join(map(str, bits))
                if result.path_count[ix, iy] <= 1 or math.isinf(bound):
                    assert math.isinf(result.peb[ix, iy])
                else:
                    assert abs(result.peb[ix, iy] - bound) <= 1e-12 * bound

    @pytest.mark.parametrize("k_bar", [0, 1, 2])
    def test_map_and_select_share_one_chooser(self, scene, wave, k_bar):
        """A map and select_ris choose through the same _choose: at every
        cell, the wall rows from 8.7 m and the one-delay cell (2.475,
        9.045) included, the bits are select_ris's, and so is the bound,
        exactly, wherever more than one delay resolves."""
        constraints = budget(k_bar, scene, wave)
        grids = (GridSpec(x_range=(-5.0, 15.0), y_range=(0.5, 9.9), nx=21, ny=12),
                 GridSpec(x_range=(-5.0, 15.0), y_range=(8.7, 9.9), nx=21, ny=5),
                 GridSpec(x_range=(2.475, 3.475), y_range=(9.045, 9.9), nx=2, ny=2))
        for grid in grids:
            result = peb_map(scene, grid, wave, "ris", constraints)
            for ix, x in enumerate(grid.xs):
                for iy, y in enumerate(grid.ys):
                    allocation, value = select_ris(scene, np.array([x, y]), wave, constraints)
                    assert result.allocation_bits[ix, iy] == allocation.bits, (x, y)
                    if result.path_count[ix, iy] > 1:
                        assert result.peb[ix, iy] == value.value, (x, y)
        assert (grid.xs[0], grid.ys[0]) == (2.475, 9.045)
        assert result.path_count[0, 0] == 1

    def test_scene_without_ris(self, wave):
        """With no surface every cell scores the empty pattern: the LOS
        path alone, one delay, so no unique fix."""
        bare = Scene(wall_offset=10.0)
        result = peb_map(bare, SMALL, wave, "ris", SelectionConstraints(k_bar=1))
        assert np.all(result.allocation_bits == "")
        assert np.all(result.path_count == 1)
        assert np.all(result.flags == FLAG_INF)
        assert np.all(np.isinf(result.peb))


@pytest.mark.parametrize("mode", ["reflector", "scatterer"])
def test_baseline_map_matches_cells_one_by_one(cfg, scene, wave, mode):
    """The batched sweep, with its block-wise counts and flags, against
    count_resolvable_paths and peb(fim_total(...)) cell by cell: flags
    and counts equal, finite bounds to 1e-9 relative, or to
    16 * checks.conditioning_error on an ill-conditioned cell."""
    grid = GridSpec(x_range=cfg.grid().x_range, y_range=cfg.grid().y_range, nx=25, ny=25)
    result = peb_map(scene, grid, wave, mode)
    for ix, x in enumerate(grid.xs):
        for iy, y in enumerate(grid.ys):
            paths = build_pathset(scene, None, [x, y], wave, mode)
            count = count_resolvable_paths(paths, wave)
            fim = fim_total(paths, wave)
            value = peb(fim).value if count > 1 else math.inf
            flag = (FLAG_INF if math.isinf(value)
                    else FLAG_CAPPED if value > DEFAULT_PEB_CAP else FLAG_OK)
            assert result.path_count[ix, iy] == count
            assert result.flags[ix, iy] == flag
            if math.isinf(value):
                assert math.isinf(result.peb[ix, iy])
            else:
                tolerance = max(1e-9, 16.0 * conditioning_error(fim))
                assert abs(result.peb[ix, iy] - value) <= tolerance * value


class TestPathCountMap:
    def test_counts_without_bounds(self, scene, wave):
        result = path_count_map(scene, SMALL, wave, "ris")
        assert np.all(np.isnan(result.peb))
        assert all(flag == FLAG_OK for flag in result.flags.ravel())
        assert np.all(result.path_count >= 1)
        assert result.max_path_count <= 6

    def test_baseline_counts_at_most_two(self, scene, wave):
        result = path_count_map(scene, SMALL, wave, "scatterer")
        assert result.max_path_count <= 2


class TestBlocks:
    # Through the BS, so that the anchor cell's halving meets the blocks.
    GRID = GridSpec(x_range=(-5.0, 15.0), y_range=(0.0, 9.0), nx=5, ny=4)

    def csv_bytes(self, scene, wave, case, tmp_path):
        if case == "count_1ghz":
            result = path_count_map(scene, self.GRID,
                                    dataclasses.replace(wave, bandwidth_hz=1e9), "ris")
        elif case.startswith("ris"):
            result = peb_map(scene, self.GRID, wave, "ris", budget(int(case[-1]), scene, wave))
        else:
            result = peb_map(scene, self.GRID, wave, case)
        write_map_csv(result, tmp_path / "map.csv")
        out = (tmp_path / "map.csv").read_bytes()
        if case != "count_1ghz":
            write_cdf_csv(peb_cdf(result), tmp_path / "cdf.csv")
            out += (tmp_path / "cdf.csv").read_bytes()
        return out

    @pytest.mark.parametrize("case", ["ris_k1", "ris_k2", "reflector", "scatterer",
                                      "count_1ghz"])
    def test_outputs_do_not_depend_on_block_size(self, scene, wave, tmp_path, monkeypatch,
                                                 case):
        """One cell per block, blocks of 3 that end mid-column (ny = 4),
        and the whole grid in one block write the same bytes."""
        whole = self.csv_bytes(scene, wave, case, tmp_path)
        for size in (1, 3, self.GRID.cell_count):
            monkeypatch.setattr(sweep_module, "_block_cells", lambda *args, size=size: size)
            assert self.csv_bytes(scene, wave, case, tmp_path) == whole

    def test_maps_are_not_batched_per_column(self, cfg, scene, wave, monkeypatch):
        """The default 100x100 maps take fewer core calls than columns."""
        grid = cfg.grid()
        calls = {"fim_total": 0, "_choose": 0}

        def counter(name):
            original = getattr(sweep_module, name)

            def counted(*args):
                calls[name] += 1
                return original(*args)
            return counted

        for name in calls:
            monkeypatch.setattr(sweep_module, name, counter(name))
        peb_map(scene, grid, wave, "reflector")
        peb_map(scene, grid, wave, "ris", budget(1, scene, wave))
        assert 0 < calls["fim_total"] < grid.nx
        assert 0 < calls["_choose"] < grid.nx


class TestParallel:
    """SMALL and the 12x12 RIS grid are one default block each, which runs
    serially whatever the workers: the equivalence tests cut them into
    blocks of a few cells to keep them crossing the pool."""

    def test_parallel_matches_serial(self, scene, wave, tmp_path, monkeypatch):
        monkeypatch.setattr(sweep_module, "_block_cells", lambda *args: 2)
        serial = peb_map(scene, SMALL, wave, "reflector", workers=None)
        parallel = peb_map(scene, SMALL, wave, "reflector", workers=2)
        assert np.array_equal(serial.peb, parallel.peb)
        assert np.array_equal(serial.flags, parallel.flags)
        a, b = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        write_map_csv(serial, a)
        write_map_csv(parallel, b)
        assert a.read_bytes() == b.read_bytes()

    def test_parallel_matches_serial_under_selection(self, scene, wave, tmp_path,
                                                     monkeypatch):
        monkeypatch.setattr(sweep_module, "_block_cells", lambda *args: 50)
        grid = GridSpec(x_range=(-5.0, 15.0), y_range=(0.5, 9.5), nx=12, ny=12)
        constraints = budget(1, scene, wave)
        serial = peb_map(scene, grid, wave, "ris", constraints, workers=None)
        parallel = peb_map(scene, grid, wave, "ris", constraints, workers=2)
        a, b = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        write_map_csv(serial, a)
        write_map_csv(parallel, b)
        assert a.read_bytes() == b.read_bytes()

    def test_pool_has_no_more_workers_than_blocks(self, cfg, scene, wave, monkeypatch):
        """A pool starts all its workers at once: a one-block grid starts
        none, and 64 workers on the 3-block default reflector map ask for 3."""
        sizes = []

        class Pool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def map(self, fn, blocks):
                return map(fn, blocks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        peb_map(scene, SMALL, wave, "reflector", workers=64)
        assert sizes == []
        grid = cfg.grid()
        pooled = peb_map(scene, grid, wave, "reflector", workers=64)
        assert sizes == [3]
        assert np.array_equal(pooled.peb, peb_map(scene, grid, wave, "reflector").peb,
                              equal_nan=True)

    @pytest.mark.parametrize("workers", [-4, 0, 2.5, True, "2"])
    @pytest.mark.parametrize("count_only", [False, True], ids=["peb_map", "path_count_map"])
    def test_rejects_invalid_workers(self, cfg, scene, wave, monkeypatch, workers,
                                     count_only):
        """workers is None or a positive integer; anything else fails
        before a pool could start."""

        class Pool:
            def __init__(self, max_workers):
                raise AssertionError("a pool started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        build = path_count_map if count_only else peb_map
        with pytest.raises(ValueError, match="workers"):
            build(scene, cfg.grid(), wave, "reflector", workers=workers)


class TestCdf:
    def test_constant_map_single_step(self):
        cdf = CdfResult(levels=np.array([2.0]), fractions=np.array([1.0]),
                        total_cells=9)
        assert cdf.coverage(1.999) == 0.0
        assert cdf.coverage(2.0) == 1.0
        assert cdf.finite_fraction == 1.0

    @pytest.mark.parametrize("level", [math.nan, np.float64("nan"), "2", True, np.True_,
                                       None, np.array([2.0])],
                             ids=["nan", "np_nan", "str", "bool", "np_bool", "none", "array"])
    def test_level_that_is_not_a_real_number_rejected(self, level):
        """On levels [1, 2] a NaN level read the finite fraction and "2"
        the first step; a bool or a non-number is no level either."""
        cdf = CdfResult(levels=np.array([1.0, 2.0]), fractions=np.array([0.25, 0.5]),
                        total_cells=4)
        with pytest.raises(ValueError, match="^coverage level must be a real number"):
            cdf.coverage(level)
        assert cdf.coverage(np.float32(2.0)) == cdf.coverage(2) == 0.5
        assert cdf.coverage(-math.inf) == 0.0 and cdf.coverage(math.inf) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError, match="align"):
            CdfResult(levels=np.array([1.0, 2.0]), fractions=np.array([1.0]),
                      total_cells=2)
        with pytest.raises(ValueError, match="increasing"):
            CdfResult(levels=np.array([1.0, 1.0]),
                      fractions=np.array([0.5, 1.0]), total_cells=2)
        with pytest.raises(ValueError, match="nondecreasing"):
            CdfResult(levels=np.array([1.0, 2.0]),
                      fractions=np.array([0.9, 0.5]), total_cells=2)
        with pytest.raises(ValueError, match="at most 1"):
            CdfResult(levels=np.array([1.0]), fractions=np.array([1.5]),
                      total_cells=2)

    @pytest.mark.parametrize("levels", [
        [1.0, math.nan, 0.5], [math.nan], [1.0, math.inf, math.inf],
        [math.inf], [-math.inf, 1.0], [-math.inf, -math.inf]])
    def test_nonfinite_levels_rejected(self, levels):
        with pytest.raises(ValueError, match="levels must be finite"):
            CdfResult(levels=np.array(levels), fractions=np.full(len(levels), 0.1),
                      total_cells=10)

    @pytest.mark.parametrize("fractions", [
        [0.1, math.nan], [math.nan, 0.5], [-0.1, 0.5], [0.5, math.inf],
        [0.5, 1.0 + 1e-9], [-math.inf, 0.5]])
    def test_fractions_outside_zero_to_one_rejected(self, fractions):
        with pytest.raises(ValueError, match="at least 0 and at most 1"):
            CdfResult(levels=np.array([1.0, 2.0]), fractions=np.array(fractions),
                      total_cells=10)

    def test_rounding_above_one_accepted(self):
        cdf = CdfResult(levels=np.array([1.0]), fractions=np.array([1.0 + 1e-13]),
                        total_cells=3)
        assert cdf.finite_fraction == 1.0 + 1e-13

    def test_peb_cdf_of_map_with_unbounded_cells_accepted(self):
        grid = GridSpec(x_range=(0.0, 1.0), y_range=(0.0, 1.0), nx=2, ny=3)
        values = np.array([[0.5, math.inf, math.nan], [0.25, 0.5, math.inf]])
        result = MapResult(grid=grid, mode="reflector", peb=values,
                           flags=np.full((2, 3), "ok", dtype=object),
                           path_count=np.full((2, 3), 2),
                           allocation_bits=np.full((2, 3), "", dtype=object))
        cdf = peb_cdf(result)
        assert cdf.levels.tolist() == [0.25, 0.5]
        assert cdf.fractions.tolist() == [1 / 6, 3 / 6]
        assert cdf.coverage(0.4) == 1 / 6 and cdf.finite_fraction == 0.5

    def test_cdf_of_map(self, scene, wave):
        result = peb_map(scene, SMALL, wave, "reflector")
        cdf = peb_cdf(result)
        assert cdf.total_cells == SMALL.cell_count
        assert np.all(np.isfinite(cdf.levels))
        finite = np.isfinite(result.peb)
        assert abs(cdf.finite_fraction - finite.mean()) < 1e-15
        assert cdf.coverage(float("inf")) == cdf.finite_fraction
        top = float(np.max(result.peb[finite]))
        assert cdf.coverage(top) == cdf.finite_fraction

    def test_all_unbounded_region_has_empty_cdf(self, scene, wave):
        near_scatterer = GridSpec(x_range=(3.4, 3.6), y_range=(9.4, 9.5),
                                  nx=2, ny=2)
        cdf = peb_cdf(peb_map(scene, near_scatterer, wave, "scatterer"))
        assert cdf.levels.size == 0
        assert cdf.finite_fraction == 0.0
        assert cdf.coverage(100.0) == 0.0


class TestInfoDirections:
    def test_los_arrow_points_away_from_bs(self, scene, wave):
        x = np.array([3.0, 4.0])
        arrows = info_directions(scene, x, wave, "reflector")
        direction, intensity = arrows[0]
        assert np.allclose(direction, x / 5.0, rtol=0, atol=1e-15)
        assert intensity > 0.0

    def test_reflector_arrow_from_virtual_anchor(self, scene, wave):
        x = np.array([3.0, 4.0])
        arrows = info_directions(scene, x, wave, "reflector")
        assert len(arrows) == 2
        away = x - np.array([0.0, 2.0 * scene.wall_offset])
        assert np.allclose(arrows[1][0], away / np.linalg.norm(away),
                           rtol=0, atol=1e-15)

    def test_shadowed_reflector_drops_arrow(self, scene, wave):
        arrows = info_directions(scene, np.array([-3.0, 5.0]), wave,
                                 "reflector")
        assert len(arrows) == 1

    def test_scatter_arrow_from_scatterer(self, scene, wave):
        x = np.array([7.0, 3.0])
        arrows = info_directions(scene, x, wave, "scatterer")
        away = x - np.array([3.5, scene.wall_offset])
        assert np.allclose(arrows[1][0], away / np.linalg.norm(away),
                           rtol=0, atol=1e-15)

    def test_ris_mode_emits_all_surfaces(self, scene, wave):
        arrows = info_directions(scene, np.array([7.0, 3.0]), wave, "ris")
        assert len(arrows) == 1 + len(scene.ris)
        assert all(abs(np.linalg.norm(d) - 1.0) < 1e-12 for d, _ in arrows)
        intensities = [w for _, w in arrows]
        assert intensities[0] == max(intensities)


def reference_map_bytes(result):
    """The map CSV formatted one f-string per row."""
    rows = [MAP_HEADER]
    for x, values, flags, counts, bits in zip(
            result.grid.xs.tolist(), result.peb.tolist(), result.flags.tolist(),
            result.path_count.tolist(), result.allocation_bits.tolist()):
        for y, value, flag, count, b in zip(result.grid.ys.tolist(), values, flags,
                                            counts, bits):
            rows.append(f"{x:.9g},{y:.9g},{value:.9g},{flag},{count},{b}")
    return ("\n".join(rows) + "\n").encode("ascii")


def reference_cdf_bytes(cdf):
    """The CDF CSV formatted one f-string per row."""
    rows = [CDF_HEADER] + [f"{level:.9g},{fraction:.9g}" for level, fraction
                           in zip(cdf.levels.tolist(), cdf.fractions.tolist())]
    return ("\n".join(rows) + "\n").encode("ascii")


def written(writer, value, directory):
    path = directory / "out.csv"
    writer(value, path)
    return path.read_bytes()


# Values the %.9g field must write as the f-string does: infinities, nan,
# negative zero, subnormals and numbers near the top of the double range.
EDGE_VALUES = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 2.5e-310, 1e300, -1e300]
cell_values = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=True, allow_infinity=True))
cdf_levels = st.one_of(st.sampled_from([5e-324, 2.5e-310, 1e300, -1e300, -0.0]),
                   st.floats(-1e300, 1e300))


@st.composite
def map_results(draw):
    nx, ny = draw(st.integers(2, 7)), draw(st.integers(2, 7))
    lo = draw(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)))
    width = draw(st.tuples(st.floats(1e-3, 1e6), st.floats(1e-3, 1e6)))
    grid = GridSpec(x_range=(lo[0], lo[0] + width[0]), y_range=(lo[1], lo[1] + width[1]),
                    nx=nx, ny=ny)
    flag = st.sampled_from([FLAG_OK, FLAG_CAPPED, FLAG_INF, FLAG_INVALID])
    cells = st.lists(st.tuples(cell_values, flag, st.integers(0, 12), st.text("01", max_size=5)),
                     min_size=nx * ny, max_size=nx * ny)
    peb, flags, counts, bits = zip(*draw(cells))
    return MapResult(grid=grid, mode="ris", peb=np.reshape(peb, (nx, ny)),
                     flags=np.array(flags, dtype=object).reshape(nx, ny),
                     path_count=np.reshape(counts, (nx, ny)),
                     allocation_bits=np.array(bits, dtype=object).reshape(nx, ny))


@st.composite
def cdf_results(draw):
    unique = sorted(set(draw(st.lists(cdf_levels, max_size=20))))
    fractions = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=len(unique),
                                     max_size=len(unique))))
    return CdfResult(levels=np.array(unique, dtype=float),
                     fractions=np.array(fractions, dtype=float), total_cells=len(unique) + 1)


class TestCsv:
    @settings(max_examples=60, deadline=None)
    @given(result=map_results(), cdf=cdf_results())
    def test_writers_match_row_by_row_reference(self, tmp_path_factory, result, cdf):
        directory = tmp_path_factory.mktemp("csv")
        assert written(write_map_csv, result, directory) == reference_map_bytes(result)
        assert written(write_cdf_csv, cdf, directory) == reference_cdf_bytes(cdf)

    def test_empty_cdf_writes_header_only(self, tmp_path):
        cdf = CdfResult(levels=np.array([]), fractions=np.array([]), total_cells=4)
        assert written(write_cdf_csv, cdf, tmp_path) == (CDF_HEADER + "\n").encode()

    def test_cdf_longer_than_one_format_call(self, tmp_path):
        """Rows on both sides of each chunk boundary, and a short last chunk."""
        n = 2 * sweep_module._CDF_ROWS + 3
        levels = np.cumsum(np.random.default_rng(3).lognormal(0.0, 2.0, n))
        cdf = CdfResult(levels=levels, fractions=np.arange(1, n + 1) / (n + 7),
                        total_cells=n + 7)
        assert written(write_cdf_csv, cdf, tmp_path) == reference_cdf_bytes(cdf)

    def test_map_schema(self, scene, wave, tmp_path):
        result = peb_map(scene, SMALL, wave, "ris")
        out = tmp_path / "map.csv"
        write_map_csv(result, out)
        lines = out.read_text().splitlines()
        assert lines[0] == MAP_HEADER
        assert len(lines) == SMALL.cell_count + 1
        first = lines[1].split(",")
        assert float(first[0]) == SMALL.xs[0]
        assert float(first[1]) == SMALL.ys[0]
        assert first[3] in {FLAG_OK, FLAG_CAPPED, FLAG_INF, FLAG_INVALID}
        assert first[5] == "11111"
        # x-major: the first ny rows share xs[0]
        assert all(float(lines[1 + k].split(",")[0]) == SMALL.xs[0]
                   for k in range(SMALL.ny))

    def test_map_values_use_nine_significant_digits(self, scene, wave,
                                                    tmp_path):
        result = peb_map(scene, SMALL, wave, "reflector")
        out = tmp_path / "map.csv"
        write_map_csv(result, out)
        for line, value in zip(out.read_text().splitlines()[1:],
                               result.peb.ravel()):
            assert line.split(",")[2] == f"{value:.9g}"

    def test_infinite_cells_serialize_as_inf(self, scene, wave, tmp_path):
        near_scatterer = GridSpec(x_range=(3.4, 3.6), y_range=(9.4, 9.5),
                                  nx=2, ny=2)
        result = peb_map(scene, near_scatterer, wave, "scatterer")
        out = tmp_path / "map.csv"
        write_map_csv(result, out)
        rows = out.read_text().splitlines()[1:]
        assert all(row.split(",")[2] == "inf" for row in rows)

    def test_cdf_schema(self, scene, wave, tmp_path):
        cdf = peb_cdf(peb_map(scene, SMALL, wave, "reflector"))
        out = tmp_path / "cdf.csv"
        write_cdf_csv(cdf, out)
        lines = out.read_text().splitlines()
        assert lines[0] == CDF_HEADER
        assert len(lines) == cdf.levels.size + 1
        fractions = [float(line.split(",")[1]) for line in lines[1:]]
        assert fractions == sorted(fractions)

    def test_pinned_bytes(self, tmp_path):
        """Both writers against bytes written down by hand: a negative x,
        every flag, .9g rounding (0.1 + 0.2 is written 0.3) and nan."""
        grid = GridSpec(x_range=(-0.5, 1.0), y_range=(0.25, 2.0), nx=2, ny=3)
        result = MapResult(
            grid=grid, mode="ris",
            peb=np.array([[0.1 + 0.2, 7.123456789123, math.inf],
                          [math.nan, 1e-5, 123456789012.0]]),
            flags=np.array([[FLAG_OK, FLAG_CAPPED, FLAG_INF],
                            [FLAG_INVALID, FLAG_OK, FLAG_CAPPED]], dtype=object),
            path_count=np.array([[2, 3, 1], [0, 4, 2]]),
            allocation_bits=np.array([["10000", "01000", "00000"],
                                      ["", "00100", "00010"]], dtype=object))
        write_map_csv(result, tmp_path / "map.csv")
        assert (tmp_path / "map.csv").read_bytes() == (
            b"x,y,peb_m,flag,path_count,allocation_bits\n"
            b"-0.5,0.25,0.3,ok,2,10000\n"
            b"-0.5,1.125,7.12345679,capped,3,01000\n"
            b"-0.5,2,inf,inf,1,00000\n"
            b"1,0.25,nan,invalid,0,\n"
            b"1,1.125,1e-05,ok,4,00100\n"
            b"1,2,1.23456789e+11,capped,2,00010\n")
        cdf = CdfResult(levels=np.array([1e-5, 0.1 + 0.2, 2.0 / 3.0]),
                        fractions=np.array([1.0 / 6.0, 0.5, 2.0 / 3.0]), total_cells=6)
        write_cdf_csv(cdf, tmp_path / "cdf.csv")
        assert (tmp_path / "cdf.csv").read_bytes() == (
            b"peb_m,cdf\n"
            b"1e-05,0.166666667\n"
            b"0.3,0.5\n"
            b"0.666666667,0.666666667\n")
