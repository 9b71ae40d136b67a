"""Grid sweeps, CDFs, and CSV serialization."""

import math

import numpy as np
import pytest

from rispeb.sweep import (
    CDF_HEADER,
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

    def test_single_resolvable_delay_is_unbounded(self, scene, wave):
        near_scatterer = GridSpec(x_range=(3.4, 3.6), y_range=(9.4, 9.5),
                                  nx=2, ny=2)
        result = peb_map(scene, near_scatterer, wave, "scatterer")
        assert np.all(result.path_count == 1)
        assert all(flag == FLAG_INF for flag in result.flags.ravel())
        assert np.all(np.isinf(result.peb))


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


class TestParallel:
    def test_parallel_matches_serial(self, scene, wave, tmp_path):
        serial = peb_map(scene, SMALL, wave, "reflector", workers=None)
        parallel = peb_map(scene, SMALL, wave, "reflector", workers=2)
        assert np.array_equal(serial.peb, parallel.peb)
        assert np.array_equal(serial.flags, parallel.flags)
        a, b = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        write_map_csv(serial, a)
        write_map_csv(parallel, b)
        assert a.read_bytes() == b.read_bytes()


class TestCdf:
    def test_constant_map_single_step(self):
        cdf = CdfResult(levels=np.array([2.0]), fractions=np.array([1.0]),
                        total_cells=9)
        assert cdf.coverage(1.999) == 0.0
        assert cdf.coverage(2.0) == 1.0
        assert cdf.finite_fraction == 1.0

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


class TestCsv:
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
