"""Geometry oracles and invariants.

Expected values are frozen from independent stdlib-math computations of
the delay and image-source formulas; tests compare the package against
those literals rather than re-deriving them with package code. Path
delays and directions are read from the PathSet arrays that
channel.build_pathset computes.
"""

import math
import numbers
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rispeb import channel, geometry
from rispeb.allocation import build_allocation, select_ris
from rispeb.channel import MODES, _path_table, _surfaces, build_pathset
from rispeb.geometry import (
    SPEED_OF_LIGHT,
    DegeneratePositionError,
    ReflectorDescriptor,
    RisDescriptor,
    ScatterDescriptor,
    Scene,
    _is_integer,
    incidence_point,
)
from rispeb.waveform import WaveformConfig

C = SPEED_OF_LIGHT
WAVE = WaveformConfig(carrier_hz=28e9, bandwidth_hz=1e8, subcarrier_count=129)


def rel(a, b):
    return abs(a - b) / abs(b)


# Positions strictly below the wall, comfortably away from the anchors.
points = st.tuples(
    st.floats(-20.0, 20.0),
    st.floats(0.3, 9.7),
).map(np.array).filter(lambda p: np.linalg.norm(p) > 1e-3)


def ris_paths(scene, x):
    """LOS plus one path per RIS at x, every surface inactive."""
    allocation = build_allocation(scene, x, WAVE, (0,) * len(scene.ris))
    return build_pathset(scene, allocation, x, WAVE, "ris")


class TestFrozenValues:
    def test_los_delay(self, scene):
        tau = build_pathset(scene, None, [3.5, 5.0], WAVE, "reflector")[0].tau
        assert rel(tau, 2.035834339724067e-08) < 1e-12

    def test_ris_delay(self, scene):
        assert rel(ris_paths(scene, [3.5, 5.0])[1].tau,
                   5.169255797359934e-08) < 1e-12

    def test_virtual_anchor(self, scene):
        anchor = build_pathset(scene, None, [3.5, 5.0], WAVE, "reflector").anchor[1]
        assert np.array_equal(anchor, [0.0, 20.0])

    def test_incidence_point_hit(self, scene):
        point, hit = incidence_point(scene, [8.0, 2.0])
        assert hit.dtype == bool and hit
        assert rel(point[0], 4.444444444444445) < 1e-12
        assert point[1] == scene.wall_offset

    def test_incidence_point_miss(self, scene):
        point, hit = incidence_point(scene, [14.0, 2.0])
        assert hit.dtype == bool and not hit
        assert rel(point[0], 7.777777777777778) < 1e-12
        assert point[1] == scene.wall_offset

    def test_incidence_point_batch(self, scene):
        """Leading axes carry through to the points and the hits."""
        points, hits = incidence_point(scene, [[[8.0, 2.0], [14.0, 2.0]]])
        assert points.shape == (1, 2, 2) and hits.shape == (1, 2) and hits.dtype == bool
        assert hits.tolist() == [[True, False]]
        for i, p in enumerate([[8.0, 2.0], [14.0, 2.0]]):
            assert np.array_equal(points[0, i], incidence_point(scene, p)[0])

    def test_reflector_gain_is_zero_exactly_where_the_ray_misses(self, scene):
        """The reflector path's gain is zero exactly where incidence_point
        says the mirror ray misses the segment [h1, h2] = [1, 6], on a
        batch whose crossings include both ends and the floats just
        outside them. At y = 0 the ray crosses the wall at x/2."""
        xs = [2.0, 12.0, np.nextafter(2.0, 0.0), np.nextafter(12.0, 13.0), 8.0, 14.0, -3.0]
        points = np.array([[x, 0.0] for x in xs] + [[3.5, 5.0], [7.0, 9.5]])
        crossing, hit = incidence_point(scene, points)
        assert crossing[:2, 0].tolist() == [1.0, 6.0]
        assert crossing[2, 0] < 1.0 and crossing[3, 0] > 6.0
        assert hit.tolist()[:4] == [True, True, False, False]
        gains = build_pathset(scene, None, points, WAVE, "reflector").alpha[:, 1]
        assert np.array_equal(gains == 0, ~hit)

    def test_one_position_check_per_reflector_pathset(self, scene, monkeypatch):
        """build_pathset checks the position once and reads the mirror hit
        without checking it again."""
        calls, as_point = [], geometry._as_point

        def counted(x):
            calls.append(1)
            return as_point(x)

        monkeypatch.setattr(channel, "_as_point", counted)
        monkeypatch.setattr(geometry, "_as_point", counted)
        build_pathset(scene, None, [8.0, 2.0], WAVE, "reflector")
        assert len(calls) == 1

    def test_reflector_delay(self, scene):
        tau = build_pathset(scene, None, [8.0, 2.0], WAVE, "reflector")[1].tau
        assert rel(tau, 6.570450682782756e-08) < 1e-12

    def test_scatter_delay(self, scene):
        tau = build_pathset(scene, None, [8.0, 2.0], WAVE, "scatterer")[1].tau
        assert rel(tau, 6.595759632335866e-08) < 1e-12

    def test_ris_center(self, scene):
        assert np.array_equal(ris_paths(scene, [3.5, 5.0]).anchor[4], [4.5, 10.0])

    def test_scatter_position(self, scene):
        anchor = build_pathset(scene, None, [3.5, 5.0], WAVE, "scatterer").anchor[1]
        assert np.array_equal(anchor, [3.5, 10.0])


def pathset(scene, x, mode):
    """The mode's pathset at x, every surface flat in RIS mode."""
    return ris_paths(scene, x) if mode == "ris" else build_pathset(scene, None, x, WAVE, mode)


class TestDegeneracy:
    """A position within COINCIDENCE_LIMIT of an anchor fails, naming the
    first such anchor in path order, in build_pathset and select_ris."""

    def test_bs_coincidence(self, scene, cfg, wave):
        for mode in MODES:
            with pytest.raises(DegeneratePositionError,
                               match=r"^position coincides with the BS$"):
                pathset(scene, [0.0, 0.0], mode)
        with pytest.raises(DegeneratePositionError, match=r"^position coincides with the BS$"):
            select_ris(scene, [0.0, 0.0], wave, cfg.selection_constraints())

    @pytest.mark.parametrize("k", range(5))
    def test_ris_center_coincidence(self, scene, cfg, wave, k):
        x = [scene.ris[k].center_x, scene.wall_offset - 5e-7]
        message = rf"^position coincides with RIS {k} center$"
        with pytest.raises(DegeneratePositionError, match=message):
            pathset(scene, x, "ris")
        with pytest.raises(DegeneratePositionError, match=message):
            select_ris(scene, x, wave, cfg.selection_constraints())
        # Steering checks the anchors of the surfaces it steers only.
        with pytest.raises(DegeneratePositionError, match=message):
            build_allocation(scene, x, WAVE, tuple(int(i == k) for i in range(5)))
        other = (k + 1) % 5
        build_allocation(scene, x, WAVE, tuple(int(i == other) for i in range(5)))

    def test_scatterer_coincidence(self, scene):
        x = [scene.scatterer.x, scene.wall_offset - 5e-7]
        with pytest.raises(DegeneratePositionError,
                           match=r"^position coincides with the scatterer$"):
            pathset(scene, x, "scatterer")
        # The reflector's anchor, the BS's mirror image, lies above the wall.
        assert np.isfinite(pathset(scene, x, "reflector").alpha).all()

    def test_steering_at_the_bs(self, scene):
        """Steering reads the surfaces' anchors only: a design point at the
        BS is fine."""
        allocation = build_allocation(scene, (0.0, 0.0), WAVE, (1, 0, 0, 0, 0))
        assert allocation.design[0] != 0.0

    def test_missing_object_is_named_before_any_anchor(self, scene):
        """A baseline mode whose object the scene lacks fails as such, at
        the BS too."""
        bare = Scene(wall_offset=scene.wall_offset, ris=scene.ris)
        for mode in ("reflector", "scatterer"):
            for x in ([3.5, 5.0], [0.0, 0.0]):
                with pytest.raises(ValueError, match=rf"^scene has no {mode}$"):
                    build_pathset(bare, None, x, WAVE, mode)

    def test_near_miss_is_fine(self, scene):
        paths = build_pathset(scene, None, [1e-5, 1e-5], WAVE, "reflector")
        assert paths[0].tau > 0.0


class TestSceneValidation:
    def test_centers_must_increase(self):
        with pytest.raises(ValueError):
            Scene(wall_offset=10.0,
                  ris=(RisDescriptor(2.0, 8), RisDescriptor(1.0, 8)))

    def test_spacing_mismatch(self):
        with pytest.raises(ValueError, match="evenly spaced"):
            Scene(wall_offset=10.0,
                  ris=(RisDescriptor(1.0, 8), RisDescriptor(2.0, 8),
                       RisDescriptor(3.5, 8)))

    def test_spacing_from_centers(self):
        assert Scene(wall_offset=10.0).ris_spacing is None
        assert Scene(wall_offset=10.0, ris=(RisDescriptor(1.0, 8),)).ris_spacing is None
        assert Scene(wall_offset=10.0,
                     ris=(RisDescriptor(1.0, 8), RisDescriptor(2.5, 8),
                          RisDescriptor(4.0, 8))).ris_spacing == 1.5

    def test_wall_offset_positive(self):
        with pytest.raises(ValueError):
            Scene(wall_offset=0.0)

    def test_reflector_order(self):
        with pytest.raises(ValueError):
            ReflectorDescriptor(h1=6.0, h2=1.0, gamma=0.3)

    def test_gamma_range(self):
        with pytest.raises(ValueError):
            ReflectorDescriptor(h1=1.0, h2=6.0, gamma=1.5)

    def test_rcs_nonnegative(self):
        with pytest.raises(ValueError):
            ScatterDescriptor(x=3.5, rcs=-0.01)

    def test_element_count_positive(self):
        with pytest.raises(ValueError, match="at least one element"):
            RisDescriptor(center_x=1.5, element_count=0)

    @pytest.mark.parametrize("count", [100.5, 100.0, True, "100"])
    def test_element_count_is_an_integer(self, count):
        """A fractional M would scale every RIS gain silently; a bool is
        not a count."""
        with pytest.raises(ValueError, match="must be an integer"):
            RisDescriptor(center_x=3.5, element_count=count)

    def test_element_count_takes_numpy_integers(self):
        assert RisDescriptor(center_x=3.5, element_count=np.int64(100)).element_count == 100


class _Count(int):
    """An Integral that is not exactly an int."""


@pytest.mark.parametrize("value, expected", [
    (1, True), (np.int64(1), True), (True, False), (np.True_, False), (1.0, False),
    ("1", False), (_Count(1), True)],
    ids=["int", "int64", "bool", "np_bool", "float", "str", "subclass"])
def test_is_integer_answers_as_the_integral_test(value, expected):
    """The plain-int fast path changes no answer of the Integral test."""
    assert (isinstance(value, numbers.Integral) and not isinstance(value, bool)) is expected
    assert _is_integer(value) is expected


def full_scene(wall=10.0, ris=(RisDescriptor(1.0, 8), RisDescriptor(2.5, 8))):
    return Scene(wall_offset=wall, ris=ris,
                 reflector=ReflectorDescriptor(h1=1.0, h2=6.0, gamma=0.5),
                 scatterer=ScatterDescriptor(x=3.5, rcs=0.01))


class TestSceneHash:
    def test_equal_scenes_share_path_tables(self):
        first, second = full_scene(), full_scene(ris=[RisDescriptor(1.0, 8),
                                                     RisDescriptor(2.5, 8)])
        assert first is not second and first == second
        assert hash(first) == hash(second)
        for mode in MODES:
            assert _path_table(first, mode) is _path_table(second, mode)
        assert _path_table(full_scene(wall=12.0), "ris") is not _path_table(first, "ris")

    def test_equal_scenes_share_surface_constants(self):
        """gain_ris reads one read-only record of surface constants per
        scene, equal scenes included."""
        first, second = full_scene(), full_scene(ris=[RisDescriptor(1.0, 8),
                                                     RisDescriptor(2.5, 8)])
        assert _surfaces(first) is _surfaces(second)
        assert _surfaces(full_scene(wall=12.0)) is not _surfaces(first)
        for array in _surfaces(first):
            assert not array.flags.writeable
        assert _surfaces(first).count.tolist() == [8, 8]

    def test_pickled_scene_compares_and_hashes_equal(self):
        """Also in another process, where hash(None) may differ (before
        Python 3.12), for a scene without a scatterer."""
        scene = full_scene()
        copy = pickle.loads(pickle.dumps(scene))
        assert copy == scene and hash(copy) == hash(scene)
        assert _path_table(copy, "ris") is _path_table(scene, "ris")
        bare = Scene(wall_offset=10.0, ris=(RisDescriptor(1.0, 8),))
        check = ("import pickle, sys; from rispeb.geometry import RisDescriptor, Scene; "
                 "copy = pickle.loads(sys.stdin.buffer.read()); "
                 "fresh = Scene(wall_offset=10.0, ris=(RisDescriptor(1.0, 8),)); "
                 "assert copy == fresh and hash(copy) == hash(fresh)")
        subprocess.run([sys.executable, "-c", check], input=pickle.dumps(bare), check=True,
                       env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})

    def test_hash_is_taken_once(self, monkeypatch):
        """Each lookup reads the stored hash; it hashes no descriptor."""
        scene = full_scene()
        calls = []

        def counted(self):
            calls.append(self)
            return 0

        monkeypatch.setattr(RisDescriptor, "__hash__", counted)
        for _ in range(3):
            hash(scene)
        assert calls == []


@given(p=points)
def test_ris_delay_exceeds_los(p):
    scene = Scene(wall_offset=10.0, ris=(RisDescriptor(1.5, 16),))
    los, ris = ris_paths(scene, p)
    assert ris.tau >= los.tau


@given(p=points)
def test_image_distance_identity(p):
    """When the reflection exists, the virtual-anchor distance equals the
    physical broken-path length through the incidence point."""
    scene = Scene(wall_offset=10.0,
                  reflector=ReflectorDescriptor(1.0, 6.0, 0.3))
    hit, indicator = incidence_point(scene, p)
    if not indicator:
        return
    broken = (math.hypot(hit[0], hit[1])
              + math.hypot(p[0] - hit[0], p[1] - hit[1]))
    direct = build_pathset(scene, None, p, WAVE, "reflector")[1].tau * C
    assert rel(broken, direct) < 1e-9
    assert hit[1] == scene.wall_offset


@given(p=points)
def test_unit_direction_is_unit(p):
    scene = Scene(wall_offset=10.0, scatterer=ScatterDescriptor(1.0, 0.01))
    paths = build_pathset(scene, None, p, WAVE, "scatterer")
    for i in range(len(paths)):
        assert abs(np.linalg.norm(paths.direction[i]) - 1.0) < 1e-12
        # points away from the anchor
        assert np.dot(paths.direction[i], p - paths.anchor[i]) > 0.0


@given(p=points)
def test_incidence_point_on_segment(p):
    scene = Scene(wall_offset=10.0,
                  reflector=ReflectorDescriptor(1.0, 6.0, 0.3))
    crossing, hit = incidence_point(scene, p)
    assert hit == (scene.reflector.h1 <= crossing[0] <= scene.reflector.h2)
    # The crossing lies on the line from the virtual anchor [0, 2L] to p.
    anchor = np.array([0.0, 2.0 * scene.wall_offset])
    assert crossing[1] == scene.wall_offset
    cross = ((crossing[0] - anchor[0]) * (p[1] - anchor[1])
             - (crossing[1] - anchor[1]) * (p[0] - anchor[0]))
    assert abs(cross) < 1e-9


def test_bs_position_is_origin(scene):
    """Every mode's first path, the LOS path, departs from the origin
    with no leg ahead of it."""
    for mode in MODES:
        paths = pathset(scene, [3.5, 5.0], mode)
        assert np.array_equal(paths.anchor[0], [0.0, 0.0]) and paths.fixed_leg[0] == 0.0
