"""Geometry oracles and invariants.

Expected values are frozen from independent stdlib-math computations of
the delay and image-source formulas; tests compare the package against
those literals rather than re-deriving them with package code. Path
delays and directions are read from the Path fields that
channel.build_pathset computes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rispeb.allocation import build_allocation
from rispeb.channel import build_pathset
from rispeb.geometry import (
    BS_POSITION,
    SPEED_OF_LIGHT,
    DegeneratePositionError,
    ReflectorDescriptor,
    RisDescriptor,
    ScatterDescriptor,
    Scene,
    incidence_point,
    ris_angles,
    ris_center,
    scatter_position,
    virtual_anchor,
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

    def test_ris_angles(self, scene):
        theta, psi = ris_angles(scene, 2, [8.0, 2.0])
        assert rel(theta, 0.33667481938672716) < 1e-12
        assert rel(psi, 0.5123894603107377) < 1e-12

    def test_virtual_anchor(self, scene):
        assert np.allclose(virtual_anchor(scene), [0.0, 20.0], rtol=0, atol=0)

    def test_incidence_point_hit(self, scene):
        point, indicator = incidence_point(scene, [8.0, 2.0])
        assert indicator == 1
        assert rel(point[0], 4.444444444444445) < 1e-12
        assert point[1] == scene.wall_offset

    def test_incidence_point_miss(self, scene):
        point, indicator = incidence_point(scene, [14.0, 2.0])
        assert indicator == 0
        assert point is None

    def test_reflector_delay(self, scene):
        tau = build_pathset(scene, None, [8.0, 2.0], WAVE, "reflector")[1].tau
        assert rel(tau, 6.570450682782756e-08) < 1e-12

    def test_scatter_delay(self, scene):
        tau = build_pathset(scene, None, [8.0, 2.0], WAVE, "scatterer")[1].tau
        assert rel(tau, 6.595759632335866e-08) < 1e-12

    def test_ris_center(self, scene):
        assert np.array_equal(ris_center(scene, 3), [4.5, 10.0])

    def test_scatter_position(self, scene):
        assert np.array_equal(scatter_position(scene), [3.5, 10.0])


class TestDegeneracy:
    def test_bs_coincidence(self, scene):
        with pytest.raises(DegeneratePositionError):
            build_pathset(scene, None, [0.0, 0.0], WAVE, "reflector")

    def test_near_miss_is_fine(self, scene):
        paths = build_pathset(scene, None, [1e-5, 1e-5], WAVE, "reflector")
        assert paths[0].tau > 0.0


class TestSceneValidation:
    def test_centers_must_increase(self):
        with pytest.raises(ValueError):
            Scene(wall_offset=10.0,
                  ris=(RisDescriptor(2.0, 8), RisDescriptor(1.0, 8)),
                  ris_spacing=1.0)

    def test_spacing_mismatch(self):
        with pytest.raises(ValueError):
            Scene(wall_offset=10.0,
                  ris=(RisDescriptor(1.0, 8), RisDescriptor(2.5, 8)),
                  ris_spacing=1.0)

    def test_spacing_required(self):
        with pytest.raises(ValueError):
            Scene(wall_offset=10.0,
                  ris=(RisDescriptor(1.0, 8), RisDescriptor(2.0, 8)))

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
        with pytest.raises(ValueError):
            RisDescriptor(center_x=1.5, element_count=0)


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
    if indicator == 0:
        return
    broken = (math.hypot(hit[0], hit[1])
              + math.hypot(p[0] - hit[0], p[1] - hit[1]))
    direct = build_pathset(scene, None, p, WAVE, "reflector")[1].tau * C
    assert rel(broken, direct) < 1e-9
    assert hit[1] == scene.wall_offset


@given(p=points)
def test_unit_direction_is_unit(p):
    scene = Scene(wall_offset=10.0, scatterer=ScatterDescriptor(1.0, 0.01))
    for path in build_pathset(scene, None, p, WAVE, "scatterer"):
        assert abs(np.linalg.norm(path.direction) - 1.0) < 1e-12
        # points away from the anchor
        assert np.dot(path.direction, p - path.anchor) > 0.0


@given(p=points)
def test_incidence_point_on_segment(p):
    scene = Scene(wall_offset=10.0,
                  reflector=ReflectorDescriptor(1.0, 6.0, 0.3))
    hit, indicator = incidence_point(scene, p)
    if indicator:
        assert scene.reflector.h1 <= hit[0] <= scene.reflector.h2
    else:
        assert hit is None


def test_bs_position_is_origin():
    assert np.array_equal(BS_POSITION, np.zeros(2))
