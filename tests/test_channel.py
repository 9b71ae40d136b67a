"""Path gain oracles and pathset construction.

Gain magnitudes and one full complex value are frozen from independent
stdlib computations of the link-budget formulas (lambda over 4 pi
distance products, carrier phase e^{-j 2 pi f_c tau}). RIS gains use the
projected-aperture element lambda^2 sqrt(cos(theta) cos(psi)) / (16 pi
d1 d2), with cos(theta) = L/d1 and cos(psi) = (L - y)/d2 taken from the
geometry, times the element sum written out term by term; they come from
scripts/derive_frozen_values.py, which test_ris_values_match_derivation
runs again.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rispeb.allocation import build_allocation, optimal_phases
from rispeb.channel import (
    build_pathset,
    gain_los,
    gain_reflector,
    gain_ris,
    gain_scatter,
)
from rispeb.geometry import SPEED_OF_LIGHT, Scene, RisDescriptor, ris_angles


# RIS 0 of the default scenario seen from [3.5, 5.0].
RIS0_ALIGNED_GAIN = 4.013234195310467e-06
RIS0_ELEMENT_GAIN = 4.0132341953104664e-08
RIS0_ZERO_PROFILE_ARRAY_FACTOR = 1.3430916596536853


def rel(a, b):
    return abs(a - b) / abs(b)


class TestFrozenGains:
    def test_los_complex_value(self, wave):
        value = gain_los([3.5, 5.0], wave)
        expected = 0.0001364991382200937 - 2.926647837637157e-05j
        assert rel(value, expected) < 1e-12

    def test_ris_gain_optimal_profile(self, scene, wave):
        theta, psi = ris_angles(scene, 0, [3.5, 5.0])
        phases = optimal_phases(theta, psi, 100)
        value = gain_ris(scene, 0, phases, [3.5, 5.0], wave)
        assert rel(abs(value), RIS0_ALIGNED_GAIN) < 1e-12

    def test_ris_gain_zero_profile(self, scene, wave):
        value = gain_ris(scene, 0, np.zeros(100), [3.5, 5.0], wave)
        # element magnitude times the frozen array-factor magnitude
        # |sum_m exp(j pi m (sin(theta) - sin(psi)))|
        expected = RIS0_ELEMENT_GAIN * RIS0_ZERO_PROFILE_ARRAY_FACTOR
        assert rel(abs(value), expected) < 1e-10

    def test_ris_values_match_derivation(self, derived):
        assert rel(float(derived["ris0_aligned_gain"]), RIS0_ALIGNED_GAIN) < 1e-15
        assert rel(float(derived["ris0_element_gain"]), RIS0_ELEMENT_GAIN) < 1e-15
        assert rel(float(derived["ris0_zero_profile_array_factor"]),
                   RIS0_ZERO_PROFILE_ARRAY_FACTOR) < 1e-15

    def test_reflector_complex_value(self, scene, wave):
        value = gain_reflector(scene, [8.0, 2.0], wave)
        expected = -1.9339930889458096e-06 + 1.2831590325965346e-05j
        assert rel(value, expected) < 1e-12

    def test_reflector_shadow_is_exactly_zero(self, scene, wave):
        assert gain_reflector(scene, [14.0, 2.0], wave) == 0j

    def test_scatter_magnitude(self, scene, wave):
        value = gain_scatter(scene, [8.0, 2.0], wave)
        assert rel(abs(value), 2.4715519644308515e-07) < 1e-12


class TestPathset:
    def test_ris_mode_layout(self, scene, wave):
        allocation = build_allocation(scene, [3.5, 5.0], wave, (1, 0, 0, 0, 0))
        paths = build_pathset(scene, allocation, [3.5, 5.0], wave, "ris")
        assert len(paths) == 6
        assert paths[0].kind == "los" and paths[0].index is None
        assert [p.index for p in paths[1:]] == [0, 1, 2, 3, 4]
        assert all(p.kind == "ris" for p in paths[1:])

    def test_baseline_modes_have_two_paths(self, scene, wave):
        for mode in ("reflector", "scatterer"):
            paths = build_pathset(scene, None, [3.5, 5.0], wave, mode)
            assert len(paths) == 2
            assert paths[0].kind == "los"
            assert paths[1].kind == mode

    def test_ris_mode_requires_allocation(self, scene, wave):
        with pytest.raises(ValueError):
            build_pathset(scene, None, [3.5, 5.0], wave, "ris")

    def test_unknown_mode(self, scene, wave):
        with pytest.raises(ValueError):
            build_pathset(scene, None, [3.5, 5.0], wave, "mirror")

    def test_profile_length_checked(self, scene, wave):
        with pytest.raises(ValueError):
            gain_ris(scene, 0, np.zeros(7), [3.5, 5.0], wave)

    def test_path_delay_decomposition(self, scene, wave):
        """fixed_leg + distance(anchor, x) must reproduce c*tau for every
        path kind; downstream re-evaluation relies on it."""
        x = np.array([7.0, 3.0])
        allocation = build_allocation(scene, x, wave, (0, 1, 0, 1, 0))
        for mode, alloc in (("ris", allocation), ("reflector", None),
                            ("scatterer", None)):
            for path in build_pathset(scene, alloc, x, wave, mode):
                span = path.fixed_leg + math.hypot(*(x - path.anchor))
                assert rel(span, path.tau * SPEED_OF_LIGHT) < 1e-12

    def test_directions_are_unit(self, scene, wave):
        allocation = build_allocation(scene, [3.5, 5.0], wave, (1,) * 5)
        paths = build_pathset(scene, allocation, [3.5, 5.0], wave, "ris")
        for path in paths:
            assert abs(np.linalg.norm(path.direction) - 1.0) < 1e-12

    def test_los_direction(self, scene, wave):
        paths = build_pathset(scene, None, [3.0, 4.0], wave, "scatterer")
        assert np.allclose(paths[0].direction, [0.6, 0.8], rtol=1e-15)


@settings(max_examples=40)
@given(
    x=st.tuples(st.floats(-10.0, 10.0), st.floats(0.5, 9.0)).map(np.array),
    k=st.integers(0, 4),
)
def test_optimal_profile_achieves_full_array_gain(x, k):
    """With the aligned profile the cascaded array factor has magnitude
    exactly M, so the gain equals M times the element gain."""
    scene = Scene(wall_offset=10.0,
                  ris=tuple(RisDescriptor(1.5 + i, 25) for i in range(5)),
                  ris_spacing=1.0)
    from rispeb.waveform import WaveformConfig
    wave = WaveformConfig(carrier_hz=28e9, bandwidth_hz=1e8,
                          subcarrier_count=129)
    theta, psi = ris_angles(scene, k, x)
    value = gain_ris(scene, k, optimal_phases(theta, psi, 25), x, wave)
    lam = SPEED_OF_LIGHT / wave.carrier_hz
    d1 = math.hypot(1.5 + k, 10.0)
    d2 = math.hypot(x[0] - (1.5 + k), x[1] - 10.0)
    cosines = (10.0 / d1) * ((10.0 - x[1]) / d2)
    unit = lam ** 2 * math.sqrt(cosines) / (16 * math.pi * d1 * d2)
    assert rel(abs(value), 25 * unit) < 1e-9


def test_zero_profile_reflects_specularly(scene, wave):
    """The all-zero profile makes the surface a flat mirror: along a user
    row its gain peaks where the mirror image of the BS, [0, 2L], sees the
    user through the RIS center (the main lobe is about 0.2 m wide)."""
    k, row = 2, 3.0
    center = scene.ris[k].center_x
    wall = scene.wall_offset
    specular_x = center * (2.0 * wall - row) / wall
    xs = np.arange(-5.0, 15.0, 0.01)
    flat = np.zeros(scene.ris[k].element_count)
    gains = [abs(gain_ris(scene, k, flat, [x, row], wave)) for x in xs]
    assert abs(xs[int(np.argmax(gains))] - specular_x) < 0.05
