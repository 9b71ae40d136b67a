"""Path gain oracles and pathset construction.

Gain magnitudes and one full complex value are frozen from independent
stdlib computations of the link-budget formulas (lambda over 4 pi
distance products, carrier phase e^{-j 2 pi f_c tau}). The frozen RIS
gains, one complex inactive cascade among them, come from
scripts/derive_frozen_values.py, which test_ris_values_match_derivation
runs again. Aligned RIS gains at random positions, grazing ones
included, are compared against rispeb.checks.aligned_gain: M lambda^2
sqrt(cos(theta) cos(psi)) / (16 pi d1 d2), with cos(theta) = L/d1 and
cos(psi) = (L - y)/d2 taken from the geometry. The closed-form cascade
D_M is compared with rispeb.checks.element_sum, the element sum written
out term by term. Every gain is read from build_pathset's alpha.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rispeb import channel
from rispeb.allocation import (
    Allocation,
    SelectionConstraints,
    build_allocation,
    select_ris,
)
from rispeb.channel import Path, build_pathset
from rispeb.checks import aligned_gain, element_sum, fim_gap
from rispeb.fim import fim_total, peb
from rispeb.geometry import SPEED_OF_LIGHT, Scene, RisDescriptor


# RIS 0 of the default scenario seen from [3.5, 5.0].
RIS0_ALIGNED_GAIN = 4.013234195310467e-06
RIS0_ELEMENT_GAIN = 4.0132341953104664e-08
RIS0_ZERO_PROFILE_ARRAY_FACTOR = 1.3430916596536853
RIS0_INACTIVE_GAIN = 4.188001321175121e-08 + 3.39326818666824e-08j


def rel(a, b):
    return abs(a - b) / abs(b)


def ris_gain(scene, wave, k, design, x):
    """The gain of RIS k at x with design steering design on it and
    every other surface flat, from the pathset."""
    active = tuple(int(i == k) for i in range(len(scene.ris)))
    allocation = Allocation(active, tuple(design if i == k else 0.0
                                          for i in range(len(scene.ris))))
    return build_pathset(scene, allocation, x, wave, "ris").alpha[..., 1 + k]


class TestFrozenGains:
    def test_los_complex_value(self, scene, wave):
        value = build_pathset(scene, None, [3.5, 5.0], wave, "scatterer").alpha[0]
        expected = 0.0001364991382200937 - 2.926647837637157e-05j
        assert rel(value, expected) < 1e-12

    def test_ris_gain_optimal_profile(self, scene, wave):
        allocation = build_allocation(scene, [3.5, 5.0], wave, (1, 0, 0, 0, 0))
        value = build_pathset(scene, allocation, [3.5, 5.0], wave, "ris").alpha[1]
        assert rel(abs(value), RIS0_ALIGNED_GAIN) < 1e-12

    def test_ris_gain_zero_profile(self, scene, wave):
        value = ris_gain(scene, wave, 0, 0.0, [3.5, 5.0])
        # element magnitude times the frozen array-factor magnitude
        # |sum_m exp(j pi m (sin(theta) - sin(psi)))|
        expected = RIS0_ELEMENT_GAIN * RIS0_ZERO_PROFILE_ARRAY_FACTOR
        assert rel(abs(value), expected) < 1e-10

    def test_ris_gain_inactive_complex_value(self, scene, wave):
        """The phase of a cascade that is not aligned follows the carrier
        convention: the only frozen value that can tell."""
        value = ris_gain(scene, wave, 0, 0.0, [3.5, 5.0])
        assert rel(value, RIS0_INACTIVE_GAIN) < 1e-12

    def test_ris_values_match_derivation(self, derived):
        assert rel(float(derived["ris0_aligned_gain"]), RIS0_ALIGNED_GAIN) < 1e-15
        assert rel(float(derived["ris0_element_gain"]), RIS0_ELEMENT_GAIN) < 1e-15
        assert rel(float(derived["ris0_zero_profile_array_factor"]),
                   RIS0_ZERO_PROFILE_ARRAY_FACTOR) < 1e-15
        assert rel(complex(derived["ris0_inactive_gain"]), RIS0_INACTIVE_GAIN) < 1e-15

    def test_reflector_complex_value(self, scene, wave):
        value = build_pathset(scene, None, [8.0, 2.0], wave, "reflector").alpha[1]
        expected = -1.9339930889458096e-06 + 1.2831590325965346e-05j
        assert rel(value, expected) < 1e-12

    def test_reflector_shadow_is_exactly_zero(self, scene, wave):
        assert build_pathset(scene, None, [14.0, 2.0], wave, "reflector").alpha[1] == 0j

    def test_scatter_magnitude(self, scene, wave):
        value = build_pathset(scene, None, [8.0, 2.0], wave, "scatterer").alpha[1]
        assert rel(abs(value), 2.4715519644308515e-07) < 1e-12


class TestPathset:
    def test_ris_mode_layout(self, scene, wave):
        allocation = build_allocation(scene, [3.5, 5.0], wave, (1, 0, 0, 0, 0))
        paths = build_pathset(scene, allocation, [3.5, 5.0], wave, "ris")
        assert len(paths) == 6
        assert paths[0].kind == "los" and paths[0].index is None
        assert [p.index for p in list(paths)[1:]] == [0, 1, 2, 3, 4]
        assert all(p.kind == "ris" for p in list(paths)[1:])

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

    def test_path_delay_decomposition(self, scene, wave):
        """fixed_leg + distance(anchor, x) must reproduce c*tau for every
        path kind; downstream re-evaluation relies on it."""
        x = np.array([7.0, 3.0])
        allocation = build_allocation(scene, x, wave, (0, 1, 0, 1, 0))
        for mode, alloc in (("ris", allocation), ("reflector", None),
                            ("scatterer", None)):
            paths = build_pathset(scene, alloc, x, wave, mode)
            for i in range(len(paths)):
                span = paths.fixed_leg[i] + math.hypot(*(x - paths.anchor[i]))
                assert rel(span, paths.tau[i] * SPEED_OF_LIGHT) < 1e-12

    def test_directions_are_unit(self, scene, wave):
        allocation = build_allocation(scene, [3.5, 5.0], wave, (1,) * 5)
        paths = build_pathset(scene, allocation, [3.5, 5.0], wave, "ris")
        for path in paths:
            assert abs(np.linalg.norm(path.direction) - 1.0) < 1e-12

    def test_los_direction(self, scene, wave):
        paths = build_pathset(scene, None, [3.0, 4.0], wave, "scatterer")
        assert np.allclose(paths[0].direction, [0.6, 0.8], rtol=1e-15)

    def test_one_distance_pass_per_pathset(self, scene, wave, monkeypatch):
        """The paths' geometry is evaluated in one pass over the mode's
        path table, for every gain and record alike, and the RIS gains in
        one gain_ris call."""
        x = np.array([[8.0, 4.0], [3.5, 5.0]])
        allocation = build_allocation(scene, x, wave, (0, 1, 0, 1, 0))
        passes, gains = [], []
        distances, gain_ris = channel._PathTable.distances, channel.gain_ris

        def counted_pass(table, *args, **kwargs):
            passes.append(table.kinds)
            return distances(table, *args, **kwargs)

        def counted_gain(*args, **kwargs):
            gains.append(args)
            return gain_ris(*args, **kwargs)

        monkeypatch.setattr(channel._PathTable, "distances", counted_pass)
        monkeypatch.setattr(channel, "gain_ris", counted_gain)
        for mode, alloc in (("ris", allocation), ("reflector", None),
                            ("scatterer", None)):
            passes.clear()
            gains.clear()
            paths = build_pathset(scene, alloc, x, wave, mode)
            assert passes == [paths.kinds]
            assert len(gains) == (mode == "ris")

    def test_anchors_are_shared_and_read_only(self, scene, wave):
        """Every pathset of a scene and mode holds the one cached copy of
        its anchors and fixed legs, which no caller can write."""
        for mode, x in (("reflector", [8.0, 4.0]), ("scatterer", [[8.0, 4.0], [1.0, 2.0]])):
            first, second = (build_pathset(scene, None, x, wave, mode) for _ in range(2))
            assert first.anchor is second.anchor and first.fixed_leg is second.fixed_leg
            for array in (first.anchor, first.fixed_leg):
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0.0

    def test_batch_shapes_and_entries(self, scene, wave):
        """A column of points against a batch of designs: tau and direction
        keep the points' axes, alpha also spans the designs, and every
        entry is the pathset of that point and pattern alone."""
        points = np.array([[3.5, 5.0], [8.0, 4.0], [-2.0, 7.5]])
        patterns = [(0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (0, 1, 0, 1, 0), (1, 1, 1, 1, 1)]
        column = points[:, None, :]
        steering = build_allocation(scene, column, wave, (1,) * 5).design
        design = tuple(np.where(np.array(patterns)[:, k], aligned, 0.0)
                       for k, aligned in enumerate(steering))
        paths = build_pathset(scene, Allocation((1,) * 5, design), column, wave, "ris")
        n, count = len(points), len(patterns)
        assert paths.tau.shape == (n, 1, 6)
        assert paths.alpha.shape == (n, count, 6)
        assert paths.direction.shape == (n, 1, 6, 2)
        assert paths.anchor.shape == (6, 2) and paths.fixed_leg.shape == (6,)
        for i, point in enumerate(points):
            for j, bits in enumerate(patterns):
                one = build_pathset(scene, build_allocation(scene, point, wave, bits),
                                    point, wave, "ris")
                assert np.array_equal(paths.tau[i, 0], one.tau)
                assert np.array_equal(paths.alpha[i, j], one.alpha)
                assert np.array_equal(paths.direction[i, 0], one.direction)
                assert np.array_equal(paths.anchor, one.anchor)
                assert np.array_equal(paths.fixed_leg, one.fixed_leg)

    def test_starts_with_los(self, scene, wave):
        paths = build_pathset(scene, None, [8.0, 4.0], wave, "reflector")
        with pytest.raises(ValueError, match="LOS"):
            dataclasses.replace(paths, kinds=("reflector", "los"))
        with pytest.raises(ValueError, match="LOS"):
            dataclasses.replace(paths, kinds=())

    def test_views(self, scene, wave):
        """An int index or iteration gives Path views of the arrays, with
        exactly five fields (anchors and fixed legs stay on the PathSet);
        a slice is not a path."""
        allocation = build_allocation(scene, [3.5, 5.0], wave, (0, 0, 1, 0, 0))
        paths = build_pathset(scene, allocation, [3.5, 5.0], wave, "ris")
        with pytest.raises(TypeError):
            paths[1:]
        views = list(paths)
        assert len(views) == len(paths) == 6
        for i, path in enumerate(views):
            assert isinstance(path, Path)
            assert [f.name for f in dataclasses.fields(path)] == [
                "kind", "index", "tau", "alpha", "direction"]
            assert (path.kind, path.index) == (paths.kinds[i], paths.indices[i])
            assert path.tau == paths.tau[i] and path.alpha == paths.alpha[i]
            assert np.array_equal(path.direction, paths.direction[i])



class TestFarPosition:
    """At 28 GHz the carrier phase 2*pi*f_c*tau overflows a float from
    about 4e305 m out (3e305 m is still finite): such a position is
    refused by name before any gain is taken, with no RuntimeWarning."""

    @pytest.mark.parametrize("mode", ["ris", "reflector", "scatterer"])
    @pytest.mark.parametrize("x", [[1e308, 5.0], [4e305, 5.0], [-1e308, -1e308]],
                             ids=["1e308", "4e305", "corner"])
    def test_pathset_refuses_it(self, scene, wave, mode, x):
        allocation = Allocation((0,) * 5, (0.0,) * 5) if mode == "ris" else None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"position \(.*\) is too far away"):
                build_pathset(scene, allocation, x, wave, mode)

    def test_batch_names_its_first_far_position(self, scene, wave):
        x = [[3.5, 5.0], [4e305, 5.0], [1e308, 5.0]]
        with pytest.raises(ValueError, match=r"^position \(4e\+305, 5\) is too far away"):
            build_pathset(scene, None, x, wave, "reflector")

    @pytest.mark.parametrize("k_bar", [0, 1, 2])
    def test_selection_refuses_it(self, scene, wave, k_bar):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^position \(1e\+308, 5\) is too far away"):
                select_ris(scene, [1e308, 5.0], wave, SelectionConstraints(k_bar=k_bar))

    @pytest.mark.parametrize("mode", ["ris", "reflector", "scatterer"])
    def test_farthest_finite_phase_still_builds(self, scene, wave, mode):
        allocation = Allocation((0,) * 5, (0.0,) * 5) if mode == "ris" else None
        paths = build_pathset(scene, allocation, [3e305, 5.0], wave, mode)
        assert np.isfinite(paths.alpha).all()


def test_rebound_gain_ris_reaches_pathsets_and_selection(scene, wave, monkeypatch):
    """build_pathset calls gain_ris through the module's binding, so
    rebinding channel.gain_ris (as the benchmark's gain_x1e-6
    perturbation does) moves the RIS gains and the selected bound."""
    x = np.array([3.5, 5.0])
    allocation = build_allocation(scene, x, wave, (1, 0, 0, 0, 0))
    before = build_pathset(scene, allocation, x, wave, "ris").alpha
    bound = select_ris(scene, x, wave, SelectionConstraints(k_bar=1))[1].value
    original = channel.gain_ris
    monkeypatch.setattr(channel, "gain_ris",
                        lambda *args, **kwargs: original(*args, **kwargs) * (1.0 + 1e-6))
    after = build_pathset(scene, allocation, x, wave, "ris").alpha
    assert after[0] == before[0]
    assert np.all(after[1:] != before[1:])
    assert select_ris(scene, x, wave, SelectionConstraints(k_bar=1))[1].value != bound


@settings(max_examples=40)
@given(
    x=st.tuples(st.floats(-10.0, 10.0), st.floats(0.5, 9.0)).map(np.array),
    k=st.integers(0, 4),
)
def test_optimal_profile_achieves_full_array_gain(x, k):
    """With the aligned profile the cascaded array factor has magnitude
    exactly M, so the gain equals M times the element gain (the closed
    form checks.aligned_gain). The aligned design sin(theta) - sin(psi)
    is c/d1 - (x - c)/d2 for a surface centered at [c, L], d1 and d2 its
    distances to the BS and to the user."""
    scene = Scene(wall_offset=10.0,
                  ris=tuple(RisDescriptor(1.5 + i, 25) for i in range(5)))
    from rispeb.waveform import WaveformConfig
    wave = WaveformConfig(carrier_hz=28e9, bandwidth_hz=1e8,
                          subcarrier_count=129)
    c, wall = scene.ris[k].center_x, scene.wall_offset
    design = c / math.hypot(c, wall) - (x[0] - c) / math.hypot(x[0] - c, wall - x[1])
    value = ris_gain(scene, wave, k, design, x)
    assert rel(abs(value), aligned_gain(scene, k, x, wave)) < 1e-9


def test_zero_profile_reflects_specularly(scene, wave):
    """The all-zero profile makes the surface a flat mirror: along a user
    row its gain peaks where the mirror image of the BS, [0, 2L], sees the
    user through the RIS center (the main lobe is about 0.2 m wide)."""
    k, row = 2, 3.0
    center = scene.ris[k].center_x
    wall = scene.wall_offset
    specular_x = center * (2.0 * wall - row) / wall
    xs = np.arange(-5.0, 15.0, 0.01)
    points = np.stack([xs, np.full_like(xs, row)], axis=-1)
    gains = np.abs(ris_gain(scene, wave, k, 0.0, points))
    assert abs(xs[int(np.argmax(gains))] - specular_x) < 0.05


@settings(max_examples=40, deadline=None)
@given(x=st.floats(-5.0, 15.0), depth=st.floats(1e-5, 1e-2))
def test_grazing_departure_stays_finite_and_accurate(x, depth, scene, wave):
    """Users just below the wall see every RIS at psi near +-pi/2, where
    the projected aperture cos(psi) nearly vanishes: the gains stay
    finite and aligned, the FIM matches numerical differentiation and
    the bound is never nan."""
    point = np.array([x, scene.wall_offset - depth])
    allocation = build_allocation(scene, point, wave, (1,) * len(scene.ris))
    paths = build_pathset(scene, allocation, point, wave, "ris")
    assert all(np.isfinite(path.alpha) for path in paths)
    for path in list(paths)[1:]:
        expected = aligned_gain(scene, path.index, point, wave)
        assert rel(abs(path.alpha), expected) < 1e-9
    assert fim_gap(paths, wave) < 1e-5
    assert not math.isnan(peb(fim_total(paths, wave)).value)


@pytest.mark.parametrize("depth", [1e-9, 1e-12])
def test_aligned_gain_exact_at_grazing(depth, scene, wave):
    """Users 1 nm and 1 pm below the wall: cos(psi) = (L - y)/d2 keeps
    the aligned gain to rounding, where an angle's cosine would not."""
    xs = np.linspace(-4.9, 14.9, 41)
    points = np.stack([xs, np.full_like(xs, scene.wall_offset - depth)], axis=-1)
    for point in points:
        allocation = build_allocation(scene, point, wave, (1,) * len(scene.ris))
        gains = build_pathset(scene, allocation, point, wave, "ris").alpha[1:]
        for k, value in enumerate(gains):
            assert rel(abs(value), aligned_gain(scene, k, point, wave)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(theta=st.floats(-1.4, 1.4), psi=st.floats(-1.4, 1.4),
       design=st.floats(-2.0, 2.0), count=st.sampled_from([1, 7, 100]),
       lobe=st.sampled_from([None, 0.0, 2.0, -2.0]))
@example(theta=0.0, psi=0.0, design=0.0, count=100, lobe=None)
@example(theta=0.0, psi=0.0, design=2.0, count=100, lobe=None)
@example(theta=0.0, psi=0.0, design=-2.0, count=7, lobe=None)
def test_cascade_matches_element_sum(theta, psi, design, count, lobe, wave):
    """gain_ris is the carrier times the element amplitude times D_M; D_M
    equals the centered element sum under the profile pi*n*design, on the
    main lobe (u - design = 0) and the grating lobes (u - design = +-2)
    too. lobe sets design = u - lobe with u the steering at the user."""
    wall, reach = 10.0, 5.0
    center = wall * math.tan(theta)
    scene = Scene(wall_offset=wall, ris=(RisDescriptor(center, count),))
    point = np.array([center + reach * math.sin(psi), wall - reach * math.cos(psi)])
    if lobe is not None:
        design = build_allocation(scene, point, wave, (1,)).design[0] - lobe
    value = ris_gain(scene, wave, 0, design, point)
    path = math.hypot(center, wall) + math.hypot(*(point - [center, wall]))
    carrier = np.exp(-2j * math.pi * wave.carrier_hz * path / SPEED_OF_LIGHT)
    cascade = value / (carrier * aligned_gain(scene, 0, point, wave) / count)
    n = np.arange(count) - 0.5 * (count - 1)
    assert abs(cascade - element_sum(theta, psi, math.pi * n * design)) < 1e-9 * count
