"""Fisher information oracles.

The synthetic two-path matrix below is frozen from an independent plain
Python summation of the information kernel over subcarriers (no package
code); the numerical oracle differentiates the raw observation model by
central differences and must agree with the closed-form assembly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rispeb.allocation import build_allocation
from rispeb.channel import Path, PathSet, build_pathset
from rispeb.fim import (
    count_resolvable_paths,
    fim_direct,
    fim_interference,
    fim_numerical,
    fim_total,
    peb,
)
from rispeb.geometry import SPEED_OF_LIGHT as C
from rispeb.waveform import (
    WaveformConfig,
    delay_kernel_peak,
    delay_resolution,
    unambiguous_range,
)

X = np.array([2.0, 1.5])


def synthetic_path(kind, tau, alpha, e, span=1.0, index=None):
    """Path with arbitrary delay/gain/direction, internally consistent so
    the numerical oracle can re-evaluate it around X."""
    e = np.asarray(e, dtype=float)
    return Path(kind=kind, index=index, tau=tau, alpha=alpha, direction=e,
                anchor=X - span * e, fixed_leg=tau * C - span)


def make_wave(bandwidth=1e8):
    return WaveformConfig(carrier_hz=28e9, bandwidth_hz=bandwidth,
                          subcarrier_count=129)


FROZEN_J = np.array([
    [1027.3412231211782, -30.539807787837134],
    [-30.539807787837134, 188.68587864666975],
])


def synthetic_pair():
    return PathSet(paths=(
        synthetic_path("los", 20e-9, 1e-4 + 0j, (1.0, 0.0)),
        synthetic_path("ris", 30e-9, (3 + 4j) * 1e-5, (0.6, 0.8), span=2.0,
                       index=0),
    ))


class TestSyntheticOracle:
    def test_total_matches_frozen(self):
        total = fim_total(synthetic_pair(), make_wave()).total
        assert np.linalg.norm(total - FROZEN_J) / np.linalg.norm(FROZEN_J) < 1e-12

    def test_total_is_direct_plus_interference(self):
        paths, wave = synthetic_pair(), make_wave()
        fim = fim_total(paths, wave)
        recomposed = fim_direct(paths, wave) + fim_interference(paths, wave)
        assert np.allclose(fim.total, 0.5 * (recomposed + recomposed.T),
                           rtol=1e-15, atol=0)

    def test_total_symmetric(self):
        total = fim_total(synthetic_pair(), make_wave()).total
        assert total[0, 1] == total[1, 0]

    def test_peb_matches_frozen(self):
        value = peb(fim_total(synthetic_pair(), make_wave()))
        assert abs(value.value - 0.07939476929621234) < 1e-15
        assert not value.rank_deficient

    def test_numerical_oracle_agrees(self):
        paths, wave = synthetic_pair(), make_wave()
        reference = fim_numerical(paths, wave)
        total = fim_total(paths, wave).total
        assert (np.linalg.norm(total - reference)
                / np.linalg.norm(reference)) < 1e-6

    def test_direct_term_alone(self):
        paths, wave = synthetic_pair(), make_wave()
        direct = fim_direct(paths, wave)
        peak = delay_kernel_peak(wave)
        e0, e1 = np.array([1.0, 0.0]), np.array([0.6, 0.8])
        expected = (abs(1e-4) ** 2 * peak * np.outer(e0, e0)
                    + abs((3 + 4j) * 1e-5) ** 2 * peak * np.outer(e1, e1))
        assert np.allclose(direct, expected, rtol=1e-12, atol=0)


class TestPeb:
    def test_closed_form_equals_inverse_trace(self):
        j = np.array([[4.0, 1.0], [1.0, 1.0]])
        expected = math.sqrt(np.trace(np.linalg.inv(j)))
        assert abs(peb(j).value - expected) < 1e-15

    def test_rank_deficient_is_infinite(self):
        e = np.array([0.6, 0.8])
        j = 1234.5 * np.outer(e, e)
        value = peb(j)
        assert value.value == math.inf and value.rank_deficient

    def test_near_singular_condition_guard(self):
        e0 = np.array([1.0, 0.0])
        e1 = np.array([1.0, 1e-9])
        e1 = e1 / np.linalg.norm(e1)
        value = peb(1e3 * (np.outer(e0, e0) + np.outer(e1, e1)))
        assert value.value == math.inf and value.rank_deficient

    def test_zero_matrix(self):
        assert peb(np.zeros((2, 2))).value == math.inf

    def test_accepts_fim2(self):
        fim = fim_total(synthetic_pair(), make_wave())
        assert peb(fim).value == peb(fim.total).value


def chain(meters, alphas=None):
    """LOS-led pathset with prescribed delays in meters."""
    alphas = alphas or [1e-5] * len(meters)
    paths = [synthetic_path("los", meters[0] / C, alphas[0], (1.0, 0.0))]
    for i, m in enumerate(meters[1:]):
        paths.append(synthetic_path("ris", m / C, alphas[i + 1], (0.0, 1.0),
                                    index=i))
    return PathSet(paths=tuple(paths))


class TestResolvableCount:
    def test_two_clusters_from_three_paths(self):
        assert count_resolvable_paths(chain([10.0, 12.7, 15.4]),
                                      make_wave()) == 2

    def test_two_clusters_from_four_paths(self):
        assert count_resolvable_paths(chain([10.0, 12.7, 15.4, 18.1]),
                                      make_wave()) == 2

    def test_tight_chain_collapses(self):
        assert count_resolvable_paths(chain([10.0, 11.0, 12.0]),
                                      make_wave()) == 1

    def test_long_chain_keeps_three_centroids(self):
        """A 2 m-step chain spans 8 m: nearest-centroid merging leaves
        three separable clusters where chained merging would leave one."""
        assert count_resolvable_paths(chain([10.0, 12.0, 14.0, 16.0, 18.0]),
                                      make_wave()) == 3

    def test_zero_gain_paths_ignored(self):
        paths = chain([10.0, 12.7, 30.0], alphas=[1e-5, 0j, 1e-5])
        assert count_resolvable_paths(paths, make_wave()) == 2

    def test_well_separated(self):
        assert count_resolvable_paths(chain([10.0, 20.0, 30.0]),
                                      make_wave()) == 3

    def test_bandwidth_rescues_resolution(self):
        paths = chain([10.0, 11.0, 12.0])
        assert count_resolvable_paths(paths, make_wave(1e9)) == 3

    def test_single_path(self):
        assert count_resolvable_paths(chain([10.0]), make_wave()) == 1

    def test_aliased_delays_rejected(self):
        """The kernel repeats every (N+1)/W: at 10 GHz the reflector path
        at [3.45, 7.95] is 3.8678 m longer than the LOS path, 0.5 mm from
        the 3.8673 m alias period, where the kernel is back at its peak."""
        from rispeb.config import default_config
        scene = default_config().scene()
        paths = build_pathset(scene, None, [3.45, 7.95], make_wave(1e10),
                              "reflector")
        with pytest.raises(ValueError, match="aliasing"):
            count_resolvable_paths(paths, make_wave(1e10))

    def test_alias_limit_is_range_less_one_cell(self):
        wave = make_wave()
        allowed = unambiguous_range(wave) - delay_resolution(wave)
        assert count_resolvable_paths(chain([10.0, 10.0 + allowed - 1e-6]),
                                      wave) == 2
        with pytest.raises(ValueError, match="aliasing"):
            count_resolvable_paths(chain([10.0, 10.0 + allowed + 1e-6]), wave)


@settings(max_examples=30)
@given(
    meters=st.lists(st.floats(5.0, 300.0), min_size=1, max_size=6),
    order=st.randoms(),
)
def test_count_is_permutation_invariant(meters, order):
    wave = make_wave()
    base = count_resolvable_paths(chain(meters), wave)
    shuffled = list(meters[1:])
    order.shuffle(shuffled)
    assert count_resolvable_paths(chain([meters[0]] + shuffled), wave) == base
    assert 1 <= base <= len(meters)


@settings(max_examples=25, deadline=None)
@given(
    x=st.tuples(st.floats(-8.0, 14.0), st.floats(0.6, 9.4)).map(np.array),
    mode=st.sampled_from(["ris", "reflector", "scatterer"]),
)
def test_fim_oracle_on_scene(x, mode):
    """Closed-form FIM equals the differentiated observation model at
    random positions in every mode (sampled harder in acceptance)."""
    from rispeb.config import default_config
    cfg = default_config()
    scene, wave = cfg.scene(), cfg.waveform()
    if math.hypot(*x) < 1e-3:
        return
    allocation = None
    if mode == "ris":
        allocation = build_allocation(scene, x, wave, (1, 0, 1, 0, 1))
    paths = build_pathset(scene, allocation, x, wave, mode)
    reference = fim_numerical(paths, wave)
    total = fim_total(paths, wave).total
    scale = np.linalg.norm(reference)
    if scale == 0.0:
        return
    assert np.linalg.norm(total - reference) / scale < 1e-5
