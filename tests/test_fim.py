"""Fisher information oracles.

The synthetic two-path matrix below is frozen from an independent plain
Python summation of the information kernel over subcarriers (no package
code); the numerical oracle differentiates the raw observation model by
central differences and must agree with the closed-form assembly
(checks.fim_gap measures the gap).
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rispeb.allocation import build_allocation
from rispeb.channel import Path, PathSet, build_pathset
from rispeb.checks import count_clusters, fim_gap
from rispeb.fim import (
    _count_clusters,
    count_resolvable_paths,
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


def stack(paths):
    """PathSet of Paths whose fields carry the same leading axes."""
    return PathSet(
        kinds=tuple(p.kind for p in paths), indices=tuple(p.index for p in paths),
        tau=np.stack([np.asarray(p.tau, dtype=float) for p in paths], axis=-1),
        alpha=np.stack(np.broadcast_arrays(*(np.asarray(p.alpha, dtype=complex)
                                             for p in paths)), axis=-1),
        direction=np.stack([p.direction for p in paths], axis=-2),
        anchor=np.array([p.anchor for p in paths]),
        fixed_leg=np.array([p.fixed_leg for p in paths]))


def make_wave(bandwidth=1e8):
    return WaveformConfig(carrier_hz=28e9, bandwidth_hz=bandwidth,
                          subcarrier_count=129)


FROZEN_J = np.array([
    [1027.3412231211782, -30.539807787837134],
    [-30.539807787837134, 188.68587864666975],
])


def synthetic_pair():
    return stack([
        synthetic_path("los", 20e-9, 1e-4 + 0j, (1.0, 0.0)),
        synthetic_path("ris", 30e-9, (3 + 4j) * 1e-5, (0.6, 0.8), span=2.0,
                       index=0),
    ])


class TestSyntheticOracle:
    def test_total_matches_frozen(self):
        total = fim_total(synthetic_pair(), make_wave()).total
        assert np.linalg.norm(total - FROZEN_J) / np.linalg.norm(FROZEN_J) < 1e-12

    def test_total_is_direct_plus_interference(self):
        paths, wave = synthetic_pair(), make_wave()
        fim = fim_total(paths, wave)
        recomposed = fim.direct + fim.interference
        assert np.allclose(fim.total, 0.5 * (recomposed + recomposed.T),
                           rtol=1e-15, atol=0)

    def test_total_symmetric(self):
        total = fim_total(synthetic_pair(), make_wave()).total
        assert total[0, 1] == total[1, 0]

    def test_peb_matches_frozen(self):
        value = peb(fim_total(synthetic_pair(), make_wave()))
        assert abs(value.value - 0.07939476929621234) < 1e-15

    def test_numerical_oracle_agrees(self):
        assert fim_gap(synthetic_pair(), make_wave()) < 1e-6

    def test_direct_term_alone(self):
        paths, wave = synthetic_pair(), make_wave()
        direct = fim_total(paths, wave).direct
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
        assert math.isinf(peb(j).value)

    def test_near_singular_condition_guard(self):
        e0 = np.array([1.0, 0.0])
        e1 = np.array([1.0, 1e-9])
        e1 = e1 / np.linalg.norm(e1)
        assert math.isinf(peb(1e3 * (np.outer(e0, e0) + np.outer(e1, e1))).value)

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
    return stack(paths)


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


# Bandwidth 2^27 Hz makes 1/W = 2^-27 s and delays on a 2^-30 s lattice
# exact, so rows hold exact duplicates, gaps of exactly 1/W (8 steps) and
# exactly tied gaps below it.
DYADIC = make_wave(2.0**27)
STEP = 2.0**-30


@st.composite
def delay_rows(draw):
    """Rows of (lattice step, exists) cells of one width, up to ten paths
    (a merge early in a long row shifts many clusters), plus a row in
    which no path exists."""
    width = draw(st.integers(1, 10))
    cell = st.tuples(st.integers(0, 40), st.booleans())
    rows = draw(st.lists(st.lists(cell, min_size=width, max_size=width),
                         min_size=1, max_size=12))
    return rows + [[(0, False)] * width]


# Tied gaps below 1/W where merging the right pair first would give
# another count: (0, 0, 5, 10), (0, 5, 9, 11) and (0, 6, 12, 19) steps.
TIED = [[(0, True), (0, True), (5, True), (10, True)],
        [(0, True), (5, True), (9, True), (11, True)],
        [(0, True), (6, True), (12, True), (19, True)],
        [(0, False)] * 4]

# Ten paths whose first five coincide: four merges at the front of the
# row, each shifting the five clusters behind it, which stay exactly 1/W
# (8 steps) apart.
LONG = [[(0, True)] * 5 + [(step, True) for step in (8, 16, 24, 32, 40)],
        [(0, False)] * 10]


@settings(max_examples=100, deadline=None)
@given(rows=delay_rows())
@example(rows=TIED)
@example(rows=LONG)
def test_batched_count_matches_reference_on_lattice(rows):
    tau = np.array([[2.0**-25 + step * STEP for step, _ in row] for row in rows])
    exists = np.array([[flag for _, flag in row] for row in rows])
    counts = _count_clusters(tau, exists, DYADIC)
    for r in range(len(rows)):
        assert counts[r] == count_clusters(list(tau[r][exists[r]]), DYADIC)
    assert counts[-1] == 0


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(1, 6).flatmap(lambda width: st.lists(
    st.lists(st.tuples(st.floats(5.0, 300.0), st.booleans()),
             min_size=width, max_size=width), min_size=1, max_size=12)))
def test_batched_count_matches_reference(rows):
    wave = make_wave()
    tau = np.array([[meters / C for meters, _ in row] for row in rows])
    exists = np.array([[flag for _, flag in row] for row in rows])
    counts = _count_clusters(tau, exists, wave)
    for r in range(len(rows)):
        assert counts[r] == count_clusters(list(tau[r][exists[r]]), wave)


def test_batched_count_names_first_aliased_row():
    wave = make_wave()
    allowed = unambiguous_range(wave) - delay_resolution(wave)
    tau = np.array([[10.0, 20.0], [10.0, 10.0 + allowed + 1.0],
                    [10.0, 10.0 + allowed + 2.0]]) / C
    with pytest.raises(ValueError, match="aliasing") as caught:
        _count_clusters(tau, np.ones(tau.shape, dtype=bool), wave)
    assert caught.value.row == 1
    with pytest.raises(ValueError) as single:
        count_clusters(list(tau[1]), wave)
    assert str(single.value) == str(caught.value)
    # A missing path does not count toward the span.
    exists = np.array([[True, True], [True, False], [True, False]])
    assert list(_count_clusters(tau, exists, wave)) == [2, 1, 1]


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
    assert fim_gap(paths, wave) < 1e-5


# Synthetic path sets: LOS plus up to five more paths with random
# delays (m), gains and directions, consistent around X.
path_specs = st.lists(
    st.tuples(st.floats(2.0, 60.0), st.floats(1e-7, 1e-4),
              st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 2.0 * math.pi)),
    min_size=1, max_size=6)


def spec_pathset(specs):
    paths = []
    for i, (meters, magnitude, phase, heading) in enumerate(specs):
        kind, index = ("los", None) if i == 0 else ("ris", i - 1)
        paths.append(synthetic_path(kind, meters / C, magnitude * np.exp(1j * phase),
                                    (math.cos(heading), math.sin(heading)),
                                    index=index))
    return stack(paths)


@settings(max_examples=50, deadline=None)
@given(specs=path_specs)
def test_fim_is_positive_semidefinite(specs):
    """The FIM is a sum over subcarriers of Re{g g^H}: no direction may
    carry negative information beyond rounding. Every term is bounded by
    the direct part, so its trace scales the rounding even where the
    paths' information cancels."""
    fim = fim_total(spec_pathset(specs), make_wave())
    assert np.min(np.linalg.eigvalsh(fim.total)) >= -1e-12 * np.trace(fim.direct)


@settings(max_examples=50, deadline=None)
@given(specs=path_specs, order=st.randoms())
def test_fim_ignores_order_of_reradiated_paths(specs, order):
    wave = make_wave()
    base = fim_total(spec_pathset(specs), wave).total
    shuffled = list(specs[1:])
    order.shuffle(shuffled)
    permuted = fim_total(spec_pathset([specs[0]] + shuffled), wave).total
    assert np.linalg.norm(permuted - base) <= 1e-12 * np.linalg.norm(base)


@settings(max_examples=20, deadline=None)
@given(specs=st.lists(path_specs.filter(lambda s: len(s) == 4), min_size=1, max_size=5))
def test_stacked_paths_match_one_by_one(specs):
    """Path fields with a leading axis give, entry by entry, the same bits
    as the path sets evaluated one at a time."""
    wave = make_wave()
    sets = [spec_pathset(s) for s in specs]
    stacked = stack([
        dataclasses.replace(
            column[0], tau=np.array([p.tau for p in column]),
            alpha=np.array([p.alpha for p in column]),
            direction=np.array([p.direction for p in column]))
        for column in zip(*sets)])
    fim = fim_total(stacked, wave)
    value = peb(fim)
    assert fim.total.shape == (len(sets), 2, 2)
    for i, paths in enumerate(sets):
        one = fim_total(paths, wave)
        assert np.array_equal(fim.total[i], one.total)
        assert np.array_equal(fim.direct[i], one.direct)
        assert value.value[i] == peb(one).value
