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
from rispeb.channel import PathSet, build_pathset
from rispeb.checks import fim_gap, observation
from rispeb.fim import (
    _count_clusters,
    count_resolvable_paths,
    fim_total,
    peb,
)
from rispeb.geometry import SPEED_OF_LIGHT as C
from rispeb.waveform import (
    WaveformConfig,
    delay_kernel,
    delay_kernel_peak,
    delay_resolution,
    unambiguous_range,
)

X = np.array([2.0, 1.5])


def synthetic_path(kind, tau, alpha, e, span=1.0, index=None):
    """One path's fields in PathSet order, with arbitrary delay, gain and
    direction, its anchor span behind X along e, so that the numerical
    oracle can re-evaluate it around X."""
    e = np.asarray(e, dtype=float)
    return kind, index, tau, alpha, e, X - span * e, tau * C - span


def stack(paths):
    """PathSet of synthetic_path fields, built as its arrays."""
    kinds, indices, tau, alpha, direction, anchor, fixed_leg = zip(*paths)
    return PathSet(kinds, indices, tau=np.array(tau), alpha=np.array(alpha, dtype=complex),
                   direction=np.array(direction), anchor=np.array(anchor),
                   fixed_leg=np.array(fixed_leg))


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
        total = fim_total(synthetic_pair(), make_wave())
        assert np.linalg.norm(total - FROZEN_J) / np.linalg.norm(FROZEN_J) < 1e-12

    def test_total_symmetric(self):
        total = fim_total(synthetic_pair(), make_wave())
        assert total[0, 1] == total[1, 0]

    def test_peb_matches_frozen(self):
        value = peb(fim_total(synthetic_pair(), make_wave()))
        assert abs(value.value - 0.07939476929621234) < 1e-15

    def test_numerical_oracle_agrees(self):
        assert fim_gap(synthetic_pair(), make_wave()) < 1e-6


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


def chain(meters, alphas=None):
    """LOS-led pathset with prescribed delays in meters."""
    alphas = alphas or [1e-5] * len(meters)
    paths = [synthetic_path("los", meters[0] / C, alphas[0], (1.0, 0.0))]
    for i, m in enumerate(meters[1:]):
        paths.append(synthetic_path("ris", m / C, alphas[i + 1], (0.0, 1.0),
                                    index=i))
    return stack(paths)


def count_row(tau, exists, wave):
    """count_resolvable_paths of one position whose delays are tau (s),
    with unit gain where exists (everywhere for None) and zero gain
    elsewhere: the one-position merge on a row of _count_clusters."""
    tau = np.asarray(tau, dtype=float)
    k = len(tau)
    alpha = np.ones(k, dtype=complex) if exists is None else np.where(exists, 1.0 + 0j, 0j)
    paths = PathSet(kinds=("los",) + ("ris",) * (k - 1), indices=(None,) + tuple(range(k - 1)),
                    tau=tau, alpha=alpha, direction=np.zeros((k, 2)),
                    anchor=np.zeros((k, 2)), fixed_leg=np.zeros(k))
    return count_resolvable_paths(paths, wave)


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

    def test_rejects_a_batch_of_positions(self):
        """One position at a time: a batch of reflector or scatterer
        pathsets, or a flat LOS-only one whose delays are a batch's, is
        refused rather than counted as one row."""
        from rispeb.config import default_config
        scene, wave = default_config().scene(), make_wave()
        points = np.array([[3.5, 5.0], [2.0, 1.5], [7.0, 3.0]])
        reflector = build_pathset(scene, None, points, wave, "reflector")
        scatterer = build_pathset(scene, None, points[:2], wave, "scatterer")
        flat = dataclasses.replace(reflector, kinds=("los",), indices=(None,),
                                   tau=reflector.tau[:, 0], alpha=reflector.alpha[:, 0])
        for paths in (reflector, scatterer, flat):
            with pytest.raises(ValueError, match="takes one position"):
                count_resolvable_paths(paths, wave)
        one = build_pathset(scene, None, points[0], wave, "reflector")
        assert count_resolvable_paths(one, wave) == 2


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
        assert counts[r] == count_row(tau[r], exists[r], DYADIC)
    assert counts[-1] == 0


# The 129-subcarrier kernel separates spans up to 128/W, 1024 lattice
# steps at DYADIC. Delays are drawn near 0 and near 1000-1100 steps, so a
# position may merge at either end and may span past the limit.
ALIAS_STEPS = 128 * 8


@settings(max_examples=200, deadline=None)
@given(cells=st.lists(st.tuples(st.one_of(st.integers(0, 40), st.integers(1000, 1100)),
                                st.booleans()), min_size=1, max_size=8))
@example(cells=TIED[1])
@example(cells=[(0, True), (ALIAS_STEPS, True), (ALIAS_STEPS + 1, False)])
@example(cells=[(0, True), (ALIAS_STEPS + 1, True)])
def test_one_position_count_matches_batched_row(cells):
    """count_resolvable_paths of one position equals _count_clusters of
    the same delays as a row of one, or both raise the same message."""
    tau = np.array([2.0**-25 + step * STEP for step, _ in cells])
    exists = np.array([flag for _, flag in cells])
    try:
        batched = int(_count_clusters(tau[None], exists[None], DYADIC)[0])
    except ValueError as exc:
        with pytest.raises(ValueError) as single:
            count_row(tau, exists, DYADIC)
        assert str(single.value) == str(exc)
    else:
        assert count_row(tau, exists, DYADIC) == batched


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
        assert counts[r] == count_row(tau[r], exists[r], wave)


def test_batched_count_names_first_aliased_row():
    wave = make_wave()
    allowed = unambiguous_range(wave) - delay_resolution(wave)
    tau = np.array([[10.0, 20.0], [10.0, 10.0 + allowed + 1.0],
                    [10.0, 10.0 + allowed + 2.0]]) / C
    with pytest.raises(ValueError, match="aliasing") as caught:
        _count_clusters(tau, np.ones(tau.shape, dtype=bool), wave)
    assert caught.value.row == 1
    with pytest.raises(ValueError) as single:
        count_row(tau[1], None, wave)
    assert str(single.value) == str(caught.value)
    # A missing path does not count toward the span.
    exists = np.array([[True, True], [True, False], [True, False]])
    assert list(_count_clusters(tau, exists, wave)) == [2, 1, 1]


def default_grid_points():
    from rispeb.config import default_config
    cfg = default_config()
    grid = cfg.grid()
    points = np.stack(np.meshgrid(grid.xs, grid.ys, indexing="ij"), axis=-1).reshape(-1, 2)
    return cfg.scene(), cfg.waveform(), points


def assert_counts_match_reference(tau, exists, wave):
    counts = _count_clusters(tau, exists, wave)
    reference = [count_row(t, e, wave) for t, e in zip(tau, exists)]
    assert counts.tolist() == reference


@pytest.mark.parametrize("bandwidth", [1e8, 1e9])
def test_batched_count_matches_reference_on_default_ris_grid(bandwidth):
    """Every cell of the default 100x100 grid: at 100 MHz each row merges
    3 to 5 times, at 1 GHz most rows stop after 0 or 1 merges."""
    scene, wave, points = default_grid_points()
    wave = dataclasses.replace(wave, bandwidth_hz=bandwidth)
    tau = build_pathset(scene, build_allocation(scene, points, wave, (1, 0, 0, 0, 0)),
                        points, wave, "ris").tau
    assert tau.shape == (10_000, 6)
    assert_counts_match_reference(tau, np.ones(tau.shape, dtype=bool), wave)


def test_batched_count_matches_reference_on_default_reflector_grid():
    """The reflector pathset of every cell of the default grid, whose
    missed reflector paths have zero gain and do not exist."""
    scene, wave, points = default_grid_points()
    paths = build_pathset(scene, None, points, wave, "reflector")
    exists = paths.alpha != 0
    assert 0 < (~exists).sum() < exists.size
    assert_counts_match_reference(paths.tau, exists, wave)


def test_rows_leave_the_merge_at_different_passes():
    """Row m of K paths merges m times, each row leaving the loop at its
    own pass; an aliased row after them is still named, with the message
    of the one-row reference."""
    wave = make_wave()  # 1/W is 3 m of path length
    width = 6
    rows = [[10.0] * (m + 1) + [30.0 + 10.0 * i for i in range(width - m - 1)]
            for m in range(width)]
    tau = np.array(rows) / C
    exists = np.ones(tau.shape, dtype=bool)
    assert _count_clusters(tau, exists, wave).tolist() == list(range(width, 0, -1))
    assert_counts_match_reference(tau, exists, wave)
    aliased = np.array([10.0, 11.0, 12.0, 13.0, 14.0, 600.0]) / C
    tau = np.vstack([tau, aliased, tau[:1]])
    exists = np.ones(tau.shape, dtype=bool)
    with pytest.raises(ValueError) as caught:
        _count_clusters(tau, exists, wave)
    assert caught.value.row == width
    with pytest.raises(ValueError) as single:
        count_row(aliased, None, wave)
    assert str(caught.value) == str(single.value)


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


@pytest.mark.parametrize("mode", ["ris", "reflector", "scatterer"])
def test_observation_at_own_position_is_the_sum_over_tau(mode, scene, wave):
    """observation rebuilds each delay from its anchor and fixed leg: at
    the pathset's own position it is the subcarrier sum formed from
    paths.tau, for one position and for each row of a batch."""
    x = np.array([7.0, 3.0])
    allocation = build_allocation(scene, x, wave, (1, 0, 1, 0, 1)) if mode == "ris" else None
    paths = build_pathset(scene, allocation, x, wave, mode)
    n = wave.subcarrier_indices
    expected = sum(alpha * math.sqrt(wave.pilot_energy)
                   * np.exp(-2j * math.pi * n * wave.bandwidth_hz * tau / wave.subcarrier_count)
                   for alpha, tau in zip(paths.alpha, paths.tau))
    for got in (observation(paths, x, wave), *observation(paths, np.stack([x, x]), wave)):
        assert got.shape == n.shape
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


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
    carry negative information beyond rounding. The sum of |alpha_k|^2
    kernel(0), the direct trace, bounds every term, so it scales the
    rounding even where the paths' information cancels."""
    paths, wave = spec_pathset(specs), make_wave()
    scale = np.sum(np.abs(paths.alpha) ** 2) * delay_kernel_peak(wave)
    assert np.min(np.linalg.eigvalsh(fim_total(paths, wave))) >= -1e-12 * scale


@settings(max_examples=50, deadline=None)
@given(specs=path_specs, order=st.randoms())
def test_fim_ignores_order_of_reradiated_paths(specs, order):
    wave = make_wave()
    base = fim_total(spec_pathset(specs), wave)
    shuffled = list(specs[1:])
    order.shuffle(shuffled)
    permuted = fim_total(spec_pathset([specs[0]] + shuffled), wave)
    assert np.linalg.norm(permuted - base) <= 1e-12 * np.linalg.norm(base)


@settings(max_examples=20, deadline=None)
@given(specs=st.lists(path_specs.filter(lambda s: len(s) == 4), min_size=1, max_size=5))
def test_stacked_paths_match_one_by_one(specs):
    """Path fields with a leading axis give, entry by entry, the same bits
    as the path sets evaluated one at a time."""
    wave = make_wave()
    sets = [spec_pathset(s) for s in specs]
    stacked = dataclasses.replace(
        sets[0], **{name: np.stack([getattr(s, name) for s in sets])
                    for name in ("tau", "alpha", "direction")})
    fim = fim_total(stacked, wave)
    value = peb(fim)
    assert isinstance(fim, np.ndarray) and fim.shape == (len(sets), 2, 2)
    for i, paths in enumerate(sets):
        one = fim_total(paths, wave)
        assert np.array_equal(fim[i], one)
        assert value.value[i] == peb(one).value


# LOS plus up to seven paths, each 0-6 m longer than the one before, so
# that neighbours often lie within one resolution cell c/W = 3 m.
chained_specs = st.lists(
    st.tuples(st.floats(0.0, 6.0), st.floats(1e-7, 1e-4),
              st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 2.0 * math.pi)),
    min_size=1, max_size=8)


@settings(max_examples=100, deadline=None)
@given(steps=chained_specs)
@example(steps=[(0.0, 1e-5, 0.0, 0.0)])
@example(steps=[(0.0, 1e-5, 0.0, 0.0), (0.4, 3e-6, 2.0, 1.0), (0.3, 2e-6, 4.0, 2.0)])
@example(steps=[(0.0, 4.157840937729062e-05, 0.0, 5.571796011174869e-160)])
def test_fim_equals_double_loop_over_paths(steps):
    """fim_total against a plain double loop: the direct term of every
    path, |alpha_k|^2 kernel(0) e_k e_k^T, plus, over ordered pairs
    k != l, Re{alpha_k conj(alpha_l)} kernel(tau_k - tau_l) e_k e_l^T.
    The sum of |alpha_k|^2 kernel(0), the direct trace, bounds every
    term, so it scales the tolerance even where the paths' information
    cancels. A single path has no pair: its FIM is its direct term
    alone."""
    wave = make_wave()
    meters = 10.0 + np.cumsum([step for step, _, _, _ in steps])
    paths = spec_pathset([(m,) + spec[1:] for m, spec in zip(meters, steps)])
    alpha, tau, e = list(paths.alpha), list(paths.tau), list(paths.direction)
    expected = np.zeros((2, 2))
    for k in range(len(alpha)):
        for l in range(len(alpha)):
            if k == l:
                weight = abs(alpha[k]) ** 2 * delay_kernel_peak(wave)
            else:
                weight = ((alpha[k] * alpha[l].conjugate()).real
                          * float(delay_kernel(wave, tau[k] - tau[l])))
            expected += weight * np.outer(e[k], e[l])
    fim = fim_total(paths, wave)
    scale = sum(abs(a) ** 2 for a in alpha) * delay_kernel_peak(wave)
    assert np.max(np.abs(fim - expected)) <= 1e-12 * scale
    if len(alpha) == 1:
        # Weight one factor before the outer product: a direction entry
        # near 1e-160 squared alone is subnormal and has lost its digits.
        direct = np.outer(abs(alpha[0]) ** 2 * delay_kernel_peak(wave) * e[0], e[0])
        assert np.allclose(fim, direct, rtol=1e-12, atol=0)


def test_one_point_core_calls_no_numpy_wrapper(scene, wave, monkeypatch):
    """The one-point selection, a reflector pathset's FIM and bound, and
    the delay kernel's Taylor branch call numpy's C entry points (ufuncs
    and ndarray methods), not its Python-level wrappers: with those
    wrappers rebound to raise, each gives what it gave before."""
    from rispeb.allocation import SelectionConstraints, select_ris

    x, zero = np.array([3.5, 5.0]), np.zeros(3)

    def calls():
        allocation, bound = select_ris(scene, x, wave, SelectionConstraints(k_bar=2))
        total = fim_total(build_pathset(scene, None, x, wave, "reflector"), wave)
        return (allocation.bits, bound.value, total.tolist(), peb(total).value,
                delay_kernel(wave, zero).tolist())

    expected = calls()

    def wrapper(*args, **kwargs):
        raise AssertionError("a numpy wrapper was called")

    for name in ("round", "take", "swapaxes", "argmin", "broadcast_shapes"):
        monkeypatch.setattr(np, name, wrapper)
    assert calls() == expected
    assert expected[-1] == [delay_kernel_peak(wave)] * 3
