"""Phase optimization and activation selection.

Selection is compared against rispeb.checks.best_pattern, an exhaustive
search with one pathset per pattern that calls none of the batched core
(TestSelect::test_oracle_is_independent_of_the_core breaks the core and
still finds the frozen selections below). The frozen bounds come from
scripts/derive_frozen_values.py, which imports nothing from the package:
path gains from the link-budget formulas, the FIM from the analytic
position derivative of the per-subcarrier observation, both evaluated at
40 significant digits from the scenario's double-precision inputs.
TestSelect::test_frozen_values_match_derivation runs it again.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rispeb.allocation as allocation_module
import rispeb.channel as channel_module
import rispeb.checks as checks
from rispeb.allocation import (
    MAX_EXHAUSTIVE_RIS,
    Allocation,
    SelectionConstraints,
    build_allocation,
    d_min,
    feasible_activations,
    gap_threshold,
    optimal_phases,
    robust_select,
    select_ris,
)
from rispeb.channel import build_pathset
from rispeb.checks import aligned_gain, all_patterns, best_pattern
from rispeb.fim import fim_total, peb
from rispeb.geometry import RisDescriptor, Scene

X_HAT = np.array([3.5, 5.0])

# Best pattern and its bound (m) at X_HAT for budgets 0, 1 and 2.
FROZEN_SELECTIONS = {
    0: ("00000", 8.565585787508738),
    1: ("10000", 0.9490735774098524),
    2: ("10010", 0.6539931905568005),
}


def tight_constraints(k_bar, scene, wave):
    return SelectionConstraints(k_bar=k_bar,
                                min_gap=gap_threshold(scene, wave))


def frozen_tolerance(scene, wave, active):
    """Relative tolerance of a frozen bound at X_HAT under pattern active.

    A relative error delta in each FIM entry moves det by at most
    delta * trace^2 and the bound by about delta/2 * trace^2/det. With
    every surface off the FIM is nearly rank one (trace^2/det about
    1.7e5), so double precision cannot hold 1e-12 there; allow delta =
    2 eps, and 1e-12 wherever the FIM is well conditioned.
    """
    allocation = build_allocation(scene, X_HAT, wave, active)
    j = fim_total(build_pathset(scene, allocation, X_HAT, wave, "ris"), wave).total
    return max(1e-12, checks.conditioning_error(j))


class TestDmin:
    def test_adjacent_pair(self):
        assert d_min((0, 1, 1)) == 1.0

    def test_gap_of_two(self):
        assert d_min((1, 0, 1)) == 2.0

    def test_single_active_is_unconstrained(self):
        assert d_min((0, 1, 0)) == math.inf

    def test_all_inactive_is_unconstrained(self):
        assert d_min((0, 0, 0)) == math.inf

    def test_minimum_over_consecutive_gaps(self):
        assert d_min((1, 0, 0, 1, 1)) == 1.0


class TestOptimalPhases:
    def test_closed_form(self):
        theta, psi = 0.3, -0.7
        phases = optimal_phases(theta, psi, 4)
        slope = math.pi * (math.sin(theta) - math.sin(psi))
        assert np.allclose(phases, slope * np.array([-1.5, -0.5, 0.5, 1.5]),
                           rtol=0, atol=1e-15)

    def test_center_element_is_reference(self):
        """n is centered on the array, where the delay is measured: an odd
        array's middle element has phase 0, and every profile is odd
        about the center."""
        assert optimal_phases(1.1, 0.2, 9)[4] == 0.0
        phases = optimal_phases(1.1, 0.2, 8)
        assert np.array_equal(phases[::-1], -phases)

    def test_achieves_full_element_gain(self, scene, wave):
        allocation = build_allocation(scene, X_HAT, wave, (1, 1, 1, 1, 1))
        gains = build_pathset(scene, allocation, X_HAT, wave, "ris").alpha[1:]
        for k, triple in enumerate(gains):
            bound = aligned_gain(scene, k, X_HAT, wave)
            assert abs(abs(triple) - bound) / bound < 1e-12


class TestAllocation:
    def test_bits_string(self):
        alloc = Allocation(active=(1, 0), design=(0.3, 0.0))
        assert alloc.bits == "10"

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError, match="0 or 1"):
            Allocation(active=(2, 0), design=(0.0, 0.0))

    def test_rejects_profile_count_mismatch(self):
        with pytest.raises(ValueError):
            Allocation(active=(1, 0), design=(0.0,))

    def test_rejects_nonzero_inactive_profile(self):
        with pytest.raises(ValueError, match="inactive"):
            Allocation(active=(0,), design=(0.3,))

    def test_build_zeroes_inactive(self, scene, wave):
        alloc = build_allocation(scene, X_HAT, wave, (0, 1, 0, 0, 0))
        assert alloc.design[0] == 0.0
        assert alloc.design[1] != 0.0

    def test_build_rejects_wrong_length(self, scene, wave):
        with pytest.raises(ValueError, match="length"):
            build_allocation(scene, X_HAT, wave, (1, 0))


class TestConstraints:
    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            SelectionConstraints(k_bar=-1)

    def test_rejects_negative_gap(self):
        with pytest.raises(ValueError):
            SelectionConstraints(k_bar=1, min_gap=-0.5)

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError):
            SelectionConstraints(k_bar=1, peb_cap=0.0)

    def test_gap_threshold_default_scene(self, scene, wave):
        assert abs(gap_threshold(scene, wave) - 2.99792458) < 1e-12

    def test_gap_threshold_single_ris(self, wave):
        lone = Scene(wall_offset=10.0, ris=(RisDescriptor(2.0, 64),))
        assert gap_threshold(lone, wave) == 0.0


class TestFeasibleActivations:
    def test_all_zero_always_first(self, scene, wave):
        first = next(iter(feasible_activations(5, tight_constraints(3, scene, wave))))
        assert first == (0, 0, 0, 0, 0)

    def test_frozen_pattern_set_under_spacing_gap(self, scene, wave):
        patterns = list(feasible_activations(5, tight_constraints(5, scene, wave)))
        assert len(patterns) == 9
        two_active = [p for p in patterns if sum(p) == 2]
        assert two_active == [(0, 1, 0, 0, 1), (1, 0, 0, 0, 1), (1, 0, 0, 1, 0)]
        assert all(sum(p) <= 2 for p in patterns)

    def test_budget_zero_leaves_only_all_off(self):
        patterns = list(feasible_activations(4, SelectionConstraints(k_bar=0)))
        assert patterns == [(0, 0, 0, 0)]

    def test_lexicographic_order(self):
        patterns = list(feasible_activations(3, SelectionConstraints(k_bar=3)))
        assert patterns == sorted(patterns)
        assert len(patterns) == 8

    def test_gap_is_strict(self):
        loose = SelectionConstraints(k_bar=2, min_gap=2.0)
        patterns = set(feasible_activations(3, loose))
        assert (1, 0, 1) not in patterns
        assert (1, 1, 0) not in patterns


class TestSelect:
    def test_frozen_budget_one(self, scene, wave):
        allocation, value = select_ris(scene, X_HAT, wave,
                                       tight_constraints(1, scene, wave))
        bits, expected = FROZEN_SELECTIONS[1]
        assert allocation.bits == bits
        assert abs(value.value - expected) < 1e-12

    def test_frozen_budget_two(self, scene, wave):
        allocation, value = select_ris(scene, X_HAT, wave,
                                       tight_constraints(2, scene, wave))
        bits, expected = FROZEN_SELECTIONS[2]
        assert allocation.bits == bits
        assert abs(value.value - expected) < 1e-12

    def test_budget_zero_still_scores_channel(self, scene, wave):
        allocation, value = select_ris(scene, X_HAT, wave,
                                       tight_constraints(0, scene, wave))
        bits, expected = FROZEN_SELECTIONS[0]
        assert allocation.bits == bits
        tolerance = frozen_tolerance(scene, wave, allocation.active)
        assert abs(value.value - expected) / expected < tolerance

    def test_frozen_values_match_derivation(self, derived):
        for k_bar, (bits, expected) in FROZEN_SELECTIONS.items():
            derived_bits, derived_value, _ = derived[f"select_k{k_bar}"]
            assert derived_bits == bits
            assert abs(float(derived_value) - expected) / expected < 1e-15

    def test_oracle_is_independent_of_the_core(self, scene, wave, monkeypatch):
        """checks.best_pattern enumerates and scores patterns itself: with
        the batched core and its pattern list broken it still finds the
        frozen selections."""
        def broken(*args, **kwargs):
            raise AssertionError("the oracle reached the code it checks")

        for name in ("_score", "_patterns", "feasible_activations"):
            monkeypatch.setattr(allocation_module, name, broken)
            monkeypatch.setattr(checks, name, broken, raising=False)
        for k_bar, (bits, expected) in FROZEN_SELECTIONS.items():
            bound, active = best_pattern(scene, X_HAT, wave,
                                         tight_constraints(k_bar, scene, wave))
            assert "".join(map(str, active)) == bits
            assert (abs(bound - expected) / expected
                    < frozen_tolerance(scene, wave, active))

    def test_larger_budget_never_hurts(self, scene, wave):
        _, one = select_ris(scene, X_HAT, wave, tight_constraints(1, scene, wave))
        _, two = select_ris(scene, X_HAT, wave, tight_constraints(2, scene, wave))
        assert two.value <= one.value

    def test_matches_brute_force(self, scene, wave):
        point = np.array([8.0, 4.0])
        constraints = tight_constraints(2, scene, wave)
        _, value = select_ris(scene, point, wave, constraints)
        assert value.value == best_pattern(scene, point, wave, constraints)[0]

    def test_selected_allocation_reproduces_value(self, scene, wave):
        constraints = tight_constraints(2, scene, wave)
        allocation, value = select_ris(scene, X_HAT, wave, constraints)
        paths = build_pathset(scene, allocation, X_HAT, wave, "ris")
        assert peb(fim_total(paths, wave)).value == value.value

    @pytest.mark.parametrize("batch_entries", [allocation_module._BATCH_ENTRIES, 1],
                             ids=["budget", "one"])
    def test_every_pattern_scores_its_pathset(self, scene, wave, monkeypatch,
                                              batch_entries):
        """Every entry of the core's score, not just the winner, is the
        bound of the pattern's own allocation, and the delays are those
        of its pathset; in one batch or one pattern per batch, with the
        phases steered at each point (sweeps) or at the points' centroid
        (robust_select)."""
        monkeypatch.setattr(allocation_module, "_BATCH_ENTRIES", batch_entries)
        points = np.array([X_HAT, [8.0, 4.0], [-2.0, 7.0]])
        centroid = points.mean(axis=0)
        for constraints in [tight_constraints(k_bar, scene, wave) for k_bar in range(3)] + [
                SelectionConstraints(k_bar=5)]:
            patterns = allocation_module._patterns(len(scene.ris), constraints)
            for steer_at in (points, centroid):
                bounds, delays, steering = allocation_module._score(scene, points, wave,
                                                                    patterns, steer_at)
                assert bounds.shape == (len(points), len(patterns))
                assert steering.shape == steer_at.shape[:-1] + (len(scene.ris),)
                for i, point in enumerate(points):
                    design_point = steer_at[i] if steer_at.ndim == 2 else steer_at
                    aligned = build_allocation(scene, design_point, wave, (1,) * len(scene.ris))
                    row = steering[i] if steer_at.ndim == 2 else steering
                    assert tuple(row) == aligned.design
                    for j, bits in enumerate(patterns):
                        allocation = build_allocation(scene, design_point, wave, bits)
                        paths = build_pathset(scene, allocation, point, wave, "ris")
                        assert bounds[i, j] == peb(fim_total(paths, wave)).value, (i, bits)
                        assert np.array_equal(delays[i], [path.tau for path in paths])

    @pytest.mark.parametrize("batch_entries", [allocation_module._BATCH_ENTRIES, 1],
                             ids=["budget", "one"])
    @pytest.mark.parametrize("k_bar", range(4))
    def test_each_surface_gain_is_evaluated_flat_and_steered(self, scene, wave, monkeypatch,
                                                             k_bar, batch_entries):
        """A surface has two gains at a point, flat or steered: one _score
        call makes one gain_ris call, whose design holds those two for
        every point and surface (points x 2 x surfaces), however many
        patterns it scores and in however many batches."""
        shapes = []
        original = channel_module.gain_ris

        def counting(scene, design, *args, **kwargs):
            shapes.append(np.shape(design))
            return original(scene, design, *args, **kwargs)

        monkeypatch.setattr(channel_module, "gain_ris", counting)
        monkeypatch.setattr(allocation_module, "_BATCH_ENTRIES", batch_entries)
        points = np.array([X_HAT, [8.0, 4.0], [-2.0, 7.0], [12.0, 1.5]])
        for constraints in (tight_constraints(k_bar, scene, wave),
                            SelectionConstraints(k_bar=k_bar)):
            patterns = allocation_module._patterns(len(scene.ris), constraints)
            shapes.clear()
            allocation_module._score(scene, points, wave, patterns, points)
            assert shapes == [(len(points), 2, len(scene.ris))], len(patterns)

    def test_scene_without_ris_scores_the_los_bound(self, wave):
        """With no surface the one pattern is the empty one, and its score
        is the bound of the LOS path alone, as a (points x 1) array."""
        bare = Scene(wall_offset=10.0)
        points = np.array([X_HAT, [8.0, 4.0], [-2.0, 7.0]])
        constraints = SelectionConstraints(k_bar=1)
        patterns = allocation_module._patterns(0, constraints)
        assert patterns.shape == (1, 0)
        for steer_at in (points, points.mean(axis=0)):
            bounds, delays, steering = allocation_module._score(bare, points, wave, patterns,
                                                                steer_at)
            assert bounds.shape == (len(points), 1)
            assert delays.shape == (len(points), 1)
            assert steering.shape == steer_at.shape[:-1] + (0,)
            for i, point in enumerate(points):
                paths = build_pathset(bare, Allocation((), ()), point, wave, "ris")
                assert bounds[i, 0] == peb(fim_total(paths, wave)).value
        allocation, value = select_ris(bare, X_HAT, wave, constraints)
        assert allocation == Allocation((), ())
        paths = build_pathset(bare, allocation, X_HAT, wave, "ris")
        assert value.value == peb(fim_total(paths, wave)).value

    @pytest.mark.parametrize("ris_count", [0, 1, 2, 5, 9, 12])
    def test_patterns_match_feasible_activations(self, ris_count):
        """The patterns the core scores, and feasible_activations' tuples,
        are the brute-force enumeration's bit vectors in its lexicographic
        order, which sets the tie rule."""
        for k_bar in range(4):
            for min_gap in (0.0, 0.5, 1.0, 1.5, 2.0, 3.7):
                constraints = SelectionConstraints(k_bar=k_bar, min_gap=min_gap)
                expected = all_patterns(ris_count, constraints)
                got = allocation_module._patterns(ris_count, constraints)
                assert got.dtype == bool
                assert np.array_equal(got, np.array(expected, dtype=bool)), (k_bar, min_gap)
                assert feasible_activations(ris_count, constraints) == expected

    def test_pattern_table_is_cached_and_read_only(self):
        """The feasible table is built once per surface count, k_bar and
        min_gap and shared: a write to it raises, and constraints that
        differ only in peb_cap get the same array. feasible_activations
        still hands out fresh tuples."""
        constraints = SelectionConstraints(k_bar=2, min_gap=1.5)
        table = allocation_module._patterns(5, constraints)
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = True
        capped = dataclasses.replace(constraints, peb_cap=1.0)
        assert allocation_module._patterns(5, capped) is table
        assert allocation_module._patterns(5, dataclasses.replace(constraints, k_bar=1)) \
            is not table
        first = feasible_activations(5, constraints)
        assert first == feasible_activations(5, capped)
        assert first is not feasible_activations(5, capped)

    def test_aliased_delays_rejected(self, scene, wave):
        """At 5 GHz the paths at X_HAT span more than the kernel separates."""
        wide = dataclasses.replace(wave, bandwidth_hz=5e9)
        with pytest.raises(ValueError, match="path lengths span"):
            select_ris(scene, X_HAT, wide, tight_constraints(1, scene, wide))
        with pytest.raises(ValueError, match="path lengths span"):
            robust_select(scene, [X_HAT], wide, tight_constraints(1, scene, wide))

    def test_exhaustive_budget_guard(self, wave):
        many = Scene(wall_offset=10.0,
                     ris=tuple(RisDescriptor(0.5 * k, 4)
                               for k in range(MAX_EXHAUSTIVE_RIS + 1)))
        constraints = SelectionConstraints(k_bar=1)
        with pytest.raises(ValueError, match="exhaustive"):
            select_ris(many, X_HAT, wave, constraints)
        with pytest.raises(ValueError, match="exhaustive"):
            robust_select(many, [X_HAT], wave, constraints)
        with pytest.raises(ValueError, match="exhaustive"):
            feasible_activations(len(many.ris), constraints)


class TestRobustSelect:
    def test_single_sample_matches_select(self, scene, wave):
        constraints = tight_constraints(1, scene, wave)
        allocation, score = robust_select(scene, [X_HAT], wave, constraints)
        plain_alloc, plain_value = select_ris(scene, X_HAT, wave, constraints)
        assert allocation.bits == plain_alloc.bits
        assert score == plain_value.value

    def test_worst_case_is_max_over_samples(self, scene, wave):
        constraints = tight_constraints(1, scene, wave)
        samples = [np.array([3.0, 4.5]), np.array([4.0, 5.5])]
        allocation, score = robust_select(scene, samples, wave, constraints)
        recomputed = [peb(fim_total(build_pathset(scene, allocation, point, wave, "ris"),
                                    wave)).value for point in samples]
        assert score == max(recomputed)

    def test_expected_clamps_at_cap(self, scene, wave):
        constraints = SelectionConstraints(k_bar=0, peb_cap=5.0)
        far = [np.array([-200.0, 0.5]), np.array([3.5, 5.0])]
        _, score = robust_select(scene, far, wave, constraints,
                                 objective="expected")
        assert score <= constraints.peb_cap

    def test_expected_is_clamped_mean(self, scene, wave):
        constraints = tight_constraints(1, scene, wave)
        samples = [np.array([3.0, 4.5]), np.array([4.0, 5.5])]
        allocation, score = robust_select(scene, samples, wave, constraints,
                                          objective="expected")
        recomputed = [min(peb(fim_total(build_pathset(scene, allocation, point, wave, "ris"),
                                        wave)).value, constraints.peb_cap)
                      for point in samples]
        assert abs(score - sum(recomputed) / 2) < 1e-15

    @pytest.mark.parametrize("objective", ["worst_case", "expected"])
    def test_score_is_reached_by_the_returned_allocation(self, scene, wave, rng,
                                                         objective):
        """Sets of three samples 10 cm apart around random centers: the
        score is the returned allocation's own worst (or capped mean)
        bound over the samples, and no pattern steered at the centroid
        does better."""
        for k_bar in (1, 2):
            constraints = tight_constraints(k_bar, scene, wave)
            for _ in range(10):
                center = np.array([rng.uniform(-4.0, 12.0), rng.uniform(1.0, 8.5)])
                samples = center + 0.1 * rng.standard_normal((3, 2))
                allocation, score = robust_select(scene, samples, wave, constraints,
                                                  objective)
                patterns = feasible_activations(len(scene.ris), constraints)
                aggregates = []
                for bits in patterns:
                    candidate = build_allocation(scene, samples.mean(axis=0), wave, bits)
                    bounds = [peb(fim_total(build_pathset(scene, candidate, s, wave, "ris"),
                                            wave)).value for s in samples]
                    aggregates.append(
                        max(bounds) if objective == "worst_case"
                        else sum(min(b, constraints.peb_cap) for b in bounds) / 3)
                best = int(np.argmin(aggregates))
                assert allocation == build_allocation(scene, samples.mean(axis=0), wave,
                                                      patterns[best])
                assert score == aggregates[best]

    @pytest.mark.parametrize("count", [1, 3])
    def test_returns_the_allocation_it_scored(self, scene, wave, rng, count):
        """The allocation robust_select returns, built from the steering
        its core scored, is build_allocation's at the sample centroid,
        with exactly equal design floats, for one sample and several."""
        for k_bar in range(4):
            constraints = tight_constraints(k_bar, scene, wave)
            for _ in range(10):
                center = np.array([rng.uniform(-4.0, 12.0), rng.uniform(1.0, 8.5)])
                samples = center + 0.1 * rng.standard_normal((count, 2))
                for objective in ("worst_case", "expected"):
                    allocation, _ = robust_select(scene, samples, wave, constraints,
                                                  objective)
                    expected = build_allocation(scene, samples.mean(axis=0), wave,
                                                allocation.active)
                    assert allocation.active == expected.active
                    assert [float(d).hex() for d in allocation.design] \
                        == [float(d).hex() for d in expected.design]

    def test_centroid_phasing(self, scene, wave):
        constraints = tight_constraints(1, scene, wave)
        samples = [np.array([3.0, 4.5]), np.array([4.0, 5.5])]
        allocation, _ = robust_select(scene, samples, wave, constraints)
        expected = build_allocation(scene, np.array([3.5, 5.0]), wave,
                                    allocation.active)
        for got, want in zip(allocation.design, expected.design):
            assert abs(got - want) <= 1e-12

    def test_rejects_unknown_objective(self, scene, wave):
        with pytest.raises(ValueError, match="objective"):
            robust_select(scene, [X_HAT], wave,
                          tight_constraints(1, scene, wave), objective="median")

    def test_rejects_empty_samples(self, scene, wave):
        with pytest.raises(ValueError, match="sample"):
            robust_select(scene, [], wave, tight_constraints(1, scene, wave))

    @pytest.mark.parametrize("x_hat", [[[3.5, 5.0]], [[3.5, 5.0], [8.0, 4.0]]],
                             ids=["1x2", "2x2"])
    def test_select_rejects_a_point_that_is_not_a_2_vector(self, scene, wave, x_hat):
        x_hat = np.array(x_hat)
        with pytest.raises(ValueError, match=rf"sample 0 has shape \({len(x_hat)}, 2\)"):
            select_ris(scene, x_hat, wave, tight_constraints(1, scene, wave))

    def test_rejects_a_malformed_sample_by_index(self, scene, wave):
        samples = [X_HAT, np.array([3.0, 4.5]), np.array([1.0, 2.0, 3.0]), X_HAT]
        with pytest.raises(ValueError, match=r"sample 2 has shape \(3,\)"):
            robust_select(scene, samples, wave, tight_constraints(1, scene, wave))

    def test_aliased_sample_is_named_by_index_and_position(self, scene, wave):
        """At 1 GHz and 33 subcarriers the paths at (0.05, 0.05) span more
        than the kernel separates, and those at the other samples do not."""
        narrow = dataclasses.replace(wave, bandwidth_hz=1e9, subcarrier_count=33)
        constraints = tight_constraints(1, scene, narrow)
        samples = [np.array([3.5, 9.0]), np.array([3.5, 8.0]), np.array([0.05, 0.05])]
        with pytest.raises(ValueError,
                           match=r"^sample 2 at \(0\.05, 0\.05\): path lengths span"):
            robust_select(scene, samples, narrow, constraints)
        # One sample: the message is the one select and point print.
        with pytest.raises(ValueError, match=r"^path lengths span"):
            robust_select(scene, samples[2:], narrow, constraints)
        robust_select(scene, samples[:2], narrow, constraints)

    def test_pattern_batches_do_not_change_the_result(self, scene, wave, monkeypatch):
        """Many patterns are scored in batches that bound memory; one
        pattern per batch gives the same bits as all at once."""
        constraints = tight_constraints(2, scene, wave)
        samples = [np.array([3.0, 4.5]), np.array([8.0, 4.0]), np.array([-2.0, 7.0])]
        for objective in ("worst_case", "expected"):
            whole = robust_select(scene, samples, wave, constraints, objective)
            monkeypatch.setattr(allocation_module, "_BATCH_ENTRIES", 1)
            split = robust_select(scene, samples, wave, constraints, objective)
            monkeypatch.undo()
            assert split[0].bits == whole[0].bits
            assert split[1] == whole[1]


@settings(max_examples=20, deadline=None)
@given(x=st.tuples(st.floats(-6.0, 14.0), st.floats(1.0, 9.0)).map(np.array),
       k_bar=st.integers(0, 3))
def test_selection_respects_constraints(x, k_bar):
    from rispeb.config import default_config
    cfg = default_config()
    scene, wave = cfg.scene(), cfg.waveform()
    constraints = tight_constraints(k_bar, scene, wave)
    allocation, value = select_ris(scene, x, wave, constraints)
    assert sum(allocation.active) <= k_bar
    assert d_min(allocation.active) > constraints.min_gap
    assert value.value > 0.0


@settings(max_examples=25, deadline=None)
@given(x=st.tuples(st.floats(-6.0, 14.0), st.floats(0.5, 9.5)).map(np.array),
       k_bar=st.integers(0, 4))
def test_mixed_element_counts_match_brute_force(x, k_bar, wave):
    """Surfaces of different sizes on one wall: the batched search scores
    each with its own element count, as the per-pattern pathsets do."""
    mixed = Scene(wall_offset=10.0,
                  ris=tuple(RisDescriptor(1.5 + k, m)
                            for k, m in enumerate((16, 100, 40, 64, 7))))
    constraints = SelectionConstraints(k_bar=k_bar, min_gap=gap_threshold(mixed, wave))
    allocation, value = select_ris(mixed, x, wave, constraints)
    assert (value.value, allocation.active) == best_pattern(mixed, x, wave, constraints)


@settings(max_examples=20, deadline=None)
@given(x=st.tuples(st.floats(-6.0, 14.0), st.floats(0.5, 9.5)).map(np.array),
       k_bar=st.integers(0, 3), noise=st.integers(-4, 4), power=st.integers(-4, 4))
def test_bound_scales_with_noise_over_power(x, k_bar, noise, power, scene, wave):
    """J is proportional to P/N0, so the bound scales as sqrt(N0/P) and the
    argmin stays. With N0 and P scaled by powers of four every FIM entry
    scales exactly, the bound by exactly 2^(noise - power), and no
    near-tie can turn."""
    constraints = tight_constraints(k_bar, scene, wave)
    scaled = dataclasses.replace(wave, noise_psd_w_hz=wave.noise_psd_w_hz * 4.0**noise,
                                 tx_power_w=wave.tx_power_w * 4.0**power)
    base_alloc, base = select_ris(scene, x, wave, constraints)
    alloc, value = select_ris(scene, x, scaled, constraints)
    assert alloc.active == base_alloc.active
    assert value.value == base.value * 2.0 ** (noise - power)
