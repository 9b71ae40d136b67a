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
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rispeb.allocation as allocation_module
import rispeb.channel as channel_module
import rispeb.checks as checks
import rispeb.sweep as sweep_module
from rispeb.allocation import (
    MAX_EXHAUSTIVE_RIS,
    Allocation,
    ChosenBound,
    SelectionConstraints,
    build_allocation,
    d_min,
    feasible_activations,
    gap_threshold,
    optimal_phases,
    select_ris,
)
from rispeb.channel import build_pathset
from rispeb.checks import aligned_gain, all_patterns, best_pattern
from rispeb.fim import PebValue, fim_total, peb
from rispeb.geometry import RisDescriptor, Scene
from rispeb.sweep import GridSpec, peb_map

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
    j = fim_total(build_pathset(scene, allocation, X_HAT, wave, "ris"), wave)
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

    @pytest.mark.parametrize("active", [(True, False), (1, False), (1.0, 0), (1, 0.0),
                                        (np.True_, 0), ("1", 0)])
    def test_rejects_bits_that_are_not_integers(self, active):
        """A bool or a float equals 0 or 1 but would print as itself in
        bits ('TrueFalse', '1.00'), as SelectionConstraints rejects such
        a k_bar."""
        with pytest.raises(ValueError, match="integers 0 or 1"):
            Allocation(active=active, design=(0.3, 0.0))

    def test_accepts_numpy_integer_bits(self):
        alloc = Allocation(active=(np.int64(1), np.uint8(0)), design=(0.3, np.float64(0.0)))
        assert alloc.bits == "10"

    @pytest.mark.parametrize("design", [0, 0.0, -0.0, np.float64(0.0), np.zeros(3)])
    def test_inactive_design_zero_as_scalar_or_array(self, design):
        assert Allocation(active=(1, 0), design=(0.3, design)).bits == "10"

    @pytest.mark.parametrize("design", [1e-300, np.float64(0.1), math.nan,
                                        np.array([0.0, 0.2])])
    def test_rejects_nonzero_inactive_scalar_or_array(self, design):
        with pytest.raises(ValueError, match="inactive"):
            Allocation(active=(1, 0), design=(0.3, design))

    @pytest.mark.parametrize("design", [math.nan, math.inf, -math.inf, "0.3", 0.3 + 0j,
                                        np.array([0.3, math.nan, 0.1]), 10**400],
                             ids=["nan", "inf", "-inf", "str", "complex", "array_nan",
                                  "huge_int"])
    def test_rejects_design_that_is_not_finite_real(self, design):
        """Accepted, a NaN design would give a NaN bound, an infinite one a
        NaN bound after a RuntimeWarning, and a str a TypeError later on."""
        with pytest.raises(ValueError, match="design steering of RIS 1 must be finite real"):
            Allocation(active=(0, 1, 0, 0, 0), design=(0.0, design, 0.0, 0.0, 0.0))

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

    @pytest.mark.parametrize("active", ["01000", (2, 0, 0.5, 0, 0), (1, 0, 0, 0, -1),
                                        ("1", 0, 0, 0, 0), (math.nan, 0, 0, 0, 0)])
    def test_build_rejects_entries_other_than_0_or_1(self, scene, wave, active):
        """A truthy entry is not an active surface: "01000", the form bits
        prints, would otherwise activate all five."""
        with pytest.raises(ValueError, match="0 or 1"):
            build_allocation(scene, X_HAT, wave, active)


class TestConstraints:
    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            SelectionConstraints(k_bar=-1)

    def test_rejects_negative_gap(self):
        with pytest.raises(ValueError):
            SelectionConstraints(k_bar=1, min_gap=-0.5)

    def test_rejects_nan_gap(self):
        """A NaN gap would fail every pair's check and leave k_bar=2 no pair."""
        with pytest.raises(ValueError, match="index gap"):
            SelectionConstraints(k_bar=2, min_gap=math.nan)

    @pytest.mark.parametrize("k_bar", [1.5, True, "2"])
    def test_rejects_non_integer_budget(self, k_bar):
        """1.5 used to fail later inside select_ris with a TypeError, and
        True was taken as 1."""
        with pytest.raises(ValueError, match="activation budget"):
            SelectionConstraints(k_bar=k_bar)

    def test_accepts_numpy_integer_budget(self):
        assert SelectionConstraints(k_bar=np.int64(2)).k_bar == 2

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

        for name in ("_score", "_choose", "_patterns", "feasible_activations"):
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
        bound of the pattern's own allocation, its FIM total that of its
        pathset, and the delays are those of its pathset; in one batch or
        one pattern per batch (one fim_total call each), with the phases
        steered at each point. The totals are one stack, and one peb call
        takes every bound from it."""
        monkeypatch.setattr(allocation_module, "_BATCH_ENTRIES", batch_entries)
        calls = {"fim_total": 0, "peb": 0}

        def counted(name):
            original = getattr(allocation_module, name)

            def call(*args):
                calls[name] += 1
                return original(*args)
            return call

        for name in calls:
            monkeypatch.setattr(allocation_module, name, counted(name))
        points = np.array([X_HAT, [8.0, 4.0], [-2.0, 7.0]])
        for constraints in [tight_constraints(k_bar, scene, wave) for k_bar in range(3)] + [
                SelectionConstraints(k_bar=5)]:
            patterns = allocation_module._patterns(len(scene.ris), constraints)
            calls.update(fim_total=0, peb=0)
            bounds, steering, pathset, totals = allocation_module._score(
                scene, points, wave, patterns)
            assert calls == {"fim_total": len(patterns) if batch_entries == 1 else 1, "peb": 1}
            delays = pathset.tau[:, 0]
            assert bounds.shape == (len(points), len(patterns))
            assert totals.shape == (len(points), len(patterns), 2, 2)
            assert steering.shape == (len(points), len(scene.ris))
            for i, point in enumerate(points):
                aligned = build_allocation(scene, point, wave, (1,) * len(scene.ris))
                assert tuple(steering[i]) == aligned.design
                for j, bits in enumerate(patterns):
                    allocation = build_allocation(scene, point, wave, bits)
                    paths = build_pathset(scene, allocation, point, wave, "ris")
                    fim = fim_total(paths, wave)
                    assert bounds[i, j] == peb(fim).value, (i, bits)
                    assert np.array_equal(totals[i, j], fim), (i, bits)
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
            allocation_module._score(scene, points, wave, patterns)
            assert shapes == [(len(points), 2, len(scene.ris))], len(patterns)

    def test_scene_without_ris_scores_the_los_bound(self, wave):
        """With no surface the one pattern is the empty one, and its score
        is the bound of the LOS path alone, as a (points x 1) array."""
        bare = Scene(wall_offset=10.0)
        points = np.array([X_HAT, [8.0, 4.0], [-2.0, 7.0]])
        constraints = SelectionConstraints(k_bar=1)
        patterns = allocation_module._patterns(0, constraints)
        assert patterns.shape == (1, 0)
        bounds, steering, paths, _ = allocation_module._score(bare, points, wave, patterns)
        assert bounds.shape == (len(points), 1)
        assert paths.tau[:, 0].shape == (len(points), 1)
        assert steering.shape == (len(points), 0)
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
        """The pattern table is built once per surface count and
        constraints and shared: a write to it raises, and equal
        constraints get the same array, as does the all-active row of
        no constraints. feasible_activations still hands out fresh
        tuples."""
        constraints = SelectionConstraints(k_bar=2, min_gap=1.5)
        table = allocation_module._patterns(5, constraints)
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = True
        copy = dataclasses.replace(constraints)
        assert allocation_module._patterns(5, copy) is table
        assert allocation_module._patterns(5, dataclasses.replace(constraints, k_bar=1)) \
            is not table
        assert allocation_module._patterns(6, constraints) is not table
        row = allocation_module._patterns(5, None)
        assert row.tolist() == [[True] * 5]
        assert allocation_module._patterns(5, None) is row
        with pytest.raises(ValueError, match="read-only"):
            row[0, 0] = False
        first = feasible_activations(5, constraints)
        assert first == feasible_activations(5, copy)
        assert first is not feasible_activations(5, copy)

    def test_aliased_delays_rejected(self, scene, wave):
        """At 5 GHz the paths at X_HAT span more than the kernel separates."""
        wide = dataclasses.replace(wave, bandwidth_hz=5e9)
        with pytest.raises(ValueError, match="^path lengths span"):
            select_ris(scene, X_HAT, wide, tight_constraints(1, scene, wide))

    def test_aliased_point_is_refused_with_the_plain_message(self, scene, wave):
        """At 1 GHz and 33 subcarriers the paths at (0.05, 0.05) span more
        than the kernel separates, and those at (3.5, 9.0) do not. The
        message is the one select and point print, with no prefix."""
        narrow = dataclasses.replace(wave, bandwidth_hz=1e9, subcarrier_count=33)
        constraints = tight_constraints(1, scene, narrow)
        with pytest.raises(ValueError, match="^path lengths span"):
            select_ris(scene, np.array([0.05, 0.05]), narrow, constraints)
        select_ris(scene, np.array([3.5, 9.0]), narrow, constraints)

    def test_exhaustive_budget_guard(self, wave):
        many = Scene(wall_offset=10.0,
                     ris=tuple(RisDescriptor(0.5 * k, 4)
                               for k in range(MAX_EXHAUSTIVE_RIS + 1)))
        constraints = SelectionConstraints(k_bar=1)
        with pytest.raises(ValueError, match="exhaustive"):
            select_ris(many, X_HAT, wave, constraints)
        with pytest.raises(ValueError, match="exhaustive"):
            feasible_activations(len(many.ris), constraints)

    @pytest.mark.parametrize("x_hat", [[[3.5, 5.0]], [[3.5, 5.0], [8.0, 4.0]], [1.0, 2.0, 3.0],
                                       []], ids=["1x2", "2x2", "3", "empty"])
    def test_select_rejects_a_point_that_is_not_a_2_vector(self, scene, wave, x_hat):
        """A (1, 2) batch of one point is refused too: _choose takes
        batches, select_ris one point."""
        x_hat = np.array(x_hat)
        with pytest.raises(ValueError, match=rf"^x_hat has shape {re.escape(str(x_hat.shape))}"):
            select_ris(scene, x_hat, wave, tight_constraints(1, scene, wave))

    def test_pattern_batches_do_not_change_the_result(self, scene, wave, monkeypatch):
        """Many patterns are scored in batches that bound memory; one
        pattern per batch (one fim_total call each) gives _choose the same
        bounds, indices and FIM stack as all at once, at each of three
        points."""
        patterns = allocation_module._patterns(len(scene.ris), tight_constraints(2, scene, wave))
        points = np.array([[3.0, 4.5], [8.0, 4.0], [-2.0, 7.0]])
        whole = allocation_module._choose(scene, points, wave, patterns)
        batches = []
        original = allocation_module.fim_total

        def counted(*args):
            batches.append(1)
            return original(*args)

        monkeypatch.setattr(allocation_module, "fim_total", counted)
        monkeypatch.setattr(allocation_module, "_BATCH_ENTRIES", 1)
        split = allocation_module._choose(scene, points, wave, patterns)
        assert len(batches) == len(patterns) > 1
        assert np.array_equal(split[0], whole[0])
        assert np.array_equal(split[1], whole[1])
        assert np.array_equal(split[2].totals, whole[2].totals)


class TestOneDistancePass:
    """Steered at the points themselves (a sweep block, or select_ris's
    one point), _score takes the steering from the distances of its one
    pass over the path table, and its bounds, bits and steering stay the
    one-point path's."""

    XS = np.linspace(-5.0, 15.0, 11)
    # Rows from 8.7 m up lie within 1.3 m of the wall at 10 m.
    YS = (0.5, 3.0, 5.5, 8.0, 8.7, 9.0, 9.3, 9.6, 9.9)

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []
        distances = channel_module._PathTable.distances

        def counted(table, *args):
            calls.append(1)
            return distances(table, *args)

        monkeypatch.setattr(channel_module._PathTable, "distances", counted)
        return calls

    def test_one_pass_per_score(self, scene, wave, passes):
        points = np.array([[x, y] for x in self.XS for y in self.YS])
        patterns = allocation_module._patterns(len(scene.ris), tight_constraints(1, scene, wave))
        allocation_module._score(scene, points, wave, patterns)
        assert len(passes) == 1
        passes.clear()
        select_ris(scene, X_HAT, wave, tight_constraints(2, scene, wave))
        assert len(passes) == 1

    def test_one_pass_per_sweep_batch(self, scene, wave, monkeypatch, passes):
        scores = []
        choose = sweep_module._choose

        def counted(*args):
            scores.append(1)
            return choose(*args)

        monkeypatch.setattr(sweep_module, "_choose", counted)
        grid = GridSpec(x_range=(-5.0, 15.0), y_range=(8.7, 9.9), nx=11, ny=5)
        peb_map(scene, grid, wave, "ris", tight_constraints(1, scene, wave))
        assert len(scores) >= 1
        assert len(passes) == len(scores)

    def test_one_steering_per_score(self, scene, wave, monkeypatch):
        """The steering _score scores its designs by is the one gain_ris
        reads: one _PathTable.steering call per score."""
        calls = []
        steering = channel_module._PathTable.steering

        def counted(table, *args):
            calls.append(1)
            return steering(table, *args)

        monkeypatch.setattr(channel_module._PathTable, "steering", counted)
        points = np.array([[x, y] for x in self.XS for y in self.YS])
        for k_bar in (0, 1, 2):
            patterns = allocation_module._patterns(len(scene.ris),
                                                   tight_constraints(k_bar, scene, wave))
            calls.clear()
            allocation_module._score(scene, points, wave, patterns)
            assert len(calls) == 1
            calls.clear()
            select_ris(scene, X_HAT, wave, tight_constraints(k_bar, scene, wave))
            assert len(calls) == 1

    @pytest.mark.parametrize("k_bar", [1, 2])
    def test_matches_the_one_point_path(self, scene, wave, k_bar):
        constraints = tight_constraints(k_bar, scene, wave)
        patterns = allocation_module._patterns(len(scene.ris), constraints)
        points = np.array([[x, y] for x in self.XS for y in self.YS])
        bounds, steering, _, _ = allocation_module._score(scene, points, wave, patterns)
        for i, point in enumerate(points):
            aligned = build_allocation(scene, point, wave, (1,) * len(scene.ris))
            assert tuple(steering[i]) == aligned.design
            one_point = []
            for bits in patterns:
                allocation = build_allocation(scene, point, wave, bits)
                paths = build_pathset(scene, allocation, point, wave, "ris")
                one_point.append(peb(fim_total(paths, wave)).value)
            assert bounds[i].tolist() == one_point, point
            best = int(np.argmin(one_point))
            allocation, value = select_ris(scene, point, wave, constraints)
            assert allocation == build_allocation(scene, point, wave, patterns[best])
            assert value.value == one_point[best]


class TestEvaluateAllocation:
    """select_ris's bound, a ChosenBound, carries the evaluation of the
    allocation it chose at its own point: the pathset, 2x2 FIM total and
    bound that a fresh build gives, float for float, whatever was
    selected after it."""

    @staticmethod
    def assert_fresh(chosen, scene, allocation, x, wave):
        """chosen's paths, total and value are a pathset, FIM and bound
        built from nothing."""
        fresh = build_pathset(scene, allocation, x, wave, "ris")
        fim = fim_total(fresh, wave)
        paths = chosen.paths
        assert (paths.kinds, paths.indices) == (fresh.kinds, fresh.indices)
        for name in ("tau", "alpha", "direction", "anchor", "fixed_leg"):
            got, want = getattr(paths, name), getattr(fresh, name)
            assert got.shape == want.shape and np.array_equal(got, want), name
        assert chosen.total.shape == (2, 2) and np.array_equal(chosen.total, fim)
        assert chosen.value == peb(fim).value

    @pytest.mark.parametrize("batch_entries", [allocation_module._BATCH_ENTRIES, 1],
                             ids=["budget", "one"])
    @pytest.mark.parametrize("k_bar", range(4))
    def test_selection_is_read_back_exactly(self, scene, wave, rng, monkeypatch,
                                            k_bar, batch_entries):
        """Every selection's bound reads back its allocation's fresh
        evaluation. Points include rows near the wall; the patterns are
        scored in one batch or one per batch."""
        monkeypatch.setattr(allocation_module, "_BATCH_ENTRIES", batch_entries)
        constraints = tight_constraints(k_bar, scene, wave)
        points = [X_HAT, np.array([5.0, 9.5]), np.array([-5.0, 0.5])]
        points += [np.array([rng.uniform(-5.0, 15.0), rng.uniform(0.5, 9.9)])
                   for _ in range(15)]
        for x in points:
            allocation, chosen = select_ris(scene, x, wave, constraints)
            assert isinstance(chosen, ChosenBound)
            self.assert_fresh(chosen, scene, allocation, x, wave)

    def test_a_bound_outlives_later_selections(self, scene, wave):
        """A bound read before, and one first read after, selections at
        other points, budgets and scenes and a sweep still give their own
        point's evaluation."""
        constraints = tight_constraints(2, scene, wave)
        allocation, read = select_ris(scene, X_HAT, wave, constraints)
        self.assert_fresh(read, scene, allocation, X_HAT, wave)
        _, unread = select_ris(scene, X_HAT, wave, constraints)
        other_scene = dataclasses.replace(scene, wall_offset=scene.wall_offset + 1.0)
        select_ris(scene, np.array([8.0, 4.0]), wave, constraints)
        select_ris(scene, X_HAT, wave, tight_constraints(1, scene, wave))
        select_ris(other_scene, X_HAT, wave, constraints)
        grid = GridSpec(x_range=(2.0, 6.0), y_range=(3.0, 5.0), nx=3, ny=2)
        peb_map(scene, grid, wave, "ris", constraints)
        for chosen in (read, unread):
            self.assert_fresh(chosen, scene, allocation, X_HAT, wave)

    def test_bounds_compare_by_value_only(self, scene, wave):
        """Two selections at one point give equal bounds, with equal
        hashes, though each holds its own scored arrays."""
        constraints = tight_constraints(1, scene, wave)
        _, first = select_ris(scene, X_HAT, wave, constraints)
        _, second = select_ris(scene, X_HAT, wave, constraints)
        assert first.paths.alpha is not second.paths.alpha
        assert first == second and hash(first) == hash(second)

    @pytest.mark.parametrize("k_bar", range(3))
    def test_bound_equals_the_plain_bound_of_its_allocation(self, scene, wave, k_bar):
        """select_ris's bound equals, both ways round, the PebValue that
        peb gives for its allocation's fresh pathset, and a PebValue of
        another value does not."""
        allocation, bound = select_ris(scene, X_HAT, wave, tight_constraints(k_bar, scene, wave))
        plain = peb(fim_total(build_pathset(scene, allocation, X_HAT, wave, "ris"), wave))
        assert type(plain) is PebValue
        assert bound == plain and plain == bound and hash(bound) == hash(plain)
        assert bound == PebValue(bound.value)
        assert bound != PebValue(2.0 * bound.value) and bound != bound.value


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
