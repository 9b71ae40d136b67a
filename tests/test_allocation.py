"""Phase optimization and activation selection.

Frozen selection results below were cross-checked against an inline
brute-force enumeration (also exercised directly in
TestSelect::test_matches_brute_force). The frozen bounds come from
scripts/derive_frozen_values.py, which imports nothing from the package:
path gains from the link-budget formulas, the FIM from the analytic
position derivative of the per-subcarrier observation, both evaluated at
40 significant digits from the scenario's double-precision inputs.
TestSelect::test_frozen_values_match_derivation runs it again.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from rispeb.channel import build_pathset, gain_ris
from rispeb.fim import fim_total, peb
from rispeb.geometry import RisDescriptor, Scene

X_HAT = np.array([3.5, 5.0])

# Best pattern and its bound (m) at X_HAT for budgets 0, 1 and 2.
FROZEN_SELECTIONS = {
    0: ("00000", 10.858660985094476),
    1: ("10000", 0.9423850677980496),
    2: ("10010", 0.6484315942122354),
}


def tight_constraints(k_bar, scene, wave):
    return SelectionConstraints(k_bar=k_bar,
                                min_gap=gap_threshold(scene, wave))


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
        slope = -math.pi * (math.sin(theta) - math.sin(psi))
        assert np.allclose(phases, slope * np.arange(4), rtol=0, atol=1e-15)

    def test_first_element_is_reference(self):
        assert optimal_phases(1.1, 0.2, 8)[0] == 0.0

    def test_achieves_full_element_gain(self, scene, wave):
        allocation = build_allocation(scene, X_HAT, wave, (1, 1, 1, 1, 1))
        for k, ris in enumerate(scene.ris):
            triple = gain_ris(scene, k, allocation.profiles[k], X_HAT, wave)
            d1 = math.hypot(ris.center_x, scene.wall_offset)
            d2 = math.hypot(X_HAT[0] - ris.center_x,
                            X_HAT[1] - scene.wall_offset)
            cosines = (scene.wall_offset / d1) * (
                (scene.wall_offset - X_HAT[1]) / d2)
            bound = (ris.element_count * wave.wavelength ** 2
                     * math.sqrt(cosines) / (16 * math.pi * d1 * d2))
            assert abs(abs(triple) - bound) / bound < 1e-12


class TestAllocation:
    def test_bits_string(self):
        alloc = Allocation(active=(1, 0), profiles=(np.ones(3), np.zeros(3)))
        assert alloc.bits == "10"

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError, match="0 or 1"):
            Allocation(active=(2, 0), profiles=(np.zeros(3), np.zeros(3)))

    def test_rejects_profile_count_mismatch(self):
        with pytest.raises(ValueError):
            Allocation(active=(1, 0), profiles=(np.zeros(3),))

    def test_rejects_nonzero_inactive_profile(self):
        with pytest.raises(ValueError, match="inactive"):
            Allocation(active=(0,), profiles=(np.ones(3),))

    def test_build_zeroes_inactive(self, scene, wave):
        alloc = build_allocation(scene, X_HAT, wave, (0, 1, 0, 0, 0))
        assert np.all(alloc.profiles[0] == 0.0)
        assert np.any(alloc.profiles[1] != 0.0)

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
        # A relative error delta in each FIM entry moves det by at most
        # delta * trace^2 and the bound by about delta/2 * trace^2/det.
        # With every surface off the FIM is nearly rank one (trace^2/det
        # about 2.7e5), so double precision cannot hold 1e-12 here; allow
        # delta = 2 eps, and 1e-12 wherever the FIM is well conditioned.
        j = fim_total(build_pathset(scene, allocation, X_HAT, wave, "ris"),
                      wave).total
        trace = j[0, 0] + j[1, 1]
        det = j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]
        tolerance = max(1e-12, trace**2 / det * np.finfo(float).eps)
        assert abs(value.value - expected) / expected < tolerance

    def test_frozen_values_match_derivation(self, derived):
        for k_bar, (bits, expected) in FROZEN_SELECTIONS.items():
            derived_bits, derived_value, _ = derived[f"select_k{k_bar}"]
            assert derived_bits == bits
            assert abs(float(derived_value) - expected) / expected < 1e-15

    def test_larger_budget_never_hurts(self, scene, wave):
        _, one = select_ris(scene, X_HAT, wave, tight_constraints(1, scene, wave))
        _, two = select_ris(scene, X_HAT, wave, tight_constraints(2, scene, wave))
        assert two.value <= one.value

    def test_matches_brute_force(self, scene, wave):
        point = np.array([8.0, 4.0])
        constraints = tight_constraints(2, scene, wave)
        best = math.inf
        for bits in feasible_activations(len(scene.ris), constraints):
            allocation = build_allocation(scene, point, wave, bits)
            paths = build_pathset(scene, allocation, point, wave, "ris")
            best = min(best, peb(fim_total(paths, wave)).value)
        _, value = select_ris(scene, point, wave, constraints)
        assert value.value == best

    def test_selected_allocation_reproduces_value(self, scene, wave):
        constraints = tight_constraints(2, scene, wave)
        allocation, value = select_ris(scene, X_HAT, wave, constraints)
        paths = build_pathset(scene, allocation, X_HAT, wave, "ris")
        assert peb(fim_total(paths, wave)).value == value.value

    def test_exhaustive_budget_guard(self, wave):
        many = Scene(wall_offset=10.0,
                     ris=tuple(RisDescriptor(0.5 * k, 4)
                               for k in range(MAX_EXHAUSTIVE_RIS + 1)),
                     ris_spacing=0.5)
        constraints = SelectionConstraints(k_bar=1)
        with pytest.raises(ValueError, match="exhaustive"):
            select_ris(many, X_HAT, wave, constraints)
        with pytest.raises(ValueError, match="exhaustive"):
            robust_select(many, [X_HAT], wave, constraints)


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
        recomputed = []
        for point in samples:
            per_point = build_allocation(scene, point, wave, allocation.active)
            paths = build_pathset(scene, per_point, point, wave, "ris")
            recomputed.append(peb(fim_total(paths, wave)).value)
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
        recomputed = []
        for point in samples:
            per_point = build_allocation(scene, point, wave, allocation.active)
            paths = build_pathset(scene, per_point, point, wave, "ris")
            recomputed.append(min(peb(fim_total(paths, wave)).value,
                                  constraints.peb_cap))
        assert abs(score - sum(recomputed) / 2) < 1e-15

    def test_centroid_phasing(self, scene, wave):
        constraints = tight_constraints(1, scene, wave)
        samples = [np.array([3.0, 4.5]), np.array([4.0, 5.5])]
        allocation, _ = robust_select(scene, samples, wave, constraints)
        expected = build_allocation(scene, np.array([3.5, 5.0]), wave,
                                    allocation.active)
        for got, want in zip(allocation.profiles, expected.profiles):
            assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_rejects_unknown_objective(self, scene, wave):
        with pytest.raises(ValueError, match="objective"):
            robust_select(scene, [X_HAT], wave,
                          tight_constraints(1, scene, wave), objective="median")

    def test_rejects_empty_samples(self, scene, wave):
        with pytest.raises(ValueError, match="sample"):
            robust_select(scene, [], wave, tight_constraints(1, scene, wave))


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
