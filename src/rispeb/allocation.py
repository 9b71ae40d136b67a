"""RIS phase optimization and activation-subset selection.

Per-RIS phases have a closed-form optimum that aligns every element's
cascaded response, giving the full M^2 gain. Which RIS to activate is a
small combinatorial problem: activation patterns are enumerated
exhaustively under a budget on the number of active RIS and a minimum
index gap that keeps the activated paths separable in delay.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import build_pathset
from .fim import PebValue, fim_total, peb
from .geometry import SPEED_OF_LIGHT, Scene, _as_point, ris_angles
from .waveform import WaveformConfig

# Beyond this many RIS the exhaustive enumeration is off the table.
MAX_EXHAUSTIVE_RIS = 20


@dataclass(frozen=True)
class Allocation:
    """Activation bits plus the per-RIS phase profiles actually applied.

    Inactive RIS carry the all-zero (all-ones phasor) profile: they keep
    reflecting specularly rather than disappearing.
    """

    active: tuple[int, ...]
    profiles: tuple[np.ndarray, ...]

    def __post_init__(self):
        if any(bit not in (0, 1) for bit in self.active):
            raise ValueError("activation entries must be 0 or 1")
        if len(self.profiles) != len(self.active):
            raise ValueError("one phase profile per RIS is required")
        for bit, profile in zip(self.active, self.profiles):
            if not bit and np.any(profile != 0.0):
                raise ValueError("inactive RIS must carry the all-zero profile")

    @property
    def bits(self) -> str:
        return "".join(str(bit) for bit in self.active)


@dataclass(frozen=True)
class SelectionConstraints:
    """Activation budget and delay-separation constraint for selection.

    min_gap is the real-valued threshold the index gap between any two
    activated RIS must strictly exceed (c/(W*D) for spacing D); peb_cap is
    the clamp applied to infinite bounds in expected-value robust scoring
    and the over-cap marker threshold in maps.
    """

    k_bar: int
    min_gap: float = 0.0
    peb_cap: float = 5.0

    def __post_init__(self):
        if self.k_bar < 0:
            raise ValueError("activation budget must be nonnegative")
        if self.min_gap < 0.0:
            raise ValueError("minimum index gap must be nonnegative")
        if self.peb_cap <= 0.0:
            raise ValueError("PEB cap must be positive")


def gap_threshold(scene: Scene, cfg: WaveformConfig) -> float:
    """Index-gap threshold c/(W*D) below which adjacent activations collide."""
    if len(scene.ris) < 2:
        return 0.0
    return SPEED_OF_LIGHT / (cfg.bandwidth_hz * scene.ris_spacing)


def optimal_phases(theta: float, psi: float, element_count: int) -> np.ndarray:
    """Element phases -pi*m*(sin(theta) - sin(psi)) aligning the cascade.

    Cancels the combined steering phase of the arrival and departure
    responses so all M element contributions add coherently. The profile
    is all zero exactly at the specular angle psi = theta.
    """
    m = np.arange(element_count)
    return -math.pi * (math.sin(theta) - math.sin(psi)) * m


def d_min(active) -> float:
    """Minimum index gap between consecutive activations; inf below two."""
    ones = [i for i, bit in enumerate(active) if bit]
    if len(ones) <= 1:
        return math.inf
    return float(min(b - a for a, b in zip(ones, ones[1:])))


def build_allocation(scene: Scene, x_hat, cfg: WaveformConfig, active) -> Allocation:
    """Allocation with phases optimal for x_hat on the active RIS."""
    p = _as_point(x_hat)
    bits = tuple(int(bool(bit)) for bit in active)
    if len(bits) != len(scene.ris):
        raise ValueError("activation length must match the RIS count")
    profiles = []
    for k, bit in enumerate(bits):
        count = scene.ris[k].element_count
        if bit:
            theta, psi = ris_angles(scene, k, p)
            profiles.append(optimal_phases(theta, psi, count))
        else:
            profiles.append(np.zeros(count))
    return Allocation(active=bits, profiles=tuple(profiles))


def feasible_activations(ris_count: int, constraints: SelectionConstraints):
    """All activation patterns within budget and gap constraint, in
    lexicographic order (the all-zero pattern is always first and always
    feasible)."""
    for bits in itertools.product((0, 1), repeat=ris_count):
        if sum(bits) > constraints.k_bar:
            continue
        if not d_min(bits) > constraints.min_gap:
            continue
        yield bits


def _search(scene: Scene, points, cfg: WaveformConfig,
            constraints: SelectionConstraints, score):
    """Exhaustive activation search over the feasible patterns.

    Each pattern is scored point by point with phases optimal for that
    point; score maps the per-point PebValues to one number. Ties are
    broken toward the lexicographically smallest bit vector, then the
    fewest activations. Inactive RIS stay in the channel while scoring.
    Returns ((score, bits, active count), per-point allocations,
    per-point values) of the best pattern.
    """
    ris_count = len(scene.ris)
    if ris_count > MAX_EXHAUSTIVE_RIS:
        raise ValueError(
            f"exhaustive search budget exceeded: {ris_count} RIS > {MAX_EXHAUSTIVE_RIS}"
        )
    best = None
    for bits in feasible_activations(ris_count, constraints):
        allocations, values = [], []
        for point in points:
            allocation = build_allocation(scene, point, cfg, bits)
            paths = build_pathset(scene, allocation, point, cfg, "ris")
            allocations.append(allocation)
            values.append(peb(fim_total(paths, cfg)))
        key = (score(values), bits, sum(bits))
        if best is None or key < best[0]:
            best = (key, allocations, values)
    return best


def select_ris(scene: Scene, x_hat, cfg: WaveformConfig,
               constraints: SelectionConstraints) -> tuple[Allocation, PebValue]:
    """Exhaustive activation search minimizing the full-FIM bound at x_hat,
    with phases optimal for x_hat; ties go to the lexicographically
    smallest bit vector."""
    _, (allocation,), (value,) = _search(
        scene, [_as_point(x_hat)], cfg, constraints, lambda values: values[0].value)
    return allocation, value


def robust_select(scene: Scene, samples, cfg: WaveformConfig,
                  constraints: SelectionConstraints,
                  objective: str = "worst_case") -> tuple[Allocation, float]:
    """Activation choice hedged over a set of candidate user positions.

    Each pattern is scored sample-by-sample with phases re-optimized for
    that sample, then aggregated: "worst_case" takes the maximum bound
    (infinite bounds poison a pattern), "expected" the mean with infinite
    bounds clamped at the cap so a single shadowed sample cannot flatten
    the comparison. The returned allocation carries phases built at the
    sample centroid.
    """
    if objective not in ("worst_case", "expected"):
        raise ValueError(f"unknown robust objective {objective!r}")
    points = [_as_point(s) for s in samples]
    if not points:
        raise ValueError("robust selection needs at least one sample")
    if objective == "worst_case":
        def score(values):
            return max(v.value for v in values)
    else:
        def score(values):
            return sum(min(v.value, constraints.peb_cap) for v in values) / len(values)
    (value, bits, _), _, _ = _search(scene, points, cfg, constraints, score)
    centroid = np.mean(points, axis=0)
    return build_allocation(scene, centroid, cfg, bits), value
