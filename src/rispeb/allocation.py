"""RIS phase optimization and activation-subset selection.

Per-RIS phases have a closed-form optimum that aligns every element's
cascaded response, giving the full M^2 gain; an allocation stores it as
one design steering difference per surface. Which RIS to activate is a
small combinatorial problem: activation patterns are enumerated
exhaustively under a budget on the number of active RIS and a minimum
index gap that keeps the activated paths separable in delay. Every
feasible pattern is scored at once, at every point of a batch: only the
RIS gains differ between patterns.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import _leg, _steering, build_pathset
from .fim import PebValue, _require_unaliased, fim_total, peb
from .geometry import SPEED_OF_LIGHT, Scene, _as_point, _require_below_wall
from .waveform import WaveformConfig

# Beyond this many RIS the exhaustive enumeration is off the table.
MAX_EXHAUSTIVE_RIS = 20

# Entries of the largest (points x patterns x paths x paths) array that
# one selection batch builds. Half of it times faster on the 100x100
# k_bar=1 RIS map only in a process whose heap larger blocks have grown
# before; from a fresh process it is slower.
_BATCH_ENTRIES = 1 << 18


@dataclass(frozen=True)
class Allocation:
    """Activation bits plus the design steering difference of each RIS.

    An active RIS is phased for sin(theta) - sin(psi) at its design
    point (optimal_phases gives the profile). Inactive RIS carry design
    0, the flat surface: they keep reflecting specularly rather than
    disappearing.
    """

    active: tuple[int, ...]
    design: tuple[float, ...]

    def __post_init__(self):
        if any(bit not in (0, 1) for bit in self.active):
            raise ValueError("activation entries must be 0 or 1")
        if len(self.design) != len(self.active):
            raise ValueError("one design steering per RIS is required")
        for bit, design in zip(self.active, self.design):
            if not bit and np.any(design != 0.0):
                raise ValueError("inactive RIS must carry design 0, the flat surface")

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


def optimal_phases(theta, psi, element_count: int) -> np.ndarray:
    """Element phases pi*n*(sin(theta) - sin(psi)) aligning the cascade,
    n centered on the array: the profile of design steering
    sin(theta) - sin(psi).

    Cancels the combined steering phase of the arrival and departure
    responses so all M element contributions add coherently. The profile
    is all zero exactly at the specular angle psi = theta. Angle arrays
    give profiles with the elements along a new last axis.
    """
    n = np.arange(element_count) - 0.5 * (element_count - 1)
    return np.multiply.outer(math.pi * (np.sin(theta) - np.sin(psi)), n)


def d_min(active) -> float:
    """Minimum index gap between consecutive activations; inf below two."""
    ones = [i for i, bit in enumerate(active) if bit]
    if len(ones) <= 1:
        return math.inf
    return float(min(b - a for a, b in zip(ones, ones[1:])))


def build_allocation(scene: Scene, x_hat, cfg: WaveformConfig, active) -> Allocation:
    """Allocation steered for x_hat on the active RIS; a batch of
    positions gives one design per position on each active RIS."""
    p = _as_point(x_hat)
    _require_below_wall(scene, p)
    bits = tuple(int(bool(bit)) for bit in active)
    if len(bits) != len(scene.ris):
        raise ValueError("activation length must match the RIS count")
    design = tuple(_steering(scene, k, p, _leg(scene, "ris", k, p)) if bit else 0.0
                   for k, bit in enumerate(bits))
    return Allocation(active=bits, design=design)


def feasible_activations(ris_count: int, constraints: SelectionConstraints):
    """All activation patterns within budget and gap constraint, as tuples
    of 0/1 in lexicographic order (the all-zero pattern is always first
    and always feasible)."""
    return [tuple(row) for row in _patterns(ris_count, constraints).astype(int).tolist()]


def _patterns(ris_count: int, constraints: SelectionConstraints | None) -> np.ndarray:
    """Feasible patterns of ris_count surfaces as rows of a boolean array,
    in lexicographic order, so the first minimum breaks ties toward the
    smallest bits; without constraints, the single all-active pattern.
    Built from the index sets of at most k_bar surfaces whose consecutive
    indices are more than min_gap apart, not from all 2^n bit vectors."""
    if constraints is None:
        return np.ones((1, ris_count), dtype=bool)
    if ris_count > MAX_EXHAUSTIVE_RIS:
        raise ValueError(
            f"exhaustive search budget exceeded: {ris_count} RIS > {MAX_EXHAUSTIVE_RIS}"
        )
    chosen = [ones for size in range(min(constraints.k_bar, ris_count) + 1)
              for ones in itertools.combinations(range(ris_count), size)
              if all(b - a > constraints.min_gap for a, b in zip(ones, ones[1:]))]
    # Lexicographic order of the bits is the order of the binary number
    # whose most significant bit is the first surface's.
    chosen.sort(key=lambda ones: sum(1 << (ris_count - 1 - i) for i in ones))
    patterns = np.zeros((len(chosen), ris_count), dtype=bool)
    for row, ones in zip(patterns, chosen):
        row[list(ones)] = True
    return patterns


def _score(scene: Scene, points: np.ndarray, cfg: WaveformConfig,
           patterns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds of every pattern (rows of patterns) at every point (rows of
    points), each with phases optimal for its point, as a (points x
    patterns) array, and the (points x paths) delays, which do not depend
    on the pattern. A pattern steers the surfaces it turns on at the
    point, as build_allocation does, and leaves the others flat;
    build_pathset evaluates one batch of patterns at a time (a single
    batch unless the patterns are many)."""
    column = points[:, None, :]
    steering = build_allocation(scene, column, cfg, (1,) * len(scene.ris)).design
    # Patterns per batch, so that the (points x patterns x paths x paths)
    # arrays stay near _BATCH_ENTRIES entries.
    step = max(1, _BATCH_ENTRIES // (len(points) * (len(scene.ris) + 1) ** 2))
    values = []
    for start in range(0, len(patterns), step):
        chunk = patterns[start:start + step]
        # Every bit is set: a surface the pattern leaves off carries 0.0,
        # the flat surface, which is what Allocation asks of an inactive one.
        design = tuple(np.where(chunk[:, k], aligned, 0.0) for k, aligned in enumerate(steering))
        paths = build_pathset(scene, Allocation((1,) * len(design), design), column, cfg, "ris")
        values.append(peb(fim_total(paths, cfg)).value)
    return np.concatenate(values, axis=-1), paths.tau[:, 0]


def select_ris(scene: Scene, x_hat, cfg: WaveformConfig,
               constraints: SelectionConstraints) -> tuple[Allocation, PebValue]:
    """Exhaustive activation search minimizing the full-FIM bound at x_hat,
    with phases optimal for x_hat; ties go to the lexicographically
    smallest bit vector. Raises ValueError where the path delays alias,
    as count_resolvable_paths does."""
    p = _as_point(x_hat)
    patterns = _patterns(len(scene.ris), constraints)
    values, delays = _score(scene, p.reshape(1, 2), cfg, patterns)
    _require_unaliased(delays, np.ones(delays.shape, dtype=bool), cfg)
    best = int(np.argmin(values[0]))
    value = float(values[0, best])
    return (build_allocation(scene, p, cfg, patterns[best]),
            PebValue(value, math.isinf(value)))


def robust_select(scene: Scene, samples, cfg: WaveformConfig,
                  constraints: SelectionConstraints,
                  objective: str = "worst_case") -> tuple[Allocation, float]:
    """Activation choice hedged over a set of candidate user positions.

    Each pattern is scored sample-by-sample with phases re-optimized for
    that sample, then aggregated: "worst_case" takes the maximum bound
    (infinite bounds poison a pattern), "expected" the mean with infinite
    bounds clamped at the cap so a single shadowed sample cannot flatten
    the comparison. The returned allocation carries phases built at the
    sample centroid. Raises ValueError where a sample's delays alias.
    """
    if objective not in ("worst_case", "expected"):
        raise ValueError(f"unknown robust objective {objective!r}")
    points = [_as_point(s) for s in samples]
    if not points:
        raise ValueError("robust selection needs at least one sample")
    patterns = _patterns(len(scene.ris), constraints)
    values, delays = _score(scene, np.array(points), cfg, patterns)
    _require_unaliased(delays, np.ones(delays.shape, dtype=bool), cfg)
    if objective == "worst_case":
        scores = values.max(axis=0)
    else:
        scores = np.minimum(values, constraints.peb_cap).sum(axis=0) / len(points)
    best = int(np.argmin(scores))
    centroid = np.mean(points, axis=0)
    return build_allocation(scene, centroid, cfg, patterns[best]), float(scores[best])
