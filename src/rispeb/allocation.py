"""RIS phase optimization and activation-subset selection.

Per-RIS phases have a closed-form optimum that aligns every element's
cascaded response, giving the full M^2 gain; an allocation stores it as
one design steering difference per surface. Which RIS to activate is a
small combinatorial problem: activation patterns are enumerated
exhaustively under a budget on the number of active RIS and a minimum
index gap that keeps the activated paths separable in delay. Every
feasible pattern is scored at once, at every point of a batch: each
surface contributes one of its two gains, flat or steered, so a pattern
only picks between gains computed once.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import _path_table, _steering, build_pathset
from .fim import PebValue, _AliasedDelays, _require_unaliased, fim_total, peb
from .geometry import SPEED_OF_LIGHT, Scene, _as_point, _require_below_wall
from .waveform import WaveformConfig

# Beyond this many RIS the exhaustive enumeration is off the table.
MAX_EXHAUSTIVE_RIS = 20

# Default PEB cap (m): robust_select's "expected" objective clamps bounds
# at it, and a map flags the cells above it capped.
DEFAULT_PEB_CAP = 5.0

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
    activated RIS must strictly exceed (c/(W*D) for spacing D); peb_cap
    only clamps the bounds that robust_select's "expected" objective
    averages (maps take their cap as an argument of peb_map).
    """

    k_bar: int
    min_gap: float = 0.0
    peb_cap: float = DEFAULT_PEB_CAP

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
    # Only the active surfaces are steered, and only their anchors are
    # checked against x_hat; their rows of the path table follow the LOS.
    on = [k for k, bit in enumerate(bits) if bit]
    rows = [1 + k for k in on]
    table = _path_table(scene, "ris")
    steering = _steering(table.anchor[rows, 0], table.fixed_leg[rows],
                         table.distances(p, rows), p)
    aligned = dict(zip(on, np.moveaxis(steering, -1, 0)))
    return Allocation(active=bits, design=tuple(aligned.get(k, 0.0) for k in range(len(bits))))


def feasible_activations(ris_count: int, constraints: SelectionConstraints):
    """All activation patterns within budget and gap constraint, as tuples
    of 0/1 in lexicographic order (the all-zero pattern is always first
    and always feasible)."""
    return [tuple(row) for row in _patterns(ris_count, constraints).astype(int).tolist()]


def _patterns(ris_count: int, constraints: SelectionConstraints | None) -> np.ndarray:
    """Feasible patterns of ris_count surfaces as rows of a boolean array,
    in lexicographic order, so the first minimum breaks ties toward the
    smallest bits; without constraints, the single all-active pattern.
    The feasible table depends on the surface count, k_bar and min_gap
    only; it is built once per process for each and shared, so it is
    read-only."""
    if constraints is None:
        return np.ones((1, ris_count), dtype=bool)
    return _feasible_patterns(ris_count, constraints.k_bar, constraints.min_gap)


@functools.lru_cache(maxsize=32)
def _feasible_patterns(ris_count: int, k_bar: int, min_gap: float) -> np.ndarray:
    """_patterns' table, built from the index sets of at most k_bar
    surfaces whose consecutive indices are more than min_gap apart, not
    from all 2^n bit vectors."""
    if ris_count > MAX_EXHAUSTIVE_RIS:
        raise ValueError(
            f"exhaustive search budget exceeded: {ris_count} RIS > {MAX_EXHAUSTIVE_RIS}"
        )
    chosen = [ones for size in range(min(k_bar, ris_count) + 1)
              for ones in itertools.combinations(range(ris_count), size)
              if all(b - a > min_gap for a, b in zip(ones, ones[1:]))]
    # Lexicographic order of the bits is the order of the binary number
    # whose most significant bit is the first surface's.
    chosen.sort(key=lambda ones: sum(1 << (ris_count - 1 - i) for i in ones))
    patterns = np.zeros((len(chosen), ris_count), dtype=bool)
    for row, ones in zip(patterns, chosen):
        row[list(ones)] = True
    patterns.flags.writeable = False
    return patterns


def _score(scene: Scene, points: np.ndarray, cfg: WaveformConfig, patterns: np.ndarray,
           steer_at: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bounds of every pattern (rows of patterns) at every point (rows of
    points) as a (points x patterns) array, the (points x paths) delays,
    which do not depend on the pattern, and the steering of every surface
    at steer_at (..., surfaces). A pattern steers the surfaces it turns
    on at steer_at, as build_allocation does, and leaves the others
    flat: steer_at is either one point for all, or points itself for
    phases optimal at each. One pathset, from one gain_ris call, holds
    both gains of every surface, flat and steered; each batch of patterns
    (a single batch unless the patterns are many) picks one per surface.
    Two passes over the path table serve it all: one over the surfaces
    at steer_at for the steering, which _steering computes exactly as
    build_allocation does, and the pathset's over every path."""
    _require_below_wall(scene, steer_at)
    table = _path_table(scene, "ris")
    steering = _steering(table.anchor[1:, 0], table.fixed_leg[1:],
                         table.distances(steer_at, slice(1, None)), steer_at)
    # Each surface's two designs on the axis before the surfaces': 0.0,
    # the flat surface, then its steering at steer_at.
    design = np.where([[False], [True]], steering[..., None, :], 0.0)
    paths = build_pathset(scene, Allocation((1,) * len(scene.ris),
                                            tuple(np.moveaxis(design, -1, 0))),
                          points[:, None, :], cfg, "ris")
    # Length-one design axes, which broadcast over a batch's patterns.
    # Without RIS the design axis has one entry, the LOS path alone.
    flat, steered = paths.alpha[:, :1], paths.alpha[:, -1:]
    # The LOS path, first, is the same in both.
    on = np.concatenate([np.zeros((len(patterns), 1), dtype=bool), patterns], axis=1)
    # Patterns per batch, so that the (points x patterns x paths x paths)
    # arrays stay near _BATCH_ENTRIES entries.
    step = max(1, _BATCH_ENTRIES // (len(points) * len(paths) ** 2))
    values = []
    for start in range(0, len(patterns), step):
        alpha = np.where(on[start:start + step], steered, flat)
        values.append(peb(fim_total(replace(paths, alpha=alpha), cfg)).value)
    return np.concatenate(values, axis=-1), paths.tau[:, 0], steering


def select_ris(scene: Scene, x_hat, cfg: WaveformConfig,
               constraints: SelectionConstraints) -> tuple[Allocation, PebValue]:
    """Exhaustive activation search minimizing the full-FIM bound at x_hat,
    with phases optimal for x_hat: robust_select over the one sample."""
    allocation, value = robust_select(scene, [x_hat], cfg, constraints)
    return allocation, PebValue(value)


def robust_select(scene: Scene, samples, cfg: WaveformConfig,
                  constraints: SelectionConstraints,
                  objective: str = "worst_case") -> tuple[Allocation, float]:
    """Activation choice hedged over a set of candidate user positions.

    Every pattern carries phases built at the sample centroid, the
    allocation it would return, and is scored at each sample; the scores
    are then aggregated: "worst_case" takes the maximum bound (infinite
    bounds poison a pattern), "expected" the mean with infinite bounds
    clamped at the cap so a single shadowed sample cannot flatten the
    comparison. Ties go to the lexicographically smallest bit vector.
    The returned allocation carries the centroid steering that _score
    computed and scored, equal to build_allocation's at the centroid, so
    a call makes _score's two passes over the path table and no other.
    Raises ValueError, naming the sample, for a sample that is not one
    (x, y) point, and where a sample's delays alias, as
    count_resolvable_paths does; with several samples that error names
    the first aliased sample's index and position.
    """
    if objective not in ("worst_case", "expected"):
        raise ValueError(f"unknown robust objective {objective!r}")
    points = [np.asarray(s, dtype=float) for s in samples]
    if not points:
        raise ValueError("robust selection needs at least one sample")
    for i, p in enumerate(points):
        if p.shape != (2,):
            raise ValueError(f"sample {i} has shape {p.shape}, not one (x, y) point")
    points = _as_point(np.array(points))
    centroid = np.mean(points, axis=0)
    patterns = _patterns(len(scene.ris), constraints)
    values, delays, steering = _score(scene, points, cfg, patterns, centroid)
    try:
        _require_unaliased(delays, np.ones(delays.shape, dtype=bool), cfg)
    except _AliasedDelays as exc:
        if len(points) == 1:
            raise
        x, y = points[exc.row]
        raise ValueError(f"sample {exc.row} at ({x:.9g}, {y:.9g}): {exc}") from None
    if objective == "worst_case":
        scores = values.max(axis=0)
    else:
        scores = np.minimum(values, constraints.peb_cap).sum(axis=0) / len(points)
    best = int(np.argmin(scores))
    allocation = Allocation(active=tuple(patterns[best].astype(int).tolist()),
                            design=tuple(np.where(patterns[best], steering, 0.0)))
    return allocation, float(scores[best])
