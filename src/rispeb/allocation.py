"""RIS phase optimization and activation-subset selection.

Per-RIS phases have a closed-form optimum that aligns every element's
cascaded response, giving the full M^2 gain; an allocation stores it as
one design steering difference per surface. Which RIS to activate is a
small combinatorial problem: activation patterns are enumerated
exhaustively under a budget on the number of active RIS and a minimum
index gap, which keeps the active surfaces' centers more than c/W apart
along the wall but does not make their delays resolvable at a given
position. Every feasible pattern is scored at once, at every point of a
batch: each surface contributes one of its two gains, flat or steered,
so a pattern only picks between gains computed once.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channel import PathSet, _assemble, _path_table
from .fim import PebValue, _require_unaliased, fim_total, peb
from .geometry import SPEED_OF_LIGHT, Scene, _as_point, _is_integer, _require_below_wall
from .waveform import WaveformConfig

# Beyond this many RIS the exhaustive enumeration is off the table.
MAX_EXHAUSTIVE_RIS = 20

# Budget of points x patterns x paths^2 entries for one selection batch.
# Its largest arrays, the FIM assembly's weighted pair directions
# (points x patterns x 2 x path pairs), hold paths x (paths - 1) entries
# per point and pattern, so they stay below it. Half of it times faster
# on the 100x100 k_bar=1 RIS map only in a process whose heap larger
# blocks have grown before; from a fresh process it is slower.
_BATCH_ENTRIES = 1 << 18

# Each surface's two designs on an axis before the surfaces': the flat
# surface, then its steering at the point.
_FLAT_THEN_STEERED = np.array([[False], [True]])


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
        # A bool or a float would print as itself in bits.
        if any(not _is_integer(bit) or bit not in (0, 1) for bit in self.active):
            raise ValueError("activation entries must be the integers 0 or 1")
        if len(self.design) != len(self.active):
            raise ValueError("one design steering per RIS is required")
        for k, (bit, design) in enumerate(zip(self.active, self.design)):
            # Plain tests for a float, which numpy makes slow; anything
            # else (an int too: 10**400 overflows a float) goes through
            # numpy, and a batch's array must be finite in every entry.
            if isinstance(design, float):
                finite, flat = math.isfinite(design), design == 0.0
            else:
                values = np.asarray(design)
                finite = values.dtype.kind in "biuf" and bool(np.isfinite(values).all())
                flat = finite and not values.any()
            if not bit and not flat:
                raise ValueError(f"inactive RIS {k} must carry design 0, the flat surface")
            if not finite:
                raise ValueError(f"design steering of RIS {k} must be finite real numbers")

    @property
    def bits(self) -> str:
        return "".join(str(bit) for bit in self.active)


@dataclass(frozen=True)
class SelectionConstraints:
    """Activation budget and minimum index gap for selection.

    min_gap is the real-valued threshold the index gap between any two
    activated RIS must strictly exceed (c/(W*D) for spacing D, which puts
    active centers more than c/W apart along the wall; it does not
    separate their delays at a given position). Maps take their PEB cap
    as an argument of peb_map.
    """

    k_bar: int
    min_gap: float = 0.0

    def __post_init__(self):
        if not _is_integer(self.k_bar) or self.k_bar < 0:
            raise ValueError("activation budget must be a nonnegative integer")
        # Written so that NaN, which compares false either way, fails.
        if not self.min_gap >= 0.0:
            raise ValueError("minimum index gap must be nonnegative")


def gap_threshold(scene: Scene, cfg: WaveformConfig) -> float:
    """Index-gap threshold c/(W*D): active surfaces whose index gap exceeds
    it have centers more than c/W apart along the wall. Their delays at a
    given position may still lie closer than c/W."""
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
    """Allocation steered for x_hat on the active RIS and flat on the
    others, as select_ris builds its own; a batch of positions gives
    each RIS one design per position (zeros where inactive). Raises
    DegeneratePositionError at the BS or a RIS center, as build_pathset
    does."""
    p = _as_point(x_hat)
    _require_below_wall(scene, p)
    bits = tuple(active)
    # Compared, not tested for truth: "0", 2 and 0.5 are not active bits.
    if any(bit not in (0, 1) for bit in bits):
        raise ValueError("activation entries must be 0 or 1")
    bits = tuple(map(int, bits))
    if len(bits) != len(scene.ris):
        raise ValueError("activation length must match the RIS count")
    table = _path_table(scene, "ris")
    design = np.where(bits, table.steering(p, table.distances(p)), 0.0)
    return Allocation(active=bits, design=tuple(np.moveaxis(design, -1, 0)))


def feasible_activations(ris_count: int, constraints: SelectionConstraints):
    """All activation patterns within budget and gap constraint, as tuples
    of 0/1 in lexicographic order (the all-zero pattern is always first
    and always feasible)."""
    return [tuple(row) for row in _patterns(ris_count, constraints).astype(int).tolist()]


@functools.lru_cache(maxsize=32)
def _patterns(ris_count: int, constraints: SelectionConstraints | None) -> np.ndarray:
    """Feasible patterns of ris_count surfaces as rows of a boolean array,
    in lexicographic order, so the first minimum breaks ties toward the
    smallest bits; without constraints, the single all-active pattern.
    Built from the index sets of at most k_bar surfaces whose
    consecutive indices are more than min_gap apart, not from all 2^n
    bit vectors. Each table is built once per process for its surface
    count and constraints and shared, so it is read-only."""
    if constraints is None:
        chosen = [range(ris_count)]
    elif ris_count > MAX_EXHAUSTIVE_RIS:
        raise ValueError(
            f"exhaustive search budget exceeded: {ris_count} RIS > {MAX_EXHAUSTIVE_RIS}"
        )
    else:
        chosen = [ones for size in range(min(constraints.k_bar, ris_count) + 1)
                  for ones in itertools.combinations(range(ris_count), size)
                  if all(b - a > constraints.min_gap for a, b in zip(ones, ones[1:]))]
        # Lexicographic order of the bits is the order of the binary
        # number whose most significant bit is the first surface's.
        chosen.sort(key=lambda ones: sum(1 << (ris_count - 1 - i) for i in ones))
    patterns = np.zeros((len(chosen), ris_count), dtype=bool)
    for row, ones in zip(patterns, chosen):
        row[list(ones)] = True
    patterns.flags.writeable = False
    return patterns


class _Scored(NamedTuple):
    """_score's result: bounds (points x patterns); the steering of every
    surface at every point (points x surfaces); the pathset at the
    points, with both designs of every surface, flat then steered, on an
    axis after the points' (the delays, pattern-free, are
    paths.tau[:, 0]); and the FIM totals (points x patterns x 2 x 2)
    that the bounds were taken from."""

    values: np.ndarray
    steering: np.ndarray
    paths: PathSet
    totals: np.ndarray


def _score(scene: Scene, points: np.ndarray, cfg: WaveformConfig,
           patterns: np.ndarray) -> _Scored:
    """Bounds of every pattern (rows of patterns) at every point (rows of
    points), with the work they came from (_Scored). A pattern steers
    the surfaces it turns on at the point it is scored at, as
    build_allocation does, and leaves the others flat. One pathset, from
    one gain_ris call, holds both gains of every surface, flat and
    steered; each batch of patterns (a single batch unless the patterns
    are many) picks one per surface, and one peb call bounds the joined
    stack of the batches' FIM totals. One pass over the path table at
    the points serves it all: _PathTable.steering takes every surface's
    steering from its distances once, as build_allocation does, for the
    designs and gain_ris alike."""
    _require_below_wall(scene, points)
    table = _path_table(scene, "ris")
    p = points[:, None, :]
    dist, tau = table.delays(p)
    steering = table.steering(p, dist)
    design = np.where(_FLAT_THEN_STEERED, steering, 0.0)
    paths = _assemble(scene, "ris", table, p, dist, tau, steering, design, cfg)
    # Length-one design axes, which broadcast over a batch's patterns.
    flat, steered = paths.alpha[:, :1], paths.alpha[:, -1:]
    # The LOS path, first, is the same in both.
    on = np.concatenate([np.zeros((len(patterns), 1), dtype=bool), patterns], axis=1)
    # Patterns per batch, so that points x patterns x paths^2 stays near
    # _BATCH_ENTRIES, the budget of the batch's largest arrays.
    step = max(1, _BATCH_ENTRIES // (len(points) * len(paths) ** 2))
    totals = np.concatenate([
        fim_total(PathSet(paths.kinds, paths.indices, paths.tau,
                          np.where(on[start:start + step], steered, flat),
                          paths.direction, paths.anchor, paths.fixed_leg), cfg)
        for start in range(0, len(patterns), step)], axis=1)
    return _Scored(peb(totals).value, steering[:, 0], paths, totals)


def _choose(scene: Scene, points: np.ndarray, cfg: WaveformConfig,
            patterns: np.ndarray) -> tuple[np.ndarray, np.ndarray, _Scored]:
    """The pattern each point chooses: its bound (values), its index in
    patterns (best), and what _score returned. The first minimum wins,
    so ties go to the smallest bits. The one chooser of select_ris and
    of a RIS sweep's blocks."""
    scored = _score(scene, points, cfg, patterns)
    best = scored.values.argmin(axis=1)
    return scored.values[np.arange(len(points)), best], best, scored


@dataclass(frozen=True, eq=False)
class ChosenBound(PebValue):
    """select_ris's bound, equal to any PebValue of its value, which also
    gives the chosen allocation's pathset at the point (paths, taken
    when first read) and its 2x2 FIM total (total, its entry of the
    scored FIM stack): the same floats as build_pathset and fim_total
    give."""

    _scored: _Scored = field(repr=False)
    _best: int = field(repr=False)
    _active: tuple[int, ...] = field(repr=False)

    @functools.cached_property
    def paths(self) -> PathSet:
        paths = self._scored.paths
        # The pattern picks each surface's steered or flat gain; LOS first.
        alpha = np.where((0,) + self._active, paths.alpha[0, -1], paths.alpha[0, 0])
        return PathSet(paths.kinds, paths.indices, paths.tau[0, 0], alpha,
                       paths.direction[0, 0], paths.anchor, paths.fixed_leg)

    @property
    def total(self) -> np.ndarray:
        return self._scored.totals[0, self._best]


def select_ris(scene: Scene, x_hat, cfg: WaveformConfig,
               constraints: SelectionConstraints) -> tuple[Allocation, ChosenBound]:
    """Exhaustive activation search minimizing the full-FIM bound at x_hat,
    with phases optimal for x_hat: _choose on a batch of one point. The
    bound also gives the chosen pathset and FIM (ChosenBound). Raises
    ValueError for an x_hat that is not one (x, y) point, where x_hat is
    too far away for a carrier phase or a free-space amplitude, as
    build_pathset does, and where the delays at x_hat alias, as
    count_resolvable_paths does."""
    p = np.asarray(x_hat, dtype=float)
    if p.shape != (2,):
        raise ValueError(f"x_hat has shape {p.shape}, not one (x, y) point")
    patterns = _patterns(len(scene.ris), constraints)
    values, best, scored = _choose(scene, _as_point(p[None]), cfg, patterns)
    delays = scored.paths.tau[:, 0]
    _require_unaliased(delays.max(axis=1) - delays.min(axis=1), cfg)
    best = int(best[0])
    allocation = Allocation(active=tuple(patterns[best].astype(int).tolist()),
                            design=tuple(np.where(patterns[best], scored.steering[0], 0.0)))
    return allocation, ChosenBound(float(values[0]), scored, best, allocation.active)
