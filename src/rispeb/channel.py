"""Path construction and complex gains for every propagation mechanism.

A PathSet holds, as arrays over its paths, everything the information
modules need: delay, complex gain, and the unit direction along which
the path informs the position estimate. It also keeps each path's anchor
point and the fixed leg length ahead of it, so the delay can be
re-evaluated at perturbed user positions (checks.observation relies on
this).

Which paths a mode has is listed once, in the path table of a (scene,
mode): the LOS path from the BS first, then one path per RIS from its
center [c_k, L], or the reflector's path from the virtual anchor [0, 2L]
(the BS mirrored across the wall), or the scatterer's from [x_s, L].
One broadcast pass over the table gives every path's distance, delay and
direction, and each surface's steering (_PathTable.steering); pathsets,
allocations, the selection core and the RIS count map all read it.
The table also holds each path's spread, the factor of its free-space
amplitude's denominator ahead of its last leg d, so that every gain and
the overflow check divide by the same spread*d.

Every function here broadcasts over the leading axes of the position:
given a batch of positions, the arrays gain those axes.

Per the inactive-RIS convention, a deactivated RIS is not removed from
the channel: it keeps reflecting with design steering 0, the flat
(zero-phase) surface, acting as a mirror whose array factor peaks at the
specular angle psi = theta.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .geometry import (
    COINCIDENCE_LIMIT,
    SPEED_OF_LIGHT,
    DegeneratePositionError,
    Scene,
    _as_point,
    _mirror_crossing,
    _require_below_wall,
)
from .waveform import WaveformConfig

if TYPE_CHECKING:  # pragma: no cover
    from .allocation import Allocation

MODES = ("ris", "reflector", "scatterer")


@dataclass(frozen=True)
class Path:
    """One path of a PathSet, at a user position (or a batch of them).

    kind is one of "los", "ris", "reflector", "scatterer"; index is the RIS
    index for kind == "ris" and None otherwise. Anchors and fixed legs
    live on the PathSet.
    """

    kind: str
    index: int | None
    tau: float
    alpha: complex
    direction: np.ndarray


@dataclass(frozen=True)
class PathSet:
    """The K paths at a user position (or batch), the LOS path first, named
    by kinds and indices as in Path: tau (..., K) and direction (..., K, 2)
    over the position's leading axes, alpha (..., K) over those broadcast
    against the design. Path k leaves anchor[k] (K, 2) with fixed_leg[k]
    (K) metres behind it: tau == (fixed_leg + ||x - anchor||)/c."""

    kinds: tuple[str, ...]
    indices: tuple[int | None, ...]
    tau: np.ndarray
    alpha: np.ndarray
    direction: np.ndarray
    anchor: np.ndarray
    fixed_leg: np.ndarray

    def __post_init__(self):
        if not self.kinds or self.kinds[0] != "los":
            raise ValueError("a path set starts with the LOS path")

    def __len__(self):
        return len(self.kinds)

    def __getitem__(self, i) -> Path:
        """Path view i (iteration gives them all); rispeb reads the arrays."""
        i = operator.index(i)
        return Path(kind=self.kinds[i], index=self.indices[i], tau=self.tau[..., i],
                    alpha=self.alpha[..., i], direction=self.direction[..., i, :])


@dataclass(frozen=True)
class _PathTable:
    """The paths of one scene and mode, the LOS path first: kinds and
    indices as in Path, anchor (K, 2) and fixed_leg (K) as in PathSet,
    spread (K) and the name of each anchor in errors. A path's free-space
    amplitude has the denominator spread*d, d its last leg: spread is
    4*pi for the LOS and the reflector, 16*pi*d1 for a RIS, d1 its
    fixed leg, and (4*pi)^1.5*||s|| for the scatterer, ||s|| its fixed
    leg. The RIS rows' surfaces also have their element count M and
    cos(theta) = L/d1 in count and cos_theta (R; empty in the baseline
    modes), and steering(x, dist) steers them. The tables are cached and
    shared, so their arrays are read-only."""

    kinds: tuple[str, ...]
    indices: tuple[int | None, ...]
    anchor: np.ndarray
    fixed_leg: np.ndarray
    spread: np.ndarray
    count: np.ndarray
    cos_theta: np.ndarray
    names: tuple[str, ...]

    def distances(self, x) -> np.ndarray:
        """Distances (..., K) from every path's anchor to x, over x's
        leading axes. Raises DegeneratePositionError naming the first
        anchor, in path order, that a position coincides with."""
        anchor = self.anchor
        # A distance beyond float max is inf, for the caller's checks to name.
        with np.errstate(over="ignore"):
            dist = np.hypot(x[..., None, 0] - anchor[:, 0], x[..., None, 1] - anchor[:, 1])
        close = dist < COINCIDENCE_LIMIT
        if close.any():
            first = int(np.argmax(close.reshape(-1, close.shape[-1]).any(axis=0)))
            raise DegeneratePositionError(f"position coincides with {self.names[first]}")
        return dist

    def delays(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Every path's distance from its anchor to x and its delay."""
        dist = self.distances(x)
        return dist, (self.fixed_leg + dist) / SPEED_OF_LIGHT

    def steering(self, x, dist) -> np.ndarray:
        """Steering differences u = sin(theta) - sin(psi) (..., R) of the
        surfaces at x from a pass's distances dist (..., K): sin(theta) =
        c_x/d1, d1 the fixed leg from the BS, and sin(psi) = (x - c_x)/d2,
        d2 = dist to the center [c_x, L]. The one place rispeb steers."""
        center = self.anchor[1:, 0]
        return center / self.fixed_leg[1:] - (x[..., None, 0] - center) / dist[..., 1:]


@functools.lru_cache(maxsize=16)
def _path_table(scene: Scene, mode: str) -> _PathTable:
    """The path table of mode in scene. Raises ValueError for a baseline
    mode whose object the scene lacks."""
    wall, four_pi = scene.wall_offset, 4.0 * math.pi
    surfaces = scene.ris if mode == "ris" else ()
    leg_in = [math.hypot(ris.center_x, wall) for ris in surfaces]
    rows = [("los", None, (0.0, 0.0), 0.0, four_pi, "the BS")]
    if mode == "ris":
        rows += [("ris", k, (ris.center_x, wall), d1, 4.0 * four_pi * d1, f"RIS {k} center")
                 for k, (ris, d1) in enumerate(zip(surfaces, leg_in))]
    elif mode == "reflector":
        if scene.reflector is None:
            raise ValueError("scene has no reflector")
        rows.append(("reflector", None, (0.0, 2.0 * wall), 0.0, four_pi, "the virtual anchor"))
    else:
        if scene.scatterer is None:
            raise ValueError("scene has no scatterer")
        x = scene.scatterer.x
        leg = math.hypot(x, wall)
        rows.append(("scatterer", None, (x, wall), leg, four_pi**1.5 * leg, "the scatterer"))
    kinds, indices, anchor, fixed_leg, spread, names = zip(*rows)
    arrays = (np.array(anchor), np.array(fixed_leg), np.array(spread),
              np.array([ris.element_count for ris in surfaces], dtype=int),
              np.array([wall / d1 for d1 in leg_in]))
    for array in arrays:
        array.flags.writeable = False
    return _PathTable(kinds, indices, *arrays, names)


def _carrier(tau, cfg: WaveformConfig):
    return np.exp(-2j * math.pi * cfg.carrier_hz * tau)


def _require_not_too_far(p: np.ndarray, table: _PathTable, dist: np.ndarray, tau: np.ndarray,
                         cfg: WaveformConfig) -> None:
    """Raise ValueError naming the first of positions p (..., 2) that is
    too far away: where a path's carrier phase 2*pi*f_c*tau, tau (..., K),
    or the denominator spread*d of its free-space amplitude is not a
    finite float, spread from table and d the path's entry of dist
    (..., K). _carrier would give NaN gains there, and an overflowed
    denominator a zero gain."""
    omega = 2.0 * math.pi * cfg.carrier_hz
    # A Python float overflows to inf without a warning. The delays are
    # nonnegative, so their largest gives the largest phase, and c times
    # it bounds every leg: with twice that, 16*pi*reach^2 bounds every
    # denominator, rounding included.
    tau_max = float(tau.max())
    reach = 2.0 * SPEED_OF_LIGHT * tau_max
    if math.isfinite(tau_max * omega) and math.isfinite(16.0 * math.pi * reach * reach):
        return
    with np.errstate(over="ignore"):
        phase = ~np.isfinite(tau.max(axis=-1) * omega)
        far = phase | ~np.isfinite(table.spread * dist).all(axis=-1)
    if not far.any():
        return
    first = np.argmax(far.reshape(-1))
    x, y = p.reshape(-1, 2)[first]
    reason = ("the carrier phase 2*pi*f_c*tau of its paths is not finite"
              if phase.reshape(-1)[first] else
              "the denominator of a path's free-space amplitude is not finite")
    raise ValueError(f"position ({x:.9g}, {y:.9g}) is too far away: {reason}")


def _array_factor(u, count):
    """D_M(x) = sin(M*x/2)/sin(x/2) at x = pi*u, reduced exactly to
    |x| <= pi by D_M(x + 2*pi) = (-1)^(M-1)*D_M(x): sin(x/2) then vanishes
    only at x = 0, where the limit is M, so grating lobes come out exact."""
    turns = np.rint(0.5 * np.asarray(u))
    half = 0.5 * math.pi * (u - 2.0 * turns)
    with np.errstate(invalid="ignore"):
        ratio = np.where(half == 0.0, count, np.sin(count * half) / np.sin(half))
    return np.where((count - 1) * turns % 2.0, -ratio, ratio)


def gain_ris(scene: Scene, design, x, dist, tau, steering, cfg: WaveformConfig) -> np.ndarray:
    """Cascaded BS-RIS-user gains of every RIS of the scene, the surfaces
    along a last axis. design (..., R) holds each surface's steering
    difference (0: the flat surface) and broadcasts against x's leading
    axes; dist, tau and steering (..., R) are the center-to-x distances,
    the path delays and the steering differences u at x
    (_PathTable.steering), from the caller's pass over the path table.

    Under the carrier exp(-j*2*pi*f_c*tau), tau measured at the array
    center, the element n half-wavelengths toward +x of the center adds
    exp(-j*pi*n*(u - design)) with u = sin(theta) - sin(psi): the cascade
    is the real D_M(pi*(u - design)), M when aligned. Each element is a
    (lambda/2)^2 aperture of amplitude
    lambda^2*sqrt(cos(theta)*cos(psi))/(16*pi*d1*d2) (Ellingson 2019; Tang
    et al., IEEE TWC 2021), with cos(theta) = L/d1, cos(psi) = (L - y)/d2.
    M, cos(theta) and the spread 16*pi*d1 come from the RIS path table.
    """
    table = _path_table(scene, "ris")
    element = (cfg.wavelength**2
               * np.sqrt(table.cos_theta * ((scene.wall_offset - x[..., None, 1]) / dist))
               / (table.spread[1:] * dist))
    return _carrier(tau, cfg) * (element * _array_factor(steering - design, table.count))


def build_pathset(scene: Scene, allocation: "Allocation | None", x,
                  cfg: WaveformConfig, mode: str) -> PathSet:
    """LOS path plus the mode's reradiated paths at user position x.

    mode "ris" needs an allocation and emits one path per RIS, active or
    not (inactive ones reflect as the flat surface), with every surface's
    gain from one gain_ris call. The baseline modes emit the single
    reflector path (zero gain outside the hit region) or the single
    scatterer path; allocation is ignored there. One pass over the path
    table serves every gain and record. For positions with leading axes
    the arrays gain those axes, and alpha also broadcasts against the
    allocation's design. A position so far away that a carrier phase
    2*pi*f_c*tau or a free-space amplitude's denominator overflows
    raises ValueError naming it.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    p = _as_point(x)
    _require_below_wall(scene, p)
    design = None
    if mode == "ris":
        if allocation is None:
            raise ValueError("RIS mode needs an allocation")
        if len(allocation.design) != len(scene.ris):
            raise ValueError("allocation does not match the scene's RIS count")
        design = (np.stack(np.broadcast_arrays(*allocation.design), axis=-1)
                  if scene.ris else np.zeros(0))
    table = _path_table(scene, mode)
    return _assemble(scene, mode, table, p, *table.delays(p), None, design, cfg)


def _assemble(scene: Scene, mode: str, table: _PathTable, p: np.ndarray, dist: np.ndarray,
              tau: np.ndarray, steering: np.ndarray | None, design: np.ndarray | None,
              cfg: WaveformConfig) -> PathSet:
    """build_pathset's pathset at positions p, already checked, from the
    distances and delays (..., K) that one delays pass over the mode's
    path table gave. In RIS mode design (..., R) holds each surface's
    steering difference, as gain_ris takes it, and steering (..., R) the
    surfaces' steering at p, computed here from the same distances when
    None; the baseline modes ignore both. The selection core builds its
    RIS pathsets here too, with the steering it scores its designs by.
    Checks that no position is too far away before any gain is taken."""
    _require_not_too_far(p, table, dist, tau, cfg)
    # Free space, lambda/(spread*d), with the carrier phase.
    los = _carrier(tau[..., :1], cfg) * cfg.wavelength / (table.spread[:1] * dist[..., :1])
    leg, delay = dist[..., 1:], tau[..., 1:]
    if mode == "ris":
        if steering is None:
            steering = table.steering(p, dist)
        gains = gain_ris(scene, design, p, leg, delay, steering, cfg)
    elif mode == "reflector":
        # Free space from the virtual anchor times gamma; exactly zero
        # where the mirror ray misses the segment.
        hit = _mirror_crossing(scene, p)[1][..., None]
        gains = np.where(hit, _carrier(delay, cfg) * scene.reflector.gamma * cfg.wavelength
                         / (table.spread[1:] * leg), 0j)
    else:
        # lambda*sqrt(rcs) / ((4*pi)^1.5 * ||s|| * ||s - x||).
        gains = _carrier(delay, cfg) * (
            cfg.wavelength * math.sqrt(scene.scatterer.rcs) / (table.spread[1:] * leg))
    # The gains broadcast p's axes against the design's, and los has p's
    # alone, so the gains' leading axes are alpha's, also with no surfaces
    # (gains (..., 0)).
    alpha = np.empty(gains.shape[:-1] + (len(table.kinds),), dtype=complex)
    alpha[..., :1], alpha[..., 1:] = los, gains
    return PathSet(table.kinds, table.indices, tau=tau, alpha=alpha,
                   direction=(p[..., None, :] - table.anchor) / dist[..., None],
                   anchor=table.anchor, fixed_leg=table.fixed_leg)
