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
direction; pathsets, RIS steering and the RIS count map all read it.

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
from typing import TYPE_CHECKING, NamedTuple

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
    indices as in Path, anchor (K, 2) and fixed_leg (K) as in PathSet, and
    the name of each anchor in errors. The tables are cached and shared,
    so their arrays are read-only."""

    kinds: tuple[str, ...]
    indices: tuple[int | None, ...]
    anchor: np.ndarray
    fixed_leg: np.ndarray
    names: tuple[str, ...]

    def distances(self, x, rows=slice(None)) -> np.ndarray:
        """Distances (..., rows) from the anchors of rows (every path by
        default) to x, over x's leading axes. Raises
        DegeneratePositionError naming the first of those anchors, in path
        order, that a position coincides with."""
        anchor = self.anchor[rows]
        dist = np.hypot(x[..., None, 0] - anchor[:, 0], x[..., None, 1] - anchor[:, 1])
        close = dist < COINCIDENCE_LIMIT
        if close.any():
            first = int(np.argmax(close.reshape(-1, close.shape[-1]).any(axis=0)))
            raise DegeneratePositionError(
                f"position coincides with {np.array(self.names)[rows][first]}")
        return dist

    def delays(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Every path's distance from its anchor to x and its delay."""
        dist = self.distances(x)
        return dist, (self.fixed_leg + dist) / SPEED_OF_LIGHT


@functools.lru_cache(maxsize=16)
def _path_table(scene: Scene, mode: str) -> _PathTable:
    """The path table of mode in scene. Raises ValueError for a baseline
    mode whose object the scene lacks."""
    wall = scene.wall_offset
    rows = [("los", None, (0.0, 0.0), 0.0, "the BS")]
    if mode == "ris":
        rows += [("ris", k, (ris.center_x, wall), math.hypot(ris.center_x, wall),
                  f"RIS {k} center") for k, ris in enumerate(scene.ris)]
    elif mode == "reflector":
        if scene.reflector is None:
            raise ValueError("scene has no reflector")
        rows.append(("reflector", None, (0.0, 2.0 * wall), 0.0, "the virtual anchor"))
    else:
        if scene.scatterer is None:
            raise ValueError("scene has no scatterer")
        x = scene.scatterer.x
        rows.append(("scatterer", None, (x, wall), math.hypot(x, wall), "the scatterer"))
    kinds, indices, anchor, fixed_leg, names = zip(*rows)
    anchor, fixed_leg = np.array(anchor), np.array(fixed_leg)
    anchor.flags.writeable = fixed_leg.flags.writeable = False
    return _PathTable(kinds, indices, anchor, fixed_leg, names)


class _Surfaces(NamedTuple):
    """The constants of a scene's RIS that gain_ris reads: each surface's
    element count M, cos(theta) = L/d1 and 16*pi*d1, d1 its center's
    distance from the BS."""

    count: np.ndarray
    cos_theta: np.ndarray
    sixteen_pi_d1: np.ndarray


@functools.lru_cache(maxsize=16)
def _surfaces(scene: Scene) -> _Surfaces:
    """The surface constants of scene, built once per process from its
    RIS rows of the path table and shared, so read-only."""
    leg_in = _path_table(scene, "ris").fixed_leg[1:]
    surfaces = _Surfaces(np.array([ris.element_count for ris in scene.ris]),
                         scene.wall_offset / leg_in, 16.0 * math.pi * leg_in)
    for array in surfaces:
        array.flags.writeable = False
    return surfaces


def _carrier(tau, cfg: WaveformConfig):
    return np.exp(-2j * math.pi * cfg.carrier_hz * tau)


def _require_finite_phase(p: np.ndarray, tau: np.ndarray, cfg: WaveformConfig) -> None:
    """Raise ValueError naming the first of positions p (..., 2) where the
    carrier phase 2*pi*f_c*tau of a path, tau (..., K), is not a finite
    float: _carrier would give NaN gains there."""
    omega = 2.0 * math.pi * cfg.carrier_hz
    # A Python float overflows to inf without a warning; the delays are
    # nonnegative, so their largest gives the largest phase.
    if math.isfinite(float(tau.max()) * omega):
        return
    with np.errstate(over="ignore"):
        far = ~np.isfinite(tau.max(axis=-1) * omega)
    x, y = p.reshape(-1, 2)[np.argmax(far.reshape(-1))]
    raise ValueError(f"position ({x:.9g}, {y:.9g}) is too far away: the carrier phase "
                     "2*pi*f_c*tau of its paths is not finite")


def _steering(center, leg_in, leg_out, x):
    """Steering differences sin(theta) - sin(psi) at x of surfaces
    centered at [center, L], along a last axis: sin(theta) = c_x/d1 and
    sin(psi) = (x - c_x)/d2, with d1 = leg_in from the BS and d2 =
    leg_out to x."""
    return center / leg_in - (x[..., None, 0] - center) / leg_out


def _array_factor(spread, count):
    """D_M(x) = sin(M*x/2)/sin(x/2) at x = pi*spread, reduced exactly to
    |x| <= pi by D_M(x + 2*pi) = (-1)^(M-1)*D_M(x): sin(x/2) then vanishes
    only at x = 0, where the limit is M, so grating lobes come out exact."""
    turns = np.round(0.5 * np.asarray(spread))
    half = 0.5 * math.pi * (spread - 2.0 * turns)
    with np.errstate(invalid="ignore"):
        ratio = np.where(half == 0.0, count, np.sin(count * half) / np.sin(half))
    return np.where((count - 1) * turns % 2.0, -ratio, ratio)


def gain_ris(scene: Scene, design, x, dist, tau, steering, cfg: WaveformConfig) -> np.ndarray:
    """Cascaded BS-RIS-user gains of every RIS of the scene, the surfaces
    along a last axis. design (..., R) holds each surface's steering
    difference (0: the flat surface) and broadcasts against x's leading
    axes; dist, tau and steering (..., R) are the center-to-x distances,
    the path delays and the steering differences u at x (_steering),
    from the caller's pass over the path table.

    Under the carrier exp(-j*2*pi*f_c*tau), tau measured at the array
    center, the element n half-wavelengths toward +x of the center adds
    exp(-j*pi*n*(u - design)) with u = sin(theta) - sin(psi): the cascade
    is the real D_M(pi*(u - design)), M when aligned. Each element is a
    (lambda/2)^2 aperture of amplitude
    lambda^2*sqrt(cos(theta)*cos(psi))/(16*pi*d1*d2) (Ellingson 2019; Tang
    et al., IEEE TWC 2021), with cos(theta) = L/d1, cos(psi) = (L - y)/d2.
    """
    surfaces = _surfaces(scene)
    wall = scene.wall_offset
    element = (cfg.wavelength**2 * np.sqrt(surfaces.cos_theta * ((wall - x[..., None, 1]) / dist))
               / (surfaces.sixteen_pi_d1 * dist))
    return _carrier(tau, cfg) * (element * _array_factor(steering - design, surfaces.count))


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
    2*pi*f_c*tau overflows raises ValueError naming it.
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
    Checks the carrier phases of the delays before any gain is taken."""
    _require_finite_phase(p, tau, cfg)
    # Free space, lambda/(4*pi*d), with the carrier phase.
    los = _carrier(tau[..., :1], cfg) * cfg.wavelength / (4.0 * math.pi * dist[..., :1])
    leg, delay = dist[..., 1:], tau[..., 1:]
    if mode == "ris":
        if steering is None:
            steering = _steering(table.anchor[1:, 0], table.fixed_leg[1:], leg, p)
        gains = gain_ris(scene, design, p, leg, delay, steering, cfg)
    elif mode == "reflector":
        # Free space from the virtual anchor times gamma; exactly zero
        # where the mirror ray misses the segment.
        hit = _mirror_crossing(scene, p)[1][..., None]
        gains = np.where(hit, _carrier(delay, cfg) * scene.reflector.gamma * cfg.wavelength
                         / (4.0 * math.pi * leg), 0j)
    else:
        # lambda*sqrt(rcs) / ((4*pi)^1.5 * ||s|| * ||s - x||).
        gains = _carrier(delay, cfg) * (
            cfg.wavelength * math.sqrt(scene.scatterer.rcs)
            / ((4.0 * math.pi) ** 1.5 * table.fixed_leg[1] * leg))
    shape = np.broadcast_shapes(los.shape[:-1], gains.shape[:-1])
    alpha = np.empty(shape + (len(table.kinds),), dtype=complex)
    alpha[..., :1], alpha[..., 1:] = los, gains
    return PathSet(table.kinds, table.indices, tau=tau, alpha=alpha,
                   direction=(p[..., None, :] - table.anchor) / dist[..., None],
                   anchor=table.anchor, fixed_leg=table.fixed_leg)
