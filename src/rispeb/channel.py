"""Path construction and complex gains for every propagation mechanism.

A PathSet holds, path by path, everything the information modules
need: delay, complex gain, and the unit direction along which the path
informs the position estimate. It also keeps each path's anchor point
and the fixed leg length ahead of it, so the delay can be re-evaluated
at perturbed user positions (the numerical FIM cross-check relies on
this).

Every function here broadcasts over the leading axes of the position:
given a batch of positions, the arrays gain those axes.

Per the inactive-RIS convention, a deactivated RIS is not removed from
the channel: it keeps reflecting with design steering 0, the flat
(zero-phase) surface, acting as a mirror whose array factor peaks at the
specular angle psi = theta.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .geometry import (
    BS_POSITION,
    SPEED_OF_LIGHT,
    Scene,
    _as_point,
    _require_below_wall,
    _separation,
    incidence_point,
    ris_center,
    scatter_position,
    virtual_anchor,
)
from .waveform import WaveformConfig

if TYPE_CHECKING:  # pragma: no cover
    from .allocation import Allocation

MODES = ("ris", "reflector", "scatterer")


@dataclass(frozen=True)
class Path:
    """One path of a PathSet, at a user position (or a batch of them).

    kind is one of "los", "ris", "reflector", "scatterer"; index is the RIS
    index for kind == "ris" and None otherwise. anchor is the last point the
    signal departs from toward the user and fixed_leg the path length (m)
    accumulated before that point, so tau == (fixed_leg + ||x - anchor||)/c
    and direction == (x - anchor)/||x - anchor||.
    """

    kind: str
    index: int | None
    tau: float
    alpha: complex
    direction: np.ndarray
    anchor: np.ndarray
    fixed_leg: float


@dataclass(frozen=True)
class PathSet:
    """The K paths at a user position (or batch), the LOS path first, named
    by kinds and indices as in Path: tau (..., K) and direction (..., K, 2)
    over the position's leading axes, alpha (..., K) over those broadcast
    against the design, anchor (K, 2), fixed_leg (K). An int index, or
    iteration, gives Path views of the arrays."""

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
        i = operator.index(i)
        return Path(kind=self.kinds[i], index=self.indices[i], tau=self.tau[..., i],
                    alpha=self.alpha[..., i], direction=self.direction[..., i, :],
                    anchor=self.anchor[i], fixed_leg=self.fixed_leg[i])


def _leg(scene: Scene | None, kind: str, index: int | None, x):
    """Anchor, fixed leg, anchor-to-x distance and delay of a path at x.

    The anchor is the last point the signal departs from toward the user
    and the fixed leg the path length (m) before it. Broadcasts over the
    leading axes of x; the LOS path needs no scene.
    """
    if kind == "los":
        anchor, fixed_leg, what = BS_POSITION, 0.0, "the BS"
    elif kind == "reflector":
        anchor, fixed_leg, what = virtual_anchor(scene), 0.0, "the virtual anchor"
    else:
        anchor, what = ((ris_center(scene, index), f"RIS {index} center") if kind == "ris"
                        else (scatter_position(scene), "the scatterer"))
        fixed_leg = math.hypot(anchor[0], anchor[1])
    dist = _separation(x, anchor, what)
    return anchor, fixed_leg, dist, (fixed_leg + dist) / SPEED_OF_LIGHT


def _carrier(tau, cfg: WaveformConfig):
    return np.exp(-2j * math.pi * cfg.carrier_hz * tau)


def gain_los(x, cfg: WaveformConfig, leg=None) -> complex:
    """Free-space LOS gain with carrier phase: magnitude lambda/(4*pi*||x||).
    leg is the LOS path's _leg at x, for a caller that has it already."""
    if leg is None:
        leg = _leg(None, "los", None, _as_point(x))
    _, _, dist, tau = leg
    return _carrier(tau, cfg) * cfg.wavelength / (4.0 * math.pi * dist)


def _steering(scene: Scene, k: int, x, leg):
    """Steering difference sin(theta) - sin(psi) of RIS k at x, from its
    _leg: sin(theta) = c_x/d1 and sin(psi) = (x - c_x)/d2."""
    center = scene.ris[k].center_x
    _, leg_in, leg_out, _ = leg
    return center / leg_in - (x[..., 0] - center) / leg_out


def _array_factor(spread, count: int):
    """D_M(x) = sin(M*x/2)/sin(x/2) at x = pi*spread, reduced exactly to
    |x| <= pi by D_M(x + 2*pi) = (-1)^(M-1)*D_M(x): sin(x/2) then vanishes
    only at x = 0, where the limit is M, so grating lobes come out exact."""
    turns = np.round(0.5 * np.asarray(spread))
    half = 0.5 * math.pi * (spread - 2.0 * turns)
    with np.errstate(invalid="ignore"):
        ratio = np.where(half == 0.0, count, np.sin(count * half) / np.sin(half))
    return np.where((count - 1) * turns % 2.0, -ratio, ratio)


def gain_ris(scene: Scene, k: int, design, x, cfg: WaveformConfig, leg=None) -> complex:
    """Cascaded BS-RIS-user gain of RIS k phased for steering difference
    design (0: the flat surface); design broadcasts against x's leading axes.
    leg is the surface's _leg at x, for a caller that has it already.

    Under the carrier exp(-j*2*pi*f_c*tau), tau measured at the array
    center, the element n half-wavelengths toward +x of the center adds
    exp(-j*pi*n*(u - design)) with u = sin(theta) - sin(psi): the cascade
    is the real D_M(pi*(u - design)), M when aligned. Each element is a (lambda/2)^2 aperture of amplitude
    lambda^2*sqrt(cos(theta)*cos(psi))/(16*pi*d1*d2) (Ellingson 2019; Tang
    et al., IEEE TWC 2021), with cos(theta) = L/d1, cos(psi) = (L - y)/d2.
    """
    p = _as_point(x)
    _require_below_wall(scene, p)
    if leg is None:
        leg = _leg(scene, "ris", k, p)
    _, leg_in, leg_out, tau = leg
    steering = _steering(scene, k, p, leg)
    wall = scene.wall_offset
    element = (cfg.wavelength**2 * np.sqrt((wall / leg_in) * ((wall - p[..., 1]) / leg_out))
               / (16.0 * math.pi * leg_in * leg_out))
    count = scene.ris[k].element_count
    return _carrier(tau, cfg) * (element * _array_factor(steering - design, count))


def gain_reflector(scene: Scene, x, cfg: WaveformConfig, leg=None) -> complex:
    """Specular-reflection gain; exactly zero outside the mirror-hit region.
    leg is the reflector path's _leg at x, for a caller that has it already."""
    p = _as_point(x)
    hit = incidence_point(scene, p)[1]
    if leg is None:
        leg = _leg(scene, "reflector", None, p)
    _, _, dist, tau = leg
    alpha = _carrier(tau, cfg) * scene.reflector.gamma * cfg.wavelength / (4.0 * math.pi * dist)
    return np.where(hit, alpha, 0j)[()]


def gain_scatter(scene: Scene, x, cfg: WaveformConfig, leg=None) -> complex:
    """Point-scatterer gain: lambda*sqrt(rcs) / ((4*pi)^1.5 * ||s|| * ||s-x||).
    leg is the scatterer path's _leg at x, for a caller that has it already."""
    if leg is None:
        leg = _leg(scene, "scatterer", None, _as_point(x))
    _, leg_in, leg_out, tau = leg
    magnitude = (
        cfg.wavelength
        * math.sqrt(scene.scatterer.rcs)
        / ((4.0 * math.pi) ** 1.5 * leg_in * leg_out)
    )
    return _carrier(tau, cfg) * magnitude


def build_pathset(scene: Scene, allocation: "Allocation | None", x,
                  cfg: WaveformConfig, mode: str) -> PathSet:
    """LOS path plus the mode's reradiated paths at user position x.

    mode "ris" needs an allocation and emits one path per RIS, active or
    not (inactive ones reflect as the flat surface). The baseline modes
    emit the single reflector path (zero gain outside the hit region) or
    the single scatterer path; allocation is ignored there. Each path's
    _leg is evaluated once and serves both its gain and its record. For
    positions with leading axes the arrays gain those axes, and alpha
    also broadcasts against the allocation's design.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    p = _as_point(x)
    _require_below_wall(scene, p)
    kinds, indices = ("los", mode), (None, None)
    if mode == "ris":
        if allocation is None:
            raise ValueError("RIS mode needs an allocation")
        if len(allocation.design) != len(scene.ris):
            raise ValueError("allocation does not match the scene's RIS count")
        kinds, indices = ("los",) + ("ris",) * len(scene.ris), (None, *range(len(scene.ris)))
    legs = [_leg(scene, kind, index, p) for kind, index in zip(kinds, indices)]
    gains = [gain_los(p, cfg, legs[0])]
    if mode == "ris":
        gains += [gain_ris(scene, k, design, p, cfg, leg)
                  for k, (design, leg) in enumerate(zip(allocation.design, legs[1:]))]
    else:
        gain = gain_reflector if mode == "reflector" else gain_scatter
        gains.append(gain(scene, p, cfg, legs[1]))
    anchors, fixed_legs, dists, taus = zip(*legs)
    anchor, dist = np.array(anchors), np.stack(dists, axis=-1)
    return PathSet(kinds, indices, tau=np.stack(taus, axis=-1),
                   alpha=np.stack(np.broadcast_arrays(*gains), axis=-1),
                   direction=(p[..., None, :] - anchor) / dist[..., None],
                   anchor=anchor, fixed_leg=np.array(fixed_legs))
