"""Path construction and complex gains for every propagation mechanism.

A Path carries everything the information modules need: delay, complex
gain, and the unit direction along which the path informs the position
estimate. Paths also keep their generating anchor point and the fixed
leg length ahead of it, so the delay can be re-evaluated at perturbed
user positions (the numerical FIM cross-check relies on this).

Every function here broadcasts over the leading axes of the position:
given a batch of positions, a Path holds arrays of delays, gains and
directions, one entry per position.

Per the inactive-RIS convention, a deactivated RIS is not removed from
the channel: it keeps reflecting with design steering 0, the flat
(zero-phase) surface, acting as a mirror whose array factor peaks at the
specular angle psi = theta.
"""

from __future__ import annotations

import math
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
    """One propagation path resolved at a user position (or a batch of them).

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
    """Ordered paths for one candidate position (or batch); the LOS path comes first."""

    paths: tuple[Path, ...]

    def __post_init__(self):
        if not self.paths or self.paths[0].kind != "los":
            raise ValueError("a path set starts with the LOS path")

    def __iter__(self):
        return iter(self.paths)

    def __len__(self):
        return len(self.paths)

    def __getitem__(self, i):
        return self.paths[i]


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


def _make_path(kind: str, index: int | None, alpha, x, leg) -> Path:
    """The path of kind at x from its _leg and its gain."""
    anchor, fixed_leg, dist, tau = leg
    return Path(kind=kind, index=index, tau=tau, alpha=alpha,
                direction=(x - anchor) / dist[..., None], anchor=anchor,
                fixed_leg=fixed_leg)


def _los_path(x, cfg: WaveformConfig) -> Path:
    leg = _leg(None, "los", None, x)
    _, _, dist, tau = leg
    alpha = _carrier(tau, cfg) * cfg.wavelength / (4.0 * math.pi * dist)
    return _make_path("los", None, alpha, x, leg)


def gain_los(x, cfg: WaveformConfig) -> complex:
    """Free-space LOS gain with carrier phase: magnitude lambda/(4*pi*||x||)."""
    return _los_path(_as_point(x), cfg).alpha


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


def gain_reflector(scene: Scene, x, cfg: WaveformConfig) -> complex:
    """Specular-reflection gain; exactly zero outside the mirror-hit region."""
    p = _as_point(x)
    hit = incidence_point(scene, p)[1]
    _, _, dist, tau = _leg(scene, "reflector", None, p)
    alpha = _carrier(tau, cfg) * scene.reflector.gamma * cfg.wavelength / (4.0 * math.pi * dist)
    return np.where(hit, alpha, 0j)[()]


def gain_scatter(scene: Scene, x, cfg: WaveformConfig) -> complex:
    """Point-scatterer gain: lambda*sqrt(rcs) / ((4*pi)^1.5 * ||s|| * ||s-x||)."""
    _, leg_in, leg_out, tau = _leg(scene, "scatterer", None, _as_point(x))
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
    the single scatterer path; allocation is ignored there. For
    positions with leading axes each path field holds one entry per
    position, and the allocation's design broadcasts against them.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    p = _as_point(x)
    _require_below_wall(scene, p)
    paths = [_los_path(p, cfg)]
    if mode == "ris":
        if allocation is None:
            raise ValueError("RIS mode needs an allocation")
        if len(allocation.design) != len(scene.ris):
            raise ValueError("allocation does not match the scene's RIS count")
        for k, design in enumerate(allocation.design):
            leg = _leg(scene, "ris", k, p)
            paths.append(_make_path("ris", k, gain_ris(scene, k, design, p, cfg, leg), p, leg))
    else:
        gain = gain_reflector if mode == "reflector" else gain_scatter
        paths.append(_make_path(mode, None, gain(scene, p, cfg), p, _leg(scene, mode, None, p)))
    return PathSet(tuple(paths))
