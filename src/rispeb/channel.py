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
the channel: it keeps reflecting with the all-ones (zero-phase) profile,
acting as a flat mirror whose array factor peaks at the specular angle
psi = theta.
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
    ris_angles,
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


def _make_path(scene: Scene | None, kind: str, index: int | None, alpha, x) -> Path:
    anchor, fixed_leg, dist, tau = _leg(scene, kind, index, x)
    return Path(kind=kind, index=index, tau=tau, alpha=alpha,
                direction=(x - anchor) / dist[..., None], anchor=anchor,
                fixed_leg=fixed_leg)


def gain_los(x, cfg: WaveformConfig) -> complex:
    """Free-space LOS gain with carrier phase: magnitude lambda/(4*pi*||x||)."""
    _, _, dist, tau = _leg(None, "los", None, _as_point(x))
    return _carrier(tau, cfg) * cfg.wavelength / (4.0 * math.pi * dist)


def gain_ris(scene: Scene, k: int, phases: np.ndarray, x, cfg: WaveformConfig) -> complex:
    """Cascaded BS-RIS-user gain for RIS k under the given phase profile.

    Each element is a (lambda/2)^2 aperture: it captures the BS wave with
    effective area (lambda/2)^2*cos(theta) and reradiates toward the user
    with gain pi*cos(psi), so one element contributes
    lambda^2*sqrt(cos(theta)*cos(psi)) / (16*pi*d1*d2) in amplitude
    (Ellingson 2019; Tang et al., IEEE TWC 2021). The projected-aperture
    cosines vanish at grazing angles, where a flat surface cannot
    reradiate along itself. The element sum h^T diag(exp(j*phases)) g is
    evaluated directly; its magnitude is bounded by the element count M
    and reaches M exactly when the profile cancels the steering phases.

    The arrival response is h_m = exp(j*pi*m*sin(theta)), the departure
    response g_m = exp(-j*pi*m*sin(psi)). Element m sits m half-wavelengths
    toward +x, which lengthens the incoming leg by m*(lambda/2)*sin(theta)
    but shortens the outgoing leg by m*(lambda/2)*sin(psi), so the two
    carry opposite signs and the zero-phase surface reflects specularly
    (psi = theta). That relative sign alone sets every cascade magnitude.
    The common sign and the reference do not follow the carrier: under
    exp(-j*2*pi*f_c*tau) a longer leg gives exp(-j*pi*m*sin(theta)), so
    the pair is the complex conjugate of the physical one, and it is
    referenced to element 0 rather than to the array center where tau is
    measured. This changes only the phase of a cascade that is not
    aligned: an inactive RIS, or an active one seen away from its design
    point.

    The last axis of phases runs over the elements; its leading axes
    broadcast against those of x.
    """
    p = _as_point(x)
    count = scene.ris[k].element_count
    profile = np.asarray(phases, dtype=float)
    if profile.shape[-1:] != (count,):
        raise ValueError("phase profile length must match the element count")
    _, leg_in, leg_out, tau = _leg(scene, "ris", k, p)
    theta, psi = ris_angles(scene, k, p)
    m = np.arange(count)
    h = np.exp(1j * math.pi * np.sin(theta) * m)
    g = np.exp(np.multiply.outer(-1j * math.pi * np.sin(psi), m))
    triple = np.sum(h * np.exp(1j * profile) * g, axis=-1)
    element = (cfg.wavelength**2 * np.sqrt(np.cos(theta) * np.cos(psi))
               / (16.0 * math.pi * leg_in * leg_out))
    # np.multiply, not *: numpy's scalar complex product (one position) can
    # round differently from its array loop (a batch), and a point must get
    # the same bits alone as inside a batch.
    return np.multiply(_carrier(tau, cfg) * element, triple)


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
    not (inactive ones reflect with the all-ones profile). The baseline
    modes emit the single reflector path (zero gain outside the hit
    region) or the single scatterer path; allocation is ignored there.
    For positions with leading axes each path field holds one entry per
    position, and the allocation's profiles broadcast against them.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    p = _as_point(x)
    _require_below_wall(scene, p)
    paths = [_make_path(scene, "los", None, gain_los(p, cfg), p)]
    if mode == "ris":
        if allocation is None:
            raise ValueError("RIS mode needs an allocation")
        if len(allocation.profiles) != len(scene.ris):
            raise ValueError("allocation does not match the scene's RIS count")
        for k in range(len(scene.ris)):
            alpha = gain_ris(scene, k, allocation.profiles[k], p, cfg)
            paths.append(_make_path(scene, "ris", k, alpha, p))
    elif mode == "reflector":
        paths.append(_make_path(scene, "reflector", None, gain_reflector(scene, p, cfg), p))
    else:
        paths.append(_make_path(scene, "scatterer", None, gain_scatter(scene, p, cfg), p))
    return PathSet(tuple(paths))
