"""Path construction and complex gains for every propagation mechanism.

A Path carries everything the information modules need: delay, complex
gain, and the unit direction along which the path informs the position
estimate. Paths also keep their generating anchor point and the fixed
leg length ahead of it, so the delay can be re-evaluated at perturbed
user positions (the numerical FIM cross-check relies on this).

Per the inactive-RIS convention, a deactivated RIS is not removed from
the channel: it keeps reflecting with the all-ones (zero-phase) profile,
acting as a flat mirror whose array factor peaks at the specular angle
psi = theta.
"""

from __future__ import annotations

import cmath
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
    """One propagation path resolved at a specific user position.

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
    """Ordered paths for one candidate position; the LOS path comes first."""

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


def _make_path(kind: str, index: int | None, anchor: np.ndarray, fixed_leg: float,
               alpha: complex, x: np.ndarray) -> Path:
    dist = _separation(x, anchor, f"the {kind} anchor")
    return Path(
        kind=kind,
        index=index,
        tau=(fixed_leg + dist) / SPEED_OF_LIGHT,
        alpha=alpha,
        direction=(x - anchor) / dist,
        anchor=anchor,
        fixed_leg=fixed_leg,
    )


def gain_los(x, cfg: WaveformConfig) -> complex:
    """Free-space LOS gain with carrier phase: magnitude lambda/(4*pi*||x||)."""
    p = _as_point(x)
    dist = _separation(p, BS_POSITION, "the BS")
    tau = dist / SPEED_OF_LIGHT
    phase = cmath.exp(-2j * math.pi * cfg.carrier_hz * tau)
    return phase * cfg.wavelength / (4.0 * math.pi * dist)


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
    """
    p = _as_point(x)
    descriptor = scene.ris[k]
    profile = np.asarray(phases, dtype=float)
    if profile.shape != (descriptor.element_count,):
        raise ValueError("phase profile length must match the element count")
    center = ris_center(scene, k)
    leg_in = math.hypot(center[0], center[1])
    leg_out = _separation(p, center, f"RIS {k} center")
    theta, psi = ris_angles(scene, k, p)
    m = np.arange(descriptor.element_count)
    h = np.exp(1j * math.pi * math.sin(theta) * m)
    g = np.exp(-1j * math.pi * math.sin(psi) * m)
    triple = np.sum(h * np.exp(1j * profile) * g)
    tau = (leg_in + leg_out) / SPEED_OF_LIGHT
    carrier = cmath.exp(-2j * math.pi * cfg.carrier_hz * tau)
    element = (cfg.wavelength**2 * math.sqrt(math.cos(theta) * math.cos(psi))
               / (16.0 * math.pi * leg_in * leg_out))
    return carrier * element * complex(triple)


def gain_reflector(scene: Scene, x, cfg: WaveformConfig) -> complex:
    """Specular-reflection gain; exactly zero outside the mirror-hit region."""
    p = _as_point(x)
    _, hit = incidence_point(scene, p)
    if not hit:
        return 0j
    anchor = virtual_anchor(scene)
    dist = _separation(p, anchor, "the virtual anchor")
    tau = dist / SPEED_OF_LIGHT
    carrier = cmath.exp(-2j * math.pi * cfg.carrier_hz * tau)
    return carrier * scene.reflector.gamma * cfg.wavelength / (4.0 * math.pi * dist)


def gain_scatter(scene: Scene, x, cfg: WaveformConfig) -> complex:
    """Point-scatterer gain: lambda*sqrt(rcs) / ((4*pi)^1.5 * ||s|| * ||s-x||)."""
    p = _as_point(x)
    s = scatter_position(scene)
    leg_in = math.hypot(s[0], s[1])
    leg_out = _separation(p, s, "the scatterer")
    tau = (leg_in + leg_out) / SPEED_OF_LIGHT
    carrier = cmath.exp(-2j * math.pi * cfg.carrier_hz * tau)
    magnitude = (
        cfg.wavelength
        * math.sqrt(scene.scatterer.rcs)
        / ((4.0 * math.pi) ** 1.5 * leg_in * leg_out)
    )
    return carrier * magnitude


def build_pathset(scene: Scene, allocation: "Allocation | None", x,
                  cfg: WaveformConfig, mode: str) -> PathSet:
    """LOS path plus the mode's reradiated paths at user position x.

    mode "ris" needs an allocation and emits one path per RIS, active or
    not (inactive ones reflect with the all-ones profile). The baseline
    modes emit the single reflector path (zero gain outside the hit
    region) or the single scatterer path; allocation is ignored there.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    p = _as_point(x)
    _require_below_wall(scene, p)
    paths = [_make_path("los", None, BS_POSITION, 0.0, gain_los(p, cfg), p)]
    if mode == "ris":
        if allocation is None:
            raise ValueError("RIS mode needs an allocation")
        if len(allocation.profiles) != len(scene.ris):
            raise ValueError("allocation does not match the scene's RIS count")
        for k in range(len(scene.ris)):
            center = ris_center(scene, k)
            alpha = gain_ris(scene, k, allocation.profiles[k], p, cfg)
            paths.append(
                _make_path("ris", k, center, math.hypot(center[0], center[1]), alpha, p)
            )
    elif mode == "reflector":
        anchor = virtual_anchor(scene)
        paths.append(
            _make_path("reflector", None, anchor, 0.0, gain_reflector(scene, p, cfg), p)
        )
    else:
        s = scatter_position(scene)
        paths.append(
            _make_path(
                "scatterer", None, s, math.hypot(s[0], s[1]), gain_scatter(scene, p, cfg), p
            )
        )
    return PathSet(tuple(paths))
