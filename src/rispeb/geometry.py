"""Planar scene geometry for wall-mounted reradiating objects.

The base station (BS) sits at the origin of a 2D plane. A wall parallel to
the x-axis at height y = L carries every reradiating object: the RIS arrays,
an optional specular reflector segment, and an optional point scatterer.
Users live strictly below the wall (y < L). This module places the anchors
and gives the RIS angles and the mirror hit test; channel builds each
path's delay and direction from an anchor point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s, exact SI

# Positions closer than this to the BS, a RIS center, or the scatterer are
# rejected outright instead of clamped: the 1/distance gains blow up silently
# otherwise.
COINCIDENCE_LIMIT = 1e-6  # m

BS_POSITION = np.zeros(2)


class DegeneratePositionError(ValueError):
    """User position coincides (within COINCIDENCE_LIMIT) with an anchor."""


@dataclass(frozen=True)
class RisDescriptor:
    """One RIS: a wall-parallel ULA of half-wavelength-spaced elements.

    center_x is the wall coordinate of the array center; the full center
    position is [center_x, L]. element_count is the number of elements M.
    """

    center_x: float
    element_count: int

    def __post_init__(self):
        if not math.isfinite(self.center_x):
            raise ValueError("RIS center must be finite")
        if self.element_count < 1:
            raise ValueError("RIS needs at least one element")


@dataclass(frozen=True)
class ReflectorDescriptor:
    """Specular reflector segment from [h1, L] to [h2, L] with coefficient gamma."""

    h1: float
    h2: float
    gamma: float

    def __post_init__(self):
        if not self.h1 < self.h2:
            raise ValueError("reflector needs h1 < h2")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("reflection coefficient must lie in [0, 1]")


@dataclass(frozen=True)
class ScatterDescriptor:
    """Point scatterer at [x, L] with radar cross section rcs (m^2)."""

    x: float
    rcs: float

    def __post_init__(self):
        if self.rcs < 0.0:
            raise ValueError("radar cross section must be nonnegative")


@dataclass(frozen=True)
class Scene:
    """Static geometry: wall offset L plus the objects mounted on the wall.

    ris_spacing is the common gap D between consecutive RIS centers; it is
    checked against the centers when two or more RIS are present, and may be
    omitted (None) for scenes with fewer than two RIS.
    """

    wall_offset: float
    ris: tuple[RisDescriptor, ...] = ()
    reflector: ReflectorDescriptor | None = None
    scatterer: ScatterDescriptor | None = None
    ris_spacing: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.wall_offset) and self.wall_offset > 0.0):
            raise ValueError("wall offset must be positive and finite")
        object.__setattr__(self, "ris", tuple(self.ris))
        centers = [r.center_x for r in self.ris]
        if any(b <= a for a, b in zip(centers, centers[1:])):
            raise ValueError("RIS centers must be strictly increasing")
        if len(centers) >= 2:
            if self.ris_spacing is None:
                raise ValueError("ris_spacing is required with two or more RIS")
            gaps = [b - a for a, b in zip(centers, centers[1:])]
            if any(abs(g - self.ris_spacing) > 1e-9 for g in gaps):
                raise ValueError("RIS centers are not spaced by ris_spacing")


def _as_point(x) -> np.ndarray:
    p = np.asarray(x, dtype=float)
    if p.shape != (2,) or not np.all(np.isfinite(p)):
        raise ValueError("position must be a finite 2-vector")
    return p


def _require_below_wall(scene: Scene, x: np.ndarray) -> None:
    if x[1] >= scene.wall_offset:
        raise ValueError("user position must lie strictly below the wall (y < L)")


def _separation(a: np.ndarray, b: np.ndarray, what: str) -> float:
    d = math.hypot(a[0] - b[0], a[1] - b[1])
    if d < COINCIDENCE_LIMIT:
        raise DegeneratePositionError(f"position coincides with {what}")
    return d


def ris_center(scene: Scene, k: int) -> np.ndarray:
    return np.array([scene.ris[k].center_x, scene.wall_offset])


def scatter_position(scene: Scene) -> np.ndarray:
    if scene.scatterer is None:
        raise ValueError("scene has no scatterer")
    return np.array([scene.scatterer.x, scene.wall_offset])


def ris_angles(scene: Scene, k: int, x) -> tuple[float, float]:
    """Arrival and departure angles (theta_k, psi_k) at RIS k.

    Both angles are measured between the respective propagation ray and the
    wall normal, signed positive when the ray leans toward increasing x:
    theta_k for the incoming BS-to-RIS ray, psi_k for the outgoing
    RIS-to-user ray. Both lie in (-pi/2, pi/2) for users below the wall.
    """
    p = _as_point(x)
    _require_below_wall(scene, p)
    center = ris_center(scene, k)
    _separation(p, center, f"RIS {k} center")
    theta = math.atan2(center[0] - BS_POSITION[0], center[1] - BS_POSITION[1])
    psi = math.atan2(p[0] - center[0], center[1] - p[1])
    return theta, psi


def virtual_anchor(scene: Scene) -> np.ndarray:
    """Mirror image [0, 2L] of the BS across the reflector's wall."""
    if scene.reflector is None:
        raise ValueError("scene has no reflector")
    return np.array([0.0, 2.0 * scene.wall_offset])


def incidence_point(scene: Scene, x) -> tuple[np.ndarray | None, int]:
    """Where the mirror ray meets the wall, and whether it hits the segment.

    Returns (s, 1) with s on the wall when the line from the virtual anchor
    to x crosses the reflector segment [h1, L]-[h2, L], else (None, 0).
    """
    if scene.reflector is None:
        raise ValueError("scene has no reflector")
    p = _as_point(x)
    _require_below_wall(scene, p)
    wall = scene.wall_offset
    # Line from [0, 2L] to p crosses y = L at parameter t = L / (2L - y).
    crossing_x = p[0] * wall / (2.0 * wall - p[1])
    if scene.reflector.h1 <= crossing_x <= scene.reflector.h2:
        return np.array([crossing_x, wall]), 1
    return None, 0
