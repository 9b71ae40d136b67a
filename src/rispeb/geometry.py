"""Planar scene geometry for wall-mounted reradiating objects.

The base station (BS) sits at the origin of a 2D plane. A wall parallel to
the x-axis at height y = L carries every reradiating object: the RIS arrays,
an optional specular reflector segment, and an optional point scatterer.
Users live strictly below the wall (y < L). This module describes the
scene and gives the mirror hit test; channel's path table places each
path's anchor and builds its delay, direction and RIS angles from it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s, exact SI

# Positions closer than this to the BS, a RIS center, or the scatterer are
# rejected outright instead of clamped: the 1/distance gains blow up silently
# otherwise.
COINCIDENCE_LIMIT = 1e-6  # m


class DegeneratePositionError(ValueError):
    """User position coincides (within COINCIDENCE_LIMIT) with an anchor."""


def _is_integer(value) -> bool:
    """An int or numpy integer, but not a bool (which is an int too)."""
    # A plain int, the common case, skips the slow ABC check.
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


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
        if not _is_integer(self.element_count):
            raise ValueError("RIS element count must be an integer")
        if self.element_count < 1:
            raise ValueError("RIS needs at least one element")


@dataclass(frozen=True)
class ReflectorDescriptor:
    """Specular reflector segment from [h1, L] to [h2, L] with coefficient gamma."""

    h1: float
    h2: float
    gamma: float

    def __post_init__(self):
        if not -math.inf < self.h1 < self.h2 < math.inf:
            raise ValueError("reflector needs finite h1 < h2")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("reflection coefficient must lie in [0, 1]")


@dataclass(frozen=True)
class ScatterDescriptor:
    """Point scatterer at [x, L] with radar cross section rcs (m^2)."""

    x: float
    rcs: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and 0.0 <= self.rcs < math.inf):
            raise ValueError("scatterer needs a finite x and a finite, nonnegative "
                             "radar cross section")


@dataclass(frozen=True)
class Scene:
    """Static geometry: wall offset L plus the objects mounted on the wall.

    The RIS centers must be strictly increasing and evenly spaced.
    """

    wall_offset: float
    ris: tuple[RisDescriptor, ...] = ()
    reflector: ReflectorDescriptor | None = None
    scatterer: ScatterDescriptor | None = None

    def __post_init__(self):
        if not (math.isfinite(self.wall_offset) and self.wall_offset > 0.0):
            raise ValueError("wall offset must be positive and finite")
        object.__setattr__(self, "ris", tuple(self.ris))
        gaps = [b.center_x - a.center_x for a, b in zip(self.ris, self.ris[1:])]
        if any(gap <= 0.0 for gap in gaps):
            raise ValueError("RIS centers must be strictly increasing")
        if any(abs(gap - gaps[0]) > 1e-9 for gap in gaps):
            raise ValueError("RIS centers must be evenly spaced")
        # Scenes key process-wide lru_caches, and the generated hash would
        # hash every descriptor again on each lookup: it is taken once.
        object.__setattr__(self, "_hash", hash((self.wall_offset, self.ris,
                                                self.reflector, self.scatterer)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # Pickling (the sweep's process pool) sends the fields, not the
        # hash: before Python 3.12, hash(None) differs between processes,
        # so the receiving process builds the scene, and its hash, anew.
        return Scene, (self.wall_offset, self.ris, self.reflector, self.scatterer)

    @property
    def ris_spacing(self) -> float | None:
        """Gap D between consecutive RIS centers; None below two RIS."""
        return self.ris[1].center_x - self.ris[0].center_x if len(self.ris) >= 2 else None


def _as_point(x) -> np.ndarray:
    """Position(s) as a float array whose last axis holds (x, y)."""
    p = np.asarray(x, dtype=float)
    if p.ndim == 0 or p.shape[-1] != 2 or not np.isfinite(p).all():
        raise ValueError("position must be a finite 2-vector")
    return p


def _require_below_wall(scene: Scene, x: np.ndarray) -> None:
    if (x[..., 1] >= scene.wall_offset).any():
        raise ValueError("user position must lie strictly below the wall (y < L)")


def _mirror_crossing(scene: Scene, p: np.ndarray):
    """Where the mirror ray to positions p, already checked, crosses the
    wall (its x coordinate), and whether that lies on the reflector
    segment."""
    wall = scene.wall_offset
    # Line from [0, 2L] to p crosses y = L at parameter t = L / (2L - y).
    crossing_x = p[..., 0] * wall / (2.0 * wall - p[..., 1])
    return crossing_x, (scene.reflector.h1 <= crossing_x) & (crossing_x <= scene.reflector.h2)


def incidence_point(scene: Scene, x):
    """Where the mirror ray meets the wall, and whether it hits the segment.

    Returns the point [s, L] where the line from the virtual anchor to x
    crosses the wall, and a boolean that is true where the crossing lies
    on the reflector segment [h1, L]-[h2, L]. Positions with leading axes
    give points and booleans with those axes.
    """
    if scene.reflector is None:
        raise ValueError("scene has no reflector")
    p = _as_point(x)
    _require_below_wall(scene, p)
    crossing_x, hit = _mirror_crossing(scene, p)
    return np.stack([crossing_x, np.full_like(crossing_x, scene.wall_offset)], axis=-1), hit
