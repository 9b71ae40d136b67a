"""An independent model of the scenario, for checking rispeb's outputs.

Imports nothing from rispeb. It reads the scenario with configparser and
evaluates, in numpy double precision:

- delays, unit directions and path existence from the planar geometry
  (BS at the origin, wall at y = L, RIS centers and the scatterer on the
  wall, the reflector through its virtual anchor [0, 2L]);
- every gain magnitude from the link budget: LOS lambda/(4 pi d); an RIS
  element lambda^2 sqrt(cos theta cos psi)/(16 pi d1 d2), times M when the
  surface is aligned for the user position and times the Dirichlet kernel
  |sin(M u/2)/sin(u/2)|, u = pi (sin theta - sin psi), when it is inactive;
  the reflector gamma lambda/(4 pi d_VA) inside its mirror wedge and 0
  outside; the scatterer lambda sqrt(rcs)/((4 pi)^1.5 d1 d2);
- the 2x2 position FIM from the analytic position derivative of the
  per-subcarrier observation sum_k alpha_k sqrt(E_s) exp(-j 2 pi n W tau_k
  / (N+1)), summed over the subcarriers n (not through a delay kernel),
  for complex gains supplied by the caller;
- the resolvable-path count by merging, in sorted delay order, the two
  neighbouring clusters whose mean delays are closest while they are
  less than 1/W apart.
"""

from __future__ import annotations

import configparser
import itertools
import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299792458.0
THERMAL_NOISE_PSD = 1.380649e-23 * 290.0
CONDITION_LIMIT = 1e12
EPS = np.finfo(float).eps


@dataclass(frozen=True)
class Scenario:
    """Every input the model needs, in SI units."""

    wall: float
    centers: tuple[float, ...]
    elements: int
    reflector: tuple[float, float, float] | None  # h1, h2, gamma
    scatterer: tuple[float, float] | None  # x, rcs
    carrier: float
    bandwidth: float
    subcarriers: int
    power_w: float
    noise_psd: float
    k_bar: int
    cap: float

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier

    @property
    def min_gap(self) -> float:
        """Index gap c/(W D) that two active RIS must strictly exceed."""
        if len(self.centers) < 2:
            return 0.0
        return SPEED_OF_LIGHT / (self.bandwidth * (self.centers[1] - self.centers[0]))


def read_scenario(path) -> Scenario:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       interpolation=None)
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh)
    sc, wf, run = parser["scene"], parser["waveform"], parser["run"]
    reflector = None
    if "reflector_gamma" in sc:
        reflector = (float(sc["reflector_h1_m"]), float(sc["reflector_h2_m"]),
                     float(sc["reflector_gamma"]))
    scatterer = None
    if "scatter_rcs_m2" in sc:
        scatterer = (float(sc["scatter_x_m"]), float(sc["scatter_rcs_m2"]))
    return Scenario(
        wall=float(sc["wall_offset_m"]),
        centers=tuple(float(v) for v in sc["ris_centers_x_m"].split(",") if v.strip()),
        elements=int(sc["ris_elements"]),
        reflector=reflector,
        scatterer=scatterer,
        carrier=float(wf["carrier_hz"]),
        bandwidth=float(wf["bandwidth_hz"]),
        subcarriers=int(wf["subcarrier_count"]),
        power_w=1e-3 * 10.0 ** (float(wf["power_dbm"]) / 10.0),
        noise_psd=THERMAL_NOISE_PSD * 10.0 ** (float(wf["noise_figure_db"]) / 10.0),
        k_bar=int(run["k_bar"]),
        cap=float(run["peb_cap_m"]),
    )


@dataclass(frozen=True)
class PathModel:
    """One path at one user position: what the program must reproduce."""

    kind: str
    index: int | None
    tau: float
    direction: np.ndarray
    magnitude: float
    exists: bool  # False only for a reflector outside its mirror wedge


def _leg(x, anchor, fixed, kind, index, magnitude, exists=True) -> PathModel:
    dx, dy = x[0] - anchor[0], x[1] - anchor[1]
    dist = math.hypot(dx, dy)
    return PathModel(kind, index, (fixed + dist) / SPEED_OF_LIGHT,
                     np.array([dx / dist, dy / dist]), magnitude, exists)


def ris_magnitude(s: Scenario, k: int, x, active: bool) -> float:
    """|alpha| of RIS k at x: aligned for x when active, zero profile otherwise."""
    cx, wall = s.centers[k], s.wall
    d1 = math.hypot(cx, wall)
    d2 = math.hypot(x[0] - cx, wall - x[1])
    sin_t, cos_t = cx / d1, wall / d1
    sin_p, cos_p = (x[0] - cx) / d2, (wall - x[1]) / d2
    element = s.wavelength**2 * math.sqrt(cos_t * cos_p) / (16.0 * math.pi * d1 * d2)
    m = s.elements
    if active:
        return m * element
    half = 0.5 * math.pi * (sin_t - sin_p)
    if abs(math.sin(half)) < 1e-12:
        return m * element
    return element * abs(math.sin(m * half) / math.sin(half))


def paths(s: Scenario, x, mode: str, bits=()) -> list[PathModel]:
    """LOS first, then one path per RIS (mode "ris") or the baseline path."""
    lam = s.wavelength
    out = [_leg(x, (0.0, 0.0), 0.0, "los", None,
                lam / (4.0 * math.pi * math.hypot(x[0], x[1])))]
    if mode == "ris":
        for k, cx in enumerate(s.centers):
            out.append(_leg(x, (cx, s.wall), math.hypot(cx, s.wall), "ris", k,
                            ris_magnitude(s, k, x, bool(bits[k]))))
    elif mode == "reflector":
        h1, h2, gamma = s.reflector
        anchor = (0.0, 2.0 * s.wall)
        crossing = x[0] * s.wall / (2.0 * s.wall - x[1])
        hit = h1 <= crossing <= h2
        dist = math.hypot(x[0], 2.0 * s.wall - x[1])
        magnitude = gamma * lam / (4.0 * math.pi * dist) if hit else 0.0
        out.append(_leg(x, anchor, 0.0, "reflector", None, magnitude, hit))
    elif mode == "scatterer":
        sx, rcs = s.scatterer
        d1 = math.hypot(sx, s.wall)
        d2 = math.hypot(x[0] - sx, s.wall - x[1])
        magnitude = lam * math.sqrt(rcs) / ((4.0 * math.pi) ** 1.5 * d1 * d2)
        out.append(_leg(x, (sx, s.wall), d1, "scatterer", None, magnitude))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return out


def fim(s: Scenario, models: list[PathModel], alphas) -> np.ndarray:
    """(1/N0) sum_n Re{conj(df_n/dx_i) df_n/dx_j} from the analytic gradient."""
    half = (s.subcarriers - 1) // 2
    rate = (-2j * math.pi * s.bandwidth / s.subcarriers) * np.arange(-half, half + 1)
    tau = np.array([p.tau for p in models])
    units = np.array([p.direction for p in models])  # d tau/d x = unit / c
    alpha = np.asarray(alphas, dtype=complex)
    # per path and subcarrier: alpha sqrt(E_s) rate exp(rate tau) / c
    slope = (alpha[:, None] * math.sqrt(s.power_w / s.bandwidth) * rate[None, :]
             * np.exp(rate[None, :] * tau[:, None]) / SPEED_OF_LIGHT)
    grad = units.T @ slope  # (2, subcarriers)
    return (grad.conj() @ grad.T).real / s.noise_psd


def bound(j: np.ndarray) -> tuple[float, float]:
    """(PEB, trace^2/det); PEB is inf when det <= 0 or cond > CONDITION_LIMIT.

    trace^2/det sets how much relative accuracy a double-precision bound
    keeps: a relative error d in each FIM entry moves the bound by about
    (d/2) trace^2/det.
    """
    a, d = j[0, 0], j[1, 1]
    b = 0.5 * (j[0, 1] + j[1, 0])
    det = a * d - b * b
    trace = a + d
    if det <= 0.0 or trace <= 0.0:
        return math.inf, math.inf
    lam_max = 0.5 * (trace + math.hypot(a - d, 2.0 * b))
    if lam_max > CONDITION_LIMIT * (det / lam_max):
        return math.inf, trace * trace / det
    return math.sqrt(trace / det), trace * trace / det


def peb_tolerance(sensitivity: float) -> float:
    """Relative tolerance between two double evaluations of one bound."""
    return 1e-10 + 16.0 * EPS * sensitivity


def resolvable_count(models: list[PathModel], bandwidth: float) -> int:
    """Clusters left after merging neighbours closer than 1/W in delay."""
    clusters = [[p.tau, 1] for p in sorted(models, key=lambda p: p.tau) if p.exists]
    limit = 1.0 / bandwidth
    while len(clusters) > 1:
        means = [total / count for total, count in clusters]
        gaps = [b - a for a, b in zip(means, means[1:])]
        i = min(range(len(gaps)), key=gaps.__getitem__)
        if gaps[i] >= limit:
            break
        clusters[i] = [clusters[i][0] + clusters[i + 1][0],
                       clusters[i][1] + clusters[i + 1][1]]
        del clusters[i + 1]
    return len(clusters)


def feasible_patterns(s: Scenario, k_bar: int) -> list[tuple[int, ...]]:
    """Activation patterns within the budget whose index gaps exceed c/(W D)."""
    out = []
    for bits in itertools.product((0, 1), repeat=len(s.centers)):
        ones = [i for i, bit in enumerate(bits) if bit]
        if len(ones) > k_bar:
            continue
        if any(not b - a > s.min_gap for a, b in zip(ones, ones[1:])):
            continue
        out.append(bits)
    return out
