"""Position-block Fisher information, error bounds, and resolvability.

The 2x2 position FIM splits into a direct part (each path contributes
information |alpha|^2 * kernel(0) along its own direction) and an
interference part coupling every pair of paths through the kernel at
their delay difference. Path gains are treated as known constants: their
dependence on position is deliberately not exploited, matching the
bound's definition.

fim_numerical is an independent cross-check: it differentiates the
frequency-domain observation at each subcarrier with central differences
over the user position (gains frozen) and accumulates the information
sum directly, sharing no algebra with the closed-form assembly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import PathSet
from .geometry import SPEED_OF_LIGHT
from .waveform import (
    WaveformConfig,
    delay_kernel,
    delay_kernel_peak,
    delay_resolution,
    unambiguous_range,
)

# A 2x2 information matrix with a condition number beyond this is treated
# as rank-deficient: the weak direction carries no usable information.
CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class Fim2:
    """2x2 position FIM with its direct/interference provenance split."""

    direct: np.ndarray
    interference: np.ndarray
    total: np.ndarray  # symmetrized sum of the two parts


@dataclass(frozen=True)
class PebValue:
    """Position error bound in meters; math.inf when the FIM is degenerate."""

    value: float
    rank_deficient: bool


def _path_arrays(paths: PathSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    alpha = np.array([p.alpha for p in paths], dtype=complex)
    tau = np.array([p.tau for p in paths], dtype=float)
    directions = np.array([p.direction for p in paths], dtype=float)
    return alpha, tau, directions


def fim_direct(paths: PathSet, cfg: WaveformConfig) -> np.ndarray:
    """Sum of per-path rank-1 contributions |alpha|^2 * kernel(0) * e e^T."""
    alpha, _, directions = _path_arrays(paths)
    weights = np.abs(alpha) ** 2 * delay_kernel_peak(cfg)
    return (directions * weights[:, None]).T @ directions


def fim_interference(paths: PathSet, cfg: WaveformConfig) -> np.ndarray:
    """Cross-path information from overlapping delay responses.

    Entry pattern: sum over ordered pairs k != k' of
    Re{alpha_k * conj(alpha_k') * kernel(tau_k - tau_k')} * e_k e_k'^T.
    """
    alpha, tau, directions = _path_arrays(paths)
    kernel = delay_kernel(cfg, tau[:, None] - tau[None, :])
    cross = (alpha[:, None] * alpha[None, :].conj() * kernel).real
    np.fill_diagonal(cross, 0.0)
    return directions.T @ cross @ directions


def fim_total(paths: PathSet, cfg: WaveformConfig) -> Fim2:
    direct = fim_direct(paths, cfg)
    interference = fim_interference(paths, cfg)
    total = direct + interference
    return Fim2(direct=direct, interference=interference, total=0.5 * (total + total.T))


def peb(fim) -> PebValue:
    """sqrt(trace(J^-1)) through the closed-form 2x2 adjugate inverse.

    Accepts a Fim2 or a raw 2x2 array. Returns infinity (rank_deficient)
    when the symmetrized matrix has nonpositive determinant or a condition
    number beyond CONDITION_LIMIT.
    """
    j = fim.total if isinstance(fim, Fim2) else np.asarray(fim, dtype=float)
    a = j[0, 0]
    d = j[1, 1]
    b = 0.5 * (j[0, 1] + j[1, 0])
    det = a * d - b * b
    trace = a + d
    if det <= 0.0 or trace <= 0.0:
        return PebValue(math.inf, True)
    # Symmetric 2x2 eigenvalues; the small one via det for numerical safety.
    lam_max = 0.5 * (trace + math.hypot(a - d, 2.0 * b))
    lam_min = det / lam_max
    if lam_max > CONDITION_LIMIT * lam_min:
        return PebValue(math.inf, True)
    return PebValue(math.sqrt(trace / det), False)


def count_resolvable_paths(paths: PathSet, cfg: WaveformConfig) -> int:
    """Number of separable delay clusters among the nonzero-gain paths.

    Paths closer than 1/W in delay cannot be separated; the closest pair
    of clusters is merged repeatedly (cluster delay = mean of its member
    delays) until every pair is at least 1/W apart. Zero-gain paths (a
    missed reflector) do not exist in the channel and are not counted.

    The delay kernel repeats every (N+1)/W, so delays that span more than
    (N+1)/W - 1/W may alias onto each other: such path sets raise
    ValueError instead of being counted.
    """
    limit = 1.0 / cfg.bandwidth_hz
    clusters = [(p.tau, 1) for p in paths if p.alpha != 0]
    taus = [tau for tau, _ in clusters]
    span = (max(taus) - min(taus)) * SPEED_OF_LIGHT if taus else 0.0
    allowed = unambiguous_range(cfg) - delay_resolution(cfg)
    if span > allowed:
        raise ValueError(f"path lengths span {span:.6g} m, more than the "
                         f"{allowed:.6g} m the delay kernel separates without aliasing")
    while len(clusters) > 1:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                gap = abs(clusters[i][0] / clusters[i][1] - clusters[j][0] / clusters[j][1])
                if best is None or gap < best[0]:
                    best = (gap, i, j)
        gap, i, j = best
        if gap >= limit:
            break
        merged = (clusters[i][0] + clusters[j][0], clusters[i][1] + clusters[j][1])
        clusters = [c for idx, c in enumerate(clusters) if idx not in (i, j)]
        clusters.append(merged)
    return len(clusters)


def fim_numerical(paths: PathSet, cfg: WaveformConfig, step: float = 1e-6) -> np.ndarray:
    """Finite-difference FIM: differentiate the observation, not the algebra.

    Rebuilds each path delay from its anchor at positions perturbed by
    +-step along each axis, forms the per-subcarrier observation with the
    stored (frozen) gains, and sums (1/N0) * Re{conj(df/dx_i) * df/dx_j}
    across subcarriers.
    """
    los = paths[0]
    x = los.anchor + los.direction * (SPEED_OF_LIGHT * los.tau - los.fixed_leg)
    n = cfg.subcarrier_indices
    amplitude = math.sqrt(cfg.pilot_energy)
    angular = -2j * math.pi * cfg.bandwidth_hz / cfg.subcarrier_count

    def observation(pos: np.ndarray) -> np.ndarray:
        out = np.zeros(len(n), dtype=complex)
        for p in paths:
            dist = math.hypot(pos[0] - p.anchor[0], pos[1] - p.anchor[1])
            tau = (p.fixed_leg + dist) / SPEED_OF_LIGHT
            out += p.alpha * amplitude * np.exp(angular * tau * n)
        return out

    gradients = []
    for axis in range(2):
        offset = np.zeros(2)
        offset[axis] = step
        gradients.append((observation(x + offset) - observation(x - offset)) / (2.0 * step))
    out = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            out[i, j] = np.sum((np.conj(gradients[i]) * gradients[j]).real)
    return out / cfg.noise_psd_w_hz
