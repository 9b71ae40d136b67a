"""Reference implementations shared by `rispeb validate` and the tests.

Each is written apart from the code it checks, and none calls
allocation._score, _choose, _patterns, feasible_activations or sweep
internals: all_patterns filters all 2^n bit vectors where _patterns
combines index sets, and kernel_sum is the explicit subcarrier sum
behind waveform's closed form. fim's two cluster merges, one position on
floats and a block of rows on arrays, are each other's reference in the
tests.

observation is the per-subcarrier observation over a PathSet's arrays,
delays rebuilt from the anchors at any position and gains frozen.
fim_numerical, the independent cross-check of fim_total, takes its
central differences and sums the information directly, sharing no
algebra with the closed-form assembly.

CHECKS is validate's table of (name, check(config, rng) -> worst, tolerance).
"""

import itertools
import math
from dataclasses import replace

import numpy as np

from .allocation import build_allocation, d_min, optimal_phases, select_ris
from .channel import MODES, build_pathset
from .fim import fim_total, peb
from .geometry import SPEED_OF_LIGHT, DegeneratePositionError
from .sweep import FLAG_INVALID, peb_map
from .waveform import (
    _TAYLOR_LIMIT,
    delay_kernel,
    delay_kernel_peak,
)


def element_sum(theta, psi, phases) -> complex:
    """h^T diag(exp(j*phases)) g with n centered on the array, in the
    carrier's sign: h_n = exp(-j*pi*n*sin(theta)), g_n = exp(j*pi*n*sin(psi))."""
    n = np.arange(len(phases)) - 0.5 * (len(phases) - 1)
    h = np.exp(-1j * math.pi * n * math.sin(theta))
    g = np.exp(1j * math.pi * n * math.sin(psi))
    return complex(np.sum(h * np.exp(1j * np.asarray(phases)) * g))


def misalignment(theta, psi, count: int) -> float:
    """Relative shortfall of |element_sum| from M under optimal_phases."""
    gain = abs(element_sum(theta, psi, optimal_phases(theta, psi, count)))
    return abs(gain - count) / count


def aligned_gain(scene, k: int, x, cfg) -> float:
    """|gain_ris| of RIS k under the aligned profile at x:
    M*lambda^2*sqrt(cos(theta)*cos(psi)) / (16*pi*d1*d2), with
    cos(theta) = L/d1 and cos(psi) = (L - y)/d2 from the geometry."""
    ris, wall = scene.ris[k], scene.wall_offset
    d1 = math.hypot(ris.center_x, wall)
    d2 = math.hypot(x[0] - ris.center_x, x[1] - wall)
    cosines = (wall / d1) * ((wall - x[1]) / d2)
    return (ris.element_count * cfg.wavelength ** 2 * math.sqrt(cosines)
            / (16 * math.pi * d1 * d2))


def observation(paths, x, cfg) -> np.ndarray:
    """Per-subcarrier observation at position(s) x of one position's paths,
    mu_n(x) = sum_k alpha_k * sqrt(E_s) * exp(-j*2*pi*n*W*tau_k(x)/(N+1)),
    subcarriers along a last axis over x's leading axes. Each tau_k(x) is
    rebuilt from the path's anchor and fixed leg; the gains stay frozen."""
    x = np.asarray(x, dtype=float)[..., None, :]
    dist = np.hypot(x[..., 0] - paths.anchor[:, 0], x[..., 1] - paths.anchor[:, 1])
    tau = (paths.fixed_leg + dist) / SPEED_OF_LIGHT
    angular = -2j * math.pi * cfg.bandwidth_hz / cfg.subcarrier_count
    phases = np.exp(angular * tau[..., None] * cfg.subcarrier_indices)
    return (paths.alpha * math.sqrt(cfg.pilot_energy)) @ phases


def fim_numerical(paths, cfg, step: float = 1e-6) -> np.ndarray:
    """Finite-difference FIM: differentiate the observation, not the algebra.

    Recovers the user position from the LOS path, evaluates observation
    at positions perturbed by +-step along each axis, and sums
    (1/N0) * Re{conj(dmu/dx_i) * dmu/dx_j} across subcarriers.
    """
    x = paths.anchor[0] + paths.direction[0] * (SPEED_OF_LIGHT * paths.tau[0]
                                                - paths.fixed_leg[0])
    offsets = step * np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    mu = observation(paths, x + offsets, cfg)
    gradients = (mu[0::2] - mu[1::2]) / (2.0 * step)
    return (np.conj(gradients) @ gradients.T).real / cfg.noise_psd_w_hz


def fim_gap(paths, cfg) -> float:
    """Relative Frobenius gap between fim_total and fim_numerical; 0 when
    the numerical reference is zero."""
    reference = fim_numerical(paths, cfg)
    scale = np.linalg.norm(reference)
    if scale == 0.0:
        return 0.0
    return float(np.linalg.norm(fim_total(paths, cfg) - reference) / scale)


def kernel_sum(cfg, delta):
    """The delay kernel as its explicit subcarrier sum
    (1/N0) * sum_n E_s * (2*pi*n*W/((N+1)*c))^2 * exp(-2j*pi*n*delta*W/(N+1)),
    complex, for a scalar or an array of offsets delta (seconds)."""
    n = cfg.subcarrier_indices
    step = 2.0 * math.pi * cfg.bandwidth_hz / (cfg.subcarrier_count * SPEED_OF_LIGHT)
    weights = (cfg.pilot_energy / cfg.noise_psd_w_hz) * (step * n) ** 2
    d = np.asarray(delta, dtype=float)
    phase = (-2j * math.pi * cfg.bandwidth_hz / cfg.subcarrier_count) * d[..., None] * n
    return np.exp(phase) @ weights


def conditioning_error(j) -> float:
    """eps * trace^2/det of a 2x2 FIM j: a relative error delta in each
    entry moves det = a*d - b^2 by up to delta * trace^2, so a bound from
    a nearly rank-one FIM carries about this much relative rounding."""
    trace = j[0, 0] + j[1, 1]
    det = j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]
    return float(trace**2 / det * np.finfo(float).eps)


def all_patterns(ris_count, constraints) -> list[tuple[int, ...]]:
    """Every bit vector of ris_count surfaces with at most k_bar ones and
    d_min above min_gap, in lexicographic order, from all 2^n of them."""
    return [bits for bits in itertools.product((0, 1), repeat=ris_count)
            if sum(bits) <= constraints.k_bar and d_min(bits) > constraints.min_gap]


def best_pattern(scene, x, cfg, constraints) -> tuple[float, tuple[int, ...]]:
    """(bound, bits) of the best activation at x by exhaustive search over
    all_patterns, one pathset each; ties go to the smallest bits."""
    scored = []
    for bits in all_patterns(len(scene.ris), constraints):
        allocation = build_allocation(scene, x, cfg, bits)
        paths = build_pathset(scene, allocation, x, cfg, "ris")
        scored.append((peb(fim_total(paths, cfg)).value, bits))
    return min(scored)


def phase_gain(config, rng) -> float:
    m = max((ris.element_count for ris in config.scene().ris), default=100)
    return max(misalignment(*rng.uniform(-math.pi / 2, math.pi / 2, size=2), m)
               for _ in range(25))


def fim_oracle(config, rng, per_mode: int = 8) -> float:
    """Largest fim_gap over per_mode random non-degenerate grid positions
    in each mode the scene supports; RIS mode activates every surface."""
    scene, cfg, grid = config.scene(), config.waveform(), config.grid()
    worst = 0.0
    for mode in [m for m in MODES if m == "ris" or getattr(scene, m) is not None]:
        done = 0
        while done < per_mode:
            p = np.array([rng.uniform(*grid.x_range), rng.uniform(*grid.y_range)])
            try:
                allocation = (build_allocation(scene, p, cfg, (1,) * len(scene.ris))
                              if mode == "ris" else None)
                paths = build_pathset(scene, allocation, p, cfg, mode)
            except DegeneratePositionError:
                continue
            done += 1
            worst = max(worst, fim_gap(paths, cfg))
    return worst


def selection_oracle(config, rng) -> float:
    """Points, of three random ones, where select_ris's bits or bound
    differ from best_pattern."""
    scene, cfg, grid = config.scene(), config.waveform(), config.grid()
    constraints = config.selection_constraints()
    mismatches = 0
    for _ in range(3):
        p = np.array([rng.uniform(*grid.x_range), rng.uniform(*grid.y_range)])
        try:
            chosen, value = select_ris(scene, p, cfg, constraints)
        except DegeneratePositionError:
            continue
        mismatches += (value.value, chosen.active) != best_pattern(scene, p, cfg, constraints)
    return float(mismatches)


def sweep_oracle(config, rng) -> float:
    """Cells of a random column of the RIS peb_map whose bits or bound differ
    from best_pattern; cells with one resolvable delay compare bits only."""
    scene, cfg, grid = config.scene(), config.waveform(), config.grid()
    constraints = config.selection_constraints()
    ix = int(rng.integers(grid.nx - 1))
    # A grid has at least two columns: sweep the drawn one and the next.
    pair = replace(grid, x_range=(grid.xs[ix], grid.xs[ix + 1]), nx=2)
    result = peb_map(scene, pair, cfg, "ris", constraints)
    mismatches = 0
    for iy, y in enumerate(pair.ys):
        if result.flags[0, iy] == FLAG_INVALID:
            continue
        bound, bits = best_pattern(scene, np.array([pair.xs[0], y]), cfg, constraints)
        mismatches += (result.allocation_bits[0, iy] != "".join(map(str, bits))
                       or (result.path_count[0, iy] > 1 and result.peb[0, iy] != bound))
    return float(mismatches)


def kernel_oracle(config, rng) -> float:
    """Largest |delay_kernel - kernel_sum| over the peak at random offsets
    x = 2*pi*W*delta/(N+1): uniform ones, |x| near 1.6e-5 (where the
    closed form cancels), around the switch to the Taylor series, near
    +-pi, and zero; a quarter of them shifted by whole kernel periods."""
    cfg = config.waveform()
    switch = 2.0 * _TAYLOR_LIMIT / max(cfg.subcarrier_count - 1, 1)
    x = np.concatenate([
        rng.uniform(-math.pi, math.pi, 16),
        1.6e-5 * rng.uniform(0.5, 2.0, 8),
        switch * rng.uniform(0.9, 1.1, 8),
        math.pi * (1.0 - rng.uniform(0.0, 1e-6, 8)),
        [0.0],
    ]) * rng.choice([-1.0, 1.0], 41)
    x[::4] += 2.0 * math.pi * rng.integers(-2, 3, len(x[::4]))
    delta = x * cfg.subcarrier_count / (2.0 * math.pi * cfg.bandwidth_hz)
    error = np.abs(delay_kernel(cfg, delta) - kernel_sum(cfg, delta))
    return float(np.max(error) / delay_kernel_peak(cfg))


CHECKS = (
    ("phase_gain", phase_gain, 1e-9),
    ("fim_oracle", fim_oracle, 1e-5),
    ("selection_oracle", selection_oracle, 0.5),
    ("sweep_oracle", sweep_oracle, 0.5),
    ("kernel_oracle", kernel_oracle, 1e-12),
)
