"""OFDM pilot parameters and the delay-domain information kernel.

The pilot comb spans subcarrier_count = M = N+1 subcarriers at indices
-N/2..N/2 (the count must be odd so the index set is symmetric), each
carrying constant energy E_s = P/W. Delay information enters the Fisher
information through the kernel

    kernel(delta) = (1/N0) * sum_n E_s * (2*pi*n*W / ((N+1)*c))^2
                                * exp(-2j*pi*n*delta*W / (N+1)),

whose peak kernel(0) is the per-path information intensity scale (1/m^2)
and whose off-peak values quantify inter-path interference.

The weights are even in n, so the kernel is real: with
x = 2*pi*W*delta/(N+1) it is scale * sum_n n^2 cos(n*x) = scale * -D''(x),
the second derivative of the Dirichlet kernel
D(x) = sum_n cos(n*x) = sin(M*x/2)/sin(x/2). delay_kernel evaluates

    -D''(x) = [S*((M^2+1)*s^2 - 2) + 2*M*C*c*s] / (4*s^3),

with s, c = sin, cos(x/2) and S, C = sin, cos(M*x/2), after reducing x
exactly to [0, pi] (the kernel is even and 2*pi-periodic in x). Near
x = 0 the terms of that form cancel, losing about 24*eps/(M*x)^2 of the
peak, so where the outermost subcarrier's phase (N/2)*x is below
_TAYLOR_LIMIT the kernel comes from its Taylor series in x^2, whose
coefficients are the exact power sums (-1)^k * sum_n n^(2k+2) / (2k)!.
rispeb.checks.kernel_sum keeps the explicit subcarrier sum as the
reference.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import SPEED_OF_LIGHT, _is_integer

BOLTZMANN = 1.380649e-23  # J/K, exact SI
REFERENCE_TEMPERATURE = 290.0  # K

# Thermal floor k_B * 290 K, i.e. -174 dBm/Hz. The absolute PEB scale of
# every result is proportional to the noise PSD, so changing this (or the
# noise figure on top of it) rescales all bounds by the same factor.
THERMAL_NOISE_PSD = BOLTZMANN * REFERENCE_TEMPERATURE  # W/Hz


def noise_psd_from_figure(noise_figure_db: float = 0.0) -> float:
    """Noise PSD in W/Hz for a receiver noise figure in dB over the thermal floor."""
    # Written so that NaN, which compares false either way, fails.
    if not noise_figure_db >= 0.0:
        raise ValueError("noise figure must be >= 0 dB")
    return THERMAL_NOISE_PSD * 10.0 ** (noise_figure_db / 10.0)


@dataclass(frozen=True)
class WaveformConfig:
    carrier_hz: float
    bandwidth_hz: float
    subcarrier_count: int  # N+1, odd
    tx_power_w: float = 1e-3
    noise_psd_w_hz: float = THERMAL_NOISE_PSD

    def __post_init__(self):
        if not (0.0 < self.carrier_hz < math.inf and 0.0 < self.bandwidth_hz < math.inf):
            raise ValueError("carrier and bandwidth must be positive and finite")
        if not _is_integer(self.subcarrier_count):
            raise ValueError("subcarrier count must be an integer")
        if self.subcarrier_count < 1 or self.subcarrier_count % 2 == 0:
            raise ValueError(
                "subcarrier count must be odd so indices span -N/2..N/2"
            )
        if not (0.0 < self.tx_power_w < math.inf and 0.0 < self.noise_psd_w_hz < math.inf):
            raise ValueError("power and noise PSD must be positive and finite")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    @property
    def pilot_energy(self) -> float:
        """Per-subcarrier pilot energy E_s = P/W."""
        return self.tx_power_w / self.bandwidth_hz

    @property
    def subcarrier_indices(self) -> np.ndarray:
        half = (self.subcarrier_count - 1) // 2
        return np.arange(-half, half + 1)


# Phase (N/2)*x of the outermost subcarrier below which delay_kernel
# sums the Taylor series: the closed form there keeps about 1e-13 of the
# peak, the series' first omitted term less than 2^-60 of it.
_TAYLOR_LIMIT = 0.125


class _KernelConstants(NamedTuple):
    scale: float  # (E_s/N0) * (2*pi*W/((N+1)*c))^2, the weight of n^2
    turns: float  # W/(N+1): periods of the kernel per second of offset
    switch: float  # half-angle x/2 below which the Taylor series is used
    taylor: tuple[float, ...]  # series coefficients in (x/2)^2, scale included


@functools.lru_cache(maxsize=16)
def _kernel_constants(cfg: WaveformConfig) -> _KernelConstants:
    half = (cfg.subcarrier_count - 1) // 2
    step = 2.0 * math.pi * cfg.bandwidth_hz / (cfg.subcarrier_count * SPEED_OF_LIGHT)
    scale = (cfg.pilot_energy / cfg.noise_psd_w_hz) * step**2
    # One subcarrier carries no delay information: the series, all zero, everywhere.
    switch = 0.5 * _TAYLOR_LIMIT / half if half else math.pi
    # sum_n n^2 cos(2*n*u) = sum_k (-4)^k * P(2k+2) / (2k)! * u^(2k) with
    # the power sums P(p) = sum_n n^p taken exactly (int / int rounds once).
    peak = 2 * sum(n * n for n in range(1, half + 1))
    taylor = []
    for k in itertools.count():
        power = 2 * sum(n ** (2 * k + 2) for n in range(1, half + 1))
        coefficient = (-4) ** k * power / math.factorial(2 * k)
        taylor.append(scale * coefficient)
        if abs(coefficient) * switch ** (2 * k) <= peak * 2.0**-60:
            break
    return _KernelConstants(scale=scale, turns=cfg.bandwidth_hz / cfg.subcarrier_count,
                            switch=switch, taylor=tuple(taylor))


def delay_kernel(cfg: WaveformConfig, delta):
    """Information kernel at delay offset(s) delta (seconds).

    Accepts a scalar or an ndarray of offsets and returns real values of
    matching shape: the kernel is even in delta, so Hermitian with zero
    imaginary part, and periodic with period (N+1)/W.
    """
    k = _kernel_constants(cfg)
    count = cfg.subcarrier_count
    # turns - round(turns) is exact and odd in delta, so the kernel is
    # exactly even.
    turns = np.asarray(delta, dtype=float) * k.turns
    u = math.pi * np.abs(turns - np.round(turns))  # x/2, reduced to [0, pi/2]
    # Below the switch s is held at its value there: the closed form's
    # entries are then finite, and the series replaces them.
    s = np.maximum(np.sin(u), math.sin(k.switch))
    mu = count * u
    out = ((np.sin(mu) * ((count * count + 1) * s * s - 2.0)
            + (2 * count) * np.cos(mu) * np.cos(u) * s) * (0.25 * k.scale) / s**3)
    near = u < k.switch
    if near.any():
        u2 = u * u
        series = k.taylor[-1]
        for coefficient in k.taylor[-2::-1]:
            series = series * u2 + coefficient
        out = np.where(near, series, out)
    if out.ndim == 0:
        return float(out)
    return out


def delay_kernel_peak(cfg: WaveformConfig) -> float:
    """kernel(0), real and strictly positive: the information intensity scale."""
    return _kernel_constants(cfg).taylor[0]


def delay_resolution(cfg: WaveformConfig) -> float:
    """Distance below which two path delays blur together: c/W (meters)."""
    return SPEED_OF_LIGHT / cfg.bandwidth_hz


def unambiguous_range(cfg: WaveformConfig) -> float:
    """Maximum unaliased path length c*(N+1)/W (meters)."""
    return SPEED_OF_LIGHT * cfg.subcarrier_count / cfg.bandwidth_hz
