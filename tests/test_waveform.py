"""Delay-information kernel oracles and properties.

The zero-lag value and two off-peak samples are frozen from an
independent direct summation over subcarriers (stdlib complex math), so
a sign or scaling slip in the closed-form kernel cannot hide; a property
compares it with checks.kernel_sum, the explicit subcarrier sum.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rispeb.checks import kernel_sum
from rispeb.waveform import (
    THERMAL_NOISE_PSD,
    WaveformConfig,
    delay_kernel,
    delay_kernel_peak,
    delay_resolution,
    noise_psd_from_figure,
    unambiguous_range,
)

C = 299792458.0


def make_cfg(bandwidth=1e8):
    return WaveformConfig(carrier_hz=28e9, bandwidth_hz=bandwidth,
                          subcarrier_count=129)


class TestFrozenValues:
    def test_peak(self, wave):
        expected = 117928674154.16852
        assert abs(delay_kernel_peak(wave) - expected) / expected < 1e-12

    def test_offpeak_ten_meters(self, wave):
        ratio = delay_kernel(wave, 10.0 / C) / delay_kernel_peak(wave)
        assert abs(ratio.real - -0.2716591237081107) < 1e-12
        assert abs(ratio.imag) < 1e-12

    def test_offpeak_one_resolution(self, wave):
        ratio = delay_kernel(wave, 2.99792458 / C) / delay_kernel_peak(wave)
        assert abs(abs(ratio) - 0.6079035273046788) < 1e-12

    def test_thermal_noise_psd(self):
        assert THERMAL_NOISE_PSD == 1.380649e-23 * 290.0

    def test_noise_figure_scaling(self):
        assert noise_psd_from_figure(0.0) == THERMAL_NOISE_PSD
        assert abs(noise_psd_from_figure(3.0)
                   - THERMAL_NOISE_PSD * 10 ** 0.3) < 1e-33

    def test_noise_figure_rejects_negative(self):
        with pytest.raises(ValueError):
            noise_psd_from_figure(-1.0)

    def test_noise_figure_rejects_nan(self):
        """NaN compares false against 0 either way."""
        with pytest.raises(ValueError, match="noise figure must be >= 0 dB"):
            noise_psd_from_figure(math.nan)


class TestResolutionNumbers:
    def test_resolution_100mhz(self):
        assert delay_resolution(make_cfg(1e8)) == 2.99792458

    def test_resolution_1ghz(self):
        assert delay_resolution(make_cfg(1e9)) == 0.299792458

    def test_range_100mhz(self):
        assert abs(unambiguous_range(make_cfg(1e8)) - 386.73227082) < 1e-9

    def test_range_1ghz(self):
        assert abs(unambiguous_range(make_cfg(1e9)) - 38.673227082) < 1e-9


class TestValidation:
    def test_even_subcarrier_count(self):
        with pytest.raises(ValueError):
            WaveformConfig(carrier_hz=28e9, bandwidth_hz=1e8,
                           subcarrier_count=128)

    @pytest.mark.parametrize("count", [129.0, 128.5, True, np.float64(129.0)],
                             ids=["float", "fraction", "bool", "numpy_float"])
    def test_subcarrier_count_is_an_integer(self, count):
        with pytest.raises(ValueError, match="must be an integer"):
            WaveformConfig(carrier_hz=28e9, bandwidth_hz=1e8, subcarrier_count=count)

    def test_subcarrier_count_takes_numpy_integers(self):
        wave = WaveformConfig(carrier_hz=28e9, bandwidth_hz=1e8,
                              subcarrier_count=np.int64(129))
        assert len(wave.subcarrier_indices) == 129

    def test_nonpositive_values(self):
        with pytest.raises(ValueError):
            WaveformConfig(carrier_hz=0.0, bandwidth_hz=1e8,
                           subcarrier_count=129)
        with pytest.raises(ValueError):
            WaveformConfig(carrier_hz=28e9, bandwidth_hz=-1e8,
                           subcarrier_count=129)

    @pytest.mark.parametrize("field", ["carrier_hz", "bandwidth_hz", "tx_power_w",
                                       "noise_psd_w_hz"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nonfinite_values(self, field, value):
        fields = dict(carrier_hz=28e9, bandwidth_hz=1e8, subcarrier_count=129)
        with pytest.raises(ValueError, match="finite"):
            WaveformConfig(**{**fields, field: value})

    def test_indices_symmetric(self, wave):
        n = wave.subcarrier_indices
        assert n[0] == -64 and n[-1] == 64 and len(n) == 129
        assert np.array_equal(n, -n[::-1])

    def test_pilot_energy(self, wave):
        assert wave.pilot_energy == 1e-3 / 1e8


deltas = st.floats(-2e-6, 2e-6)


@given(delta=deltas)
def test_kernel_hermitian(delta):
    cfg = make_cfg()
    assert delay_kernel(cfg, -delta) == np.conj(delay_kernel(cfg, delta))


@given(delta=deltas)
def test_kernel_peak_dominates(delta):
    cfg = make_cfg()
    assert abs(delay_kernel(cfg, delta)) <= delay_kernel_peak(cfg) * (1 + 1e-12)


@given(delta=st.floats(-1e-6, 1e-6))
def test_kernel_periodicity(delta):
    cfg = make_cfg()
    period = cfg.subcarrier_count / cfg.bandwidth_hz
    a = delay_kernel(cfg, delta)
    b = delay_kernel(cfg, delta + period)
    assert abs(a - b) <= 1e-9 * delay_kernel_peak(cfg)


# Offsets as x = 2*pi*W*delta/(N+1): anywhere in a period, near 1.6e-5
# where the closed form cancels, and around its switch to the series
# at (N/2) * x = 0.125, x = 1.95e-3.
kernel_phases = st.one_of(st.floats(-math.pi, math.pi),
                          st.floats(1e-6, 1e-4),
                          st.floats(1.7e-3, 2.2e-3))


@given(x=kernel_phases, periods=st.integers(-2, 2))
def test_kernel_matches_subcarrier_sum(x, periods):
    """The real closed form equals checks.kernel_sum, the explicit
    subcarrier sum, to 1e-12 of the peak, imaginary part included."""
    cfg = make_cfg()
    delta = (x + 2.0 * math.pi * periods) * cfg.subcarrier_count / (
        2.0 * math.pi * cfg.bandwidth_hz)
    error = abs(delay_kernel(cfg, delta) - kernel_sum(cfg, delta))
    assert error <= 1e-12 * delay_kernel_peak(cfg)


def test_kernel_vectorization_matches_scalar(wave, rng):
    # Summation order may differ between batched and scalar evaluation.
    deltas = rng.uniform(-1e-7, 1e-7, size=(3, 4))
    out = delay_kernel(wave, deltas)
    assert out.shape == (3, 4)
    tol = 1e-12 * delay_kernel_peak(wave)
    for i in range(3):
        for j in range(4):
            assert abs(out[i, j] - delay_kernel(wave, deltas[i, j])) < tol


def test_scalar_input_returns_scalar(wave):
    value = delay_kernel(wave, 1e-8)
    assert np.ndim(value) == 0
