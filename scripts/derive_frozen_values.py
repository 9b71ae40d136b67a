#!/usr/bin/env python3
"""Independent derivation of the RIS gains and bounds frozen in the tests.

Imports nothing from rispeb. It reads the packaged scenario file with
configparser and evaluates the model in mpmath at 40 significant digits,
starting from the file's double-precision inputs:

- path gains from the link-budget formulas: LOS lambda/(4 pi d); RIS
  element lambda^2 sqrt(cos(theta) cos(psi)) / (16 pi d1 d2) times the
  element sum h_n exp(j phi_n) g_n written out term by term over n
  centered on the array, in the carrier's sign: h_n =
  exp(-j pi n sin(theta)), g_n = exp(j pi n sin(psi)), the profile
  phi_n = pi n (sin(theta) - sin(psi)) at the design point X_HAT on
  active surfaces and phi_n = 0 on inactive ones; every gain carries
  exp(-j 2 pi f_c tau), tau measured at the array center;
- the 2x2 position FIM from the analytic position derivative of the
  per-subcarrier observation sum_k alpha_k sqrt(E_s)
  exp(-j 2 pi n W tau_k / (N+1)), summed over subcarriers n directly
  (not through the delay kernel);
- the activation choice by brute force over every pattern within the
  budget whose index gaps strictly exceed c/(W D).

Prints each frozen value rounded to double, with the test that holds it,
and trace(J)^2/det(J), which sets how much relative accuracy any
double-precision evaluation of that bound can keep. Run it as

    python3 scripts/derive_frozen_values.py
"""

import configparser
import itertools
import os
import sys

import mpmath as mp

SPEED_OF_LIGHT = 299792458
BOLTZMANN = mp.mpf("1.380649e-23")
REFERENCE_TEMPERATURE = 290

DEFAULT_CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              os.pardir, "src", "rispeb", "data",
                              "default_scenario.cfg")
X_HAT = (3.5, 5.0)
DIGITS = 40


def read_scenario(path):
    """Scenario inputs as mpf values of the file's double-precision numbers."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh)
    sc, wf = parser["scene"], parser["waveform"]

    def num(section, key):
        return mp.mpf(float(section[key]))

    centers = [mp.mpf(float(v)) for v in sc["ris_centers_x_m"].split(",")]
    noise_figure = num(wf, "noise_figure_db")
    bandwidth = num(wf, "bandwidth_hz")
    power = mp.mpf("1e-3") * mp.power(10, num(wf, "power_dbm") / 10)
    return {
        "wall": num(sc, "wall_offset_m"),
        "centers": centers,
        "elements": int(sc["ris_elements"]),
        "carrier": num(wf, "carrier_hz"),
        "bandwidth": bandwidth,
        "subcarriers": int(wf["subcarrier_count"]),
        "pilot_energy": power / bandwidth,
        "noise_psd": (BOLTZMANN * REFERENCE_TEMPERATURE
                      * mp.power(10, noise_figure / 10)),
    }


def ris_terms(s, k, x):
    """Legs d1 (fixed) and d2, and the angle sines/cosines of RIS k at x."""
    cx, wall = s["centers"][k], s["wall"]
    d1 = mp.sqrt(cx**2 + wall**2)
    d2 = mp.sqrt((x[0] - cx) ** 2 + (wall - x[1]) ** 2)
    return {
        "d1": d1, "d2": d2,
        "sin_theta": cx / d1, "cos_theta": wall / d1,
        "sin_psi": (x[0] - cx) / d2, "cos_psi": (wall - x[1]) / d2,
        "anchor": (cx, wall),
    }


def carrier(s, path_length):
    return mp.expj(-2 * mp.pi * s["carrier"] * path_length / SPEED_OF_LIGHT)


def ris_element(s, t):
    """Single-element amplitude lambda^2 sqrt(cos theta cos psi)/(16 pi d1 d2)."""
    lam = SPEED_OF_LIGHT / s["carrier"]
    return (lam**2 * mp.sqrt(t["cos_theta"] * t["cos_psi"])
            / (16 * mp.pi * t["d1"] * t["d2"]))


def element_sum(s, t, design, active):
    """sum_n h_n exp(j phi_n) g_n over n centered on the array, with phi
    aligned for `design` if active."""
    total = mp.mpc(0)
    for m in range(s["elements"]):
        n = m - mp.mpf(s["elements"] - 1) / 2
        phase = -mp.pi * n * (t["sin_theta"] - t["sin_psi"])
        if active:
            phase += mp.pi * n * (design["sin_theta"] - design["sin_psi"])
        total += mp.expj(phase)
    return total


def ris_gain(s, k, x, active, design_point=X_HAT):
    t = ris_terms(s, k, x)
    design = ris_terms(s, k, design_point)
    return (carrier(s, t["d1"] + t["d2"]) * ris_element(s, t)
            * element_sum(s, t, design, active))


def paths(s, x, bits):
    """(alpha, fixed leg, anchor) for the LOS path and every RIS path."""
    lam = SPEED_OF_LIGHT / s["carrier"]
    d0 = mp.sqrt(x[0] ** 2 + x[1] ** 2)
    out = [(carrier(s, d0) * lam / (4 * mp.pi * d0), mp.mpf(0), (0, 0))]
    for k, bit in enumerate(bits):
        t = ris_terms(s, k, x)
        out.append((ris_gain(s, k, x, bool(bit)), t["d1"], t["anchor"]))
    return out


def fim(s, x, bits):
    """(1/N0) sum_n Re{conj(df_n/dx_i) df_n/dx_j} from the analytic gradient."""
    size = s["subcarriers"]
    half = (size - 1) // 2
    amplitude = mp.sqrt(s["pilot_energy"])
    terms = []
    for alpha, fixed, anchor in paths(s, x, bits):
        dx, dy = x[0] - anchor[0], x[1] - anchor[1]
        dist = mp.sqrt(dx**2 + dy**2)
        terms.append((alpha, (fixed + dist) / SPEED_OF_LIGHT,
                      (dx / dist, dy / dist)))
    j = [[mp.mpf(0)] * 2 for _ in range(2)]
    for n in range(-half, half + 1):
        rate = -2j * mp.pi * n * s["bandwidth"] / size
        grad = [mp.mpc(0), mp.mpc(0)]
        for alpha, tau, unit in terms:
            # d tau / d x = unit / c
            common = alpha * amplitude * rate * mp.exp(rate * tau) / SPEED_OF_LIGHT
            grad[0] += common * unit[0]
            grad[1] += common * unit[1]
        for a in range(2):
            for b in range(2):
                j[a][b] += mp.re(mp.conj(grad[a]) * grad[b])
    return [[v / s["noise_psd"] for v in row] for row in j]


def bound(j):
    """PEB sqrt(trace(J^-1)) and the sensitivity trace^2/det."""
    trace = j[0][0] + j[1][1]
    det = j[0][0] * j[1][1] - j[0][1] * j[1][0]
    return mp.sqrt(trace / det), trace**2 / det


def select(s, x, k_bar):
    """Brute-force best pattern: lowest bound, ties to the smallest bits."""
    count = len(s["centers"])
    spacing = s["centers"][1] - s["centers"][0]
    min_gap = SPEED_OF_LIGHT / (s["bandwidth"] * spacing)
    best = None
    for bits in itertools.product((0, 1), repeat=count):
        ones = [i for i, bit in enumerate(bits) if bit]
        if len(ones) > k_bar:
            continue
        if any(not b - a > min_gap for a, b in zip(ones, ones[1:])):
            continue
        value, sensitivity = bound(fim(s, x, bits))
        key = (value, bits)
        if best is None or key < best[0]:
            best = (key, sensitivity)
    (value, bits), sensitivity = best
    return "".join(map(str, bits)), value, sensitivity


def derive():
    """Frozen quantities at X_HAT as a dict of mpf values and bit strings."""
    with mp.workdps(DIGITS):
        s = read_scenario(DEFAULT_CONFIG)
        x = tuple(mp.mpf(v) for v in X_HAT)
        t = ris_terms(s, 0, x)
        out = {
            "ris0_aligned_gain": abs(ris_gain(s, 0, x, True)),
            "ris0_element_gain": ris_element(s, t),
            "ris0_zero_profile_array_factor": abs(element_sum(s, t, t, False)),
            "ris0_inactive_gain": ris_gain(s, 0, x, False),
        }
        for k_bar in (0, 1, 2):
            out[f"select_k{k_bar}"] = select(s, x, k_bar)
    return out


def main() -> int:
    values = derive()
    where = {
        "ris0_aligned_gain": "test_channel.py::test_ris_gain_optimal_profile",
        "ris0_element_gain": "test_channel.py::test_ris_gain_zero_profile",
        "ris0_zero_profile_array_factor":
            "test_channel.py::test_ris_gain_zero_profile",
    }
    for name, test in where.items():
        print(f"{name} = {float(values[name])!r}  ({test})")
    inactive = complex(values["ris0_inactive_gain"])
    print(f"ris0_inactive_gain = {inactive!r}  "
          "(test_channel.py::test_ris_gain_inactive_complex_value)")
    for k_bar in (0, 1, 2):
        bits, value, sensitivity = values[f"select_k{k_bar}"]
        print(f"k_bar={k_bar}: bits {bits}, peb {float(value)!r} m, "
              f"trace^2/det {float(sensitivity):.3g}  "
              "(test_allocation.py::TestSelect)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
