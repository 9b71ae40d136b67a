"""Checks of rispeb's outputs against the independent model in oracle.py.

From rispeb the checks take only the results they check: the paths
(delay, complex gain, direction) that build_allocation and build_pathset
return, the CSV files a sweep writes, the MapResult of a path-count map
and the text that `rispeb point` and `rispeb select` print. Magnitudes,
delays, directions, the FIM, the bound, the selection and the path counts
are all recomputed by the model; of the program's values only the phases
of the complex gains enter the model's FIM.
"""

from __future__ import annotations

import csv
import math
import re

import numpy as np

import oracle

# Values printed with %.9g round by at most half a unit in the ninth
# digit; %.6g in the sixth.
DIGITS9 = 5.1e-9
DIGITS6 = 5.1e-6


class Checker:
    """Counts the checks made and keeps the first failures."""

    def __init__(self, keep: int = 25):
        self.checked = 0
        self.failed = 0
        self.messages = []
        self.keep = keep

    def expect(self, ok: bool, message: str) -> bool:
        self.checked += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < self.keep:
                self.messages.append(message)
        return ok

    def close(self, got: float, want: float, rel: float, abs_: float, what: str) -> bool:
        if math.isinf(want) or math.isinf(got):
            return self.expect(got == want, f"{what}: {got!r} != {want!r}")
        return self.expect(abs(got - want) <= rel * abs(want) + abs_,
                           f"{what}: {got!r} vs model {want!r}")

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def summary(self) -> dict:
        return {"checked": self.checked, "failed": self.failed,
                "messages": self.messages}


class Model:
    """The scenario in both forms: the model's inputs and rispeb's objects."""

    def __init__(self, scenario: oracle.Scenario, scene, wave):
        self.s = scenario
        self.scene = scene
        self.wave = wave

    def program_paths(self, x, mode, bits=()):
        from rispeb import allocation, channel
        point = np.array(x, dtype=float)
        alloc = None
        if mode == "ris":
            alloc = allocation.build_allocation(self.scene, point, self.wave, bits)
        return list(channel.build_pathset(self.scene, alloc, point, self.wave, mode))

    def evaluate(self, chk: Checker, x, mode, bits=()):
        """Check every path at x against the model; return the model's view.

        Returns (models, FIM, PEB, trace^2/det, resolvable count).
        """
        models = oracle.paths(self.s, x, mode, bits)
        got = self.program_paths(x, mode, bits)
        where = f"{mode} {''.join(map(str, bits))} at ({x[0]:.6g}, {x[1]:.6g})"
        chk.expect(len(got) == len(models), f"{where}: {len(got)} paths, model {len(models)}")
        largest = max(m.magnitude for m in models)
        for p, m in zip(got, models):
            label = m.kind if m.index is None else f"{m.kind}[{m.index}]"
            chk.expect(p.kind == m.kind and p.index == m.index,
                       f"{where}: path {p.kind}[{p.index}] where model has {label}")
            chk.close(p.tau, m.tau, 1e-12, 0.0, f"{where} {label} delay")
            chk.expect(float(np.max(np.abs(p.direction - m.direction))) <= 1e-12,
                       f"{where} {label} direction {p.direction} vs {m.direction}")
            chk.close(abs(p.alpha), m.magnitude, 1e-9, 1e-12 * largest,
                      f"{where} {label} |alpha|")
        j = oracle.fim(self.s, models, [p.alpha for p in got])
        value, sensitivity = oracle.bound(j)
        return models, j, value, sensitivity, oracle.resolvable_count(models, self.s.bandwidth)

    def check_selection(self, chk: Checker, x, bits: str, k_bar: int):
        """The chosen pattern is optimal among all feasible ones, near-ties allowed.

        Returns the model's evaluation of the chosen pattern.
        """
        scored = {}
        for pattern in oracle.feasible_patterns(self.s, k_bar):
            scored["".join(map(str, pattern))] = self.evaluate(chk, x, "ris", pattern)
        where = f"selection at ({x[0]:.6g}, {x[1]:.6g}) k_bar={k_bar}"
        if not chk.expect(bits in scored, f"{where}: {bits} is not a feasible pattern"):
            return None
        best = min(scored, key=lambda b: scored[b][2])
        chosen, top = scored[bits], scored[best]
        slack = oracle.peb_tolerance(chosen[3]) + oracle.peb_tolerance(top[3])
        chk.expect(chosen[2] <= top[2] * (1.0 + slack) or chosen[2] == top[2],
                   f"{where}: chose {bits} ({chosen[2]!r} m), model best {best} "
                   f"({top[2]!r} m)")
        return chosen

    def check_bound(self, chk, got: float, value: float, sensitivity: float,
                    printed: float, what: str):
        if math.isinf(value) or math.isinf(got):
            # Next to the rank limit either side may round to infinity.
            near_limit = 0.5 * oracle.CONDITION_LIMIT < sensitivity < 2.0 * oracle.CONDITION_LIMIT
            return chk.expect(got == value or near_limit,
                              f"{what}: {got!r} vs model {value!r}")
        return chk.close(got, value, printed + oracle.peb_tolerance(sensitivity), 0.0, what)

    def check_cell(self, chk, x, mode, row, k_bar=None):
        """One map row against the model: bound, flag, path count, bits."""
        where = f"{mode} map cell ({x[0]:.6g}, {x[1]:.6g})"
        if mode == "ris":
            evaluation = self.check_selection(chk, x, row["allocation_bits"], k_bar)
            if evaluation is None:
                return
        else:
            evaluation = self.evaluate(chk, x, mode)
        _, _, value, sensitivity, count = evaluation
        chk.expect(int(row["path_count"]) == count,
                   f"{where}: path_count {row['path_count']}, model {count}")
        expected = math.inf if count <= 1 else value
        self.check_bound(chk, float(row["peb_m"]), expected, sensitivity, DIGITS9,
                         f"{where} peb_m")


def read_rows(path) -> list[dict]:
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def check_map_rows(chk: Checker, rows, xs, ys, cap, mode, k_bar=None, min_gap=None):
    """Properties every map row must have, whatever the model says."""
    chk.expect(len(rows) == len(xs) * len(ys),
               f"{mode} map: {len(rows)} rows for a {len(xs)}x{len(ys)} grid")
    for i, row in enumerate(rows[: len(xs) * len(ys)]):
        x, y = xs[i // len(ys)], ys[i % len(ys)]
        where = f"{mode} map row {i + 2}"
        chk.expect(abs(float(row["x"]) - x) <= DIGITS9 * abs(x) + 1e-12
                   and abs(float(row["y"]) - y) <= DIGITS9 * abs(y) + 1e-12,
                   f"{where}: cell ({row['x']}, {row['y']}), grid ({x!r}, {y!r})")
        value, flag, count = float(row["peb_m"]), row["flag"], int(row["path_count"])
        if flag == "ok":
            good = math.isfinite(value) and value <= cap
        elif flag == "capped":
            good = math.isfinite(value) and value > cap
        elif flag == "inf":
            good = math.isinf(value)
        else:
            good = flag == "invalid" and math.isnan(value)
        chk.expect(good, f"{where}: flag {flag} with peb_m {row['peb_m']} (cap {cap})")
        chk.expect(count >= 2 or flag in ("inf", "invalid"),
                   f"{where}: {count} resolvable delays but flag {flag}")
        bits = row["allocation_bits"]
        if mode != "ris":
            chk.expect(bits == "", f"{where}: allocation bits {bits!r} in {mode} mode")
            continue
        ones = [k for k, bit in enumerate(bits) if bit == "1"]
        chk.expect(set(bits) <= {"0", "1"} and len(ones) <= k_bar
                   and all(b - a > min_gap for a, b in zip(ones, ones[1:])),
                   f"{where}: bits {bits} break budget {k_bar} or gap {min_gap:.4g}")


def check_cdf_rows(chk: Checker, cdf_rows, map_rows, mode):
    """Monotone levels and fractions; the last fraction is the finite fraction."""
    levels = [float(r["peb_m"]) for r in cdf_rows]
    fractions = [float(r["cdf"]) for r in cdf_rows]
    values = np.array([float(r["peb_m"]) for r in map_rows])
    finite = np.isfinite(values)
    chk.expect(all(b >= a for a, b in zip(levels, levels[1:])),
               f"{mode} cdf: levels not increasing")
    chk.expect(all(b >= a for a, b in zip(fractions, fractions[1:])),
               f"{mode} cdf: fractions decreasing")
    chk.expect(len(cdf_rows) <= int(finite.sum()),
               f"{mode} cdf: {len(cdf_rows)} levels for {int(finite.sum())} finite cells")
    last = fractions[-1] if fractions else 0.0
    chk.close(last, float(finite.mean()), 0.0, DIGITS9, f"{mode} cdf final fraction")


def coverage(map_rows, level: float) -> float:
    values = np.array([float(r["peb_m"]) for r in map_rows])
    return float(np.mean(np.isfinite(values) & (values <= level)))


_PATH_LINE = re.compile(
    r"path (\S+): delay (\S+) ns \((\S+) m\), \|gain\| (\S+) \((\S+) dB\)")


def parse_report(text: str) -> dict:
    """The `rispeb point` report as a dict of fields and a list of paths."""
    out = {"paths": []}
    for line in text.splitlines():
        found = _PATH_LINE.fullmatch(line)
        if found:
            out["paths"].append(found.groups())
            continue
        key, _, value = line.partition(": ")
        out[key] = value
    return out


def check_point_report(chk: Checker, model: Model, x, text: str, mode: str, k_bar: int):
    """Every line of a `rispeb point` report against the model."""
    report = parse_report(text)
    where = f"point {mode} ({x[0]:.6g}, {x[1]:.6g})"
    chk.expect(report.get("mode") == mode, f"{where}: mode line {report.get('mode')!r}")
    if mode == "ris":
        bits = report.get("allocation_bits", "")
        evaluation = model.check_selection(chk, x, bits, k_bar)
        if evaluation is None:
            return
    else:
        evaluation = model.evaluate(chk, x, mode)
    models, j, value, sensitivity, count = evaluation
    lines = report["paths"]
    chk.expect(len(lines) == len(models), f"{where}: {len(lines)} path lines")
    for (label, ns, metres, gain, db), m in zip(lines, models):
        want = m.kind if m.index is None else f"{m.kind}[{m.index}]"
        chk.expect(label == want, f"{where}: path {label}, model {want}")
        chk.close(float(ns), m.tau * 1e9, DIGITS6, 0.0, f"{where} {label} delay ns")
        chk.close(float(metres), m.tau * oracle.SPEED_OF_LIGHT, DIGITS6, 0.0,
                  f"{where} {label} length")
        chk.close(float(gain), m.magnitude, DIGITS6, 0.0, f"{where} {label} |gain|")
        if m.magnitude > 0.0:
            chk.close(float(db), 20.0 * math.log10(m.magnitude), 0.0, 0.0051,
                      f"{where} {label} dB")
    resolvable = report.get("resolvable_paths", "")
    chk.expect(resolvable == f"{count} of {len(models)}",
               f"{where}: resolvable_paths {resolvable!r}, model {count} of {len(models)}")
    numbers = [float(v) for v in re.findall(r"[-+0-9.e]+|inf|nan",
                                            report.get("fim_m2", ""))]
    if chk.expect(len(numbers) == 4, f"{where}: fim_m2 {report.get('fim_m2')!r}"):
        scale = float(np.max(np.abs(j)))
        for got, want in zip(numbers, j.ravel()):
            chk.close(got, float(want), DIGITS9, 1e-11 * scale, f"{where} fim entry")
    printed = report.get("peb_m", "").split()[0] if report.get("peb_m") else "nan"
    expected = math.inf if count <= 1 else value
    model.check_bound(chk, float(printed), expected, sensitivity, DIGITS9, f"{where} peb_m")


def check_select_report(chk: Checker, model: Model, x, text: str, k_bar: int):
    """`rispeb select` output: an optimal feasible pattern and its bound."""
    report = parse_report(text)
    bits = report.get("allocation_bits", "")
    where = f"select ({x[0]:.6g}, {x[1]:.6g})"
    chk.expect(report.get("active_count") == f"{bits.count('1')} (budget {k_bar})",
               f"{where}: active_count {report.get('active_count')!r}")
    evaluation = model.check_selection(chk, x, bits, k_bar)
    if evaluation is None:
        return
    _, _, value, sensitivity, _ = evaluation
    model.check_bound(chk, float(report.get("peb_m", "nan")), value, sensitivity,
                      DIGITS9, f"{where} peb_m")
