"""The three workloads: what one pass runs, and how its outputs are checked.

Every workload runs on the packaged default scenario with workers = 1.
The seed picks the inputs: the query positions, the cells the model
re-evaluates, and for the sweeps a shrink of each edge of the default
region by up to a quarter of a grid step, so every seed maps the same
region at the same grid size but through different cells.

A pass is a fixed unit of work, the same in every pass of a run; a run
repeats passes. Operations (counted in `attempted`) are the user-level
calls a pass makes: one `rispeb` command through cli.main, or one
path_count_map call.
"""

from __future__ import annotations

import configparser
import contextlib
import hashlib
import io
import os
import random
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

import checks
import oracle
import speed

DEFAULT_SCENARIO = os.path.join("src", "rispeb", "data", "default_scenario.cfg")


@dataclass
class PassResult:
    """One pass. Times are at reference speed (see speed.py); *_raw_s are
    the wall-clock seconds they came from."""

    cells: int  # positions the workload's fixed unit of work evaluates
    positions: int  # positions the whole pass evaluates, queries included
    main_s: float = 0.0  # the fixed unit of work, queries excluded
    main_raw_s: float = 0.0
    query_s: list = field(default_factory=list)
    query_raw_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def write_scenario(root, path, **sections) -> None:
    """The default scenario with some keys replaced, written to `path`."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       interpolation=None)
    with open(os.path.join(root, DEFAULT_SCENARIO), encoding="utf-8") as fh:
        parser.read_file(fh)
    for section, values in sections.items():
        for key, value in values.items():
            parser[section][key] = str(value)
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def seeded_grid(rng: random.Random, root, nx: int, ny: int) -> dict:
    """The default region, each edge pulled in by up to a quarter step."""
    s = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    s.read(os.path.join(root, DEFAULT_SCENARIO), encoding="utf-8")
    g = s["grid"]
    x0, x1, y0, y1 = (float(g[k]) for k in ("x_min_m", "x_max_m", "y_min_m", "y_max_m"))
    hx, hy = (x1 - x0) / (nx - 1), (y1 - y0) / (ny - 1)
    return {
        "x_min_m": repr(x0 + rng.uniform(0.0, hx / 4)),
        "x_max_m": repr(x1 - rng.uniform(0.0, hx / 4)),
        "y_min_m": repr(y0 + rng.uniform(0.0, hy / 4)),
        "y_max_m": repr(y1 - rng.uniform(0.0, hy / 4)),
        "nx": nx, "ny": ny,
    }


def grid_axes(grid: dict):
    return (np.linspace(float(grid["x_min_m"]), float(grid["x_max_m"]), grid["nx"]),
            np.linspace(float(grid["y_min_m"]), float(grid["y_max_m"]), grid["ny"]))


def seeded_points(rng: random.Random, grid: dict, count: int) -> list:
    """Query positions inside the region, at 0.1 mm resolution."""
    return [(round(rng.uniform(float(grid["x_min_m"]), float(grid["x_max_m"])), 4),
             round(rng.uniform(float(grid["y_min_m"]), float(grid["y_max_m"])), 4))
            for _ in range(count)]


def run_cli(argv) -> tuple[int, str]:
    """rispeb's cli.main in process: exit code and stdout."""
    from rispeb import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Workload:
    """Shared plumbing: queries, repeat-determinism and the model."""

    name = ""
    query_argv = ()  # extra arguments of each query after `x y`
    query_command = "point"

    def __init__(self, root, out_dir, seed: int):
        self.root = root
        self.out = out_dir
        shutil.rmtree(self.out, ignore_errors=True)  # no outputs of an earlier run
        os.makedirs(self.out)
        self.rng = random.Random(f"{self.name}:{seed}")
        self.outputs = {}  # query position -> stdout of its first pass
        self.digests = None
        self.repeat_mismatch = 0
        self.failures = []  # the first few failed operations, as `what: exit code`
        self.slowness = None  # the latest single speed sample, for queries

    def model(self, scenario_path):
        from rispeb import config
        program = config.load_config(scenario_path)
        return checks.Model(oracle.read_scenario(scenario_path),
                            program.scene(), program.waveform())

    def timed(self, result: PassResult, what: str, fn, thick: bool):
        """Run one operation; its (exit code, value, raw s, reference s).

        A map computation (thick) runs under a speed.Sampler; a query is
        bracketed by single samples it shares with its neighbours. An
        exception or a non-zero exit code is a failed operation; it is
        timed all the same.
        """
        if not thick and self.slowness is None:
            self.slowness = speed.slowness()
        result.attempted += 1
        with speed.Sampler() if thick else contextlib.nullcontext() as sampler:
            start = time.perf_counter()
            try:
                code, value = fn()
            except Exception:  # noqa: BLE001 - a crash is a failed operation
                code, value = -1, None
            end = time.perf_counter()
        if thick:
            raw, scaled = sampler.work(start, end)
            self.slowness = None
        else:
            after = speed.slowness()
            raw = end - start
            scaled = raw / (0.5 * (self.slowness + after))
            self.slowness = after
        if code != 0:
            result.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{what}: {code}")
        return code, value, raw, scaled

    def query(self, result: PassResult, point):
        argv = [self.query_command, repr(point[0]), repr(point[1]), *self.query_argv]
        code, text, raw, scaled = self.timed(result, " ".join(argv), lambda: run_cli(argv),
                                             thick=False)
        result.query_raw_s.append(raw)
        result.query_s.append(scaled)
        if code != 0:
            return
        first = self.outputs.setdefault(point, text)
        self.repeat_mismatch += first != text

    def map_step(self, result: PassResult, what: str, fn):
        """One map computation, added to the pass's main time."""
        _, value, raw, scaled = self.timed(result, what, fn, thick=True)
        result.main_raw_s += raw
        result.main_s += scaled
        return value

    def note_outputs(self, result: PassResult, *paths):
        """Outputs of every pass must match the first pass byte for byte."""
        if result.failed:
            return  # some may be missing; verify() fails the run
        d = digest(*paths)
        if self.digests is None:
            self.digests = d
        self.repeat_mismatch += d != self.digests

    def verify(self, chk: checks.Checker):
        """Every operation succeeded, and then the checks of the outputs."""
        if chk.expect(not self.failures,
                      f"{self.name}: operations failed (exit code): {self.failures}"):
            self.check(chk)

    def check_repeats(self, chk: checks.Checker):
        chk.expect(self.repeat_mismatch == 0,
                   f"{self.name}: {self.repeat_mismatch} passes gave other outputs "
                   "than the first for the same inputs")


class RisSweep(Workload):
    """`rispeb sweep` in RIS mode, k_bar = 1, on a 12x12 grid, plus
    `rispeb select` at seeded positions (its batch-of-one form)."""

    name = "ris_sweep"
    query_command = "select"
    NX = NY = 12
    QUERIES = 8
    SAMPLE_CELLS = 12

    def __init__(self, root, out_dir, seed):
        super().__init__(root, out_dir, seed)
        self.grid = seeded_grid(self.rng, root, self.NX, self.NY)
        self.maps = os.path.join(self.out, "maps")
        self.scenario = os.path.join(self.out, "scenario.cfg")
        write_scenario(root, self.scenario, grid=self.grid,
                       run={"mode": "ris", "k_bar": 1, "workers": 1, "out_dir": self.maps})
        self.points = seeded_points(self.rng, self.grid, self.QUERIES)
        self.sample = self.rng.sample(range(self.NX * self.NY), self.SAMPLE_CELLS)
        self.query_argv = ("--config", self.scenario)
        self.map_csv = os.path.join(self.maps, "peb_map_ris.csv")
        self.cdf_csv = os.path.join(self.maps, "peb_cdf_ris.csv")

    def warm(self):
        tiny = os.path.join(self.out, "warm.cfg")
        write_scenario(self.root, tiny, grid={"nx": 2, "ny": 2},
                       run={"mode": "ris", "k_bar": 1, "workers": 1,
                            "out_dir": os.path.join(self.out, "warm")})
        run_cli(["sweep", "--config", tiny])
        run_cli([self.query_command, "3.5", "5.0", *self.query_argv])

    def run_pass(self) -> PassResult:
        result = PassResult(self.NX * self.NY, self.NX * self.NY + self.QUERIES)
        argv = ["sweep", "--config", self.scenario]
        self.map_step(result, " ".join(argv), lambda: run_cli(argv))
        self.note_outputs(result, self.map_csv, self.cdf_csv)
        for point in self.points:
            self.query(result, point)
        return result

    def check(self, chk: checks.Checker):
        self.check_repeats(chk)
        model = self.model(self.scenario)
        s = model.s
        xs, ys = grid_axes(self.grid)
        rows = checks.read_rows(self.map_csv)
        checks.check_map_rows(chk, rows, xs, ys, s.cap, "ris", s.k_bar, s.min_gap)
        checks.check_cdf_rows(chk, checks.read_rows(self.cdf_csv), rows, "ris")
        covered = checks.coverage(rows, 2.5)
        chk.expect(covered >= 0.70, f"ris k_bar=1 coverage at 2.5 m is {covered:.3f} < 0.70")
        for i in self.sample:
            x = (float(xs[i // self.NY]), float(ys[i % self.NY]))
            model.check_cell(chk, x, "ris", rows[i], k_bar=s.k_bar)
        for point, text in self.outputs.items():
            checks.check_select_report(chk, model, point, text, s.k_bar)


class PathMaps(Workload):
    """The reflector and scatterer `rispeb sweep`s on the 100x100 grid and
    the RIS path-count map at 1 GHz, plus `rispeb point --mode reflector`."""

    name = "path_maps"
    NX = NY = 100
    QUERIES = 240
    SAMPLE_CELLS = 12
    WIDE_BANDWIDTH = 1e9

    def __init__(self, root, out_dir, seed):
        super().__init__(root, out_dir, seed)
        self.grid = seeded_grid(self.rng, root, self.NX, self.NY)
        self.maps = os.path.join(self.out, "maps")
        self.scenario = os.path.join(self.out, "scenario.cfg")
        self.wide = os.path.join(self.out, "scenario_1ghz.cfg")
        run = {"mode": "reflector", "k_bar": 1, "workers": 1, "out_dir": self.maps}
        write_scenario(root, self.scenario, grid=self.grid, run=run)
        write_scenario(root, self.wide, grid=self.grid, run=run,
                       waveform={"bandwidth_hz": self.WIDE_BANDWIDTH})
        self.points = seeded_points(self.rng, self.grid, self.QUERIES)
        self.sample = self.rng.sample(range(self.NX * self.NY), self.SAMPLE_CELLS)
        self.query_argv = ("--mode", "reflector", "--config", self.scenario)
        from rispeb import config
        wide = config.load_config(self.wide)
        self.wide_inputs = (wide.scene(), wide.grid(), wide.waveform())
        self.count_map = None

    def csv(self, kind, mode):
        return os.path.join(self.maps, f"peb_{kind}_{mode}.csv")

    def _count_map(self):
        from rispeb import sweep
        return 0, sweep.path_count_map(*self.wide_inputs, "ris")

    def warm(self):
        tiny = os.path.join(self.out, "warm.cfg")
        write_scenario(self.root, tiny, grid={"nx": 2, "ny": 2},
                       run={"mode": "reflector", "k_bar": 1, "workers": 1,
                            "out_dir": os.path.join(self.out, "warm")})
        for mode in ("reflector", "scatterer"):
            run_cli(["sweep", "--mode", mode, "--config", tiny])
        run_cli([self.query_command, "3.5", "5.0", *self.query_argv])

    def run_pass(self) -> PassResult:
        """The three maps, each followed by a third of the queries: the
        queries' tail then samples the machine at more moments of a run."""
        result = PassResult(3 * self.NX * self.NY, 3 * self.NX * self.NY + self.QUERIES)
        for k, mode in enumerate(("reflector", "scatterer")):
            argv = ["sweep", "--mode", mode, "--config", self.scenario]
            self.map_step(result, " ".join(argv), lambda a=argv: run_cli(a))
            for point in self.points[k::3]:
                self.query(result, point)
        self.count_map = self.map_step(result, "path_count_map", self._count_map)
        for point in self.points[2::3]:
            self.query(result, point)
        self.note_outputs(result, *(self.csv(kind, mode) for mode in ("reflector", "scatterer")
                            for kind in ("map", "cdf")))
        return result

    def check(self, chk: checks.Checker):
        self.check_repeats(chk)
        model = self.model(self.scenario)
        xs, ys = grid_axes(self.grid)
        cells = [(float(xs[i // self.NY]), float(ys[i % self.NY])) for i in self.sample]
        for mode in ("reflector", "scatterer"):
            rows = checks.read_rows(self.csv("map", mode))
            checks.check_map_rows(chk, rows, xs, ys, model.s.cap, mode)
            checks.check_cdf_rows(chk, checks.read_rows(self.csv("cdf", mode)), rows, mode)
            for i, x in zip(self.sample, cells):
                model.check_cell(chk, x, mode, rows[i])
        wide = self.model(self.wide)
        counts = self.count_map.path_count
        chk.expect(counts.shape == (self.NX, self.NY),
                   f"path-count map shape {counts.shape}")
        for i, x in zip(self.sample, cells):
            *_, count = wide.evaluate(chk, x, "ris", (1,) * len(wide.s.centers))
            got = int(counts[i // self.NY, i % self.NY])
            chk.expect(got == count, f"1 GHz path count at {x}: {got}, model {count}")
        chk.expect(int(counts.max()) == len(wide.s.centers) + 1,
                   f"1 GHz path-count maximum {int(counts.max())}, expected every "
                   f"path resolved ({len(wide.s.centers) + 1})")
        for point, text in self.outputs.items():
            checks.check_point_report(chk, model, point, text, "reflector", model.s.k_bar)


class PointQueries(Workload):
    """Closed loop, one client: `rispeb point x y --kbar 2` on the default
    scenario, the next query sent when the previous one returns."""

    name = "point_queries"
    query_argv = ("--kbar", "2")
    QUERIES = 50
    K_BAR = 2

    def __init__(self, root, out_dir, seed):
        super().__init__(root, out_dir, seed)
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                           interpolation=None)
        parser.read(os.path.join(root, DEFAULT_SCENARIO), encoding="utf-8")
        grid = dict(parser["grid"])
        self.points = seeded_points(self.rng, grid, self.QUERIES)
        self.scenario = os.path.join(root, DEFAULT_SCENARIO)

    def warm(self):
        run_cli([self.query_command, "3.5", "5.0", *self.query_argv])

    def run_pass(self) -> PassResult:
        result = PassResult(self.QUERIES, self.QUERIES)
        for point in self.points:
            self.query(result, point)
        result.main_s = sum(result.query_s)
        result.main_raw_s = sum(result.query_raw_s)
        return result

    def check(self, chk: checks.Checker):
        self.check_repeats(chk)
        model = self.model(self.scenario)
        for point, text in self.outputs.items():
            checks.check_point_report(chk, model, point, text, "ris", self.K_BAR)


WORKLOADS = {w.name: w for w in (RisSweep, PathMaps, PointQueries)}
