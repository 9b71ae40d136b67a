"""Smoke tests of the experiment scripts on a 6x6 grid of the default
scenario: each exits 0 and writes every CSV it names, header first. And
README's library example runs as written."""

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import load_script

from rispeb.channel import MODES
from rispeb.config import default_config, dump_config
from rispeb.sweep import CDF_HEADER, MAP_HEADER


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "small.cfg"
    dump_config(dataclasses.replace(default_config(), nx=6, ny=6), path)
    return str(path)


def assert_writes(script, config, out, expected):
    """script exits 0 and writes exactly the files of expected, each
    starting with its header line."""
    assert script.main(["--config", config, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(expected)
    for name, header in expected.items():
        with open(out / name, encoding="ascii") as fh:
            assert fh.readline() == header + "\n", name


def test_run_coverage_maps(small_config, tmp_path):
    expected = {f"peb_map_{mode}.csv": MAP_HEADER for mode in MODES}
    expected.update({f"peb_cdf_{mode}.csv": CDF_HEADER for mode in MODES})
    expected.update({f"path_count_map_{label}.csv": MAP_HEADER
                     for label in ("100MHz", "1GHz")})
    assert_writes(load_script("run_coverage_maps"), small_config, tmp_path / "maps", expected)


def test_run_info_directions(small_config, tmp_path):
    script = load_script("run_info_directions")
    assert_writes(script, small_config, tmp_path / "arrows",
                  {"info_directions.csv": script.HEADER})


@pytest.mark.parametrize("points", ["1;2", "1,2;", "1,2,3", "a,b", "0,0", "3,12"])
def test_run_info_directions_rejects_bad_points(points, tmp_path, capsys):
    """A malformed item, the BS position or a position above the wall
    exits 2, rispeb's bad-input code (1 is validate's), with one error
    line and no file written."""
    script = load_script("run_info_directions")
    out = tmp_path / "arrows"
    assert script.main(["--points", points, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_run_coverage_maps_rejects_bad_workers(workers, tmp_path, capsys):
    """A worker count below one is a ConfigError, which exits 2 with one
    error line before anything runs."""
    out = tmp_path / "maps"
    assert load_script("run_coverage_maps").main(["--workers", workers,
                                                  "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: run.workers must be at least 1\n"
    assert not out.exists()


def test_readme_library_example():
    """README's python block exits 0 and prints the bits and bound that
    its comment gives."""
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    [code] = re.findall(r"```python\n(.*?)```", readme, re.S)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("10000 0.949073577")
