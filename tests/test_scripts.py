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
