import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from rispeb.config import default_config


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the per-criterion acceptance lines after the test summary."""
    module = sys.modules.get("test_acceptance")
    results = getattr(module, "RESULTS", None) if module else None
    if results:
        terminalreporter.section("acceptance criteria")
        for line in results:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def cfg():
    return default_config()


@pytest.fixture(scope="session")
def scene(cfg):
    return cfg.scene()


@pytest.fixture(scope="session")
def wave(cfg):
    return cfg.waveform()


@pytest.fixture()
def rng():
    return np.random.default_rng(20260819)


def load_script(name: str):
    """The module of scripts/<name>.py, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def derived():
    """Frozen values re-derived without the package by
    scripts/derive_frozen_values.py (40-digit mpmath)."""
    pytest.importorskip("mpmath")
    return load_script("derive_frozen_values").derive()
