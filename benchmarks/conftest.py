"""Shared infrastructure for the benchmark suite.

Each ``benchmarks/test_*.py`` file regenerates one table or figure of the paper:
the pytest-benchmark timings are the figure's data points for the performance
figures (Fig 2, 3, 7), and the experiment harnesses' formatted tables are written to
``benchmarks/.results/<name>.txt`` (git-ignored, so a test run leaves the tracked
tree clean) where they can be inspected and compared with the committed snapshot
tables in ``benchmarks/results/``.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

#: Where a run writes its tables; git-ignored.  ``benchmarks/results/`` holds
#: the committed snapshot tables and is never written by the test suite.
RESULTS_DIR = Path(__file__).parent / ".results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory where experiment tables are written."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_result(results_dir: Path, name: str, text: str) -> None:
    """Save a formatted experiment table under ``benchmarks/.results/``."""
    path = results_dir / f"{name}.txt"
    path.write_text(text + "\n")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(2023)
