"""Shared fixtures.

The hundredths-grid search and its realizability screen are expensive
enough that the module tests and the acceptance suite share a single
session-scoped run of each.  The elapsed wall time of the search is
recorded alongside the result so the runtime budget can be checked
without running the scan twice.
"""

import os
import time
from pathlib import Path

import pytest

from cfb import grid_search, screen_improper_set

# pyproject's pythonpath puts src on this interpreter's path; the tests
# that start a fresh interpreter find the package through PYTHONPATH
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture(scope="session")
def grid_run():
    """(GridSearchResult, elapsed_seconds) for the default 0.01 scan."""
    t0 = time.perf_counter()
    result = grid_search(step=0.01, c=0.5)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def grid_result(grid_run):
    return grid_run[0]


@pytest.fixture(scope="session")
def screen_result(grid_result):
    return screen_improper_set(grid_result.records)
