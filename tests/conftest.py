"""The opt-in for long tests. A test marked long (pytest.mark.long) runs
only when the environment variable BIBENCH_LONG_TESTS is 1, and is skipped
otherwise; `pytest -m long` selects the long tests alone."""

import os

import pytest

LONG_TESTS_VAR = "BIBENCH_LONG_TESTS"


def pytest_collection_modifyitems(config, items):
    if os.environ.get(LONG_TESTS_VAR) == "1":
        return
    skip = pytest.mark.skip(reason=f"a long test: set {LONG_TESTS_VAR}=1 to run it")
    for item in items:
        if item.get_closest_marker("long"):
            item.add_marker(skip)
