"""Shared test set-up.

Hypothesis keeps its files in a temporary directory for the session and
the directory is removed at the end, so a test run leaves no
``.hypothesis/`` in the working directory. The ``peak_bytes`` fixture
measures what a call allocates at its peak.
"""

import shutil
import tempfile
import tracemalloc

import pytest
from hypothesis import configuration

HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    config.stash[HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="hypothesis-")
    configuration.set_hypothesis_home_dir(config.stash[HYPOTHESIS_HOME])


def pytest_unconfigure(config):
    shutil.rmtree(config.stash[HYPOTHESIS_HOME], ignore_errors=True)


def _peak_bytes(call):
    """Peak bytes that ``call()`` allocates beyond what exists before it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def peak_bytes():
    return _peak_bytes
