"""Hypothesis keeps its files in a temporary directory for the session and
the directory is removed at the end, so a test run leaves no
``.hypothesis/`` in the working directory."""

import shutil
import tempfile

import pytest
from hypothesis import configuration

HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    config.stash[HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="hypothesis-")
    configuration.set_hypothesis_home_dir(config.stash[HYPOTHESIS_HOME])


def pytest_unconfigure(config):
    shutil.rmtree(config.stash[HYPOTHESIS_HOME], ignore_errors=True)
