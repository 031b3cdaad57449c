"""Fixtures and hooks shared by the test modules."""

import os
import shutil
import tempfile

import pytest

from nrayleigh.validation import ValidationConfig, build_report


@pytest.fixture(scope="session")
def seed1_report():
    """The report of ``nrayleigh validate --trials 1000000 --seed 1
    --workers 2``, the one the README states, built once per session.
    Tests read it and never modify it."""
    return build_report(ValidationConfig(trials=1_000_000, master_seed=1, workers=2))


def pytest_configure(config):
    # Hypothesis caches the constants it reads from the package's source
    # when it collects the property tests; keep that cache out of the tree.
    if "HYPOTHESIS_STORAGE_DIRECTORY" not in os.environ:
        config.hypothesis_home = tempfile.mkdtemp(prefix="hypothesis-")
        os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = config.hypothesis_home


def pytest_unconfigure(config):
    home = getattr(config, "hypothesis_home", None)
    if home is not None:
        shutil.rmtree(home, ignore_errors=True)
        del os.environ["HYPOTHESIS_STORAGE_DIRECTORY"]
