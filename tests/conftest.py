"""Fixtures shared by the test modules."""

import pytest

from nrayleigh.validation import ValidationConfig, build_report


@pytest.fixture(scope="session")
def seed1_report():
    """The report of ``nrayleigh validate --trials 1000000 --seed 1
    --workers 2``, the one the README states, built once per session.
    Tests read it and never modify it."""
    return build_report(ValidationConfig(trials=1_000_000, master_seed=1, workers=2))
