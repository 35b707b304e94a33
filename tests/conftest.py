"""Shared fixtures: the acceptance gate runs once per test session."""

import pytest

from triortho.acceptance import run_all


@pytest.fixture(scope="session")
def acceptance_results():
    """run_all(): one result per criterion, in criterion order."""
    return run_all()
