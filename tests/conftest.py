"""Shared fixtures for the test suite."""

import pytest


@pytest.fixture(scope="session")
def audit_results():
    """Audit results computed earlier in this session, keyed by audit name.

    Criterion 2 always runs ``audit_gradients()`` itself (its runtime budget
    times the real sweep) and stores the results here; the unit test of the
    same audit reuses them when present instead of repeating the sweep.
    """
    return {}
