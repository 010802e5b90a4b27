"""Shared fixtures for the test suite."""

import pytest
from hypothesis import settings

# every property test draws the same examples on every run; each test keeps its own max_examples
settings.register_profile("loopseq", derandomize=True)
settings.load_profile("loopseq")


@pytest.fixture(scope="session")
def audit_results():
    """Audit results computed earlier in this session, keyed by audit name.

    Criterion 2 always runs ``audit_gradients()`` itself (its runtime budget
    times the real sweep) and stores the results here; the unit test of the
    same audit reuses them when present instead of repeating the sweep.
    """
    return {}
