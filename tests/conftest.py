"""Shared helpers for the test suite."""

from cqekit.bounds import random_ensemble  # noqa: F401  -- re-exported for the tests
from cqekit.bounds import random_pure as random_state_vector  # noqa: F401
