"""Hypothesis profiles for the suite.

``tier1`` (the default) derandomizes every property test: each run draws the
same examples, so a run's verdict depends on the code alone, and no example
database is read or written.  Every draw known to have failed is an
``@example`` of its test, so derandomizing hides none of them.

``explore`` draws fresh examples on every run, ten times as many per test as
the test's own ``max_examples``, and keeps the example database so that a
failure replays.  Select it with ``HYPOTHESIS_PROFILE=explore``; it is not
part of Tier-1.
"""

import os

from hypothesis import settings

EXPLORE_FACTOR = 10

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "tier1")
settings.load_profile(PROFILE)


def pytest_collection_modifyitems(items):
    """Under ``explore``, run each property test with EXPLORE_FACTOR times
    its ``max_examples``."""
    if PROFILE != "explore":
        return
    for item in items:
        test = getattr(item, "obj", None)
        own = getattr(test, "_hypothesis_internal_use_settings", None)
        if own is not None:
            test._hypothesis_internal_use_settings = settings(
                own, max_examples=EXPLORE_FACTOR * own.max_examples)
