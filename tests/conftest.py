"""Fixtures shared by every test under ``tests/``."""

import pytest

from repro.runtime.batch import _shutdown_pool


@pytest.fixture(autouse=True)
def _no_cached_worker_pool():
    """Shut the cached fan-out pool down after each test.

    Pool workers see the parent's state as of their fork, so workers an
    earlier test forked would not see this test's monkeypatches.
    """
    yield
    _shutdown_pool()
