"""Fixtures for the parallel-engine tests.

The ruleset cache is a process-wide singleton; every test here must
leave it as it found it (off), or later tests would see stale rulesets.
"""

from __future__ import annotations

import pytest

from repro.parallel.cache import disable_ruleset_cache


@pytest.fixture(autouse=True)
def _clean_process_state():
    yield
    disable_ruleset_cache()
