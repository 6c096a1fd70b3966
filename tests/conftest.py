"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.core.costs import CostModel
from repro.core.runtime import Site, World

# ``HYPOTHESIS_PROFILE=ci`` (the CI tier-1 job) draws the same examples on
# every run and ignores the local example database, so a property that
# fails in CI fails the same way on any checkout.
settings.register_profile("ci", derandomize=True, database=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def world():
    """A deterministic two-way loopback world with the calibrated costs."""
    with World.loopback() as w:
        yield w


@pytest.fixture
def zero_world():
    """A loopback world with all CPU costs zeroed (timing-free tests)."""
    with World.loopback(costs=CostModel.zero()) as w:
        yield w


@pytest.fixture
def sites(world) -> tuple[Site, Site]:
    """(provider, consumer) on the calibrated world."""
    return world.create_site("S2"), world.create_site("S1")


@pytest.fixture
def zsites(zero_world) -> tuple[Site, Site]:
    """(provider, consumer) on the zero-cost world."""
    return zero_world.create_site("S2"), zero_world.create_site("S1")
