"""Shared fixtures for the test suite."""

import pytest

from harmreg import NoiseComponent, NoiseSpec, preset_noise


@pytest.fixture(scope="session")
def seasonal():
    return preset_noise("seasonal")


@pytest.fixture(scope="session")
def smooth():
    return preset_noise("smooth")


@pytest.fixture(scope="session")
def mixed():
    return preset_noise("mixed")


@pytest.fixture(scope="session")
def slow_carrier():
    # decays so slowly that its circulant embedding stays indefinite, even
    # tapered, on the T = 256, dt = 0.25 grid
    return NoiseSpec((NoiseComponent(1.0, 0.08, 2.0),))
