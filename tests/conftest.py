import numpy as np
import pytest

from neutrace.geometry import ellipsoid, superellipse
from neutrace.transforms import Bump, Phantom


@pytest.fixture(scope="session")
def unit_disk():
    return ellipsoid((0.0, 0.0), (1.0, 1.0))


@pytest.fixture(scope="session")
def unit_ball():
    return ellipsoid((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))


@pytest.fixture(scope="session")
def ellipse21():
    return ellipsoid((0.0, 0.0), (2.0, 1.0))


@pytest.fixture(scope="session")
def se4():
    """Superellipse with exponent 4; the smallest domain family whose
    section-profile kernel does not vanish."""
    return superellipse((0.0, 0.0), (1.2, 0.9), 4.0)


@pytest.fixture(scope="session")
def bump2d():
    return Phantom((Bump(center=(0.0, 0.0), radius=0.5),))


@pytest.fixture(scope="session")
def bump3d():
    return Phantom((Bump(center=(0.1, 0.0, 0.0), radius=0.35),))


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)

