import tracemalloc

import numpy as np
import pytest

from bklab import Disk, Polygon, make_domain, make_grid


@pytest.fixture(scope="session")
def disk256():
    """Unit disk on the L=1.5, N=256 grid."""
    return make_domain(make_grid(1.5, 256), Disk(0j, 1.0))


@pytest.fixture(scope="session")
def disk128():
    return make_domain(make_grid(1.2, 128), Disk(0j, 1.0))


@pytest.fixture(scope="session")
def square256():
    """Unit square [0,1]^2 aligned to the L=1.28, N=256 grid (h=0.01)."""
    return make_domain(make_grid(1.28, 256), Polygon((0j, 1 + 0j, 1 + 1j, 1j)))


@pytest.fixture
def traced_peak():
    """peak(fn): the peak bytes that numpy and Python allocate while fn()
    runs (tracemalloc; memory held before the call is not counted)."""
    def peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak


def rng(seed=0):
    return np.random.default_rng(seed)
