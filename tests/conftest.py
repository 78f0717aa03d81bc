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


def _padded_diff_axis(f, m, h, axis):
    """One axis of the masked gradient from zero-padded shifted copies of
    the field and the mask, each difference class chosen by boolean masks."""
    out = np.zeros_like(f)
    n = f.shape[axis]
    pad = [(0, 0), (0, 0)]
    pad[axis] = (2, 2)
    fpad, mpad = np.pad(f, pad), np.pad(m, pad)

    def shift(a, k):
        return a[(slice(None),) * axis + (slice(2 + k, 2 + k + n),)]

    fp, fm, fpp, fmm = (shift(fpad, k) for k in (1, -1, 2, -2))
    mp, mm, mpp, mmm = (shift(mpad, k) for k in (1, -1, 2, -2))
    cls = m & mp & mm
    out[cls] = (fp[cls] - fm[cls]) / (2 * h)
    cls = m & mp & mpp & ~mm
    out[cls] = (-3 * f[cls] + 4 * fp[cls] - fpp[cls]) / (2 * h)
    cls = m & mm & mmm & ~mp
    out[cls] = (3 * f[cls] - 4 * fm[cls] + fmm[cls]) / (2 * h)
    cls = m & mp & ~mpp & ~mm
    out[cls] = (fp[cls] - f[cls]) / h
    cls = m & mm & ~mmm & ~mp
    out[cls] = (f[cls] - fm[cls]) / h
    return out


@pytest.fixture
def padded_gradient():
    """gradient(f, mask, h): (d/dx, d/dy) by the padded-copy formulation of
    the masked differences, an oracle for `util.masked_gradient`."""
    def gradient(f, mask, h):
        return _padded_diff_axis(f, mask, h, 1), _padded_diff_axis(f, mask, h, 0)
    return gradient

