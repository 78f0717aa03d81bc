"""Shared numerics: thread pool sizing, log-log fits, quadrature nodes,
masked finite differences (cells beyond the grid edge count as unmasked,
so a mask that reaches the edge is differenced one-sided there)."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np


def thread_count() -> int:
    """Worker count from BKLAB_THREADS (0 or unset means auto)."""
    raw = os.environ.get("BKLAB_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n <= 0:
        n = os.cpu_count() or 1
    return n


def parallel_map(fn, items):
    """Order-preserving map over a thread pool.

    Each item is computed independently and results are collected in
    input order, so the output is bitwise independent of the worker
    count.
    """
    items = list(items)
    n = thread_count()
    if n == 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=min(n, len(items))) as ex:
        return list(ex.map(fn, items))


@dataclass(frozen=True)
class LogLogFit:
    slope: float
    intercept: float
    residual: float  # rms of log-residuals


def fit_loglog(x, y) -> LogLogFit:
    """Least-squares slope of log y against log x.

    Sweep convention: with three or more samples, the smallest abscissa
    (a pre-asymptotic point) is discarded.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ValueError("need at least two samples to fit a slope")
    if x.size >= 3:
        keep = np.argsort(x)[1:]
        x, y = x[keep], y[keep]
    if np.any(y <= 0) or np.any(x <= 0):
        raise ValueError("log-log fit needs positive samples")
    lx, ly = np.log(x), np.log(y)
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    res = ly - A @ coef
    return LogLogFit(float(coef[0]), float(coef[1]),
                     float(np.sqrt(np.mean(res ** 2))))


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1], cached."""
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def masked_gradient(field: np.ndarray, mask: np.ndarray, h: float):
    """(d/dx, d/dy) of a field known on `mask`, by centered differences
    where both neighbours are masked, second-order one-sided at the mask
    edge, first-order where only one neighbour exists, zero on isolated
    cells.  Returns arrays that are zero outside the mask."""
    fx = _masked_diff_axis(field, mask, h, axis=1)
    fy = _masked_diff_axis(field, mask, h, axis=0)
    return fx, fy


def _masked_diff_axis(f, mask, h, axis):
    m = mask
    out = np.zeros_like(f)
    n = f.shape[axis]
    pad = [(0, 0), (0, 0)]
    pad[axis] = (2, 2)
    fpad, mpad = np.pad(f, pad), np.pad(m, pad)

    def shift(a, k):
        return a[(slice(None),) * axis + (slice(2 + k, 2 + k + n),)]

    fp, fm = shift(fpad, 1), shift(fpad, -1)
    mp, mm = shift(mpad, 1), shift(mpad, -1)
    fpp, mpp = shift(fpad, 2), shift(mpad, 2)
    fmm, mmm = shift(fpad, -2), shift(mpad, -2)
    centered = m & mp & mm
    out[centered] = (fp[centered] - fm[centered]) / (2 * h)
    fwd2 = m & mp & mpp & ~mm
    out[fwd2] = (-3 * f[fwd2] + 4 * fp[fwd2] - fpp[fwd2]) / (2 * h)
    bwd2 = m & mm & mmm & ~mp
    out[bwd2] = (3 * f[bwd2] - 4 * fm[bwd2] + fmm[bwd2]) / (2 * h)
    fwd1 = m & mp & ~mpp & ~mm
    out[fwd1] = (fp[fwd1] - f[fwd1]) / h
    bwd1 = m & mm & ~mmm & ~mp
    out[bwd1] = (f[bwd1] - fm[bwd1]) / h
    return out
