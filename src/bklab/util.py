"""Shared numerics: thread pool sizing, log-log fits, masked finite
differences (cells beyond the grid edge count as unmasked, so a mask that
reaches the edge is differenced one-sided there)."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import BklabError


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
        raise BklabError("need at least two samples to fit a slope")
    if x.size >= 3:
        keep = np.argsort(x)[1:]
        x, y = x[keep], y[keep]
    if np.any(y <= 0) or np.any(x <= 0):
        raise BklabError("log-log fit needs positive samples")
    lx, ly = np.log(x), np.log(y)
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    res = ly - A @ coef
    return LogLogFit(float(coef[0]), float(coef[1]),
                     float(np.sqrt(np.mean(res ** 2))))


def mask_stencil(mask: np.ndarray) -> tuple:
    """The difference classes of a mask's cells, for x and then y.

    Cells are numbered in the order of `field[mask]`, neighbours beyond the
    grid's edge count as unmasked, and each axis holds five index tuples
    (cell, neighbours...): centered (c, +1, -1) where both neighbours are
    masked; second-order one-sided (c, +1, +2) and (c, -1, -2) at the mask
    edge; first-order (c, +1) and (c, -1) where only one neighbour exists.
    A cell in no class (an isolated one) has zero derivative."""
    mask = np.asarray(mask, dtype=bool)
    rows, cols = mask.shape
    idx = np.full((rows + 4, cols + 4), -1, dtype=np.int32)
    idx[2:-2, 2:-2][mask] = np.arange(int(mask.sum()), dtype=np.int32)
    stencil = []
    for axis in (1, 0):
        def nb(k):
            dy, dx = (0, k) if axis == 1 else (k, 0)
            return idx[2 + dy:2 + dy + rows, 2 + dx:2 + dx + cols][mask]
        p, m, pp, mm = nb(1), nb(-1), nb(2), nb(-2)
        hp, hm, hpp, hmm = p >= 0, m >= 0, pp >= 0, mm >= 0
        classes = []
        for cls, arms in ((hp & hm, (p, m)), (hp & hpp & ~hm, (p, pp)),
                          (hm & hmm & ~hp, (m, mm)), (hp & ~hpp & ~hm, (p,)),
                          (hm & ~hmm & ~hp, (m,))):
            c = np.flatnonzero(cls).astype(np.int32)
            classes.append((c, *(a[c] for a in arms)))
        stencil.append(tuple(classes))
    return tuple(stencil)


def gradient_on_mask(vals: np.ndarray, stencil: tuple, h: float):
    """(d/dx, d/dy) on the mask of a field given by its values there,
    `stencil` being the mask's `mask_stencil`."""
    out = []
    for (cen, fwd2, bwd2, fwd1, bwd1) in stencil:
        d = np.zeros_like(vals)
        c, p, m = cen
        d[c] = (vals[p] - vals[m]) / (2 * h)
        c, p, pp = fwd2
        d[c] = (-3 * vals[c] + 4 * vals[p] - vals[pp]) / (2 * h)
        c, m, mm = bwd2
        d[c] = (3 * vals[c] - 4 * vals[m] + vals[mm]) / (2 * h)
        c, p = fwd1
        d[c] = (vals[p] - vals[c]) / h
        c, m = bwd1
        d[c] = (vals[c] - vals[m]) / h
        out.append(d)
    return tuple(out)


def masked_gradient(field: np.ndarray, mask: np.ndarray, h: float):
    """(d/dx, d/dy) of a field known on `mask`, by `gradient_on_mask` over
    the mask's stencil.  Returns arrays that are zero outside the mask."""
    field, mask = np.asarray(field), np.asarray(mask, dtype=bool)
    out = np.zeros((2,) + field.shape, dtype=field.dtype)
    for o, d in zip(out, gradient_on_mask(field[mask], mask_stencil(mask), h)):
        o[mask] = d
    return out[0], out[1]
