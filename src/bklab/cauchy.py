"""Discrete Cauchy transform (convolution with 1/(pi z)), its conjugate,
Wirtinger derivatives, the Beurling transform, and the boundary Cauchy
integral with its integration-by-parts residual.

The transform is a zero-padded FFT convolution with a displacement kernel
(1/(pi z) here; `stationary` passes its own) sampled at cell-center
displacements, computed with pruned FFTs that skip the rows the padding
leaves zero and the rows the crop discards (`ConvolutionPlan`).  The
forward passes and the first inverse pass run along contiguous rows (the
y pass on a transposed copy), so the plan keeps its spectra transposed,
(xi_x, xi_y); `kernel_hat` and `d_symbol` still read in (xi_y, xi_x)
orientation.  The
origin sample is exactly zero: the mean of 1/(pi z) over a centered
square cell vanishes by odd symmetry, so the singular cell needs no
regularization parameter.
"""

from __future__ import annotations

import threading
from functools import cached_property

import numpy as np
import scipy.fft as sfft

from .errors import BklabError
from .grid import DomainSpec, Grid
from .util import masked_gradient

__all__ = [
    "ConvolutionPlan", "get_plan", "cauchy", "conj_cauchy",
    "wirtinger", "beurling", "boundary_cauchy", "ibp_check",
]


def _wirtinger_symbol(grid: Grid, which: str) -> np.ndarray:
    """Fourier symbol 0.5 (i xi_x +/- xi_y) of d = (d_x - i d_y)/2 (+) or
    dbar = (d_x + i d_y)/2 (-) on the grid's DFT frequencies."""
    xi = grid.xi
    return 0.5 * (1j * xi[None, :] + (xi[:, None] if which == "d" else -xi[:, None]))


def _cauchy_kernel(w: np.ndarray) -> np.ndarray:
    """1/(pi w), with the origin sample zero."""
    return np.divide(1.0, np.pi * w, out=np.zeros_like(w), where=w != 0)


class ConvolutionPlan:
    """Precomputed forward transform of `kernel(w)` at the cell-center
    displacements w of the zero-padded 2N x 2N grid, plus the spectral
    derivative symbol used by the Beurling transform.  Immutable and
    shareable across threads.

    A transform is pruned on both sides: the input fills only the first N
    rows and columns of the padded grid, and only the first N rows and
    columns of the output are kept:

    1. the N data rows, (y, x), are transformed along x, padding to 2N;
    2. a transposed copy, (xi_x, y), is transformed along y, padding to 2N;
    3. the spectrum, (xi_x, xi_y), is multiplied by the kernel's (and the
       symbol's) spectrum, which the plan stores in the same orientation;
    4. its rows are inverted along xi_y, and the first N columns kept;
    5. those N columns are inverted along xi_x in place, and the first N
       rows of the result, (x, y), are transposed into the N x N output.

    Passes 1, 2 and 4 run along contiguous rows.  Pass 5 strides, but only
    over the kept half, and in place: a row pass would need a transposed
    copy of that half beside the spectrum.  The passes on the zero or
    discarded half are skipped.  Each 1-D transform sees the same samples
    as in the (y, x) layout, so the output is the same bit for bit.
    `kernel_hat` and `d_symbol` read in (xi_y, xi_x) orientation, as
    read-only views of the stored spectra.
    """

    def __init__(self, grid: Grid, kernel):
        self.grid = grid
        N, h = grid.N, grid.h
        M = 2 * N
        d = ((np.arange(M) + N) % M - N) * h
        # the kernel sampled at (x, y) = (d[i], d[j]), transformed along y
        # and then x: the passes of fft2 on the (y, x) samples, in the same
        # order, so this is exactly that spectrum transposed
        self._kernel_hat_t = sfft.fft2(kernel(d[:, None] + 1j * d[None, :]),
                                       axes=(1, 0), overwrite_x=True)
        self._kernel_hat_t.setflags(write=False)

    @property
    def kernel_hat(self) -> np.ndarray:
        """Spectrum of the sampled kernel, (xi_y, xi_x)."""
        return self._kernel_hat_t.T

    @cached_property
    def _d_symbol_t(self) -> np.ndarray:
        sym = _wirtinger_symbol(Grid(2 * self.grid.L, 2 * self.grid.N), "d")
        sym = np.ascontiguousarray(sym.T)
        sym.setflags(write=False)
        return sym

    @property
    def d_symbol(self) -> np.ndarray:
        """Symbol of d on the padded grid, which has the same h, (xi_y, xi_x)."""
        return self._d_symbol_t.T

    def _convolve(self, f: np.ndarray, symbol_t: np.ndarray | None) -> np.ndarray:
        N = self.grid.N
        M = 2 * N
        F = sfft.fft(f, n=M, axis=1)
        F = sfft.fft(F.T, n=M, axis=1, overwrite_x=True)
        F *= self._kernel_hat_t
        if symbol_t is not None:
            F *= symbol_t
        F = sfft.ifft(F, axis=1, overwrite_x=True)[:, :N]
        F = sfft.ifft(F, axis=0, overwrite_x=True)
        return np.multiply(F[:N].T, self.grid.cell_measure, order="C")

    def apply(self, f: np.ndarray) -> np.ndarray:
        return self._convolve(f, None)

    def apply_beurling(self, f: np.ndarray) -> np.ndarray:
        return self._convolve(f, self._d_symbol_t)


_PLANS: dict[tuple[float, int], ConvolutionPlan] = {}
_PLANS_LOCK = threading.Lock()


def get_plan(grid: Grid) -> ConvolutionPlan:
    key = (grid.L, grid.N)
    with _PLANS_LOCK:
        plan = _PLANS.get(key)
        if plan is None:
            plan = _PLANS[key] = ConvolutionPlan(grid, _cauchy_kernel)
    return plan


def cauchy(f: np.ndarray, grid: Grid) -> np.ndarray:
    """C f = (1/(pi z)) * f, a right inverse of dbar."""
    return get_plan(grid).apply(grid.check_field(np.asarray(f, dtype=complex)))


def conj_cauchy(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Cbar f = (1/(pi zbar)) * f = conj(C(conj f)), bit for bit."""
    f = grid.check_field(np.asarray(f, dtype=complex))
    return np.conj(get_plan(grid).apply(np.conj(f)))


def beurling(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Pi f = d(C f), with d applied spectrally on the padded grid."""
    return get_plan(grid).apply_beurling(grid.check_field(np.asarray(f, dtype=complex)))


def wirtinger(f: np.ndarray, which: str, grid: Grid,
              method: str = "spectral") -> np.ndarray:
    """d or dbar of a field.

    method='spectral' differentiates on the periodic grid and suits
    smooth, decaying fields.  method='fd' uses centered differences over
    the whole grid, one-sided at the grid edge, and suits non-periodic
    fields.
    Convention: d = (d_x - i d_y)/2, dbar = (d_x + i d_y)/2.
    """
    f = grid.check_field(np.asarray(f, dtype=complex))
    if which not in ("d", "dbar"):
        raise BklabError(f"which must be 'd' or 'dbar', got {which!r}")
    if method == "spectral":
        return np.fft.ifft2(np.fft.fft2(f) * _wirtinger_symbol(grid, which))
    if method != "fd":
        raise BklabError(f"unknown wirtinger method {method!r}")
    fx, fy = masked_gradient(f, np.ones(f.shape, dtype=bool), grid.h)
    return 0.5 * (fx + (-1j if which == "d" else 1j) * fy)


def boundary_cauchy(trace, domain: DomainSpec):
    """(1/2pi) int_dOmega g(z') eta(z') / (z - z') dsigma(z') on the grid.

    Trapezoid rule over the boundary quadrature nodes.  Cells within h of
    the polyline are not evaluated; the returned `valid` mask marks them.
    Returns (field, valid).
    """
    if callable(trace):
        g = domain.sample_trace(trace)
    else:
        g = np.asarray(trace, dtype=complex)
    if g.size == 0 or g.shape != domain.nodes.shape:
        raise BklabError("trace must be sampled at the domain's quadrature nodes")
    grid = domain.grid
    valid = domain.distance > grid.h
    out = np.zeros((grid.N, grid.N), dtype=complex)
    zflat = grid.Z[valid]
    coeff = g * domain.normals * domain.weights / (2 * np.pi)
    vals = np.empty(zflat.size, dtype=complex)
    chunk = max(1, int(4e6 // max(1, domain.nodes.size)))
    for s in range(0, zflat.size, chunk):
        zz = zflat[s:s + chunk, None]
        vals[s:s + chunk] = (coeff[None, :] / (zz - domain.nodes[None, :])).sum(axis=1)
    out[valid] = vals
    return out, valid


def ibp_check(domain: DomainSpec, f, dbar_f) -> float:
    """Residual of C(chi dbar f) = chi f + boundary integral of Tr f.

    f and dbar_f are callables on complex points.  Returns the sup over
    masked cells more than 3h inside the boundary.
    """
    grid = domain.grid
    F = np.asarray(f(grid.Z), dtype=complex)
    dF = np.asarray(dbar_f(grid.Z), dtype=complex)
    lhs = cauchy(domain.restrict(dF), grid)
    bc, valid = boundary_cauchy(f, domain)
    inner = domain.interior_mask(3 * grid.h) & valid
    resid = lhs - domain.restrict(F) - bc
    return float(np.abs(resid[inner]).max())
