"""The complex Gaussian kernel (2 tau/pi) e^{i tau (z^2 + zbar^2)}, its
exact unimodular Fourier multiplier e^{-i(xi^2 + xibar^2)/(16 tau)}, and
the smoothing operator built from it.

The multiplier path is the canonical operator: it applies the closed-form
multiplier to the field's transform and involves no kernel sampling, so
it is exempt from the aliasing guard.  The sampled-kernel convolution
path exists as a cross-check and is guard-limited; it runs the kernel
through the pruned zero-padded convolution of the Cauchy transform
(`cauchy.ConvolutionPlan`).
"""

from __future__ import annotations

import numpy as np

from .cauchy import ConvolutionPlan
from .errors import BklabError
from .grid import Grid, PhaseParams

__all__ = [
    "kernel_multiplier", "kernel_samples", "smooth",
    "kernel_dft_check", "phase_holder_check", "halton_disk",
]


def kernel_multiplier(grid: Grid, tau: float) -> np.ndarray:
    """e^{-i(xi^2 + xibar^2)/(16 tau)} = e^{-i(xi1^2 - xi2^2)/(8 tau)} on
    the DFT frequencies.  Unimodular everywhere."""
    if tau <= 0:
        raise BklabError(f"tau must be positive, got {tau}")
    xi = grid.xi
    return np.exp(-1j * (xi[None, :] ** 2 - xi[:, None] ** 2) / (8.0 * tau))


def _kappa(tau: float, z: np.ndarray) -> np.ndarray:
    """(2 tau/pi) e^{i tau (z^2 + zbar^2)}; |.| = 2 tau/pi."""
    return (2 * tau / np.pi) * np.exp(2j * tau * (z.real ** 2 - z.imag ** 2))


def kernel_samples(grid: Grid, tau: float) -> np.ndarray:
    """The kernel at cell centers."""
    return _kappa(tau, grid.Z)


def smooth(Q: np.ndarray, tau: float, grid: Grid, path: str = "multiplier") -> np.ndarray:
    """Q evaluated under the approximate identity
    z0 -> (2 tau/pi) int e^{i tau R(z; z0)} Q(z) dm(z)."""
    Q = grid.check_field(np.asarray(Q, dtype=complex))
    if path == "multiplier":
        return np.fft.ifft2(np.fft.fft2(Q) * kernel_multiplier(grid, tau))
    if path == "direct":
        PhaseParams(tau, 0j).validate_for(grid)
        return ConvolutionPlan(grid, lambda w: _kappa(tau, w)).apply(Q)
    raise BklabError(f"unknown smoothing path {path!r}")


def kernel_dft_check(grid: Grid, tau: float, regularization: float = 0.0) -> float:
    """Max relative deviation between the DFT of the sampled kernel and
    the closed-form transform, over the central half of the frequency
    grid (|k| <= N/4 along each axis).

    With regularization eps > 0 both sides are the exact transform pair
    of e^{-eps|z|^2} kappa_tau: separable complex Gaussians with
    c = 2 eps -/+ 4 i tau, the analytic continuation through which the
    kernel transform is defined.  eps = 0 compares raw kernel samples
    against the unimodular limit formula; that comparison carries an
    irreducible window/aliasing floor because the chirp does not decay.
    """
    if tau <= 0:
        raise BklabError(f"tau must be positive, got {tau}")
    eps = float(regularization)
    N, h = grid.N, grid.h
    taper = np.exp(-eps * (grid.X ** 2 + grid.Y ** 2)) if eps > 0 else 1.0
    kap = kernel_samples(grid, tau) * taper
    xi = grid.xi
    shift = np.exp(-1j * grid.axis[0] * xi)
    F = (h * h / (2 * np.pi)) * np.fft.fft2(kap) * shift[None, :] * shift[:, None]
    XI1, XI2 = xi[None, :], xi[:, None]
    if eps > 0:
        c1 = 2 * eps - 4j * tau
        c2 = 2 * eps + 4j * tau
        closed = (2 * tau / np.pi) / np.sqrt(c1 * c2) * np.exp(
            -XI1 ** 2 / (2 * c1) - XI2 ** 2 / (2 * c2))
    else:
        closed = (1 / (2 * np.pi)) * np.exp(-1j * (XI1 ** 2 - XI2 ** 2) / (8 * tau))
    k = np.fft.fftfreq(N) * N
    sel = (np.abs(k[None, :]) <= N / 4) & (np.abs(k[:, None]) <= N / 4)
    rel = np.abs(F - closed) / np.abs(closed)
    return float(rel[sel].max())


def phase_holder_check(s: float, xi: np.ndarray) -> float:
    """max over samples of |1 - e^{-i(xi^2 + xibar^2)}| / |xi|^s; the
    contract is <= 2^{1 + s/2}.  xi = 0 contributes 0 by convention."""
    if not (0.0 <= s <= 2.0):
        raise BklabError(f"need 0 <= s <= 2, got {s}")
    xi = np.asarray(xi, dtype=complex).ravel()
    r = np.abs(xi)
    nz = r > 0
    phase = 2.0 * (xi.real ** 2 - xi.imag ** 2)
    num = np.abs(1.0 - np.exp(-1j * phase[nz]))
    ratio = num / r[nz] ** s
    return float(ratio.max()) if ratio.size else 0.0


def halton_disk(n: int, radius: float) -> np.ndarray:
    """Deterministic low-discrepancy complex samples in B(0, radius)
    (area-uniform Halton map)."""
    from scipy.stats import qmc
    pts = qmc.Halton(d=2, scramble=False).random(n)
    r = radius * np.sqrt(pts[:, 0])
    th = 2 * np.pi * pts[:, 1]
    return r * np.exp(1j * th)
