"""Explicit cut-off weights used by the oscillatory-decay estimates.

Two constructions:

* W^{1,1} weight: H(z) = 1/zbar outside |z| > eps and |z|/(eps zbar)
  inside, translated to z0, with eps = tau^{-1/2}.  Closed-form
  derivatives; the defect 1 - (zbar - z0bar) h is supported on B(z0, eps)
  with L^1 mass at most (pi/3) eps^2.

* Smooth two-scale weight: h = chi_eps chi^delta / (zbar - z0bar), where
  chi_eps mollifies the indicator of {d(z, dOmega) > 2 eps} and chi^delta
  the indicator of the complement of B(z0, 2 delta), both with the
  standard bump exp(-1/(1-|z|^2)).  The tau^{2/3} tuning takes
  eps = delta^2 = tau^{-2/3}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BklabError, DomainError, GridError, MollifierResolutionError
from .grid import Disk, DomainSpec, Grid
from .lorentz import LorentzIndex, lorentz_norm

__all__ = [
    "CutoffBundle", "build_h1", "build_h2", "tune_h2", "h2_scales",
    "h1_defect_l1", "h1_report", "annulus_kernel_norms",
    "annulus_kernel_bounds", "annulus_majorization",
]

_L21 = LorentzIndex(2.0, 1.0, normed=True)


@dataclass(frozen=True)
class CutoffBundle:
    """A cut-off weight h with its dbar derivative and the defect field
    1 - (zbar - z0bar) h, all sampled on the grid."""

    h: np.ndarray
    dbar_h: np.ndarray
    defect: np.ndarray
    z0: complex
    eps: float
    delta: float | None
    tag: str                 # "h1" or "h2"
    grid: Grid
    d_h: np.ndarray | None = None  # closed-form d-derivative (h1 only)

    def _on_grid(self, domain: DomainSpec) -> DomainSpec:
        """`domain`, which must lie on the bundle's grid."""
        if domain.grid != self.grid:
            raise GridError(f"domain grid {domain.grid} is not the bundle's grid {self.grid}")
        return domain

    def sup_norm(self, domain: DomainSpec | None = None) -> float:
        vals = self.h[self._on_grid(domain).mask] if domain is not None else self.h
        return float(np.abs(vals).max())

    def defect_l1_grid(self, domain: DomainSpec) -> float:
        m = self._on_grid(domain).mask
        return float(np.abs(self.defect[m]).sum()) * self.grid.cell_measure

    def defect_l21(self, domain: DomainSpec) -> float:
        return lorentz_norm(self.defect, _L21, domain=self._on_grid(domain))

    def dbar_l21(self, domain: DomainSpec) -> float:
        return lorentz_norm(self.dbar_h, _L21, domain=self._on_grid(domain))


# ---------------------------------------------------------------------------
# W^{1,1} weight

def build_h1(grid: Grid, z0: complex, tau: float) -> CutoffBundle:
    if tau < 1.0:
        raise BklabError(f"h1 weight needs tau >= 1, got {tau}")
    eps = tau ** -0.5
    W = np.conj(grid.Z - z0)
    r = np.abs(W)
    outer = r > eps
    inner = ~outer & (r > 0)
    h = np.zeros_like(W)
    h[outer] = 1.0 / W[outer]
    h[inner] = r[inner] / (eps * W[inner])
    dbar = np.zeros_like(W)
    dbar[outer] = -1.0 / W[outer] ** 2
    dbar[inner] = -r[inner] / (2 * eps * W[inner] ** 2)
    dh = np.zeros_like(W)
    dh[inner] = 1.0 / (2 * eps * r[inner])
    defect = np.zeros(W.shape)
    defect[~outer] = 1.0 - r[~outer] / eps
    return CutoffBundle(h, dbar, defect.astype(complex), z0, eps, None,
                        "h1", grid, d_h=dh)


def _disk_angular_measure(r: np.ndarray, d: float, rho: float) -> np.ndarray:
    """Arc measure of {theta : z0 + r e^{i theta} in B(center, rho)} where
    d = |z0 - center|."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    full = r <= rho - d
    out[full] = 2 * np.pi
    if d > 0:
        part = (~full) & (r < rho + d) & (r > 0)
        cosv = (d * d + r[part] ** 2 - rho * rho) / (2 * d * r[part])
        out[part] = 2 * np.arccos(np.clip(cosv, -1.0, 1.0))
    return out


def h1_defect_l1(domain: DomainSpec, z0: complex, tau: float) -> float:
    """||1 - (zbar - z0bar) h||_{L^1(Omega)} for the W^{1,1} weight.

    Disk domains are reduced to a radial integral with the exact angular
    measure (adaptive quadrature); the grid midpoint sum has a one-sided
    O(h^2) bias that would spuriously exceed the sharp (pi/3) eps^2 bound
    when the support ball lies inside Omega.  Other shapes use a subcell-
    refined midpoint sum.
    """
    eps = tau ** -0.5
    shape = domain.shape
    if isinstance(shape, Disk):
        from scipy.integrate import quad
        d = abs(z0 - shape.center)
        if d >= shape.radius + eps:
            return 0.0

        def integrand(r):
            return (1.0 - r / eps) * _disk_angular_measure(np.array([r]), d, shape.radius)[0] * r

        pts = sorted({p for p in (shape.radius - d, shape.radius + d)
                      if 0.0 < p < eps})
        val, _ = quad(integrand, 0.0, eps, points=pts or None, limit=200,
                      epsabs=1e-14, epsrel=1e-12)
        return float(val)
    # generic shapes: refined midpoint over cells meeting the support ball
    grid = domain.grid
    sub = 8
    cells = domain.mask & (np.abs(grid.Z - z0) < eps + grid.h)
    if not cells.any():
        return 0.0
    off = (np.arange(sub) + 0.5) / sub - 0.5
    total = 0.0
    zc = grid.Z[cells]
    for oy in off:
        for ox in off:
            zz = zc + (ox + 1j * oy) * grid.h
            total += np.sum(np.maximum(0.0, 1.0 - np.abs(zz - z0) / eps))
    return float(total * grid.cell_measure / (sub * sub))


def h1_report(bundle: CutoffBundle, domain: DomainSpec, tau: float) -> dict:
    """Measured pieces of the W^{1,1} estimate and its stated bound."""
    h2c = bundle.grid.cell_measure
    m = bundle._on_grid(domain).mask
    w11 = float((np.abs(bundle.h[m]) + np.abs(bundle.d_h[m])
                 + np.abs(bundle.dbar_h[m])).sum()) * h2c
    defect = h1_defect_l1(domain, bundle.z0, tau)
    area = domain.measure
    bound = 2 * np.pi * (math.sqrt(area / np.pi) + 2.0
                         + max(0.0, math.log(math.sqrt(area * tau / np.pi))))
    return {
        "defect_l1": defect,
        "defect_l1_grid": bundle.defect_l1_grid(domain),
        "w11_norm": w11,
        "combined": tau * defect + w11,
        "combined_bound": bound,
    }


# ---------------------------------------------------------------------------
# smooth two-scale weight

@lru_cache(maxsize=1)
def _bump_constants() -> tuple[float, float]:
    """(normalization c with int phi = 1, continuum ||dbar phi||_1)."""
    from scipy.integrate import quad
    mass, _ = quad(lambda r: math.exp(-1.0 / (1.0 - r * r)) * r, 0.0, 1.0,
                   epsabs=1e-14, epsrel=1e-13)
    c = 1.0 / (2 * np.pi * mass)
    # |grad phi| = c e^{-1/(1-r^2)} * 2r/(1-r^2)^2 ; ||dbar phi||_1 = ||grad phi||_1 / 2
    grad, _ = quad(lambda r: math.exp(-1.0 / (1.0 - r * r))
                   * 2 * r / (1.0 - r * r) ** 2 * r, 0.0, 1.0 - 1e-12,
                   epsabs=1e-14, epsrel=1e-13)
    dbar_l1 = c * 2 * np.pi * grad / 2.0
    return c, dbar_l1


def mollifier_dbar_l1() -> float:
    return _bump_constants()[1]


def _mollify(indicator: np.ndarray, a: float, grid: Grid):
    """Discrete mollification of an indicator with the normalized bump at
    scale a.  Returns (smooth field, dbar of it), both via FFT convolution
    with cell-center samples of phi_a and dbar phi_a."""
    c, _ = _bump_constants()
    N, h = grid.N, grid.h
    d = ((np.arange(N) + N // 2) % N - N // 2) * h
    DX, DY = np.meshgrid(d, d, indexing="xy")
    r2 = (DX * DX + DY * DY) / (a * a)
    inside = r2 < 1.0
    phi = np.zeros((N, N))
    phi[inside] = c / (a * a) * np.exp(-1.0 / (1.0 - r2[inside]))
    S = phi.sum() * h * h
    phi /= S
    gfac = np.zeros((N, N))
    gfac[inside] = -phi[inside] / (a * a * (1.0 - r2[inside]) ** 2) * 2.0
    dxphi = gfac * DX
    dyphi = gfac * DY
    dbarphi = 0.5 * (dxphi + 1j * dyphi)
    ind_hat = np.fft.fft2(indicator.astype(float))
    smooth = np.real(np.fft.ifft2(ind_hat * np.fft.fft2(phi))) * h * h
    dbar = np.fft.ifft2(ind_hat * np.fft.fft2(dbarphi)) * h * h
    # exact zeros where no donor cell is within reach of the bump
    reach = np.fft.ifft2(ind_hat * np.fft.fft2(inside.astype(float))).real * h * h
    dead = reach < 0.5 * h * h
    smooth[dead] = 0.0
    dbar[dead] = 0.0
    return np.clip(smooth, 0.0, 1.0), dbar


def build_h2(domain: DomainSpec, z0: complex, eps: float, delta: float) -> CutoffBundle:
    grid = domain.grid
    h = grid.h
    if eps < 4 * h or delta < 4 * h:
        raise MollifierResolutionError(
            f"cut-off scales eps={eps:.4g}, delta={delta:.4g} below 4h={4*h:.4g}")
    eroded = domain.mask & (domain.distance > 2 * eps)
    chi_eps, dbar_chi_eps = _mollify(eroded, eps, grid)
    ball = np.abs(grid.Z - z0) > 2 * delta
    chi_del, dbar_chi_del = _mollify(ball, delta, grid)
    W = np.conj(grid.Z - z0)
    w = np.zeros_like(W)
    nz = np.abs(W) > 0
    w[nz] = 1.0 / W[nz]
    prod = chi_eps * chi_del
    hfield = prod * w
    dbar_h = (dbar_chi_eps * chi_del + chi_eps * dbar_chi_del) * w - prod * w * w
    defect = (1.0 - prod).astype(complex)
    return CutoffBundle(hfield, dbar_h, defect, z0, eps, delta, "h2", grid)


def h2_scales(tau: float) -> tuple[float, float]:
    """The tau^{2/3} tuning: eps = delta^2 = tau^{-2/3}."""
    if tau < 1.0:
        raise BklabError(f"tuned weight needs tau >= 1, got {tau}")
    eps = tau ** (-2.0 / 3.0)
    return eps, math.sqrt(eps)


def tune_h2(domain: DomainSpec, z0: complex, tau: float):
    """Bundle at the tuned scales plus the composite quantity
    tau ||defect||_(2,1) + ||h||_inf + ||dbar h||_(2,1)."""
    eps, delta = h2_scales(tau)
    bundle = build_h2(domain, z0, eps, delta)
    composite = (tau * bundle.defect_l21(domain)
                 + bundle.sup_norm(domain)
                 + bundle.dbar_l21(domain))
    return bundle, float(composite)


# ---------------------------------------------------------------------------
# annulus kernel norms

def annulus_kernel_norms(domain: DomainSpec, z0: complex,
                         rho: float) -> tuple[float, float]:
    """(2,1) norms of (zbar-z0bar)^{-1} and (zbar-z0bar)^{-2} over the
    masked region outside B(z0, rho).  Empty region gives (0, 0)."""
    if rho <= 0:
        raise DomainError(f"exclusion radius must be positive, got {rho}")
    grid = domain.grid
    region = domain.mask & (np.abs(grid.Z - z0) >= rho)
    if not region.any():
        return 0.0, 0.0
    W = np.conj(grid.Z - z0)
    w1 = np.zeros_like(W)
    w1[region] = 1.0 / W[region]
    w2 = np.zeros_like(W)
    w2[region] = 1.0 / W[region] ** 2
    return (lorentz_norm(w1, _L21, domain=domain),
            lorentz_norm(w2, _L21, domain=domain))


def annulus_kernel_bounds(area: float, rho: float) -> tuple[float, float]:
    x = 2 * area / (np.pi * rho * rho) + 1.0
    b1 = 2 * math.sqrt(np.pi) * math.log(x + math.sqrt(x * x - 1.0))
    b2 = 4 * math.sqrt(np.pi) / rho * math.atan(math.sqrt(area / (np.pi * rho * rho)))
    return b1, b2


def annulus_majorization(domain: DomainSpec, z0: complex, fn, eps: float):
    """(grid integral of fn(|z-z0|) over mask minus B(z0,eps),
    radial integral over the extremal annulus) for non-increasing fn."""
    from scipy.integrate import quad
    grid = domain.grid
    region = domain.mask & (np.abs(grid.Z - z0) >= eps)
    lhs = float(np.sum(fn(np.abs(grid.Z - z0)[region]))) * grid.cell_measure
    router = math.sqrt(domain.measure / np.pi + eps * eps)
    rhs, _ = quad(lambda r: fn(r) * 2 * np.pi * r, eps, router,
                  epsabs=1e-13, epsrel=1e-11, limit=200)
    return lhs, float(rhs)
