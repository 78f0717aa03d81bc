"""Distribution functions, non-increasing rearrangements, and the Lorentz,
Sobolev-Lorentz and Bessel-Lorentz norms of discrete fields.

A discrete field is a step function: its rearrangement is a finite list of
non-increasing values over intervals whose lengths are multiples of the
cell measure h^2.  On each interval the maximal-average function f** has
the closed form c + D/t, so norms are computed by per-interval closed
forms where available (q in {1,2}, or D = 0) and 32-point Gauss-Legendre
quadrature otherwise, plus the exact tail integral beyond the support.

Fourier convention (fixed everywhere): F f(xi) = (1/2pi) int f e^{-i x.xi} dm,
which is unitary on L^2(R^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NormError
from .grid import DomainSpec, Grid
from .util import gauss_legendre, masked_gradient

__all__ = [
    "LorentzIndex", "StepRearrangement",
    "rearrange", "lorentz_norm", "norm_of_rearrangement",
    "sobolev_lorentz_norm", "bessel_norm", "indicator_norm",
]

_GL_POINTS = 32


@dataclass(frozen=True)
class LorentzIndex:
    """(p, q) with the `normed` flag selecting ||.||_{(p,q)} built from f**
    over the seminorm ||.||_{p,q} built from f*."""

    p: float
    q: float
    normed: bool = True

    def __post_init__(self):
        if not (1.0 < self.p < math.inf):
            raise NormError(f"need 1 < p < inf, got p={self.p}")
        if not (1.0 <= self.q):
            raise NormError(f"need 1 <= q <= inf, got q={self.q}")


@dataclass(frozen=True)
class StepRearrangement:
    """Non-increasing rearrangement of |f| as a step function.

    breakpoints: 0 = t_0 < t_1 < ... < t_M (multiples of the cell measure)
    values:      v_1 >= v_2 >= ... >= v_M >= 0 on the half-open intervals
    """

    breakpoints: np.ndarray
    values: np.ndarray
    cell_measure: float

    @property
    def total_measure(self) -> float:
        return float(self.breakpoints[-1]) if self.values.size else 0.0

    @property
    def mass(self) -> float:
        """int_0^infty f*(s) ds = L^1 norm of the field."""
        return float(np.sum(self.values * np.diff(self.breakpoints)))

    def distribution(self, lam: float) -> float:
        """m(f, lam) = measure of {|f| > lam} = sup{t_i : v_i > lam}."""
        above = self.values > lam
        if not above.any():
            return 0.0
        return float(self.breakpoints[1:][above].max())

    def f_star(self, s) -> np.ndarray:
        """Right-continuous rearrangement evaluated pointwise."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        idx = np.searchsorted(self.breakpoints[1:], s, side="right")
        out = np.zeros_like(s)
        inside = idx < self.values.size
        out[inside] = self.values[idx[inside]]
        return out

    def power_sum(self, r: float) -> float:
        """int (f*)^r ds; equals h^2 sum |f|^r by equimeasurability."""
        return float(np.sum(self.values ** r * np.diff(self.breakpoints)))


def _where(domain: DomainSpec | None,
           grid: Grid | None) -> tuple[Grid, np.ndarray | None]:
    """The grid a field lives on and the mask it is read on (None: the
    whole grid).  A domain brings its own grid; a grid given beside it must
    be that grid."""
    if domain is None:
        if grid is None:
            raise NormError("a norm needs a domain or a grid")
        return grid, None
    if grid is not None and grid != domain.grid:
        raise NormError(f"grid {grid} is not the domain's grid {domain.grid}")
    return domain.grid, domain.mask


def rearrange(field: np.ndarray, domain: DomainSpec | None = None,
              grid: Grid | None = None) -> StepRearrangement:
    """Sort |field| (restricted to the domain mask if given) descending
    and compress equal runs into steps."""
    grid, mask = _where(domain, grid)
    field = grid.check_field(np.asarray(field))
    vals = np.abs(field if mask is None else field[mask]).ravel()
    if vals.size == 0:
        raise NormError("empty mask: nothing to rearrange")
    if not np.all(np.isfinite(vals)):
        raise NormError("field contains NaN or infinite samples")
    v = np.sort(vals)[::-1]
    h2 = grid.cell_measure
    # compress runs of equal values
    change = np.nonzero(np.diff(v))[0]
    ends = np.concatenate([change + 1, [v.size]])
    starts = np.concatenate([[0], change + 1])
    values = v[starts]
    breakpoints = np.concatenate([[0.0], ends * h2])
    return StepRearrangement(breakpoints, values, h2)


def lorentz_norm(field: np.ndarray, idx: LorentzIndex,
                 domain: DomainSpec | None = None,
                 grid: Grid | None = None) -> float:
    return norm_of_rearrangement(rearrange(field, domain, grid), idx)


def norm_of_rearrangement(sr: StepRearrangement, idx: LorentzIndex) -> float:
    v = sr.values
    if v.size == 0 or v[0] == 0.0:
        return 0.0
    t = sr.breakpoints
    p, q = idx.p, idx.q
    if not idx.normed:
        return _seminorm(t, v, p, q)
    return _norm(t, v, p, q)


def _power_int(a, b, alpha, tol=1e-12):
    """int_a^b t^{alpha - 1} dt over 0 < a < b, elementwise in (a, b)."""
    alpha = float(alpha)
    if abs(alpha) < tol:
        return np.log(b / a)
    return (b ** alpha - a ** alpha) / alpha


def _seminorm(t, v, p, q):
    if math.isinf(q):
        return float(np.max(v * t[1:] ** (1.0 / p)))
    # f* is constant per interval: integral has a closed form
    total = np.sum(v ** q * (p / q) * (t[1:] ** (q / p) - t[:-1] ** (q / p)))
    return float(total ** (1.0 / q))


def _norm(t, v, p, q):
    a, b = t[:-1], t[1:]
    S = np.concatenate([[0.0], np.cumsum(v * (b - a))])
    c = v
    D = S[:-1] - v * a  # f**(t) = c + D/t on [a, b]; D >= 0
    A = S[-1]
    tM = t[-1]
    if math.isinf(q):
        # t^{1/p} f**(t) = t^{1/p} (c + D/t) has one critical point on a
        # step, t = D(p-1)/c, and it is a minimum for p > 1: the supremum
        # is at a breakpoint
        return float(np.max(t[1:] ** (1.0 / p) * (S[1:] / t[1:])))
    total = 0.0
    zero_D = D <= 0.0
    if zero_D.any():
        cz, az, bz = c[zero_D], a[zero_D], b[zero_D]
        total += float(np.sum(cz ** q * (p / q) * (bz ** (q / p) - az ** (q / p))))
    gl = ~zero_D
    if gl.any():
        if q == 1.0:
            ag, bg, cg, Dg = a[gl], b[gl], c[gl], D[gl]
            total += float(np.sum(cg * _power_int(ag, bg, 1.0 / p)))
            total += float(np.sum(Dg * _power_int(ag, bg, 1.0 / p - 1.0)))
        elif q == 2.0:
            ag, bg, cg, Dg = a[gl], b[gl], c[gl], D[gl]
            e = 2.0 / p
            total += float(np.sum(cg ** 2 * _power_int(ag, bg, e)))
            total += float(np.sum(2 * cg * Dg * _power_int(ag, bg, e - 1.0)))
            total += float(np.sum(Dg ** 2 * _power_int(ag, bg, e - 2.0)))
        else:
            x, w = gauss_legendre(_GL_POINTS)
            ag, bg, cg, Dg = a[gl], b[gl], c[gl], D[gl]
            mid = 0.5 * (ag + bg)[:, None]
            rad = 0.5 * (bg - ag)[:, None]
            tt = mid + rad * x[None, :]
            integ = tt ** (q / p - 1.0) * (cg[:, None] + Dg[:, None] / tt) ** q
            total += float(np.sum(rad * integ * w[None, :]))
    # tail: f** = A/t for t >= t_M
    total += A ** q * tM ** (q / p - q) * p / (q * (p - 1.0))
    return float(total ** (1.0 / q))


def indicator_norm(measure: float, idx: LorentzIndex) -> float:
    """Closed-form ||chi_A||: for the normed scale and q < inf,
    (p/q + p/(q(p-1)))^{1/q} m^{1/p}."""
    p, q = idx.p, idx.q
    if measure <= 0:
        return 0.0
    if not idx.normed:
        if math.isinf(q):
            return measure ** (1.0 / p)
        return (p / q) ** (1.0 / q) * measure ** (1.0 / p)
    if math.isinf(q):
        return measure ** (1.0 / p)
    return (p / q + p / (q * (p - 1.0))) ** (1.0 / q) * measure ** (1.0 / p)


def sobolev_lorentz_norm(field: np.ndarray, idx: LorentzIndex, k: int,
                         domain: DomainSpec | None = None,
                         grid: Grid | None = None) -> float:
    """||f|| + sum over first derivatives of ||D f||, all in the same
    Lorentz index.  Only k in {0, 1} is supported; derivatives are
    centered differences, one-sided at the mask boundary."""
    if k not in (0, 1):
        raise NormError(f"derivative order k must be 0 or 1, got {k}")
    g, mask = _where(domain, grid)
    total = lorentz_norm(field, idx, domain, grid)
    if k == 1:
        if mask is None:
            mask = np.ones((g.N, g.N), dtype=bool)
        fx, fy = masked_gradient(np.asarray(field, dtype=complex), mask, g.h)
        total += lorentz_norm(fx, idx, domain, grid)
        total += lorentz_norm(fy, idx, domain, grid)
    return total


def bessel_multiplier(grid: Grid, s: float) -> np.ndarray:
    xi = grid.xi
    return (1.0 + xi[None, :] ** 2 + xi[:, None] ** 2) ** (s / 2.0)


def bessel_image(field: np.ndarray, s: float, domain: DomainSpec | None = None,
                 grid: Grid | None = None) -> np.ndarray:
    """F^{-1}((1+|xi|^2)^{s/2} F f) with f zero-extended to the full grid.

    s = 0 returns the zero-extended field itself (multiplier identically
    one), bit for bit.
    """
    grid, mask = _where(domain, grid)
    field = grid.check_field(np.asarray(field, dtype=complex))
    if mask is not None:
        field = domain.restrict(field)
    if s == 0.0:
        return field
    return np.fft.ifft2(np.fft.fft2(field) * bessel_multiplier(grid, s))


def bessel_norm(field: np.ndarray, s: float, idx: LorentzIndex,
                domain: DomainSpec | None = None, grid: Grid | None = None) -> float:
    """Lorentz norm over the full grid of the Bessel-multiplier image of
    the zero-extended field.  This is the fixed zero-extension convention:
    an upper bound for the restriction-infimum norm."""
    if not np.isfinite(s):
        raise NormError(f"smoothness index must be finite, got {s}")
    image = bessel_image(field, s, domain, grid)
    return lorentz_norm(image, idx, grid=_where(domain, grid)[0])


def ms_surrogate(field: np.ndarray, s: float, domain: DomainSpec | None = None,
                 grid: Grid | None = None) -> float:
    """Computable stand-in for the interpolation-space norm between bounded
    continuous functions and the first-order (2,1) scale: the larger of the
    sup norm and the smoothness-s Bessel norm at (2,1).  Reported as a
    surrogate; the interpolation norm itself has no computable formula."""
    g, mask = _where(domain, grid)
    field = g.check_field(np.asarray(field, dtype=complex))
    vals = field[mask] if mask is not None else field
    sup = float(np.abs(vals).max()) if vals.size else 0.0
    return max(sup, bessel_norm(field, s, LorentzIndex(2.0, 1.0), domain, grid))
