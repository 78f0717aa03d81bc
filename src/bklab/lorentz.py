"""The Lorentz, Sobolev-Lorentz and Bessel-Lorentz norms of discrete fields,
taken from their non-increasing rearrangements.

A discrete field is a step function: its rearrangement is a finite list of
non-increasing values over intervals whose lengths are multiples of the
cell measure h^2.  Every (p, q) norm is taken by one kernel,
`norm_of_sorted`, from the moduli sorted ascending (by `lorentz_norm` in a
fresh array, or by a caller in a buffer it owns), read `_BLOCK` = 2^13 at
a time: besides the moduli it forms no array much longer than a block,
whatever the field's size and q.

For finite q the steps are the runs of equal values, on each of which the
maximal-average function f** = c + D/t.  Each step's term of the q-th
power is a closed form where one exists (integer q below 32, D = 0 or
c = 0) and 32-point Gauss-Legendre quadrature otherwise, on pieces [x, y]
of the step with y <= 2x; the tail beyond the support is exact.  The
terms are summed from their logs, so a large q keeps them in range.  A
q = inf norm is the largest t^{1/p} f**(t) (or t^{1/p} f*(t)) at a cell's
right end; on a run of equal values the first is convex and the second
increases, so the runs need no merging.

Fourier convention (fixed everywhere): F f(xi) = (1/2pi) int f e^{-i x.xi} dm,
which is unitary on L^2(R^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import NormError
from .grid import DomainSpec, Grid
from .util import masked_gradient

__all__ = [
    "LorentzIndex", "lorentz_norm", "norm_of_sorted",
    "sobolev_lorentz_norm", "bessel_norm", "indicator_norm",
]

_BLOCK = 1 << 13  # sorted values, one cell each, a norm reads at a time
_gauss_legendre = cache(lambda: np.polynomial.legendre.leggauss(32))  # a lazy import


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


def _run_starts(v: np.ndarray, before: float) -> np.ndarray:
    """The index in v of each run of equal values' first element; v[0]
    starts none if it equals `before`, the value just before v."""
    first = np.empty(v.size, dtype=bool)
    first[0] = v[0] != before
    np.not_equal(v[1:], v[:-1], out=first[1:])
    return np.flatnonzero(first)


def lorentz_norm(field: np.ndarray, idx: LorentzIndex,
                 domain: DomainSpec | None = None,
                 grid: Grid | None = None) -> float:
    """The (p, q) norm of |field| on the domain's mask (or the whole grid):
    its moduli sorted ascending in a fresh array, then `norm_of_sorted`."""
    grid, mask = _where(domain, grid)
    field = grid.check_field(np.asarray(field))
    s = np.abs(field if mask is None else field[mask]).ravel()
    s.sort()  # a fresh array, sorted in place
    return norm_of_sorted(s, grid.cell_measure, idx)


def norm_of_sorted(s: np.ndarray, cell_measure: float, idx: LorentzIndex) -> float:
    """The (p, q) norm of the step function whose cells of measure h^2 =
    `cell_measure` take the values s, sorted ascending; NormError if s is
    empty or not all finite.

    s is read from the top a block at a time, scaled by 2^-e, 2^e the
    power of two just above s[-1], so that the running masses int_0^t f*
    stay below the total measure: the scaling is exact and the norm
    homogeneous.  q = inf takes the cells one by one, the running mass
    carried into the slot before each block, so that it adds in the same
    order however s is blocked.  Finite q finds a block's runs against the
    value of the run held back from the block above, and holds its own
    last run back, so the steps are the runs of the whole; a block the
    held run fills is skipped.  Only the completed steps' values are
    scaled, and the logs of their terms (`_step_logs`) are summed last."""
    if s.size == 0:
        raise NormError("empty mask: nothing to rearrange")
    if not np.isfinite(s[-1]):  # NaN and +inf sort last
        raise NormError("field contains NaN or infinite samples")
    if s[-1] == 0.0:
        return 0.0
    e = math.frexp(s[-1])[1]
    n, h2, p, q = s.size, cell_measure, idx.p, idx.q
    best, mass, parts = 0.0, 0.0, []
    buf = np.zeros(_BLOCK + 1)
    ks, vs = np.empty(0, dtype=np.intp), np.empty(0)  # held steps: first cells, values
    for hi in range(n, 0, -_BLOCK):
        lo = max(0, hi - _BLOCK)
        if math.isinf(q):
            x = buf[:hi - lo + 1]
            np.ldexp(s[lo:hi][::-1], -e, out=x[1:])
            t = np.arange(n - hi + 1, n - lo + 1) * h2  # the right ends
            if idx.normed:
                x[1:] *= h2
                np.cumsum(x, out=x)  # the running masses int_0^t f*
                buf[0] = x[-1]
                x[1:] /= t
            x[1:] *= t ** (1.0 / p)
            best = max(best, float(x[1:].max()))
            continue
        v = s[lo:hi][::-1]
        held = vs[-1] if vs.size else math.nan
        if lo and v[-1] == held:
            continue
        first = _run_starts(v, held)
        ks = np.concatenate((ks, first + (n - hi)))
        vs = np.concatenate((vs, v[first]))
        m = ks.size - (lo > 0)  # the last run may go on below the block
        a, b = ks[:m] * h2, np.append(ks[1:], n)[:m] * h2  # the steps [a, b]
        c = np.ldexp(vs[:m], -e)
        ks, vs = ks[m:], vs[m:]
        S = np.cumsum(np.concatenate(([mass], (b - a) * c)))  # int_0^t f* at a, b
        mass = S[-1]
        D = S[:-1] - c * a if idx.normed else np.zeros_like(c)  # f** = c + D/t, f* = c
        parts += map(_log_sum, _step_logs(a, b, c, D, p, q))
    if math.isinf(q):
        return _scaled_back(best, e, idx)
    if idx.normed:
        # tail: f** = A/t for t >= t_M.  Its constant p / (q (p - 1)) is
        # taken in logs, so that q (p - 1) cannot overflow at a large p
        parts.append(q * math.log(mass) + (q / p - q) * math.log(n * h2)
                     + (math.log(p / (p - 1.0)) - math.log(q)))
    with np.errstate(over="ignore"):
        return _scaled_back(np.exp(_log_sum(np.array(parts)) / q), e, idx)


def _scaled_back(val, e, idx: LorentzIndex) -> float:
    """val 2^e; NormError if that leaves the floating-point range."""
    with np.errstate(over="ignore"):
        val = float(np.ldexp(val, e))
    if not 0.0 < val < math.inf:
        raise NormError(f"the (p, q) = ({idx.p}, {idx.q}) norm of this field is "
                        f"out of floating-point range")
    return val


def _log_sum(logs: np.ndarray) -> float:
    """log sum exp(logs), taken by the largest (-inf if there is none)."""
    top = float(np.max(logs, initial=-math.inf))
    if top == -math.inf:
        return top
    return top + math.log(np.exp(logs - top).sum())


def _log_power_int(a, b, alpha):
    """log int_a^b t^{alpha - 1} dt over 0 <= a < b, elementwise in (a, b);
    a = 0 needs alpha > 0."""
    with np.errstate(divide="ignore"):
        la, lb = np.log(a), np.log(b)
        if alpha == 0.0:
            return np.log(lb - la)
        # b^alpha - a^alpha = hi^alpha (1 - (lo/hi)^alpha), hi the larger power
        hi = alpha * (lb if alpha > 0 else la)
        return hi + np.log(-np.expm1(-abs(alpha) * (lb - la))) - math.log(abs(alpha))


def _step_logs(a, b, c, D, p, q):
    """The logs of the terms of int_a^b (c + D/t)^q t^{q/p - 1} dt over the
    steps [a, b] (c >= 0, D >= 0 up to rounding), an array at a time; a
    zero term has log -inf.  Where D <= 0 or c = 0 the integrand is one
    power of t; an integer q below 32 expands it binomially, one power of
    t a term, and any other q takes 32-point Gauss-Legendre quadrature on
    pieces of the step that end at most twice as far from 0 as they begin."""
    flat = D <= 0.0
    with np.errstate(divide="ignore"):
        lc = np.log(c)
    yield q * lc[flat] + _log_power_int(a[flat], b[flat], q / p)
    if flat.all():
        return
    decay = ~flat & (c == 0.0)
    yield q * np.log(D[decay]) + _log_power_int(a[decay], b[decay], q / p - q)
    rest = ~(flat | decay)
    a, b, c, D, lc = a[rest], b[rest], c[rest], D[rest], lc[rest]
    lD = np.log(D)
    if q == int(q) and q < 32:
        n = int(q)
        for k in range(n + 1):
            yield (math.log(math.comb(n, k)) + _log_power_int(a, b, q / p - k)
                   + (n - k) * lc + k * lD)
    else:
        if (b > 2.0 * a).any():
            # cut at 2a, 4a, ... below b: each piece is its width or more from the singular t = 0
            k = np.ceil(np.log2(b / a)).astype(np.intp)
            i = np.repeat(np.arange(k.size), k)
            lo = np.ldexp(a[i], np.arange(i.size) - (np.cumsum(k) - k)[i])
            hi = 2.0 * lo
            hi[np.cumsum(k) - 1] = b
            a, b, c, D = lo, hi, c[i], D[i]
        mid, rad = 0.5 * (a + b), 0.5 * (b - a)
        lr = np.log(rad)
        for x, w in zip(*_gauss_legendre()):  # nodes and weights on [-1, 1]
            t = mid + rad * x
            yield lr + (q / p - 1.0) * np.log(t) + q * np.log(c + D / t) + math.log(w)


def indicator_norm(measure: float, idx: LorentzIndex) -> float:
    """Closed-form ||chi_A||: for the normed scale and q < inf,
    (p/q + p/(q(p-1)))^{1/q} m^{1/p}."""
    p, q = idx.p, idx.q
    if measure <= 0:
        return 0.0
    if math.isinf(q):
        return measure ** (1.0 / p)
    c = p / q + p / (q * (p - 1.0)) if idx.normed else p / q
    return c ** (1.0 / q) * measure ** (1.0 / p)


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


def bessel_image(field: np.ndarray, s: float, domain: DomainSpec | None = None,
                 grid: Grid | None = None) -> np.ndarray:
    """F^{-1}((1+|xi|^2)^{s/2} F f) with f zero-extended to the full grid.

    s = 0 returns the zero-extended field itself (multiplier identically
    one), bit for bit.  A multiplier that overflows a double raises
    NormError before any FFT, and so does an image that overflows after.
    """
    grid, mask = _where(domain, grid)
    field = grid.check_field(np.asarray(field, dtype=complex))
    if mask is not None:
        field = domain.restrict(field)
    if s == 0.0:
        return field
    xi = grid.xi
    with np.errstate(over="ignore", invalid="ignore"):
        mult = (1.0 + xi[None, :] ** 2 + xi[:, None] ** 2) ** (s / 2.0)
        if not np.isfinite(mult).all():
            raise NormError(f"Bessel multiplier (1+|xi|^2)^(s/2) overflows at s={s} on {grid}")
        image = np.fft.ifft2(np.fft.fft2(field) * mult)
    if not np.isfinite(image).all():
        raise NormError(f"Bessel image of the field overflows at s={s} on {grid}")
    return image


def bessel_norm(field: np.ndarray, s: float, idx: LorentzIndex,
                domain: DomainSpec | None = None, grid: Grid | None = None) -> float:
    """Lorentz norm over the full grid of the Bessel-multiplier image of
    the zero-extended field.  This is the fixed zero-extension convention:
    an upper bound for the restriction-infimum norm."""
    if not np.isfinite(s):
        raise NormError(f"smoothness index must be finite, got {s}")
    image = bessel_image(field, s, domain, grid)
    return lorentz_norm(image, idx, grid=_where(domain, grid)[0])
