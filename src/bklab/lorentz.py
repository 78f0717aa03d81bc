"""Distribution functions, non-increasing rearrangements, and the Lorentz,
Sobolev-Lorentz and Bessel-Lorentz norms of discrete fields.

A discrete field is a step function: its rearrangement is a finite list of
non-increasing values over intervals whose lengths are multiples of the
cell measure h^2.  On each interval the maximal-average function f** has
the closed form c + D/t, so norms are computed by per-interval closed
forms where available (integer q below 32, or D = 0) and 32-point
Gauss-Legendre quadrature otherwise, plus the exact tail integral beyond
the support.  For finite q each term of the q-th power is formed from its
log and the terms are added by log-sum-exp, so a large q keeps them in
range.

A q = inf norm is the largest value of t^{1/p} f**(t) (or t^{1/p} f*(t))
at the right end of a cell, taken by one kernel (`weak_norm_of_sorted`)
that reads the ascending moduli from the top a block at a time and
carries the running mass from block to block.  A run of equal values
needs no merging: on it t^{1/p} f**(t) is convex and t^{1/p} f*(t)
increases, so no cell inside the run exceeds the run's ends.  The kernel
forms no array as long as the moduli, which `lorentz_norm` sorts in a
fresh array and a caller may sort in a buffer it owns.

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
    "rearrange", "lorentz_norm", "norm_of_rearrangement", "weak_norm_of_sorted",
    "sobolev_lorentz_norm", "bessel_norm", "indicator_norm",
]

_GL_POINTS = 32
_WEAK_BLOCK = 1 << 14  # sorted values, one cell each, a q = inf norm takes at a time


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


def _sorted_moduli(field: np.ndarray, domain: DomainSpec | None,
                   grid: Grid | None) -> tuple[np.ndarray, float]:
    """|field| (restricted to the domain mask if given) sorted ascending in
    a fresh array, and the cell measure."""
    grid, mask = _where(domain, grid)
    field = grid.check_field(np.asarray(field))
    vals = np.abs(field if mask is None else field[mask]).ravel()
    vals.sort()  # a fresh array, sorted in place
    return vals, grid.cell_measure


def _check_sorted(s: np.ndarray) -> None:
    """NormError if the ascending moduli s are empty or not all finite:
    NaN and +inf sort last, so the last value tells."""
    if s.size == 0:
        raise NormError("empty mask: nothing to rearrange")
    if not np.isfinite(s[-1]):
        raise NormError("field contains NaN or infinite samples")


def rearrange(field: np.ndarray, domain: DomainSpec | None = None,
              grid: Grid | None = None) -> StepRearrangement:
    """Sort |field| (restricted to the domain mask if given) descending
    and compress equal runs into steps."""
    vals, h2 = _sorted_moduli(field, domain, grid)
    _check_sorted(vals)
    v = vals[::-1]
    # compress runs of equal values: starts[k] is where run k + 1 starts,
    # and it ends run k
    starts = np.flatnonzero(v[1:] != v[:-1])
    starts += 1
    values = np.empty(starts.size + 1, dtype=v.dtype)
    values[0] = v[0]
    # indexing, not np.take(v, starts, out=...): take from the reversed
    # view runs 10x slower (15 vs 1.5 ms for 2^20 distinct values)
    values[1:] = v[starts]
    breakpoints = np.empty(starts.size + 2)
    breakpoints[0] = 0.0
    np.multiply(starts, h2, out=breakpoints[1:-1])
    breakpoints[-1] = v.size * h2
    return StepRearrangement(breakpoints, values, h2)


def lorentz_norm(field: np.ndarray, idx: LorentzIndex,
                 domain: DomainSpec | None = None,
                 grid: Grid | None = None) -> float:
    if math.isinf(idx.q):
        return weak_norm_of_sorted(*_sorted_moduli(field, domain, grid), idx)
    return norm_of_rearrangement(rearrange(field, domain, grid), idx)


def norm_of_rearrangement(sr: StepRearrangement, idx: LorentzIndex) -> float:
    """The (p, q) norm of the step function `sr`.  For q = inf its steps
    are expanded back to cells, ascending, for `weak_norm_of_sorted`."""
    v = sr.values
    if v.size == 0 or v[0] == 0.0:
        return 0.0
    if math.isinf(idx.q):
        counts = np.rint(np.diff(sr.breakpoints) / sr.cell_measure).astype(np.intp)
        return weak_norm_of_sorted(np.repeat(v, counts)[::-1], sr.cell_measure, idx)
    # the norm is homogeneous: taken of v / 2^e < 1, 2^e the power of two
    # just above v[0], the running masses stay below the total measure, so
    # only a norm that is itself out of range leaves it
    e = math.frexp(v[0])[1]
    norm = _norm if idx.normed else _seminorm
    return _scaled_back(norm(sr.breakpoints, np.ldexp(v, -e), idx.p, idx.q), e, idx)


def weak_norm_of_sorted(s: np.ndarray, cell_measure: float,
                        idx: LorentzIndex) -> float:
    """The q = inf norm of the step function whose cells of measure h^2 =
    `cell_measure` take the values s, sorted ascending: the largest
    t^{1/p} f**(t) (normed) or t^{1/p} f*(t) at a cell's right end t = k h^2,
    k = 1..n counted from the top.  On a cell t^{1/p} f**(t) = t^{1/p}
    (c + D/t) has one critical point, t = D(p-1)/c, a minimum for p > 1,
    so the supremum is at a right end.

    s is read from the top `_WEAK_BLOCK` values at a time, each cell
    adding v h^2 to the running mass int_0^t f*.  The values are scaled
    by 2^-e, 2^e the power of two just above s[-1], so that the masses
    stay in range; scaling by a power of two is exact, so the norm keeps
    its unscaled bits.  The running mass is carried into the slot before
    each block: the cumulative sum adds in the same order as over the
    whole, however s is blocked, and no array longer than a block is
    formed.  NormError if s is empty or not all finite, as `rearrange`."""
    if not math.isinf(idx.q):
        raise NormError(f"need q = inf for the weak norm, got q={idx.q}")
    _check_sorted(s)
    if s[-1] == 0.0:
        return 0.0
    e = math.frexp(s[-1])[1]
    n = s.size
    best = 0.0
    buf = np.zeros(_WEAK_BLOCK + 1)
    for hi in range(n, 0, -_WEAK_BLOCK):
        lo = max(0, hi - _WEAK_BLOCK)
        x = buf[:hi - lo + 1]
        np.ldexp(s[lo:hi][::-1], -e, out=x[1:])
        t = np.arange(n - hi + 1, n - lo + 1) * cell_measure  # the right ends
        if idx.normed:
            x[1:] *= cell_measure
            np.cumsum(x, out=x)  # the running masses int_0^t f*
            buf[0] = x[-1]
            x[1:] /= t
        x[1:] *= t ** (1.0 / idx.p)
        best = max(best, float(x[1:].max()))
    return _scaled_back(best, e, idx)


def _scaled_back(val, e, idx: LorentzIndex) -> float:
    """val 2^e; NormError if that leaves the floating-point range."""
    with np.errstate(over="ignore"):
        val = float(np.ldexp(val, e))
    if not 0.0 < val < math.inf:
        raise NormError(f"the (p, q) = ({idx.p}, {idx.q}) norm of this field is "
                        f"out of floating-point range")
    return val


def _log_power_int(a, b, alpha):
    """log int_a^b t^{alpha - 1} dt over 0 <= a < b, elementwise in (a, b);
    a = 0 needs alpha > 0."""
    alpha = float(alpha)
    with np.errstate(divide="ignore"):
        la, lb = np.log(a), np.log(b)
        if alpha == 0.0:
            return np.log(lb - la)
        # b^alpha - a^alpha = hi^alpha (1 - (lo/hi)^alpha), hi the larger power
        hi = alpha * (lb if alpha > 0 else la)
        return hi + np.log(-np.expm1(-abs(alpha) * (lb - la))) - math.log(abs(alpha))


def _qth_root_of_sum(logs, q) -> float:
    """(sum of exp(logs))^(1/q), the sum taken by log-sum-exp."""
    logs = np.concatenate([np.ravel(x) for x in logs])
    top = logs.max()
    with np.errstate(over="ignore", under="ignore"):
        return float(np.exp((top + math.log(np.exp(logs - top).sum())) / q))


def _seminorm(t, v, p, q):
    # f* is constant per interval: integral has a closed form
    with np.errstate(divide="ignore"):
        lv = np.log(v)
    return _qth_root_of_sum([q * lv + _log_power_int(t[:-1], t[1:], q / p)], q)


def _norm(t, v, p, q):
    a, b = t[:-1], t[1:]
    # S[i] = int_0^{t_i} f*, the running masses, built in one buffer
    S = np.empty(t.size)
    S[0] = 0.0
    np.subtract(b, a, out=S[1:])
    S[1:] *= v
    np.cumsum(S[1:], out=S[1:])
    c = v
    D = S[:-1] - v * a  # f**(t) = c + D/t on [a, b]; D >= 0
    A = S[-1]
    tM = t[-1]
    # each term of int (t^{1/p} f**)^q dt/t is positive: its log goes in
    # `logs` (a zero value has log -inf and adds nothing)
    with np.errstate(divide="ignore"):
        lc = np.log(c)
    logs = []
    zero_D = D <= 0.0
    if zero_D.any():
        logs.append(q * lc[zero_D] + _log_power_int(a[zero_D], b[zero_D], q / p))
    gl = ~zero_D
    if gl.any():
        ag, bg, cg, Dg = a[gl], b[gl], c[gl], D[gl]
        lcg, lDg = lc[gl], np.log(Dg)
        if q == int(q) and q < _GL_POINTS:
            # (c + D/t)^q t^{q/p - 1} expanded binomially, one power of t a
            # term: exact, and no more terms than the quadrature has points
            n = int(q)
            for k in range(n + 1):
                lt = math.log(math.comb(n, k)) + _log_power_int(ag, bg, q / p - k)
                if k < n:
                    lt = lt + (n - k) * lcg
                if k:
                    lt = lt + k * lDg
                logs.append(lt)
        else:
            x, w = gauss_legendre(_GL_POINTS)
            mid = 0.5 * (ag + bg)[:, None]
            rad = 0.5 * (bg - ag)[:, None]
            tt = mid + rad * x[None, :]
            logs.append(np.log(rad) + (q / p - 1.0) * np.log(tt)
                        + q * np.log(cg[:, None] + Dg[:, None] / tt) + np.log(w)[None, :])
    # tail: f** = A/t for t >= t_M.  Its constant p / (q (p - 1)) is taken
    # in logs, so that q (p - 1) cannot overflow at a large p
    logs.append(q * math.log(A) + (q / p - q) * math.log(tM)
                + (math.log(p / (p - 1.0)) - math.log(q)))
    return _qth_root_of_sum(logs, q)


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
