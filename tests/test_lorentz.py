import importlib
import math

import numpy as np
import pytest
from scipy.integrate import quad

from bklab import (Disk, LorentzIndex, bessel_norm, lorentz_norm, make_domain,
                   make_grid, sobolev_lorentz_norm)
from bklab.errors import NormError
from bklab.lorentz import indicator_norm, norm_of_sorted
from bklab.util import masked_gradient

lorentz_module = importlib.import_module("bklab.lorentz")

L21 = LorentzIndex(2, 1)
L2W = LorentzIndex(2, np.inf)


def random_field(grid, seed, smooth=False):
    rng = np.random.default_rng(seed)
    f = rng.normal(size=(grid.N, grid.N)) + 1j * rng.normal(size=(grid.N, grid.N))
    if smooth:
        f = np.fft.ifft2(np.fft.fft2(f) * np.exp(-0.05 * np.arange(grid.N) ** 2)[None, :])
    return f


class TestRearrange:
    """The rearrangement f*, read through the norms taken from it."""

    def test_indicator(self, disk128):
        # f* = 1 on [0, m(E)) and 0 beyond: the zeros around E add nothing
        g = disk128.grid
        E = (np.abs(g.Z - 0.2) < 0.28)          # m(E) close to 0.25
        mE = g.cell_measure * E.sum()
        chi = E.astype(complex)
        assert lorentz_norm(chi, L2W, grid=g) == pytest.approx(math.sqrt(mE), rel=1e-10)
        assert lorentz_norm(chi, L21, grid=g) == pytest.approx(indicator_norm(mE, L21), rel=1e-8)

    def test_constant_on_domain(self, disk128):
        # only the mask's cells are rearranged
        f = np.full((128, 128), 3.5 + 0j)
        for idx in (L2W, L21, LorentzIndex(3, 2, normed=False)):
            expect = 3.5 * indicator_norm(disk128.measure, idx)
            assert lorentz_norm(f, idx, domain=disk128) == pytest.approx(expect, rel=1e-8)

    def test_equimeasurability(self, disk128):
        # ||f||_{r,r}^r = int (f*)^r dt = h^2 sum |f|^r
        f = random_field(disk128.grid, 7)
        h2 = disk128.grid.cell_measure
        for r in (1.5, 2.0, 3.0):
            direct = h2 * np.sum(np.abs(f[disk128.mask]) ** r)
            val = lorentz_norm(f, LorentzIndex(r, r, normed=False), domain=disk128)
            assert val ** r == pytest.approx(direct, rel=1e-12)

    def test_rejects_nan(self, disk128):
        f = np.zeros((128, 128), dtype=complex)
        f[64, 64] = np.nan
        with pytest.raises(NormError, match="^field contains NaN or infinite samples$"):
            lorentz_norm(f, L2W, domain=disk128)


class TestLorentzNorm:
    def test_indicator_21_formula(self, disk128):
        val = lorentz_norm(disk128.mask.astype(complex), L21, domain=disk128)
        assert val == pytest.approx(4 * math.sqrt(disk128.measure), rel=1e-8)

    def test_indicator_weak(self, disk128):
        val = lorentz_norm(disk128.mask.astype(complex), L2W, domain=disk128)
        assert val == pytest.approx(math.sqrt(disk128.measure), rel=1e-10)

    def test_indicator_formula_lattice(self, disk128):
        m = disk128.measure
        chi = disk128.mask.astype(complex)
        for (p, q) in ((2, 1), (2, 2), (4, 1), (3, 2), (2.5, 3)):
            idx = LorentzIndex(p, q)
            expect = (p / q + p / (q * (p - 1))) ** (1 / q) * m ** (1 / p)
            assert lorentz_norm(chi, idx, domain=disk128) == pytest.approx(expect, rel=1e-8)
            assert indicator_norm(m, idx) == pytest.approx(expect, rel=1e-12)

    def test_cauchy_kernel_weak_norm(self):
        # ||1/(pi z)||_{(2,inf)} = 2/sqrt(pi), approached from below on balls
        g = make_grid(4.0, 512)
        d = make_domain(g, Disk(0j, 3.999))
        vals = np.zeros_like(g.Z)
        nz = np.abs(g.Z) > 0
        vals[nz] = 1.0 / (np.pi * g.Z[nz])
        val = lorentz_norm(vals, L2W, domain=d)
        target = 2 / math.sqrt(np.pi)
        assert val == pytest.approx(target, rel=0.02)
        assert val <= target * (1 + 1e-9)

    def test_weak_norm_working_set(self, traced_peak):
        # the norm sorts its own |f| in place, and the kernel reads it a
        # block at a time, for every q
        N = 512
        g = make_grid(1.0, N)
        f = random_field(g, 0)
        for q in (1.0, 2.0, 1.5, 40.0, np.inf):
            for normed in (True, False):
                idx = LorentzIndex(2, q, normed)
                assert traced_peak(lambda: lorentz_norm(f, idx, grid=g)) <= 6 * N * N * 8

    def test_weak_norm_of_sorted_working_set(self, traced_peak):
        # the cells are read from the sorted moduli a block at a time: the
        # peak is a few blocks long, whatever the field's size or q
        s = np.sort(np.abs(random_field(make_grid(1.0, 1024), 0)).ravel())
        for q in (1.0, 2.0, 1.5, 40.0, np.inf):
            for normed in (True, False):
                idx = LorentzIndex(2, q, normed)
                assert traced_peak(lambda: norm_of_sorted(s, 1e-6, idx)) <= s.nbytes / 4

    @pytest.mark.parametrize("p", [1e13, 1e100, 1e300])
    def test_indicator_at_large_p(self, p):
        # int_0^b t^{q/p - 1} dt = b^{q/p} p/q is finite however small q/p is
        g = make_grid(1.2, 64)
        d = make_domain(g, Disk(0j, 0.8))
        for normed in (True, False):
            idx = LorentzIndex(p, 2, normed)
            got = lorentz_norm(d.mask.astype(complex), idx, domain=d)
            assert got == pytest.approx(indicator_norm(d.measure, idx), rel=1e-12)

    @pytest.mark.parametrize("p, q", [(2.0, 3.0), (3.0, 4.0)])
    def test_integer_q_closed_form_matches_quadrature(self, p, q):
        # ||f||^q = int_0^inf t^{q/p-1} f**(t)^q dt, cell by cell with quad
        # (f** is smooth on each cell's interval) plus the A/t tail; the
        # field has runs of equal values, so D > 0 on most steps
        g = make_grid(1.0, 8)
        f = np.random.default_rng(5).integers(0, 5, size=(8, 8)) * 0.5 + 0j
        h2 = g.cell_measure
        v = np.sort(np.abs(f).ravel())[::-1]
        S = np.concatenate([[0.0], np.cumsum(v) * h2])

        def integrand(t, k):
            return t ** (q / p - 1) * ((S[k] + v[k] * (t - k * h2)) / t) ** q
        total = sum(quad(integrand, k * h2, (k + 1) * h2, args=(k,),
                         epsabs=0, epsrel=1e-13, limit=200)[0] for k in range(v.size))
        tM = v.size * h2
        total += S[-1] ** q * tM ** (q / p - q) * p / (q * (p - 1))
        got = lorentz_norm(f, LorentzIndex(p, q), grid=g)
        assert got == pytest.approx(total ** (1 / q), rel=1e-12)

    def test_sandwich(self):
        g = make_grid(1.0, 32)
        for seed in range(100):
            f = random_field(g, seed)
            for (p, q) in ((2, 1), (2, 2), (2, np.inf), (4, 1)):
                semi = lorentz_norm(f, LorentzIndex(p, q, normed=False), grid=g)
                full = lorentz_norm(f, LorentzIndex(p, q, normed=True), grid=g)
                assert semi <= full * (1 + 1e-10)
                assert full <= p / (p - 1) * semi * (1 + 1e-10)

    def test_pp_equals_lp(self, disk128):
        f = random_field(disk128.grid, 3)
        h2 = disk128.grid.cell_measure
        for p in (2.0, 3.0, 1.5):
            semi = lorentz_norm(f, LorentzIndex(p, p, normed=False), domain=disk128)
            lp = (h2 * np.sum(np.abs(f[disk128.mask]) ** p)) ** (1 / p)
            assert semi == pytest.approx(lp, rel=1e-10)

    def test_nesting(self):
        g = make_grid(1.0, 32)
        p = 2.0
        for seed in range(10):
            f = random_field(g, seed)
            for (q, Q) in ((1, 2), (1, np.inf), (2, np.inf)):
                lo = lorentz_norm(f, LorentzIndex(p, q, normed=False), grid=g)
                hi = lorentz_norm(f, LorentzIndex(p, Q, normed=False), grid=g)
                iq = 0.0 if math.isinf(Q) else 1.0 / Q
                kappa = (q / p) ** (1.0 / q - iq)
                assert hi <= kappa * lo * (1 + 1e-10)
                # normed scale via the sandwich chain
                hi_n = lorentz_norm(f, LorentzIndex(p, Q, normed=True), grid=g)
                lo_n = lorentz_norm(f, LorentzIndex(p, q, normed=True), grid=g)
                assert hi_n <= p / (p - 1) * kappa * lo_n * (1 + 1e-10)

    def test_power_rule(self):
        g = make_grid(1.0, 32)
        f = random_field(g, 11)
        for r in (1, 2, 3):
            lhs = lorentz_norm(np.abs(f) ** r, LorentzIndex(2, 1, normed=False), grid=g)
            rhs = lorentz_norm(f, LorentzIndex(2 * r, r, normed=False), grid=g) ** r
            assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_holder(self):
        g = make_grid(1.0, 32)
        h2 = g.cell_measure
        for seed in range(20):
            f = random_field(g, seed)
            gg = random_field(g, seed + 1000)
            l1 = h2 * np.sum(np.abs(f * gg))
            bound = (lorentz_norm(f, L21, grid=g)
                     * lorentz_norm(gg, L2W, grid=g))
            assert l1 <= bound * (1 + 1e-10)

    def test_homogeneity(self, disk128):
        f = random_field(disk128.grid, 5)
        for idx in (L21, L2W, LorentzIndex(3, 2, normed=False)):
            base = lorentz_norm(f, idx, domain=disk128)
            assert lorentz_norm(2.5j * f, idx, domain=disk128) == pytest.approx(
                2.5 * base, rel=1e-12)

    def test_large_q_is_homogeneous(self):
        # the q-th powers of 1e-3 * f underflow at q = 120 unless the sum
        # is scaled by the largest value
        g = make_grid(1.2, 64)
        f = np.exp(-np.abs(g.Z) ** 2 / 0.3)
        idx = LorentzIndex(2.0, 120.0)
        assert lorentz_norm(1e-3 * f, idx, grid=g) == pytest.approx(
            1e-3 * lorentz_norm(f, idx, grid=g), rel=1e-12)

    def test_large_q_sums_in_logs(self):
        # the q-th power sum is e^-529 here, and the powers of the measure
        # alone leave the double range
        g = make_grid(1.2, 64)
        f = np.exp(-np.abs(g.Z) ** 2 / 0.3)
        p, q = 2.0, 1100.0
        # reference: int_0^inf t^{q/p - 1} f**(t)^q dt by adaptive quadrature
        # per cell, f** from a running sum of the sorted samples, each piece
        # scaled by the integrand's largest value
        h2 = g.cell_measure
        s = np.sort(np.abs(f).ravel())[::-1]
        cum = np.concatenate([[0.0], np.cumsum(s) * h2])
        t = np.arange(s.size + 1) * h2

        def log_integrand(x, k):
            return (q / p - 1) * math.log(x) + q * math.log((cum[k] + s[k] * (x - t[k])) / x)

        top = max(log_integrand(t[k + 1], k) for k in range(s.size))
        total = sum(quad(lambda x: math.exp(log_integrand(x, k) - top), t[k], t[k + 1],
                         epsabs=0, epsrel=1e-13)[0] for k in range(s.size))
        total += math.exp(q * math.log(cum[-1]) + (q / p - q) * math.log(t[-1])
                          - math.log(q - q / p) - top)
        ref = math.exp((top + math.log(total)) / q)
        val = lorentz_norm(f, LorentzIndex(p, q), grid=g)
        assert val == pytest.approx(ref, rel=1e-10)
        assert 0.618 < val < 0.619

    def test_huge_field_with_norm_in_range(self):
        # its mass, 4e308, is beyond the largest double; its norm is not
        g = make_grid(10.0, 64)
        f = np.full((64, 64), 1e306)
        assert lorentz_norm(f, LorentzIndex(2.0, 2.0), grid=g) == pytest.approx(
            indicator_norm(400.0, LorentzIndex(2.0, 2.0)) * 1e306, rel=1e-12)

    def test_out_of_range_norm_raises(self):
        # a norm that is itself beyond the largest double
        g = make_grid(1.2, 64)
        f = np.full((64, 64), 1.5e308)
        for q in (2.0, 1100.0):
            with pytest.raises(NormError):
                lorentz_norm(f, LorentzIndex(2.0, q), grid=g)

    def test_weak_norm_out_of_range_raises(self):
        # the (2, inf) norms of a constant 1e308 on [-1.2, 1.2]^2 are 2.4e308
        g = make_grid(1.2, 64)
        f = np.full((64, 64), 1e308)
        for normed in (True, False):
            with pytest.raises(NormError):
                lorentz_norm(f, LorentzIndex(2.0, math.inf, normed), grid=g)

    def test_huge_field_with_weak_norm_in_range(self):
        # the mass of a constant 1e306 on [-10, 10]^2, 4e308, is beyond the
        # largest double; its weak norm, 2e307, is not
        g = make_grid(10.0, 64)
        f = np.full((64, 64), 1e306)
        for normed in (True, False):
            idx = LorentzIndex(2.0, math.inf, normed)
            assert lorentz_norm(f, idx, grid=g) == pytest.approx(
                indicator_norm(400.0, idx) * 1e306, rel=1e-12)

    def test_zero_field(self, disk128):
        assert lorentz_norm(np.zeros((128, 128)), L21, domain=disk128) == 0.0

    def test_bad_p(self):
        with pytest.raises(NormError):
            LorentzIndex(1.0, 2.0)


class TestWeakNormOfSorted:
    """Every (p, q) norm read from the sorted moduli, a block of values at a
    time, agrees with an unblocked per-cell formula: bit for bit at q = inf,
    to 1e-12 otherwise.  Every path to a norm gives the kernel's bits."""

    @staticmethod
    def per_cell(s, h2, p, normed):
        """The largest t^{1/p} f**(t) (or f*(t)) over the cells' right ends
        t = k h^2, k = 1..n, the moduli s taken from the top."""
        v = s[::-1]
        t = h2 * np.arange(1, v.size + 1)
        f = np.cumsum(v * h2) / t if normed else v
        return float((f * t ** (1.0 / p)).max())

    @staticmethod
    def per_cell_power(s, h2, p, q, normed):
        """||f||^q = int_0^inf (t^{1/p} f**(t))^q dt/t (or f*) cell by cell,
        the moduli s taken from the top.  With f* each cell's integral is
        closed.  With f** = c + D/t on the k-th cell [a, b]: the first cell
        (D = 0) is closed, every other one takes 32-point Gauss-Legendre
        (b/a <= 2, so f** is smooth there), and the A/t tail is added."""
        v = s[::-1]
        a = h2 * np.arange(v.size)
        b = a + h2
        if not normed:
            return float(np.sum(v ** q * (b ** (q / p) - a ** (q / p))) * p / q)
        S = np.concatenate([[0.0], np.cumsum(v * h2)])
        D = S[:-1] - v * a
        x, w = np.polynomial.legendre.leggauss(32)
        t = (a + 0.5 * h2)[:, None] + 0.5 * h2 * x[None, :]
        f = (v[:, None] + D[:, None] / t) ** q * t ** (q / p - 1)
        cells = 0.5 * h2 * (f @ w)
        cells[0] = v[0] ** q * h2 ** (q / p) * p / q
        tail = S[-1] ** q * b[-1] ** (q / p - q) * p / (q * (p - 1))
        return float(cells.sum() + tail)

    @classmethod
    def assert_same_bits(cls, f, domain=None, grid=None):
        g = grid if domain is None else domain.grid
        m = np.ones((g.N, g.N), dtype=bool) if domain is None else domain.mask
        s = np.sort(np.abs(f[m]))
        h2 = g.cell_measure
        for p in (2.0, 1.5, 3.0):
            for normed in (True, False):
                for q in (1.0, 2.0, 1.5, 40.0, np.inf):
                    idx = LorentzIndex(p, q, normed)
                    got = norm_of_sorted(s, h2, idx)
                    assert lorentz_norm(f, idx, domain, grid).hex() == got.hex()
                    if math.isinf(q):
                        assert got.hex() == cls.per_cell(s, h2, p, normed).hex()
                    else:
                        want = cls.per_cell_power(s, h2, p, q, normed) ** (1.0 / q)
                        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("block", [7, 1 << 13, 1 << 14])
    @pytest.mark.parametrize("radius", [0.55, 0.8, 1.1])
    def test_random_fields(self, monkeypatch, block, radius):
        # masks of 164 to 43228 cells, none a multiple of the block
        monkeypatch.setattr(lorentz_module, "_BLOCK", block)
        g = make_grid(1.2, 256 if block > 7 else 32)
        d = make_domain(g, Disk(0j, radius))
        assert d.mask.sum() % block
        self.assert_same_bits(random_field(g, 4), domain=d)
        self.assert_same_bits(random_field(g, 5), grid=g)

    @pytest.mark.parametrize("block", [7, 1 << 13, 1 << 14])
    def test_ties_across_block_edges(self, monkeypatch, block):
        monkeypatch.setattr(lorentz_module, "_BLOCK", block)
        N = 256 if block > 7 else 32
        g = make_grid(1.0, N)
        rng = np.random.default_rng(9)
        for levels in (3, 40):
            f = rng.integers(0, levels, size=(N, N)) * 0.25 + 0j
            v = np.sort(np.abs(f).ravel())[::-1]
            # a run of ties holds the values on either side of a block edge
            assert any(v[k - 1] == v[k] for k in range(block, v.size, block))
            self.assert_same_bits(f, grid=g)

    @pytest.mark.parametrize("block", [7, 1 << 13])
    def test_long_runs_below_short_ones(self, monkeypatch, block):
        # runs of 1, 2 and 4093 cells: the last step ends 1365 times as
        # far from t = 0 as it begins, and f** = c + D/t is no one power of
        # t on it
        monkeypatch.setattr(lorentz_module, "_BLOCK", block)
        g = make_grid(1.0, 64)
        f = np.repeat([5.0, 3.0, 1.0], [1, 2, 4093]).reshape(64, 64)
        self.assert_same_bits(f, grid=g)

    def test_constant_single_cell_and_zero(self):
        g = make_grid(1.0, 64)
        self.assert_same_bits(np.full((64, 64), 2.5 - 1j), grid=g)
        one = make_domain(make_grid(1.0, 8), Disk(0.125 + 0.375j, 0.1))
        assert one.mask.sum() == 1
        self.assert_same_bits(np.full((8, 8), 3.0 + 4.0j), domain=one)
        zero = np.zeros((64, 64))
        for idx in (L2W, L21, LorentzIndex(2, 1.5, normed=False)):
            assert norm_of_sorted(np.zeros(4096), g.cell_measure, idx) == 0.0
            assert lorentz_norm(zero, idx, grid=g) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        g = make_grid(1.0, 64)
        f = np.ones((64, 64))
        f[5, 7] = bad
        for idx in (L2W, L21):
            for fn in (lambda: lorentz_norm(f, idx, grid=g),
                       lambda: norm_of_sorted(np.sort(np.abs(f).ravel()), g.cell_measure, idx)):
                with pytest.raises(NormError, match="^field contains NaN or infinite samples$"):
                    fn()


class TestSobolevLorentz:
    def test_constant(self, disk128):
        f = np.full((128, 128), 2.0 + 1.0j)
        k1 = sobolev_lorentz_norm(f, L21, 1, domain=disk128)
        k0 = lorentz_norm(f, L21, domain=disk128)
        assert k1 == pytest.approx(k0, rel=1e-12)

    def test_linear_on_square(self, square256):
        g = square256.grid
        idx = LorentzIndex(2, 2, normed=False)
        val = sobolev_lorentz_norm(g.X.astype(complex), idx, 1, domain=square256)
        expect = 1 / math.sqrt(3) + 1.0
        assert abs(val - expect) <= 3 * g.h

    def test_linear_on_full_grid(self):
        # x has gradient (1, 0) up to the grid edge, which must not be
        # differenced against the opposite edge
        g = make_grid(1.0, 64)
        val = sobolev_lorentz_norm(g.X, L21, 1, grid=g)
        want = lorentz_norm(g.X, L21, grid=g) + lorentz_norm(np.ones((64, 64)), L21, grid=g)
        assert val == pytest.approx(want, rel=1e-12)

    def test_zero(self, disk128):
        assert sobolev_lorentz_norm(np.zeros((128, 128)), L21, 1, domain=disk128) == 0.0

    def test_k_limit(self, disk128):
        with pytest.raises(NormError):
            sobolev_lorentz_norm(np.ones((128, 128)), L21, 2, domain=disk128)


class TestBessel:
    def test_s_zero_bitwise(self, disk128):
        f = random_field(disk128.grid, 9)
        a = bessel_norm(f, 0.0, L21, disk128)
        b = lorentz_norm(disk128.restrict(f), L21, grid=disk128.grid)
        assert a == b

    def test_gaussian_h12(self):
        g = make_grid(4.0, 256)
        Q = np.exp(-np.abs(g.Z) ** 2)
        idx = LorentzIndex(2, 2, normed=False)
        val = bessel_norm(Q, 1.0, idx, grid=g)
        assert val == pytest.approx(math.sqrt(3 * np.pi / 2), rel=0.01)

    def test_monotone_in_s(self):
        g = make_grid(2.0, 64)
        Q = np.exp(-2 * np.abs(g.Z - 0.2) ** 2)
        idx = LorentzIndex(2, 2, normed=False)
        vals = [bessel_norm(Q, s, idx, grid=g) for s in (0.0, 0.25, 0.5, 1.0, 2.0)]
        assert all(vals[i] <= vals[i + 1] * (1 + 1e-12) for i in range(len(vals) - 1))


class TestUnitMeasureIndicator:
    def test_norm_is_exactly_four(self, square256):
        # the aligned unit square has mask measure exactly 1
        assert square256.measure == 1.0
        val = lorentz_norm(square256.mask.astype(complex), L21, domain=square256)
        assert val == pytest.approx(4.0, rel=1e-12)


class TestDomainGrid:
    """A norm given a domain reads the field on the domain's grid; a grid
    given beside it must be that grid."""

    NORMS = {
        "lorentz_norm": lambda f, **kw: lorentz_norm(f, L21, **kw),
        "sobolev_lorentz_norm": lambda f, **kw: sobolev_lorentz_norm(f, L21, 1, **kw),
        "bessel_norm": lambda f, **kw: bessel_norm(f, 0.5, L21, **kw),
    }

    @pytest.mark.parametrize("name", sorted(NORMS))
    def test_mismatched_grid_rejected(self, disk128, name):
        f = random_field(disk128.grid, 11)
        with pytest.raises(NormError):
            self.NORMS[name](f, domain=disk128, grid=make_grid(2.0, 128))

    @pytest.mark.parametrize("name", sorted(NORMS))
    def test_domain_grid_accepted(self, disk128, name):
        f = random_field(disk128.grid, 11)
        norm = self.NORMS[name]
        assert norm(f, domain=disk128, grid=make_grid(1.2, 128)) == norm(f, domain=disk128)

    @pytest.mark.parametrize("name", sorted(NORMS))
    def test_needs_domain_or_grid(self, disk128, name):
        with pytest.raises(NormError):
            self.NORMS[name](random_field(disk128.grid, 11))


class TestEmbeddingH121:
    """H^{1,(2,1)} embeds in C^0: sup |f| <= ||grad f||_{2,1} / (2 sqrt(pi))
    for compactly supported f on R^2, the (2, 1) seminorm built from f*
    (Stein, Ann. of Math. 113, 1981), and the constant is sharp along
    f_eps = clip(ln(1/|z|) / ln(1/eps), 0, 1): sup f_eps = 1,
    ||grad f_eps||_{2,1} = 2 sqrt(pi) asinh(sqrt(eps^-2 - 1)) / ln(1/eps) -> 2 sqrt(pi),
    while ||grad f_eps||_2 = sqrt(2 pi / ln(1/eps)) -> 0."""

    S21 = LorentzIndex(2, 1, normed=False)
    # relative error of the discrete (2, 1) norm of the family for eps >= 10h:
    # 0.2% to 1.4% at L = 1.2 and N in {256, 1024}, worst at eps = 10.7h
    TOL = 0.02

    @staticmethod
    def grad_abs(f, g):
        fx, fy = masked_gradient(f.astype(complex), np.ones(f.shape, dtype=bool), g.h)
        return np.abs(fx + 1j * fy)

    @classmethod
    def family(cls, N, eps):
        """(sup f, ||grad_h f||_{2,1}, ||grad_h f||_2) of f_eps at L = 1.2."""
        g = make_grid(1.2, N)
        with np.errstate(divide="ignore"):
            f = np.clip(np.log(1.0 / np.abs(g.Z)) / math.log(1.0 / eps), 0.0, 1.0)
        G = cls.grad_abs(f, g)
        return (f.max(), lorentz_norm(G, cls.S21, grid=g),
                math.sqrt(g.cell_measure * np.sum(G ** 2)))

    @pytest.mark.parametrize("N, eps", [(256, 0.3), (256, 0.1),
                                        (1024, 0.3), (1024, 0.1), (1024, 0.03)])
    def test_family_norm_closed_form(self, N, eps):
        assert eps >= 10 * 2.4 / N
        _, n21, _ = self.family(N, eps)
        exact = 2 * math.sqrt(math.pi) * math.asinh(math.sqrt(eps ** -2 - 1)) / math.log(1 / eps)
        assert n21 == pytest.approx(exact, rel=self.TOL)

    def test_l2_ratio_grows_while_21_ratio_stays_bounded(self):
        epss = (0.3, 0.1, 0.03, 0.01)
        rows = [self.family(1024, eps) for eps in epss]
        l2_ratio = [s / l2 for s, _, l2 in rows]
        assert all(s == 1.0 for s, _, _ in rows)
        assert all(b > a for a, b in zip(l2_ratio, l2_ratio[1:]))
        for r, eps in zip(l2_ratio, epss):
            assert r == pytest.approx(math.sqrt(math.log(1 / eps) / (2 * math.pi)), rel=self.TOL)
        assert all(s / n21 < 1 / (2 * math.sqrt(math.pi)) for s, n21, _ in rows)

    def test_sup_bound_on_sums_of_bumps(self):
        # sums of one to five bumps exp(1 - 1/(1 - rho^2)), rho = |z - c| / r,
        # r >= 10h, supported inside the grid: the largest ratio measured over
        # these seeds is 0.65 of the bound
        N = 256
        g = make_grid(1.2, N)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            f = np.zeros((N, N))
            for _ in range(rng.integers(1, 6)):
                c = complex(*rng.uniform(-0.6, 0.6, size=2))
                rho2 = np.abs(g.Z - c) ** 2 / rng.uniform(0.1, 0.4) ** 2
                inside = rho2 < 1
                amplitude = rng.choice([-1, 1]) * rng.uniform(0.5, 2)
                f[inside] += amplitude * np.exp(1 - 1 / (1 - rho2[inside]))
            n21 = lorentz_norm(self.grad_abs(f, g), self.S21, grid=g)
            assert np.abs(f).max() <= (1 + self.TOL) * n21 / (2 * math.sqrt(math.pi))
