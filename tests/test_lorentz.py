import math

import numpy as np
import pytest

from bklab import (Disk, LorentzIndex, bessel_norm, lorentz_norm, make_domain,
                   make_grid, rearrange, sobolev_lorentz_norm)
from bklab.errors import NormError
from bklab.lorentz import indicator_norm, ms_surrogate

L21 = LorentzIndex(2, 1)
L2W = LorentzIndex(2, np.inf)


def random_field(grid, seed, smooth=False):
    rng = np.random.default_rng(seed)
    f = rng.normal(size=(grid.N, grid.N)) + 1j * rng.normal(size=(grid.N, grid.N))
    if smooth:
        f = np.fft.ifft2(np.fft.fft2(f) * np.exp(-0.05 * np.arange(grid.N) ** 2)[None, :])
    return f


class TestRearrange:
    def test_indicator(self, disk128):
        g = disk128.grid
        E = (np.abs(g.Z - 0.2) < 0.28)          # m(E) close to 0.25
        sr = rearrange(E.astype(complex), grid=g)
        mE = g.cell_measure * E.sum()
        assert np.all(sr.f_star(np.array([0.0, mE * 0.999])) == 1.0)
        assert np.all(sr.f_star(np.array([mE * 1.001, 2 * mE])) == 0.0)

    def test_constant_on_domain(self, disk128):
        f = np.full((128, 128), 3.5 + 0j)
        sr = rearrange(f, domain=disk128)
        assert sr.values[0] == 3.5
        assert sr.total_measure == pytest.approx(disk128.measure)

    def test_kernel_rearrangement_analytic(self):
        # f = 1/(pi |z|) on the unit disk: f*(s) = (pi s)^{-1/2}
        g = make_grid(1.1, 512)
        d = make_domain(g, Disk(0j, 1.0))
        vals = np.zeros_like(g.Z)
        nz = np.abs(g.Z) > 0
        vals[nz] = 1.0 / (np.pi * np.abs(g.Z[nz]))
        sr = rearrange(vals, domain=d)
        for s in (0.1, 1.0, 2.0):
            assert sr.f_star(s)[0] == pytest.approx((np.pi * s) ** -0.5, rel=0.02)

    def test_equimeasurability(self, disk128):
        f = random_field(disk128.grid, 7)
        sr = rearrange(f, domain=disk128)
        h2 = disk128.grid.cell_measure
        for r in (1.0, 2.0, 3.0):
            direct = h2 * np.sum(np.abs(f[disk128.mask]) ** r)
            assert sr.power_sum(r) == pytest.approx(direct, rel=1e-12)

    def test_distribution_function(self, disk128):
        f = random_field(disk128.grid, 8)
        sr = rearrange(f, domain=disk128)
        h2 = disk128.grid.cell_measure
        for lam in (0.5, 1.0, 2.0):
            direct = h2 * np.sum(np.abs(f[disk128.mask]) > lam)
            assert sr.distribution(lam) == pytest.approx(direct, abs=1e-12)

    def test_rejects_nan(self, disk128):
        f = np.zeros((128, 128), dtype=complex)
        f[64, 64] = np.nan
        with pytest.raises(NormError):
            rearrange(f, domain=disk128)


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

    def test_zero_field(self, disk128):
        assert lorentz_norm(np.zeros((128, 128)), L21, domain=disk128) == 0.0

    def test_bad_p(self):
        with pytest.raises(NormError):
            LorentzIndex(1.0, 2.0)


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
        "ms_surrogate": lambda f, **kw: ms_surrogate(f, 0.5, **kw),
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
