import math

import numpy as np
import pytest

from bklab import Disk, Polygon, make_domain, make_grid
from bklab.cutoffs import (annulus_kernel_bounds, annulus_kernel_norms,
                           annulus_majorization, build_h1, build_h2,
                           h1_defect_l1, h1_report, h2_scales,
                           mollifier_dbar_l1, tune_h2, _mollify)
from bklab.errors import BklabError, GridError, MollifierResolutionError
from bklab.util import fit_loglog

Z0 = 0.1 + 0.05j

# fitted once on the unit disk at N=256 and frozen (defect bound constant)
C_DISK_DEFECT = 15.0


class TestH1:
    def test_outer_branch_exact(self, disk256):
        g = disk256.grid
        b = build_h1(g, Z0, 9.0)          # eps = 1/3
        outer = np.abs(g.Z - Z0) > 2 * b.eps
        prod = np.conj(g.Z - Z0) * b.h
        assert np.abs(prod[outer] - 1.0).max() < 1e-13
        assert np.abs(b.defect[outer]).max() == 0.0

    def test_defect_l1_bound(self, disk256):
        for tau in (1.0, 4.0, 16.0, 64.0, 256.0):
            val = h1_defect_l1(disk256, Z0, tau)
            assert val <= (np.pi / 3) / tau * (1 + 1e-9)

    def test_defect_l1_matches_grid_sum(self, disk256):
        for tau in (4.0, 16.0):
            b = build_h1(disk256.grid, Z0, tau)
            exact = h1_defect_l1(disk256, Z0, tau)
            assert b.defect_l1_grid(disk256) == pytest.approx(exact, rel=2e-3)

    def test_defect_near_boundary_strictly_smaller(self, disk256):
        # support ball sticking out of the domain cuts the defect mass
        tau = 4.0
        z_near = 0.9 + 0.25j
        val = h1_defect_l1(disk256, z_near, tau)
        assert val < (np.pi / 3) / tau * 0.9

    def test_combined_w11_bound(self, disk256):
        for tau in (1.0, 4.0, 16.0, 64.0):
            rep = h1_report(build_h1(disk256.grid, Z0, tau), disk256, tau)
            assert rep["combined"] <= rep["combined_bound"]

    def test_tau_below_one_rejected(self, disk256):
        with pytest.raises(BklabError):
            build_h1(disk256.grid, Z0, 0.5)

    def test_polygon_defect_fallback(self, square256):
        tau = 16.0
        val = h1_defect_l1(square256, 0.5 + 0.5j, tau)
        assert val == pytest.approx((np.pi / 3) / tau, rel=5e-3)

    @pytest.mark.parametrize("read", [
        lambda b, d: b.sup_norm(d),
        lambda b, d: b.defect_l1_grid(d),
        lambda b, d: b.defect_l21(d),
        lambda b, d: b.dbar_l21(d),
        lambda b, d: h1_report(b, d, 16.0),
    ], ids=["sup_norm", "defect_l1_grid", "defect_l21", "dbar_l21", "h1_report"])
    def test_domain_on_another_grid_rejected(self, read):
        # same N, other L: the masks line up with the arrays but not the cells
        bundle = build_h1(make_grid(1.2, 64), Z0, 16.0)
        domain = make_domain(make_grid(2.0, 64), Disk(0j, 1.0))
        with pytest.raises(GridError):
            read(bundle, domain)


class TestH2:
    def test_support_zeros_exact(self, disk256):
        eps, delta = 0.08, 0.12
        b = build_h2(disk256, Z0, eps, delta)
        g = disk256.grid
        near_boundary = disk256.mask & (disk256.distance < eps)
        in_ball = np.abs(g.Z - Z0) < delta
        assert np.abs(b.h[near_boundary]).max() == 0.0
        assert np.abs(b.h[in_ball]).max() == 0.0

    def test_sup_bound(self, disk256):
        for eps, delta in ((0.06, 0.1), (0.1, 0.2), (0.08, 0.08)):
            b = build_h2(disk256, Z0, eps, delta)
            assert b.sup_norm(disk256) <= 1.0 / delta

    def test_defect_bound_fitted(self, disk256):
        for eps, delta in ((0.06, 0.1), (0.1, 0.15), (0.05, 0.3), (0.15, 0.1),
                           (0.08, 0.08)):
            b = build_h2(disk256, Z0, eps, delta)
            assert b.defect_l21(disk256) <= C_DISK_DEFECT * math.sqrt(delta ** 2 + eps)

    def test_mollifier_derivative_bound(self, disk256):
        g = disk256.grid
        eps = 0.08
        eroded = disk256.mask & (disk256.distance > 2 * eps)
        _, dchi = _mollify(eroded, eps, g)
        assert np.abs(dchi).max() <= 1.05 * mollifier_dbar_l1() / eps

    def test_unresolvable_scale(self, disk256):
        with pytest.raises(MollifierResolutionError):
            build_h2(disk256, Z0, 2 * disk256.grid.h, 0.1)


class TestTuned:
    def test_scales_arithmetic(self):
        eps, delta = h2_scales(1.0)
        assert eps == 1.0 and delta == 1.0
        eps, delta = h2_scales(8.0)
        assert eps == pytest.approx(0.25) and delta == pytest.approx(0.5)

    def test_composite_slope(self):
        g = make_grid(3.4, 1024)
        d = make_domain(g, Disk(0j, 3.0))
        taus = [4.0, 8.0, 16.0, 32.0, 64.0, 128.0]
        vals = [tune_h2(d, 0.2 + 0.1j, t)[1] for t in taus]
        assert fit_loglog(taus, vals).slope <= 0.70

    def test_zero_set_monotone_inclusion(self, disk256):
        # growing tau shrinks the exact-zero region as a set, not just in
        # measure
        prev = None
        for tau in (8.0, 16.0, 32.0, 64.0):
            b, _ = tune_h2(disk256, Z0, tau)
            zeros = disk256.mask & (b.h == 0)
            if prev is not None:
                assert not np.any(zeros & ~prev)
            prev = zeros

    def test_unresolvable_tau(self, disk128):
        with pytest.raises(MollifierResolutionError):
            tune_h2(disk128, Z0, 128.0)


class TestAnnulusKernels:
    def test_bounds_hold_over_sweep(self, disk256):
        # exclusion radii resolved by the grid (rho >= ~8h); at rho ~ 4h the
        # near-edge cell samples overshoot the continuum distribution
        area = disk256.measure
        for rho in np.linspace(0.1, 0.95, 10):
            n1, n2 = annulus_kernel_norms(disk256, Z0, rho)
            b1, b2 = annulus_kernel_bounds(area, rho)
            assert n1 <= b1
            assert n2 <= b2

    def test_empty_region(self, disk256):
        n1, n2 = annulus_kernel_norms(disk256, Z0, 4.0)
        assert n1 == 0.0 and n2 == 0.0

    def test_annulus_majorization(self):
        domains = [
            make_domain(make_grid(1.2, 256), Disk(0.25 + 0.1j, 0.7)),
            make_domain(make_grid(1.28, 256), Polygon((0j, 1 + 0j, 1 + 1j, 1j))),
            make_domain(make_grid(1.0, 256),
                        Polygon((-0.6 - 0.5j, 0.7 - 0.3j, 0.1 + 0.6j))),
        ]
        integrands = [lambda r: 1.0 / np.maximum(r, 1e-12),
                      lambda r: np.exp(-3 * r),
                      lambda r: 1.0 / (1.0 + r) ** 2]
        for dom in domains:
            for fn in integrands:
                lhs, rhs = annulus_majorization(dom, 0.05 + 0.02j, fn, 0.05)
                assert lhs <= rhs * (1 + 2e-2)
