import math

import numpy as np
import pytest

from bklab import (LorentzIndex, beurling, boundary_cauchy, cauchy,
                   conj_cauchy, ibp_check, lorentz_norm, make_grid,
                   wirtinger)
from bklab.cauchy import get_plan
from bklab.errors import GridError


def smooth_bump(grid, center=0j, radius=1.0):
    r2 = np.abs(grid.Z - center) ** 2 / radius ** 2
    out = np.zeros(grid.Z.shape)
    inside = r2 < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    return out.astype(complex)


class TestCauchy:
    def test_zero(self):
        g = make_grid(1.0, 64)
        assert np.abs(cauchy(np.zeros((64, 64)), grid=g)).max() == 0.0

    def test_linearity(self):
        g = make_grid(1.0, 64)
        rng = np.random.default_rng(0)
        f1 = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        f2 = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        lhs = cauchy(2.0 * f1 - 1.5j * f2, grid=g)
        rhs = 2.0 * cauchy(f1, grid=g) - 1.5j * cauchy(f2, grid=g)
        assert np.abs(lhs - rhs).max() < 1e-12 * np.abs(rhs).max()

    def test_ball_indicator_closed_form(self):
        g = make_grid(1.5, 256)
        ball = (np.abs(g.Z) < 1.0).astype(complex)
        got = cauchy(ball, grid=g)
        exact = np.where(np.abs(g.Z) <= 1.0, np.conj(g.Z), 1.0 / g.Z)
        err = np.abs(got - exact).max()
        assert err <= 10 * g.h * math.log(1 / g.h)

    def test_conjugation_symmetry_bitwise(self):
        g = make_grid(1.0, 64)
        rng = np.random.default_rng(1)
        f = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        assert np.array_equal(conj_cauchy(f, grid=g),
                              np.conj(cauchy(np.conj(f), grid=g)))

    def test_translation_equivariance(self):
        g = make_grid(1.5, 128)
        f = smooth_bump(g, center=-0.2, radius=0.5)
        fs = np.roll(f, 1, axis=1)         # shift by one cell in x
        a = np.roll(cauchy(f, grid=g), 1, axis=1)
        b = cauchy(fs, grid=g)
        # exact once the rolled-out column (zero anyway for compact f) is ignored
        assert np.abs((a - b)[:, 1:]).max() < 1e-13

    def test_grid_mismatch(self):
        g = make_grid(1.0, 64)
        with pytest.raises(GridError):
            cauchy(np.zeros((32, 32)), g)

    def test_inverse_property_order(self):
        errs = []
        for N in (64, 128, 256):
            g = make_grid(1.5, N)
            phi = smooth_bump(g)
            dcp = wirtinger(cauchy(phi, grid=g), "dbar", g, method="fd")
            errs.append(np.abs(dcp - phi)[3:-3, 3:-3].max())
        order = math.log2(errs[0] / errs[2]) / 2
        assert order >= 0.9

    def test_bc_bound_from_21_norm(self):
        g = make_grid(1.0, 64)
        idx = LorentzIndex(2, 1)
        rng = np.random.default_rng(3)
        for seed in range(5):
            f = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
            f[np.abs(g.Z) > 0.8] = 0.0
            sup = np.abs(cauchy(f, grid=g)).max()
            assert sup <= (2 / math.sqrt(np.pi)) * 1.05 * lorentz_norm(f, idx, grid=g)


class TestWirtinger:
    def test_zbar_fd(self):
        g = make_grid(1.0, 64)
        f = np.conj(g.Z)
        db = wirtinger(f, "dbar", g, method="fd")
        d = wirtinger(f, "d", g, method="fd")
        inner = (slice(2, -2), slice(2, -2))
        assert np.abs(db[inner] - 1.0).max() < 1e-12
        assert np.abs(d[inner]).max() < 1e-12

    def test_z_squared_fd(self):
        # exact on every cell: the grid edge is differenced one-sided
        g = make_grid(1.0, 64)
        d = wirtinger(g.Z ** 2, "d", g, method="fd")
        assert np.abs(d - 2 * g.Z).max() < 1e-10

    def test_phase_chain_rule_spectral(self):
        # dbar(phi e^{i tau R}) = (dbar phi + 2 i tau conj(z - z0) phi) e^{i tau R},
        # checked with a compactly supported window so spectral accuracy applies
        tau, z0 = 5.0, 0.15 + 0.1j
        g = make_grid(1.0, 1024)
        phi = smooth_bump(g, radius=0.75)
        R = 2 * ((g.X - z0.real) ** 2 - (g.Y - z0.imag) ** 2)
        f = phi * np.exp(1j * tau * R)
        got = wirtinger(f, "dbar", g, method="spectral")
        dphi = wirtinger(phi, "dbar", g, method="spectral")
        expect = (dphi + 2j * tau * np.conj(g.Z - z0) * phi) * np.exp(1j * tau * R)
        scale = np.abs(expect).max()
        assert np.abs(got - expect).max() / scale < 1e-6


class TestBeurling:
    def test_zero(self):
        g = make_grid(1.0, 64)
        assert np.abs(beurling(np.zeros((64, 64)), grid=g)).max() == 0.0

    def test_ball_indicator(self):
        g = make_grid(1.5, 256)
        ball = (np.abs(g.Z) < 1.0).astype(complex)
        got = beurling(ball, grid=g)
        bound = 10 * g.h * math.log(1 / g.h)
        inside = np.abs(g.Z) < 1.0 - 3 * g.h
        outside = (np.abs(g.Z) > 1.0 + 3 * g.h) & (np.abs(g.Z) < 1.4)
        assert np.abs(got[inside]).max() <= bound
        assert np.abs(got[outside] + 1.0 / g.Z[outside] ** 2).max() <= bound

    def test_l2_isometry_on_gaussian(self):
        g = make_grid(2.0, 128)
        f = np.exp(-4 * np.abs(g.Z) ** 2).astype(complex)
        ratio = (np.linalg.norm(beurling(f, grid=g)) / np.linalg.norm(f))
        assert 0.9 <= ratio <= 1.1


class TestBoundaryCauchy:
    def test_circle_constant(self, disk256):
        field, valid = boundary_cauchy(lambda z: np.ones_like(z), disk256)
        g = disk256.grid
        inside = (np.abs(g.Z) < 1 - 2 * g.h)
        outside = (np.abs(g.Z) > 1 + 2 * g.h)
        assert np.abs(field[inside & valid] + 1.0).max() <= 1e-3
        assert np.abs(field[outside & valid]).max() <= 1e-3

    def test_zero_trace(self, disk256):
        field, _ = boundary_cauchy(np.zeros(disk256.nodes.size), disk256)
        assert np.abs(field).max() == 0.0

    def test_weak_norm_bound(self, disk256):
        # Minkowski with the normed weak-L2 kernel norm gives
        # ||.||_{(2,inf)} <= pi^{-1/2} ||g||_{L1}; the indicator trace shows
        # this is attained up to grid effects, so it is the sharp constant.
        idx = LorentzIndex(2, np.inf)
        rng = np.random.default_rng(5)
        for seed in range(3):
            gv = rng.normal(size=disk256.nodes.size) \
                + 1j * rng.normal(size=disk256.nodes.size)
            field, valid = boundary_cauchy(gv, disk256)
            l1 = float(np.sum(np.abs(gv) * disk256.weights))
            val = lorentz_norm(np.where(valid, field, 0), idx, grid=disk256.grid)
            assert val <= l1 / math.sqrt(np.pi) * 1.05

    def test_indicator_trace_near_sharp(self, disk256):
        field, valid = boundary_cauchy(lambda z: np.ones_like(z), disk256)
        val = lorentz_norm(np.where(valid, field, 0), LorentzIndex(2, np.inf),
                           grid=disk256.grid)
        # exact field is -chi_ball with weak norm sqrt(pi) = (1/2)/sqrt(pi) * ||g||_1
        assert val == pytest.approx(math.sqrt(np.pi), rel=0.02)


class TestIbp:
    def test_constant(self, disk256):
        res = ibp_check(disk256, lambda z: np.ones_like(z),
                        lambda z: np.zeros_like(z))
        assert res <= 1e-2

    def test_zbar(self, disk256):
        g = disk256.grid
        res = ibp_check(disk256, lambda z: np.conj(z),
                        lambda z: np.ones_like(z))
        assert res <= 10 * g.h * math.log(1 / g.h)

    def test_zero(self, disk256):
        res = ibp_check(disk256, lambda z: np.zeros_like(z),
                        lambda z: np.zeros_like(z))
        assert res == 0.0


class TestPlan:
    def test_cached_and_shared(self):
        g = make_grid(1.0, 64)
        assert get_plan(g) is get_plan(make_grid(1.0, 64))

    def test_origin_sample_is_zero(self):
        # the mean of 1/(pi z) over the centered origin cell vanishes by
        # odd symmetry; the plan encodes that as an exactly zero sample
        g = make_grid(1.0, 32)
        K = np.fft.ifft2(get_plan(g).kernel_hat)
        assert abs(K[0, 0]) <= 1e-12 * np.abs(K).max()

    @pytest.mark.parametrize("N", [8, 32, 128])
    def test_pruned_matches_full_padded_fft(self, N):
        # reference: zero-pad to 2N x 2N, full 2-D FFTs, crop to N x N
        g = make_grid(1.0, N)
        plan = get_plan(g)
        rng = np.random.default_rng(N)
        f = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))

        def padded(f, symbol=1.0):
            fp = np.zeros((2 * N, 2 * N), dtype=complex)
            fp[:N, :N] = f
            prod = np.fft.fft2(fp) * plan.kernel_hat * symbol
            return (np.fft.ifft2(prod) * g.cell_measure)[:N, :N]

        for got, want in ((plan.apply(f), padded(f)),
                          (plan.apply_beurling(f), padded(f, plan.d_symbol)),
                          (conj_cauchy(f, g), np.conj(padded(np.conj(f))))):
            assert got.shape == (N, N)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
