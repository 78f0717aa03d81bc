import importlib
import math

import numpy as np
import pytest

from bklab import (LorentzIndex, beurling, boundary_cauchy, cauchy,
                   conj_cauchy, ibp_check, lorentz_norm, make_grid,
                   wirtinger)
from bklab.cauchy import ConvolutionPlan, _cauchy_kernel, _padded_length, get_plan
from bklab.errors import GridError

# the package re-exports the function cauchy under the module's name
cauchy_module = importlib.import_module("bklab.cauchy")


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
            dcp = wirtinger(cauchy(phi, grid=g), "dbar", g)
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
        db = wirtinger(f, "dbar", g)
        d = wirtinger(f, "d", g)
        inner = (slice(2, -2), slice(2, -2))
        assert np.abs(db[inner] - 1.0).max() < 1e-12
        assert np.abs(d[inner]).max() < 1e-12

    def test_z_squared_fd(self):
        # exact on every cell: the grid edge is differenced one-sided
        g = make_grid(1.0, 64)
        d = wirtinger(g.Z ** 2, "d", g)
        assert np.abs(d - 2 * g.Z).max() < 1e-10


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

    # at N = 512 the transform walks its buffer in several row blocks.  The
    # box plans of side n pad to M = 64, 224 and 448; at n = 218 the blocks
    # of 146 rows divide neither n nor M, so each pass ends on a short block
    @pytest.mark.parametrize("N, n", [(8, 8), (32, 32), (128, 128), (512, 512),
                                      (32, 30), (128, 110), (256, 218)],
                             ids=["8", "32", "128", "512",
                                  "32-box30", "128-box110", "256-box218"])
    def test_pruned_matches_full_padded_fft(self, N, n):
        # reference: zero-pad to 2N x 2N, full 2-D FFTs, crop to N x N.  A
        # plan of an n x n box gives the full transform cropped to the box
        g = make_grid(1.0, N)
        plan = get_plan(g)
        rng = np.random.default_rng(N)
        f = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))

        def padded(f, symbol=1.0):
            fp = np.zeros((2 * N, 2 * N), dtype=complex)
            fp[:N, :N] = f
            prod = np.fft.fft2(fp) * plan.kernel_hat * symbol
            return (np.fft.ifft2(prod) * g.cell_measure)[:N, :N]

        # the symbol of d = (d_x - i d_y)/2 on the padded grid, (xi_y, xi_x)
        xi = 2 * np.pi * np.fft.fftfreq(2 * N, d=g.h)
        dsym = 0.5 * (1j * xi[None, :] + xi[:, None])
        for got, want in ((plan.apply(f), padded(f)),
                          (plan.apply_beurling(f), padded(f, dsym)),
                          (conj_cauchy(f, g), np.conj(padded(np.conj(f))))):
            assert got.shape == (N, N)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        if n < N:
            box = np.s_[(N - n) // 2:(N - n) // 2 + n, N - n:]
            fb = np.zeros_like(f)
            fb[box] = f[box]
            box_plan = get_plan(g, n)
            assert box_plan.n == n
            for got, want in ((box_plan.apply(f[box]), plan.apply(fb)[box]),
                              (box_plan.apply_conj(f[box]), conj_cauchy(fb, g)[box])):
                assert got.shape == (n, n)
                assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    def test_padded_length_rule(self):
        # the smallest 2^a c >= 2n - 1, c in {1, 3, 5, 7}; the full grid pads
        # to 2N, and the 11-smooth 440 is not a candidate
        for N in (8, 64, 1024):
            assert _padded_length(N, N) == 2 * N
        assert [_padded_length(n, 256) for n in (30, 110, 218, 250)] == [64, 224, 448, 512]
        assert _padded_length(5, 8) == 10 and _padded_length(1, 8) == 1

    def test_apply_working_set(self, traced_peak):
        # one 2N x N buffer, the N x N output and a block of rows.  The
        # Beurling symbol is formed a block at a time, so the first call on
        # a fresh plan peaks no higher.  The plan keeps half the spectrum:
        # no (2N)^2 array, and about half of one in all
        N = 512
        plan = ConvolutionPlan(make_grid(1.0, N))
        f = np.random.default_rng(0).normal(size=(N, N)).astype(complex)
        for apply in (plan.apply, plan.apply_beurling):
            assert traced_peak(lambda: apply(f)) <= 4 * N * N * 16
        held = [a for a in vars(plan).values() if isinstance(a, np.ndarray)]
        assert all(a.size < (2 * N) ** 2 for a in held)
        assert sum(a.nbytes for a in held) <= 0.51 * (2 * N) ** 2 * 16

    def test_apply_xy_working_set(self, traced_peak):
        # the 2N x N buffer and a block of rows: no N x N array beside them
        N = 512
        plan = ConvolutionPlan(make_grid(1.0, N))
        f = np.random.default_rng(0).normal(size=(N, N)).astype(complex)

        def fill(x):
            x[...] = f.T

        assert traced_peak(lambda: plan.apply_xy(fill)) <= 2.5 * N * N * 16

    def test_plan_build_working_set(self, traced_peak):
        # the half spectrum and sample buffers that share one 1 MB block
        # whatever the worker count: the build never holds the (2N)^2 array
        N = 512
        g = make_grid(1.0, N)
        assert traced_peak(lambda: ConvolutionPlan(g)) <= 0.75 * (2 * N) ** 2 * 16

    @pytest.mark.parametrize("N, n", [(64, 64), (512, 512), (256, 218)],
                             ids=["64", "512", "256-box218"])
    def test_spectrum_matches_contiguous_fft2(self, N, n, monkeypatch):
        # the plan samples and transforms blocks of y-columns along x, then
        # the half's rows along y, spread over the workers; the same 1-D
        # passes on contiguous arrays of the y-truncated samples give the
        # same bits
        g = make_grid(1.0, N)
        M = _padded_length(n, N)
        k = np.arange(M)
        k = np.where(k < max(n, M - n), k, k - M)
        d = k * g.h
        w = _cauchy_kernel(d[None, :] + 1j * d[:, None])  # (y, x)
        w[np.abs(k) >= n] = 0  # the y-displacements the crop never reads
        half = np.ascontiguousarray(np.fft.fft(w, axis=1)[:, :M // 2 + 1].T)
        want = np.fft.fft(half, axis=1)
        if M * M * 16 <= cauchy_module._BLOCK_BYTES:  # every row kept
            want = np.concatenate((want, np.conj(want[1:M - M // 2][::-1])))
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("BKLAB_THREADS", threads)
            assert np.array_equal(ConvolutionPlan(g, n)._rows, want)

    @pytest.mark.parametrize("N", [8, 64, 256])
    def test_kernel_hat_matches_full_sample_fft2(self, N):
        # the half spectrum, its conjugate rows and the column y = -N h
        # give the spectrum of every displacement sample
        g = make_grid(1.0, N)
        d = ((np.arange(2 * N) + N) % (2 * N) - N) * g.h
        want = np.fft.fft2(_cauchy_kernel(d[None, :] + 1j * d[:, None]))  # (y, x)
        got = ConvolutionPlan(g).kernel_hat
        assert np.abs(got - want).max() <= 2e-15 * np.abs(want).max()

    def test_beurling_needs_full_grid_plan(self):
        g = make_grid(1.0, 64)
        with pytest.raises(GridError):
            get_plan(g, 30).apply_beurling(np.ones((30, 30), dtype=complex))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_boxes_padded_to_2n_minus_1(self, n):
        # M = 2n - 1: the displacements 0 ... n - 1 and -(n - 1) ... -1 fill
        # every index, and index 0 is the origin, whose sample is zero
        g = make_grid(1.0, 64)
        plan = get_plan(g, n)
        assert plan.M == 2 * n - 1
        if n == 1:
            assert plan.apply(np.ones((1, 1), dtype=complex))[0, 0] == 0
        f = np.random.default_rng(n).normal(size=(n, n)) + 0j
        fb = np.zeros((64, 64), dtype=complex)
        fb[:n, :n] = f
        full = get_plan(g).apply(fb)
        assert np.abs(plan.apply(f) - full[:n, :n]).max() <= 1e-15 * np.abs(full).max()

    def test_build_blocks_are_capped(self, monkeypatch):
        # a large BKLAB_THREADS splits the M = 128 build into two blocks of
        # 64 y-columns, and then the 65 rows of the half into two blocks
        calls = []

        def serial_map(fn, items):
            calls.append(len(items))
            return [fn(it) for it in items]
        monkeypatch.setenv("BKLAB_THREADS", "1000")
        monkeypatch.setattr(cauchy_module, "parallel_map", serial_map)
        plan = ConvolutionPlan(make_grid(1.0, 64))
        assert calls == [2, 2]
        assert np.array_equal(plan.kernel_hat, get_plan(make_grid(1.0, 64)).kernel_hat)

    @pytest.mark.parametrize("N, n", [(64, 64), (512, 512), (256, 218)],
                             ids=["64", "512", "256-box218"])
    def test_apply_xy_matches_apply_transposed(self, N, n):
        # the input written transposed into the buffer, pass 1 down its
        # columns and the output left in place: the same 1-D transforms
        plan = get_plan(make_grid(1.0, N), n)
        rng = np.random.default_rng(n)
        f = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))

        def fill(x):
            assert x.shape == (n, n)
            x[...] = f.T

        assert np.array_equal(plan.apply_xy(fill), plan.apply(f).T)
