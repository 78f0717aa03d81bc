import math

import numpy as np
import pytest

from bklab import (Disk, LorentzIndex, PhaseParams, apply_S, assemble_u,
                   bessel_norm, carleman_sweep, make_domain,
                   make_grid, pde_residual, solve_f)
from bklab.bukhgeim import _SPipeline, apply_S_dense, dbar_u, solve_f_dense
from bklab.errors import (AliasingGuardError, BklabError,
                          FixedPointDivergenceError, GridError)
from bklab.recon import bump_field
from bklab.util import fit_loglog

Z0 = 0.1 + 0.05j


@pytest.fixture(scope="module")
def disk_bump():
    g = make_grid(1.2, 256)
    d = make_domain(g, Disk(0j, 1.0))
    q = d.restrict(bump_field(g, 0.2 + 0.1j, 0.45, 0.5))
    return g, d, q


class TestApplyS:
    def test_zero_potential(self, disk_bump):
        g, d, _ = disk_bump
        rng = np.random.default_rng(0)
        f = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
        out = apply_S(np.zeros_like(f), f, PhaseParams(8.0, Z0), d)
        assert np.abs(out).max() == 0.0

    def test_linear_in_f(self, disk_bump):
        g, d, q = disk_bump
        params = PhaseParams(8.0, Z0)
        rng = np.random.default_rng(1)
        f1 = rng.normal(size=(256, 256)).astype(complex)
        f2 = rng.normal(size=(256, 256)).astype(complex)
        lhs = apply_S(q, 2 * f1 + 3j * f2, params, d)
        rhs = 2 * apply_S(q, f1, params, d) + 3j * apply_S(q, f2, params, d)
        assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()

    def test_sup_decay_slope(self, disk_bump):
        g, d, q = disk_bump
        taus = [4.0, 8.0, 16.0, 32.0, 64.0]
        ones = np.ones((256, 256), dtype=complex)
        sups = [np.abs(apply_S(q, ones, PhaseParams(t, Z0), d)).max() for t in taus]
        assert fit_loglog(taus, sups).slope <= -0.30

    def test_guard_violation(self, disk_bump):
        g, d, q = disk_bump
        with pytest.raises(AliasingGuardError):
            apply_S(q, q, PhaseParams(1e5, Z0), d)

    def test_grid_mismatch(self, disk_bump):
        g, d, q = disk_bump
        with pytest.raises(GridError):
            apply_S(q, np.ones((64, 64)), PhaseParams(8.0, Z0), d)


@pytest.fixture(scope="module")
def small():
    g = make_grid(1.2, 32)
    d = make_domain(g, Disk(0j, 1.0))
    q = d.restrict(bump_field(g, 0.2 + 0.1j, 0.45, 0.5))
    return g, d, q


class TestDenseOracle:
    def test_apply_matches_fft(self, small):
        g, d, q = small
        rng = np.random.default_rng(2)
        f = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        for phase in ("holomorphic", "antiholomorphic"):
            for tau, z0 in ((2.0, Z0), (3.0, -0.1 + 0.2j), (1.5, 0.3 - 0.2j)):
                a = apply_S(q, f, PhaseParams(tau, z0), d, phase)
                b = apply_S_dense(q, f, PhaseParams(tau, z0), d, phase)
                assert np.abs(a - b).max() <= 1e-6 * max(1.0, np.abs(b).max())

    def test_picard_matches_fft(self, small):
        g, d, q = small
        for tau, z0 in ((2.0, Z0), (3.0, -0.1 + 0.2j), (2.5, 0.3 - 0.2j)):
            params = PhaseParams(tau, z0)
            sol = solve_f(q, params, d)
            f_dense, it_dense = solve_f_dense(q, params, d)
            assert it_dense == sol.iterations
            assert np.abs(sol.f - f_dense).max() <= 1e-6


class TestSolveF:
    def test_zero_potential_one_iteration(self, disk_bump):
        g, d, _ = disk_bump
        sol = solve_f(np.zeros((256, 256), dtype=complex), PhaseParams(8.0, Z0), d)
        assert sol.iterations == 1
        assert np.all(sol.f == 1.0)

    def test_fixed_point_defect(self, disk_bump):
        g, d, q = disk_bump
        sol = solve_f(q, PhaseParams(16.0, Z0), d, tol=1e-10)
        assert sol.defect <= 10 * 1e-10
        assert sol.sup_bound_ok

    def test_contraction_decreases_with_tau(self, disk_bump):
        g, d, q = disk_bump
        r = [solve_f(q, PhaseParams(t, Z0), d).contraction for t in (4.0, 8.0, 16.0)]
        assert r[1] < r[0] and r[2] < r[1]

    def test_divergence_detected(self, disk_bump):
        g, d, _ = disk_bump
        qbig = d.restrict(bump_field(g, 0j, 0.6, 600.0))
        with pytest.raises(FixedPointDivergenceError):
            solve_f(qbig, PhaseParams(1.5, Z0), d, max_iter=60)

    def test_correction_decay_rate(self, disk_bump):
        g, d, q = disk_bump
        idx = LorentzIndex(2, np.inf)
        taus = [8.0, 16.0, 32.0, 64.0]
        vals = [bessel_norm(solve_f(q, PhaseParams(t, Z0), d).f - 1.0,
                            0.25, idx, grid=g) for t in taus]
        assert fit_loglog(taus, vals).slope <= -0.85

    def test_z0_continuity(self, disk_bump):
        g, d, q = disk_bump
        base = solve_f(q, PhaseParams(16.0, Z0), d).f
        diffs = [np.abs(solve_f(q, PhaseParams(16.0, Z0 + dz), d).f - base).max()
                 for dz in (0.2, 0.1, 0.05, 0.025)]
        assert all(diffs[i + 1] < diffs[i] for i in range(3))

    def test_one_apply_per_iteration(self, small, monkeypatch):
        g, d, q = small
        calls = []
        orig = _SPipeline.apply

        def counting(self, f):
            calls.append(1)
            return orig(self, f)

        monkeypatch.setattr(_SPipeline, "apply", counting)
        sol = solve_f(q, PhaseParams(2.0, Z0), d)
        assert sol.iterations > 1
        assert len(calls) == sol.iterations

    def test_defect_is_residual_of_returned_f(self, small):
        g, d, q = small
        params = PhaseParams(3.0, -0.1 + 0.2j)
        sol = solve_f(q, params, d)
        resid = np.abs(sol.f - (1.0 - 0.25 * apply_S(q, sol.f, params, d))).max()
        assert sol.defect == resid
        assert sol.defect < 1e-10

    def test_non_finite_potential_rejected(self, small):
        g, d, q = small
        bad = q.copy()
        bad[16, 16] = np.nan
        assert d.mask[16, 16]
        with pytest.raises(BklabError, match="non-finite"):
            solve_f(bad, PhaseParams(4.0, Z0), d)
        with pytest.raises(BklabError, match="non-finite"):
            apply_S(bad, np.ones_like(bad), PhaseParams(4.0, Z0), d)


class TestAssembleU:
    def test_modulus_from_phase(self, disk_bump):
        g, d, _ = disk_bump
        params = PhaseParams(4.0, Z0)
        sol = solve_f(np.zeros((256, 256), dtype=complex), params, d)
        u = assemble_u(sol)
        expect = np.exp(1j * 4.0 * (g.Z - Z0) ** 2)
        assert np.abs(u - expect).max() <= 1e-13 * np.abs(expect).max()
        # |u| is set by Im (z - z0)^2 alone
        mod = np.exp(4.0 * 2 * (g.X - Z0.real) * (g.Y - Z0.imag) * -1.0)
        assert np.abs(np.abs(u) - mod).max() <= 1e-12 * mod.max()

    def test_phase_center_value(self, disk_bump):
        g, d, q = disk_bump
        sol = solve_f(q, PhaseParams(8.0, Z0, ), d, "antiholomorphic")
        u = assemble_u(sol)
        iy, ix = g.cell_index(Z0)
        z_c = g.Z[iy, ix]
        # at the cell nearest z0 the phase is within O(tau h^2) of 1
        assert abs(u[iy, ix] - sol.f[iy, ix]) <= 8.0 * abs(z_c - Z0) ** 2 * 1.01

    def test_w12_growth_linear_in_tau(self, disk_bump):
        from bklab.boundary import w12_norm
        g, d, q = disk_bump
        taus = np.array([2.0, 4.0, 8.0, 16.0])
        vals = [w12_norm(d.restrict(assemble_u(solve_f(q, PhaseParams(t, Z0), d))), d)
                for t in taus]
        A = np.vstack([taus, np.ones_like(taus)]).T
        slope = np.linalg.lstsq(A, np.log(vals), rcond=None)[0][0]
        diam = 2.0
        assert slope <= 1.05 * diam ** 2 * 2


@pytest.fixture(scope="module")
def small_disk():
    def build(N):
        g = make_grid(0.28, N)
        d = make_domain(g, Disk(0j, 0.2))
        q = d.restrict(bump_field(g, 0.03 + 0.02j, 0.1, 0.5))
        return g, d, q
    return build


class TestPdeResidual:
    def test_truncation_only_when_q_zero(self, small_disk):
        errs = []
        for N in (64, 128, 256):
            g, d, _ = small_disk(N)
            sol = solve_f(np.zeros((N, N), dtype=complex), PhaseParams(8.0, 0.02j), d)
            rep = pde_residual(sol, np.zeros((N, N), dtype=complex))
            assert rep.rel_l2 is None
            errs.append(rep.abs_l2)
        order = math.log2(errs[0] / errs[2]) / 2
        assert order >= 1.7

    def test_bump_residual_small_and_refining(self, small_disk):
        rels = []
        for N in (64, 128, 256):
            g, d, q = small_disk(N)
            sol = solve_f(q, PhaseParams(8.0, 0.02j), d)
            rels.append(pde_residual(sol, q).rel_l2)
        assert rels[-1] <= 1e-2
        order = math.log2(rels[0] / rels[2]) / 2
        assert order >= 1.5

    def test_translation_equivariance(self, small_disk):
        g, d, q = small_disk(128)
        shift = 4 * g.h  # translate potential and z0 together by whole cells
        q2 = np.roll(np.roll(q, 4, axis=1), 4, axis=0)
        s1 = solve_f(q, PhaseParams(8.0, 0.02j), d)
        s2 = solve_f(q2, PhaseParams(8.0, 0.02j + shift * (1 + 1j)), d)
        r1 = pde_residual(s1, q).rel_l2
        r2 = pde_residual(s2, q2).rel_l2
        assert r2 == pytest.approx(r1, rel=0.25)


class TestCarlemanSweep:
    def test_disk_slopes(self, disk_bump):
        g, d, _ = disk_bump
        ones = np.ones((256, 256), dtype=complex)
        rec = carleman_sweep(ones, [4, 8, 16, 32, 64], d, Z0, mode="field")
        assert rec.slopes["weak"].slope <= -0.90
        assert rec.slopes["sup"].slope <= -0.30
        assert not rec.insufficient

    def test_operator_mode_slope(self, disk_bump):
        g, d, q = disk_bump
        rec = carleman_sweep(q, [4, 8, 16, 32, 64], d, Z0, mode="operator")
        assert rec.slopes["sup"].slope <= -0.30

    def test_single_tau_insufficient(self, disk_bump):
        g, d, _ = disk_bump
        ones = np.ones((256, 256), dtype=complex)
        rec = carleman_sweep(ones, [8.0], d, Z0)
        assert rec.insufficient
        assert rec.slopes["weak"] is None

    def test_guard_skip_reported(self, disk_bump):
        g, d, _ = disk_bump
        ones = np.ones((256, 256), dtype=complex)
        guard = g.aliasing_guard()
        rec = carleman_sweep(ones, [8.0, 16.0, 4 * guard], d, Z0)
        assert rec.skipped == (4 * guard,)
        assert rec.taus == (8.0, 16.0)

    def test_linearity_of_measured_norms(self, disk_bump):
        g, d, _ = disk_bump
        a = np.ones((256, 256), dtype=complex)
        r1 = carleman_sweep(a, [8.0, 16.0], d, Z0)
        r2 = carleman_sweep(2 * a, [8.0, 16.0], d, Z0)
        for name in ("weak", "sup"):
            got = np.array(r2.values[name])
            want = 2 * np.array(r1.values[name])
            assert np.abs(got - want).max() <= 1e-9 * want.max()


class TestDbarU:
    def test_matches_fd_derivative(self, disk_bump):
        # the fixed-point dbar u agrees with a centered difference of u on
        # interior cells to discretization accuracy
        g, d, q = disk_bump
        sol = solve_f(q, PhaseParams(8.0, Z0), d)
        from bklab.cauchy import wirtinger
        u = assemble_u(sol)
        fd = wirtinger(u, "dbar", g, method="fd")
        an = dbar_u(sol)
        inner = d.interior_mask(4 * g.h)
        scale = np.abs(u[inner]).max() * 8.0  # |dbar u| ~ tau-scale
        assert np.abs((fd - an)[inner]).max() <= 2e-2 * scale
