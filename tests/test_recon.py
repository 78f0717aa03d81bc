import math

import numpy as np
import pytest

from bklab import (Disk, FamilySpec, LorentzIndex, PhaseParams, bessel_norm,
                   cauchy_distance, lorentz_norm, make_domain, make_grid, solve_f)
from bklab import boundary, recon
from bklab.errors import BklabError, FixedPointDivergenceError
from bklab.recon import (StabilityConfig, bump_field, make_z0_lattice,
                         reconstruct, reconstruct_boundary, reconstruct_interior,
                         reconstruct_pairing, spearman_rank,
                         stability_experiment, stability_trend)

GAP_PER_H_TAU = 0.01  # interior/boundary agreement, calibrated at N in {64,128,256}


@pytest.fixture(scope="module")
def setup():
    g = make_grid(1.2, 256)
    d = make_domain(g, Disk(0j, 1.0))
    q = d.restrict(bump_field(g, 0.2 + 0.1j, 0.45, 0.5))
    lat = make_z0_lattice(d, 3)
    return g, d, q, lat


class TestLattice:
    def test_margin_respected(self, setup):
        g, d, q, lat = setup
        assert lat.size >= 9
        for z in lat:
            assert d.distance[g.cell_index(z)] >= 5 * g.h - 1e-12

    def test_rejects_offending_points(self, setup):
        g, d, q, _ = setup
        with pytest.raises(BklabError):
            reconstruct_interior(q, 8.0, np.array([0.999 + 0j]), d)

    def test_rejects_points_outside_grid(self, setup):
        # -1.5 lies left of the grid square; its column index must not wrap
        # round to a cell on the far side of the disk
        g, d, q, _ = setup
        with pytest.raises(BklabError):
            reconstruct_interior(q, 8.0, [-1.5 + 0j], d)


class TestBumpField:
    def test_tiny_width_gives_exact_zeros(self):
        # |z| / 1e-320 overflows to inf at every cell center, and exp(-inf)
        # is 0, without an overflow warning (warnings are errors here)
        f = bump_field(make_grid(1.2, 16), 0j, 1e-320, 2.0)
        assert f.shape == (16, 16) and not f.any()


class TestErrors:
    @pytest.mark.parametrize("w", [1e-3, 0.0123, 0.3])
    def test_weak_is_the_dense_per_point_formula(self, w):
        # errors in multiples of 1/4: runs of ties, zeros among them, and
        # diverged points that do not count
        rng = np.random.default_rng(3)
        n = 300
        values = rng.integers(-4, 5, size=n) * 0.25 + 0j
        ok = rng.random(n) > 0.1
        values[~ok] = 1e9
        res = recon.ReconstructionResult("interior", 8.0, np.zeros(n, dtype=complex),
                                         values, ok, w, np.zeros(n, dtype=complex),
                                         np.zeros(n, dtype=complex))
        d = np.abs(values[ok])
        t = w * np.arange(1, d.size + 1)
        want = float((np.sqrt(t) * (np.cumsum(np.sort(d)[::-1] * w) / t)).max())
        assert res.errors()["weak"].hex() == want.hex()

    @pytest.mark.parametrize("n, error", [(4, FixedPointDivergenceError), (0, BklabError)],
                             ids=["all-diverged", "empty-lattice"])
    def test_no_converged_point(self, n, error):
        # a lattice whose every fixed point diverged is a numerical failure
        # naming tau; an empty lattice is a configuration error
        z = np.zeros(n, dtype=complex)
        res = recon.ReconstructionResult("interior", 2.0, z, z + np.nan, np.zeros(n, bool),
                                         0.1, z, z)
        with pytest.raises(error) as info:
            res.errors()
        assert info.type is error
        if n:
            assert "tau=2.0" in str(info.value)


class TestInterior:
    def test_zero_potential(self, setup):
        g, d, _, lat = setup
        res = reconstruct_interior(np.zeros((256, 256), complex), 8.0, lat, d)
        assert np.abs(res.values).max() == 0.0

    def test_error_decreases_in_tau(self, setup):
        g, d, q, lat = setup
        errs = [reconstruct_interior(q, t, lat, d).errors()["sup"]
                for t in (8.0, 16.0, 32.0, 64.0)]
        assert all(errs[i + 1] < errs[i] for i in range(3))

    def test_against_smoothing_baseline(self, setup):
        # the reconstruction minus the pure-smoothing baseline is the
        # correction-term integral; it stays below the fitted error bound
        g, d, q, lat = setup
        res = reconstruct_interior(q, 16.0, lat, d)
        gap = np.abs(res.values - res.baseline).max()
        idx21 = LorentzIndex(2, 1)
        idxw = LorentzIndex(2, np.inf)
        s = 0.25
        nq = bessel_norm(q, s, idx21, d)
        sol = solve_f(q, PhaseParams(16.0, complex(lat[0])), d)
        nr = bessel_norm(sol.f - 1.0, s, idxw, grid=g)
        # C fitted once at tau = 8 on this configuration
        C_FIT = 0.11
        assert gap <= C_FIT * 16.0 ** (1 - s / 3) * nq * nr


class TestBoundaryForm:
    def test_zero_potential(self, setup):
        g, d, _, lat = setup
        res = reconstruct_boundary(np.zeros((256, 256), complex), 8.0, lat, d)
        assert np.abs(res.values).max() == 0.0

    def test_error_decreases_in_tau(self, setup):
        g, d, q, lat = setup
        errs = [reconstruct_boundary(q, t, lat, d).errors()["sup"]
                for t in (8.0, 16.0, 32.0, 64.0)]
        assert all(errs[i + 1] < errs[i] for i in range(3))

    def test_agrees_with_interior(self):
        for N, taus in ((128, (8.0, 16.0)), (256, (8.0, 32.0))):
            g = make_grid(1.2, N)
            d = make_domain(g, Disk(0j, 1.0))
            q = d.restrict(bump_field(g, 0.2 + 0.1j, 0.45, 0.5))
            lat = make_z0_lattice(d, 3)
            for tau in taus:
                vi, vb = (r.values for r in reconstruct(q, tau, lat, d))
                assert np.abs(vi - vb).max() <= GAP_PER_H_TAU * g.h * tau


class TestPairing:
    def test_identical_potentials(self, setup):
        g, d, q, lat = setup
        res = reconstruct_pairing(q, q, 8.0, lat, d)
        assert np.abs(res.values).max() == 0.0

    def test_q2_zero_matches_interior(self, setup):
        g, d, q, lat = setup
        rp = reconstruct_pairing(q, np.zeros((256, 256), complex), 16.0, lat, d)
        ri = reconstruct_interior(q, 16.0, lat, d)
        assert np.abs(rp.values - ri.values).max() <= 1e-12

    def test_l2_error_decreases(self, setup):
        g, d, q, lat = setup
        q2 = q + d.restrict(bump_field(g, -0.15 + 0.2j, 0.35, 0.3))
        errs = [reconstruct_pairing(q, q2, t, lat, d).errors()["l2"]
                for t in (8.0, 16.0, 32.0, 64.0)]
        assert all(errs[i + 1] < errs[i] for i in range(3))


@pytest.fixture(scope="module")
def records():
    g = make_grid(1.2, 128)
    d = make_domain(g, Disk(0j, 1.0))
    q1 = d.restrict(bump_field(g, 0.2 + 0.1j, 0.45, 0.5))
    pairs = [(q1, q1 + d.restrict(bump_field(g, -0.15 + 0.2j, 0.35, eps)))
             for eps in (0.4, 0.2, 0.1, 0.05, 0.025, 0.0125)]
    pairs.append((q1, q1))
    cfg = StabilityConfig(lattice_n=3, family_taus=(8.0, 16.0, 32.0),
                          fd_modes=4, smoothness=0.25)
    return stability_experiment(pairs, d, cfg)


class TestStability:
    def test_identical_pair_excluded(self, records):
        assert records[-1].excluded
        assert records[-1].d_hat == 0.0

    def test_trend(self, records):
        rho = stability_trend(records)
        assert rho >= 0.9

    def test_rows_have_positive_dhat(self, records):
        for r in records[:-1]:
            assert not r.excluded
            assert 0 < r.d_hat < 1
            assert r.bound_value > 0

    def test_all_diverged_pairing_recorded_as_none(self):
        # tau clamps to tau_min = 2, where every pairing solve diverges
        g = make_grid(1.2, 64)
        d = make_domain(g, Disk(0j, 1.0))
        q1 = d.restrict(bump_field(g, 0j, 0.6, 60.0))
        q2 = d.restrict(bump_field(g, 0j, 0.6, 30.0))
        cfg = StabilityConfig(family_taus=(2.0, 3.0, 4.0), fd_modes=2, norm_bound=1e4,
                              b_omega=50.0, tau_min=2.0)
        (rec,) = stability_experiment([(q1, q2)], d, cfg)
        assert not rec.excluded and rec.tau == 2.0
        assert rec.pairing_l2 is None

    @pytest.mark.parametrize("kw", [{"smoothness": 0.0}, {"smoothness": -1.0},
                                    {"tau_min": 0.0}, {"tau_min": 50.0}])
    def test_out_of_range_config_rejected_before_any_solve(self, monkeypatch, kw):
        # tau_min must lie in (0, 0.98 pi N/(8 L^2)], 17.1 on this grid
        monkeypatch.setattr(recon, "side_distance", None)
        g = make_grid(1.2, 64)
        d = make_domain(g, Disk(0j, 1.0))
        q = d.restrict(bump_field(g, 0j, 0.4, 0.5))
        with pytest.raises(BklabError, match="smoothness" if "smoothness" in kw else "tau_min"):
            stability_experiment([(q, 2 * q)], d, StabilityConfig(**kw))

    @pytest.fixture
    def shared_q1(self):
        """Three pairs at N=64 whose q1 are equal copies, not one array."""
        g = make_grid(1.2, 64)
        d = make_domain(g, Disk(0j, 1.0))
        q1 = d.restrict(bump_field(g, 0.2 + 0.1j, 0.45, 0.5))
        pairs = [(q1.copy(), q1 + d.restrict(bump_field(g, -0.15 + 0.2j, 0.35, eps)))
                 for eps in (0.4, 0.2, 0.1)]
        cfg = StabilityConfig(family_taus=(4.0, 8.0, 16.0), fd_modes=2, b_omega=2.0)
        return g, d, pairs, cfg

    def test_each_potential_solved_once(self, shared_q1, monkeypatch):
        g, d, pairs, cfg = shared_q1
        solves, factors = [], []
        solve = boundary.solve_f

        def counting(q, params, domain, phase_type, **kwargs):
            solves.append((np.asarray(q).tobytes(), phase_type, params.z0, params.tau))
            return solve(q, params, domain, phase_type, **kwargs)

        class CountingSolver(boundary.DirichletSolver):
            def __init__(self, domain, q):
                factors.append(np.asarray(q).tobytes())
                super().__init__(domain, q)
        monkeypatch.setattr(boundary, "solve_f", counting)
        monkeypatch.setattr(boundary, "DirichletSolver", CountingSolver)
        records = stability_experiment(pairs, d, cfg)
        assert not any(r.excluded for r in records)
        assert len(solves) == len(set(solves))
        assert len(factors) == len(set(factors)) == 1 + len(pairs)

    def test_matches_separate_calls_bitwise(self, shared_q1):
        g, d, pairs, cfg = shared_q1
        records = stability_experiment(pairs, d, cfg)
        fam = FamilySpec(tuple(make_z0_lattice(d, cfg.lattice_n)), cfg.family_taus,
                         fd_modes=cfg.fd_modes)
        rl = make_z0_lattice(d, cfg.recon_lattice_n)
        for (q1, q2), rec in zip(pairs, records):
            assert rec.d_hat == cauchy_distance(q1, q2, d, fam).d_hat
            want = reconstruct_pairing(q1, q2, rec.tau, rl, d).errors()["l2"]
            assert rec.pairing_l2 == want

    def test_scaling_doubles_lhs(self):
        g = make_grid(1.2, 128)
        d = make_domain(g, Disk(0j, 1.0))
        q1 = d.restrict(bump_field(g, 0.2 + 0.1j, 0.45, 0.5))
        q2 = q1 + d.restrict(bump_field(g, -0.15 + 0.2j, 0.35, 0.1))
        idx = LorentzIndex(2, np.inf)
        a = lorentz_norm(q1 - q2, idx, domain=d)
        b = lorentz_norm(2 * q1 - 2 * q2, idx, domain=d)
        assert b == pytest.approx(2 * a, rel=1e-12)


class TestSpearman:
    def test_matches_scipy(self):
        from scipy.stats import spearmanr
        rng = np.random.default_rng(0)
        for n in (5, 8, 40):
            x = rng.normal(size=n)
            y = x + rng.normal(size=n)
            xt = rng.integers(0, 4, size=n).astype(float)    # ties
            yt = rng.integers(0, 3, size=n).astype(float)
            for a, b in ((x, y), (xt, yt), (x, yt)):
                want = spearmanr(a, b).statistic
                assert math.isfinite(want)
                assert abs(spearman_rank(a, b) - want) <= 1e-12

    def test_undefined_is_nan(self):
        assert math.isnan(spearman_rank([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]))
        assert math.isnan(spearman_rank([1.0, math.nan, 3.0], [1.0, 2.0, 3.0]))
