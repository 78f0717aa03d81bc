"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with -s to see them live) and enforcing its stated tolerance
and runtime budget.

Criterion 1 is a tempered-distribution identity; it is verified through
the Schwartz-regularized transform pair (the analytic-continuation route
of the underlying Gaussian-transform lemma).  The sharp-window comparison
of raw chirp samples carries an irreducible ~1e-1 window/aliasing floor
at the stated parameters and is reported alongside; see the decisions
ledger for the analysis.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
from bklab import (Disk, LorentzIndex, PhaseParams, Polygon,
                   carleman_sweep, cauchy, kernel_dft_check,
                   lorentz_norm, make_domain, make_grid, smooth, solve_f,
                   wirtinger)
from bklab.boundary import DirichletSolver, alessandrini_check, dn_pairing, forward_solve
from bklab.bukhgeim import pde_residual, solve_f_dense
from bklab.cutoffs import h1_defect_l1, tune_h2
from bklab.recon import (StabilityConfig, bump_field, make_z0_lattice,
                         reconstruct, stability_experiment, stability_trend)
from bklab.util import fit_loglog


def _report(n, ok, detail, t, budget):
    status = "PASS" if ok and t < budget else "FAIL"
    print(f"ACCEPTANCE {n}: {status} ({detail}; t={t:.1f}s < {budget:.0f}s)")
    assert ok, detail
    assert t < budget, f"criterion {n} exceeded its runtime budget: {t:.1f}s"


def test_criterion_01_fourier_kernel_identity():
    t0 = time.time()
    g = make_grid(5.0, 512)
    tau = 8.0
    assert tau <= g.aliasing_guard()
    rel = kernel_dft_check(g, tau, regularization=1.0)
    raw = kernel_dft_check(g, tau, regularization=0.0)
    t = time.time() - t0
    _report(1, rel <= 1e-3,
            f"regularized DFT vs closed form rel={rel:.2e} <= 1e-3 "
            f"(raw sharp-window floor {raw:.2e}, see ledger)", t, 5.0)


def test_criterion_02_cauchy_inverse():
    t0 = time.time()
    errs = []
    for N in (64, 128, 256):
        g = make_grid(1.5, N)
        r2 = np.abs(g.Z) ** 2
        phi = np.where(r2 < 1.0, np.exp(-1.0 / np.maximum(1e-300, 1.0 - r2)),
                       0.0).astype(complex)
        d = wirtinger(cauchy(phi, grid=g), "dbar", g, method="fd")
        errs.append(np.abs(d - phi)[3:-3, 3:-3].max())
    order = math.log2(errs[0] / errs[2]) / 2
    g = make_grid(1.5, 256)
    ball = (np.abs(g.Z) < 1.0).astype(complex)
    chi_err = np.abs(cauchy(ball, grid=g)
                     - np.where(np.abs(g.Z) <= 1.0, np.conj(g.Z), 1 / g.Z)).max()
    chi_bound = 10 * g.h * math.log(1 / g.h)
    t = time.time() - t0
    _report(2, order >= 0.9 and chi_err <= chi_bound,
            f"inverse order {order:.2f} >= 0.9; chi_ball err {chi_err:.2e} "
            f"<= {chi_bound:.2e}", t, 30.0)


def test_criterion_03_lorentz_exactness():
    t0 = time.time()
    d = make_domain(make_grid(1.2, 128), Disk(0j, 1.0))
    v21 = lorentz_norm(d.mask.astype(complex), LorentzIndex(2, 1), domain=d)
    ok_ind = abs(v21 - 4 * math.sqrt(d.measure)) <= 1e-8 * v21
    g32 = make_grid(1.0, 32)
    ok_sand = True
    for seed in range(100):
        rng = np.random.default_rng(seed)
        f = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        for (p, q) in ((2, 1), (2, 2), (2, np.inf), (4, 1)):
            semi = lorentz_norm(f, LorentzIndex(p, q, normed=False), grid=g32)
            full = lorentz_norm(f, LorentzIndex(p, q, normed=True), grid=g32)
            ok_sand &= semi <= full * (1 + 1e-10)
            ok_sand &= full <= p / (p - 1) * semi * (1 + 1e-10)
    g = make_grid(4.0, 512)
    ball = make_domain(g, Disk(0j, 3.999))
    k = np.zeros_like(g.Z)
    nz = np.abs(g.Z) > 0
    k[nz] = 1.0 / (np.pi * g.Z[nz])
    vk = lorentz_norm(k, LorentzIndex(2, np.inf), domain=ball)
    target = 2 / math.sqrt(np.pi)
    ok_k = abs(vk - target) <= 0.02 * target and vk <= target * (1 + 1e-9)
    t = time.time() - t0
    _report(3, ok_ind and ok_sand and ok_k,
            f"indicator 4*sqrt(m) rel err {abs(v21 - 4*math.sqrt(d.measure))/v21:.1e}; "
            f"sandwich on 400 norm pairs; kernel weak norm {vk:.4f} vs {target:.4f}",
            t, 60.0)


def test_criterion_04_stationary_phase_bound():
    t0 = time.time()
    g = make_grid(4.0, 256)
    Q = np.exp(-np.abs(g.Z) ** 2).astype(complex)
    h2 = g.cell_measure
    hnorm = math.sqrt(3 * np.pi / 2)
    taus = (4.0, 16.0, 64.0, 256.0)
    errs, ok = [], True
    for tau in taus:
        err = math.sqrt(float((np.abs(Q - smooth(Q, tau, g)) ** 2).sum() * h2))
        errs.append(err)
        ok &= err <= 1.2 * 2.0 * tau ** -0.5 * hnorm
    slope = fit_loglog(taus, errs).slope
    t = time.time() - t0
    _report(4, ok and slope <= -0.45,
            f"errors within 1.2 * 2 tau^-1/2 ||Q||_H1; slope {slope:.2f} <= -0.45",
            t, 60.0)


def test_criterion_05_carleman_rates():
    t0 = time.time()
    g = make_grid(1.1, 1024)
    d = make_domain(g, Disk(0j, 1.0))
    taus = [4, 8, 16, 32, 64, 128, 256]
    assert max(taus) <= g.aliasing_guard()
    ones = np.ones((1024, 1024), dtype=complex)
    rec = carleman_sweep(ones, taus, d, 0.12 + 0.07j, mode="field")
    weak, sup = rec.slopes["weak"].slope, rec.slopes["sup"].slope
    q = d.restrict(bump_field(g, 0.2 + 0.1j, 0.45, 0.5))
    rec_op = carleman_sweep(q, taus, d, 0.12 + 0.07j, mode="operator")
    op_sup = rec_op.slopes["sup"].slope
    t = time.time() - t0
    _report(5, weak <= -0.90 and sup <= -0.30 and op_sup <= -0.30,
            f"weak slope {weak:.2f} <= -0.90, sup slope {sup:.2f} <= -0.30, "
            f"operator sup slope {op_sup:.2f} <= -0.30", t, 600.0)


def test_criterion_06_fixed_point_oracle():
    t0 = time.time()
    g = make_grid(1.2, 32)
    d = make_domain(g, Disk(0j, 1.0))
    q = d.restrict(bump_field(g, 0.2 + 0.1j, 0.45, 0.5))
    worst = 0.0
    ok = True
    for tau, z0 in ((2.0, 0.1 + 0.05j), (3.0, -0.1 + 0.2j), (2.5, 0.3 - 0.2j)):
        params = PhaseParams(tau, z0)
        sol = solve_f(q, params, d)
        f_dense, it_dense = solve_f_dense(q, params, d)
        ok &= it_dense == sol.iterations
        worst = max(worst, float(np.abs(sol.f - f_dense).max()))
    t = time.time() - t0
    _report(6, ok and worst <= 1e-6,
            f"dense O(N^4) oracle vs FFT pipeline sup diff {worst:.2e} <= 1e-6, "
            f"equal iteration counts, 3 triples", t, 300.0)


def test_criterion_07_pde_residual():
    t0 = time.time()
    rels = []
    for N in (64, 128, 256):
        g = make_grid(0.28, N)
        d = make_domain(g, Disk(0j, 0.2))
        q = d.restrict(bump_field(g, 0.03 + 0.02j, 0.1, 0.5))
        sol = solve_f(q, PhaseParams(8.0, 0.02j), d)
        rels.append(pde_residual(sol, q).rel_l2)
    order = math.log2(rels[0] / rels[2]) / 2
    t = time.time() - t0
    _report(7, rels[-1] <= 1e-2 and order >= 1.5,
            f"relative residual {rels[-1]:.2e} <= 1e-2 at N=256; order {order:.2f} >= 1.5",
            t, 120.0)


def test_criterion_08_cutoff_tuning():
    t0 = time.time()
    g = make_grid(3.4, 1024)
    d = make_domain(g, Disk(0j, 3.0))
    taus = [4.0, 8.0, 16.0, 32.0, 64.0, 128.0]
    vals = [tune_h2(d, 0.2 + 0.1j, tau)[1] for tau in taus]
    slope = fit_loglog(taus, vals).slope
    d1 = make_domain(make_grid(1.5, 256), Disk(0j, 1.0))
    ok_h1 = True
    worst = 0.0
    for tau in (1.0, 4.0, 16.0, 64.0, 256.0):
        val = h1_defect_l1(d1, 0.1 + 0.05j, tau)
        bound = (np.pi / 3) / tau
        ok_h1 &= val <= bound * (1 + 1e-9)
        worst = max(worst, val / bound)
    t = time.time() - t0
    _report(8, slope <= 0.70 and ok_h1,
            f"composite slope {slope:.3f} <= 0.70; defect/bound max ratio "
            f"{worst:.9f} <= 1 (1e-9 quadrature slack)", t, 120.0)


def test_criterion_09_alessandrini():
    t0 = time.time()
    gaps = []
    for N in (64, 128, 256):
        g = make_grid(1.28, N)
        sq = make_domain(g, Polygon((0j, 1 + 0j, 1 + 1j, 1j)))
        qb = sq.restrict(bump_field(g, 0.5 + 0.5j, 0.2, 0.3))
        P1 = forward_solve(np.zeros((N, N), complex),
                           lambda z: z.real.astype(complex), sq)
        P2 = forward_solve(qb, lambda z: (z.real * z.imag).astype(complex), sq)
        gaps.append(alessandrini_check(P1, P2).gap)
    order = math.log2(gaps[0] / gaps[2]) / 2
    d = make_domain(make_grid(1.2, 128), Disk(0j, 1.0))
    q = d.restrict(bump_field(d.grid, 0.2 + 0.1j, 0.45, 0.8))
    solver = DirichletSolver(d, q)
    sym = 0.0
    for seed in range(3):
        c = np.random.default_rng(seed).normal(size=4)
        Pu = solver.solve(lambda z: (c[0] * z.real + c[1] * z.imag ** 2).astype(complex))
        Pv = solver.solve(lambda z: (c[2] * z.real * z.imag + c[3]).astype(complex))
        a, b = dn_pairing(Pu, Pv), dn_pairing(Pv, Pu)
        sym = max(sym, abs(a - b) / max(abs(a), 1e-30))
    t = time.time() - t0
    _report(9, order >= 1.0 and sym <= 1e-8,
            f"gap order {order:.2f} >= 1; DN symmetry rel err {sym:.1e} <= 1e-8",
            t, 120.0)


def test_criterion_10_reconstruction_convergence():
    t0 = time.time()
    g = make_grid(1.2, 256)
    d = make_domain(g, Disk(0j, 1.0))
    q = d.restrict(bump_field(g, 0.2 + 0.1j, 0.45, 0.5))
    assert abs(np.abs(q).max() - 0.5) < 1e-3  # ||q||_inf = 0.5 up to cell sampling
    lat = make_z0_lattice(d, 3)
    taus = (8.0, 16.0, 32.0, 64.0)
    ei, eb, gap_ok = [], [], True
    for tau in taus:
        ri, rb = reconstruct(q, tau, lat, d)
        ei.append(ri.errors()["sup"])
        eb.append(rb.errors()["sup"])
        gap = np.abs(ri.values - rb.values).max()
        gap_ok &= gap <= 0.01 * g.h * tau
    dec_i = all(ei[k + 1] < ei[k] for k in range(len(taus) - 1))
    dec_b = all(eb[k + 1] < eb[k] for k in range(len(taus) - 1))
    t = time.time() - t0
    _report(10, dec_i and dec_b and gap_ok,
            f"interior errors {['%.4f' % e for e in ei]} and boundary "
            f"{['%.4f' % e for e in eb]} strictly decreasing; forms agree "
            f"within 0.01*h*tau", t, 900.0)


def test_criterion_11_stability_trend():
    t0 = time.time()
    g = make_grid(1.2, 128)
    d = make_domain(g, Disk(0j, 1.0))
    q1 = d.restrict(bump_field(g, 0.2 + 0.1j, 0.45, 0.5))
    pairs = [(q1, q1 + d.restrict(bump_field(g, -0.15 + 0.2j, 0.35, eps)))
             for eps in (0.4, 0.2, 0.1, 0.05, 0.025, 0.0125)]
    cfg = StabilityConfig(lattice_n=3, family_taus=(8.0, 16.0, 32.0),
                          fd_modes=8, smoothness=0.25)
    records = stability_experiment(pairs, d, cfg)
    rho = stability_trend(records)
    t = time.time() - t0
    _report(11, len(records) >= 6 and rho >= 0.9,
            f"Spearman rank correlation {rho:.3f} >= 0.9 over {len(records)} pairs "
            f"at s=0.25", t, 1800.0)


def test_criterion_12_determinism(tmp_path):
    t0 = time.time()
    from bklab import save_domain, save_field
    g = make_grid(1.2, 256)
    d = make_domain(g, Disk(0j, 1.0))
    save_domain(tmp_path / "disk.json", d)
    q = d.restrict(bump_field(g, 0.2 + 0.1j, 0.45, 0.5))
    save_field(tmp_path / "q.bkfld", q, g)
    blobs = {}
    for nt in ("1", "8"):
        env = dict(os.environ, BKLAB_THREADS=nt)
        out5 = tmp_path / f"carl{nt}"
        r = subprocess.run([sys.executable, "-m", "bklab.cli", "carleman-sweep",
                            "--domain", str(tmp_path / "disk.json"), "--a", "one",
                            "--tau", "4:32", "--out-dir", str(out5)],
                           capture_output=True, env=env)
        assert r.returncode == 0, r.stderr
        out10 = tmp_path / f"rec{nt}"
        r = subprocess.run([sys.executable, "-m", "bklab.cli", "reconstruct",
                            "--q", str(tmp_path / "q.bkfld"),
                            "--domain", str(tmp_path / "disk.json"),
                            "--tau", "8,16", "--form", "both",
                            "--out-dir", str(out10)],
                           capture_output=True, env=env)
        assert r.returncode == 0, r.stderr
        blobs[nt] = ((out5 / "carleman_sweep.csv").read_bytes(),
                     (out10 / "recon_sweep.csv").read_bytes())
    same = blobs["1"] == blobs["8"]
    t = time.time() - t0
    _report(12, same,
            "criterion-5- and criterion-10-shaped CLI runs byte-identical at "
            "thread counts 1 and 8", t, 900.0)
