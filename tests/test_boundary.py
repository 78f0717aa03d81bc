import math
import sys

import numpy as np
import pytest

from bklab import Disk, Polygon, boundary, make_domain, make_grid
from bklab.boundary import (DirichletSolver, FamilySpec, Side, alessandrini_check,
                            boundary_mode, cauchy_distance, dn_pairing,
                            forward_solve, w12_norm)
from bklab.errors import BklabError, SingularSystemError
from bklab.recon import bump_field, make_z0_lattice
from bklab.util import masked_gradient, parallel_map


@pytest.fixture(scope="module")
def square():
    g = make_grid(1.28, 256)
    return make_domain(g, Polygon((0j, 1 + 0j, 1 + 1j, 1j)))


@pytest.fixture(scope="module")
def disk_q():
    g = make_grid(1.2, 128)
    d = make_domain(g, Disk(0j, 1.0))
    q = d.restrict(bump_field(g, 0.2 + 0.1j, 0.45, 0.8))
    return g, d, q


# (L, N, shape): one-cell-wide strips, whose cells have both arms of one axis
# cut, and a disk reaching into the outermost grid cells
_QUADRATIC_DOMAINS = {
    "vertical-strip": (1.2, 64, Polygon((-0.01 - 0.8j, 0.03 - 0.8j, 0.03 + 0.8j,
                                         -0.01 + 0.8j))),
    "horizontal-strip": (1.2, 64, Polygon((-0.8 - 0.01j, 0.8 - 0.01j, 0.8 + 0.03j,
                                           -0.8 + 0.03j))),
    "disk-in-outer-cells": (1.0, 16, Disk(0j, 0.97)),
}


def _zeros(domain):
    N = domain.grid.N
    return np.zeros((N, N), dtype=complex)


class TestForwardSolve:
    def test_harmonic_linear_exact(self, square):
        P = forward_solve(_zeros(square), lambda z: z.real.astype(complex), square)
        g = square.grid
        assert np.abs(P.U[square.mask] - g.Z[square.mask].real).max() < 1e-10

    @pytest.mark.parametrize("name", ["square", *_QUADRATIC_DOMAINS])
    def test_harmonic_quadratic_stencil_exact(self, request, name):
        if name == "square":
            domain = request.getfixturevalue("square")
        else:
            L, N, shape = _QUADRATIC_DOMAINS[name]
            domain = make_domain(make_grid(L, N), shape)
        P = forward_solve(_zeros(domain),
                          lambda z: (z.real ** 2 - z.imag ** 2).astype(complex),
                          domain)
        g = domain.grid
        want = (g.X ** 2 - g.Y ** 2)[domain.mask]
        assert np.abs(P.U[domain.mask] - want).max() <= 1e-10
        assert P.residual <= 1e-10

    def test_constant_datum(self, square):
        # a datum that gives one value for every point: u = 1 is harmonic
        P = forward_solve(_zeros(square), lambda z: 1.0, square)
        assert np.abs(P.U[square.mask] - 1).max() <= 1e-10

    def test_cell_centre_on_polygon_edge(self):
        # cell (30, 86) lies exactly on the bottom edge of this pentagon
        g = make_grid(1.2, 128)
        d = make_domain(g, Polygon((-0.8 - 0.7j, 0.9 - 0.6j, 0.7 + 0.8j,
                                    -0.6 + 0.9j, -0.95 + 0.1j)))
        zc = g.Z[30, 86]
        assert d.mask[30, 86] and zc.imag == pytest.approx(
            -0.7 + 0.1 * (zc.real + 0.8) / 1.7, abs=1e-15)
        P = forward_solve(_zeros(d), lambda z: (z * z).real.astype(complex), d)
        want = (g.X ** 2 - g.Y ** 2)[d.mask]
        assert np.abs(P.U[d.mask] - want).max() <= 1e-10
        assert P.residual <= 1e-10

    def test_disk_bessel_oracle(self):
        # q = c, g = 1: U = J0(sqrt(c) r)/J0(sqrt(c) rho), series to 50 terms
        c = 1.0
        g = make_grid(1.2, 256)
        d = make_domain(g, Disk(0j, 1.0))
        P = forward_solve(np.full((256, 256), c, dtype=complex),
                          lambda z: np.ones_like(z, dtype=complex), d)

        def j0(x):
            x = np.asarray(x, dtype=float)
            out = np.ones_like(x)
            term = np.ones_like(x)
            for k in range(1, 50):
                term = term * (-(x * x / 4)) / (k * k)
                out = out + term
            return out

        r = np.abs(g.Z[d.mask])
        want = j0(math.sqrt(c) * r) / j0(np.array([math.sqrt(c)]))[0]
        assert np.abs(P.U[d.mask] - want).max() <= 1e-4

    def test_singular_system_detected(self):
        # q at the first *discrete* interior Dirichlet eigenvalue (located
        # by inverse iteration around the continuum value j_{0,1}^2)
        g = make_grid(1.2, 128)
        d = make_domain(g, Disk(0j, 1.0))
        c0 = 2.404825557695773 ** 2
        base = DirichletSolver(d, np.full((128, 128), c0, dtype=complex))
        rng = np.random.default_rng(0)
        v = rng.normal(size=base.n)
        mu = None
        for _ in range(60):
            v = base.factor.solve(v.astype(complex))
            v = v / np.linalg.norm(v)
        Av = base.matrix @ v
        mu = (np.vdot(v, Av) / np.vdot(v, v)).real
        lam_h = c0 - mu  # discrete eigenvalue of -Delta_h on the disk
        with pytest.raises(SingularSystemError):
            forward_solve(np.full((128, 128), lam_h, dtype=complex),
                          lambda z: np.ones_like(z, dtype=complex), d)


class TestFactor:
    def test_ordering_cuts_fill(self, disk_q):
        import scipy.sparse.linalg as spla
        _, d, q = disk_q
        solver = DirichletSolver(d, q)
        colamd = spla.splu(solver.matrix, permc_spec="COLAMD")
        fill = solver.factor.L.nnz + solver.factor.U.nnz
        assert fill <= 0.6 * (colamd.L.nnz + colamd.U.nnz)

    def test_solve_matches_spsolve(self, disk_q):
        import scipy.sparse.linalg as spla
        _, d, q = disk_q
        solver = DirichletSolver(d, q)
        g = boundary_mode(d, 3)
        # the right-hand side scattered term by term, each row's terms in
        # B's order: bit for bit the sparse product
        _, B, z = d.laplacian
        Bc = B.tocoo()
        b = np.zeros(solver.n, dtype=complex)
        np.add.at(b, Bc.row, -Bc.data * g(z[Bc.col]))
        assert np.array_equal(b, -(B @ g(z)))
        ref = spla.spsolve(solver.matrix, b)
        U = solver.solve(g).U[d.mask]
        assert np.abs(U - ref).max() <= 1e-12 * np.abs(ref).max()


    def test_block_solve_equals_single_solves(self, disk_q):
        _, d, q = disk_q
        solver = DirichletSolver(d, q)
        gs = [boundary_mode(d, k) for k in range(1, 9)]
        U, rel = solver.solve_on_mask(gs)
        for k, g in enumerate(gs):
            P = solver.solve(g)
            assert np.array_equal(U[:, k], P.U[d.mask])
            assert rel[k] <= 1e-6
        assert np.abs(P.U[~d.mask]).max() == 0.0

    def test_lifts_in_two_steps_equal_single_solves(self, disk_q):
        # lifts(3) then lifts(8): the second call factors again and solves
        # modes 4..8 as one block
        _, d, q = disk_q
        side = Side(q, d)
        first = side.lifts(3)
        lifts = side.lifts(8)
        assert len(lifts) == 8 and all(a is b for a, b in zip(first, lifts))
        solver = DirichletSolver(d, q)
        for k, (u, n) in enumerate(lifts, start=1):
            U = solver.solve(boundary_mode(d, k)).U
            assert np.array_equal(u, U[d.mask])
            assert n == w12_norm(U, d)

    def test_global_random_state_untouched(self, disk_q):
        # the conditioning probe's one-column estimate draws no random sign
        # vectors, so a caller's seeded stream does not move
        _, d, q = disk_q
        np.random.seed(0)
        want = np.random.rand()
        np.random.seed(0)
        DirichletSolver(d, q)
        assert np.random.rand() == want

    def test_exact_one_norm_bounds_estimate(self, disk_q):
        # ||A||_1 (the largest column abs-sum) bounds Higham-Tisseur's
        # estimate from below, up to the rounding of the estimate's sums
        import scipy.sparse.linalg as spla
        _, d, q = disk_q
        A = DirichletSolver(d, q).matrix
        exact = float(abs(A).sum(axis=0).max())
        for _ in range(3):
            assert exact >= spla.onenormest(A) * (1 - 1e-14)


class TestLaplacian:
    def test_geometry_built_once_per_domain(self, monkeypatch):
        # four arms per domain, whatever the number of solvers on it
        from bklab import grid
        arm_cuts, calls = grid._arm_cuts, []

        def counting(*args):
            calls.append(args[2:4])  # the arm (ex, ey)
            return arm_cuts(*args)
        monkeypatch.setattr(grid, "_arm_cuts", counting)
        g = make_grid(1.2, 64)
        d = make_domain(g, Disk(0j, 1.0))
        q = d.restrict(bump_field(g, 0.2 + 0.1j, 0.45, 0.8))
        DirichletSolver(d, q)
        DirichletSolver(d, 2 * q)
        assert sorted(calls) == [(-1, 0), (0, -1), (0, 1), (1, 0)]

    def test_q_enters_on_the_diagonal(self, disk_q):
        # A(q) is L with q added to its diagonal entries, so A(q1) - A(q2)
        # is diag(q1 - q2) on the mask, up to the rounding of L's diagonal
        _, d, q1 = disk_q
        q2 = d.restrict(bump_field(d.grid, -0.1 + 0.2j, 0.3, 0.6))
        L = d.laplacian[0]
        on = L.indices == np.repeat(np.arange(L.shape[1]), np.diff(L.indptr))
        A1, A2 = (DirichletSolver(d, q).matrix for q in (q1, q2))
        for A, q in ((A1, q1), (A2, q2)):
            assert np.array_equal(A.indptr, L.indptr)
            assert np.array_equal(A.indices, L.indices)
            assert np.array_equal(A.data[~on], L.data[~on])
            assert np.array_equal(A.data[on], L.data[on] + q[d.mask])
        D = (A1 - A2).tocoo()
        assert np.array_equal(D.row, D.col)
        dq = q1[d.mask] - q2[d.mask]
        assert np.abs(D.diagonal() - dq).max() <= 1e-15 * np.abs(L.data[on]).max()

    def test_cached_and_read_only(self, disk_q):
        _, d, _ = disk_q
        L, B, z = d.laplacian
        assert d.laplacian[0] is L
        assert L.shape == (int(d.mask.sum()),) * 2 and B.shape == (L.shape[0], z.size)
        for a in (L.data, L.indices, L.indptr, B.data, B.indices, B.indptr, z):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0


class TestDnPairing:
    def test_orthogonal_linears(self, square):
        Px = forward_solve(_zeros(square), lambda z: z.real.astype(complex), square)
        Py = forward_solve(_zeros(square), lambda z: z.imag.astype(complex), square)
        assert abs(dn_pairing(Px, Py)) <= 1e-12

    def test_energy_of_x(self, square):
        Px = forward_solve(_zeros(square), lambda z: z.real.astype(complex), square)
        val = dn_pairing(Px, Px)
        assert abs(val - (-1.0)) <= 3 * square.grid.h

    def test_symmetry(self, disk_q):
        g, d, q = disk_q
        solver = DirichletSolver(d, q)
        rng = np.random.default_rng(3)
        for seed in range(3):
            c = np.random.default_rng(seed).normal(size=4)
            u = lambda z: (c[0] * z.real + c[1] * z.imag ** 2 + c[2]).astype(complex)
            v = lambda z: (c[3] * z.real * z.imag + np.cos(z.real)).astype(complex)
            Pu, Pv = solver.solve(u), solver.solve(v)
            a, b = dn_pairing(Pu, Pv), dn_pairing(Pv, Pu)
            assert abs(a - b) <= 1e-8 * max(abs(a), 1e-30)

    def test_real_traces_real_pairing(self, disk_q):
        g, d, q = disk_q
        solver = DirichletSolver(d, q.real.astype(complex))
        Pu = solver.solve(lambda z: z.real.astype(complex))
        Pv = solver.solve(lambda z: (z.real * z.imag).astype(complex))
        val = dn_pairing(Pu, Pv)
        assert abs(val.imag) <= 1e-10 * max(abs(val), 1e-30)

    def test_domain_mismatch(self, square, disk_q):
        _, d, q = disk_q
        Pa = forward_solve(_zeros(square), lambda z: z.real.astype(complex), square)
        Pb = forward_solve(_zeros(d), lambda z: z.real.astype(complex), d)
        with pytest.raises(BklabError):
            dn_pairing(Pa, Pb)


class TestAlessandrini:
    def test_identical_problems(self, disk_q):
        g, d, q = disk_q
        P = forward_solve(q, boundary_mode(d, 1), d)
        rep = alessandrini_check(P, P)
        assert rep.interior == 0.0
        assert abs(rep.boundary) <= 1e-6

    def test_swap_negates_boundary(self, disk_q):
        g, d, q = disk_q
        P1 = forward_solve(_zeros(d), boundary_mode(d, 1), d)
        P2 = forward_solve(q, boundary_mode(d, 2), d)
        a = alessandrini_check(P1, P2)
        b = alessandrini_check(P2, P1)
        assert abs(a.boundary + b.boundary) <= 1e-12 * max(abs(a.boundary), 1e-30)
        assert abs(a.interior + b.interior) <= 1e-12 * max(abs(a.interior), 1e-30)


@pytest.fixture(scope="module")
def family(disk_q):
    g, d, q = disk_q
    lattice = make_z0_lattice(d, 3)
    return FamilySpec(tuple(lattice), (8.0, 16.0, 32.0), fd_modes=4)


class TestCauchyDistance:
    def test_identical_potentials(self, disk_q, family):
        g, d, q = disk_q
        rep = cauchy_distance(q, q, d, family)
        assert rep.d_hat == 0.0

    def test_monotone_in_family(self, disk_q):
        g, d, q = disk_q
        q2 = q + d.restrict(bump_field(g, -0.15 + 0.2j, 0.35, 0.2))
        lattice = make_z0_lattice(d, 3)
        small = FamilySpec(tuple(lattice), (8.0, 16.0, 32.0), fd_modes=0)
        big = FamilySpec(tuple(lattice), (8.0, 16.0, 32.0), fd_modes=4)
        assert cauchy_distance(q, q2, d, big).d_hat \
            >= cauchy_distance(q, q2, d, small).d_hat

    def test_la_bound_fitted(self, disk_q, family):
        # d_hat <= C ||q1 - q2||_{L^4}; C fitted on the widest pair, frozen
        g, d, q = disk_q
        h2 = g.cell_measure
        C_FIT = 0.0066  # calibrated on this domain at N=128 (1.2x margin)
        for eps in (0.4, 0.1, 0.025):
            q2 = q + d.restrict(bump_field(g, -0.15 + 0.2j, 0.35, eps))
            la = float(h2 * np.sum(np.abs((q - q2)[d.mask]) ** 4)) ** 0.25
            rep = cauchy_distance(q, q2, d, family)
            assert rep.d_hat <= C_FIT * la

    def test_family_too_small(self, disk_q):
        g, d, q = disk_q
        with pytest.raises(BklabError):
            cauchy_distance(q, q, d, FamilySpec((0j,) * 4, (8.0, 16.0, 32.0)))
        with pytest.raises(BklabError):
            cauchy_distance(q, q, d,
                            FamilySpec(tuple(make_z0_lattice(d, 3)), (8.0,)))

    def test_family_taus_sorted_and_distinct(self, disk_q):
        # the rule of every tau list: ascending, and a repeated tau is named
        # before the "at least 3" count could take it for two
        _, d, _ = disk_q
        lattice = tuple(make_z0_lattice(d, 3))
        assert FamilySpec(lattice, (16, 4.0, 8.0)).taus == (4.0, 8.0, 16.0)
        with pytest.raises(BklabError, match=r"^tau sample 4 is given more than once$"):
            FamilySpec(lattice, (4.0, 4.0, 16.0))


@pytest.fixture(scope="module")
def square32():
    g = make_grid(1.2, 32)
    return make_domain(g, Polygon((-0.8 - 0.8j, 0.8 - 0.8j, 0.8 + 0.8j, -0.8 + 0.8j)))


class TestPolygonCauchyData:
    """Off disks the trigonometric data run in nearest-node arclength."""

    def test_arclength_at_nodes(self, square32):
        d = square32
        verts = np.asarray(d.vertices)
        ends = np.roll(verts, -1)
        start = np.concatenate([[0.0], np.cumsum(np.abs(ends - verts))])
        # each node's boundary length from the first vertex, edge by edge
        want = np.full(d.nodes.size, np.nan)
        for i, (a, b) in enumerate(zip(verts, ends)):
            on = np.abs(np.abs(d.nodes - a) + np.abs(b - d.nodes) - abs(b - a)) < 1e-12
            want[on] = start[i] + np.abs(d.nodes[on] - a)
        s = d.arclength_at(d.nodes)
        assert np.abs(s - want).max() <= 1e-12
        # a point just off the boundary takes its nearest node's coordinate
        step = d.perimeter / d.nodes.size
        assert np.array_equal(d.arclength_at(d.nodes + 0.1 * step * d.normals), s)
        assert np.array_equal(boundary_mode(d, 3)(d.nodes),
                              np.exp(2j * np.pi * 3 * s / d.perimeter))

    def test_identical_potentials(self, square32):
        d = square32
        q = d.restrict(bump_field(d.grid, 0.1 + 0.1j, 0.4, 0.5))
        fam = FamilySpec(tuple(make_z0_lattice(d, 3)), (2.0, 4.0, 8.0), fd_modes=2)
        rep = cauchy_distance(q, q, d, fam)
        assert rep.d_hat == 0.0 and not rep.skipped
        assert [p["modes"] for p in rep.pairs if p["kind"] == "fd"] == [
            (1, 1), (1, 2), (2, 1), (2, 2)]


class TestSide:
    def test_parallel_walk_keeps_every_solution(self, monkeypatch):
        # more threads than cores and frequent switches: each job is solved
        # once and kept, and equals the solve of a side walked serially
        g = make_grid(1.2, 32)
        d = make_domain(g, Disk(0j, 1.0))
        q = d.restrict(bump_field(g, 0.2 + 0.1j, 0.45, 0.5))
        jobs = [(z0, tau) for z0 in make_z0_lattice(d, 3) for tau in (4.0, 6.0, 8.0)]
        solves = []
        solve = boundary.solve_f

        def counting(q, params, domain, phase_type, **kwargs):
            solves.append((params.z0, params.tau))
            return solve(q, params, domain, phase_type, **kwargs)
        monkeypatch.setattr(boundary, "solve_f", counting)
        monkeypatch.setenv("BKLAB_THREADS", "8")
        side = Side(q, d)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            norms = parallel_map(lambda job: side.norm(*job), jobs)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(solves, key=repr) == sorted(jobs, key=repr)
        serial = Side(q, d)
        for (z0, tau), n in zip(jobs, norms):
            assert np.array_equal(side.solution(z0, tau), serial.solution(z0, tau))
            assert n == serial.norm(z0, tau)
        assert len(solves) == 2 * len(jobs)


    def test_distance_report_independent_of_threads(self, monkeypatch):
        # the pool holds the lift job and the oscillating jobs: the report
        # is the same for one worker and for two.  A large potential makes
        # some solves diverge, so `skipped` is not empty
        g = make_grid(1.2, 32)
        d = make_domain(g, Disk(0j, 1.0))
        q1 = d.restrict(bump_field(g, 0.2 + 0.1j, 0.45, 0.5))
        q2 = d.restrict(bump_field(g, -0.1 + 0.2j, 0.35, 40.0))
        fam = FamilySpec(tuple(make_z0_lattice(d, 3)), (2.0, 4.0, 8.0), fd_modes=3)
        reports = []
        for threads in ("1", "2"):
            monkeypatch.setenv("BKLAB_THREADS", threads)
            reports.append(boundary.side_distance(Side(q1, d), q2, fam))
        one, two = reports
        assert one.pairs == two.pairs and one.skipped == two.skipped
        assert one.d_hat == two.d_hat
        assert len(one.pairs) == 27 - len(one.skipped) + 9
        assert one.skipped


class TestW12Norm:
    @pytest.mark.parametrize("L, N, shape", [
        (1.2, 128, Disk(0j, 1.0)),
        (1.2, 128, Polygon((-0.9 - 0.7j, 0.8 - 0.9j, 0.6 + 0.8j, -0.5 + 0.6j))),
        # the mask reaches the outermost cells, so the box meets the grid's edge
        (1.0, 16, Disk(0j, 0.97)),
    ], ids=["disk", "polygon", "disk-in-outer-cells"])
    def test_box_norm_equals_full_grid(self, L, N, shape):
        d = make_domain(make_grid(L, N), shape)
        rng = np.random.default_rng(1)
        f = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
        m = d.mask
        fx, fy = masked_gradient(f, m, d.grid.h)
        ref = float(np.sqrt((np.abs(f[m]) ** 2 + np.abs(fx[m]) ** 2
                             + np.abs(fy[m]) ** 2).sum() * d.grid.cell_measure))
        assert w12_norm(f, d) == ref
        assert boundary._masked_w12_norm(f[m], d) == w12_norm(d.restrict(f), d) == ref

    @pytest.mark.parametrize("L, N, shape", [
        (1.2, 128, Polygon((-0.9 - 0.7j, 0.8 - 0.9j, 0.6 + 0.8j, -0.5 + 0.6j))),
        (1.0, 16, Disk(0j, 0.97)),
    ], ids=["polygon", "disk-at-edge"])
    def test_stencil_norm_matches_padded_differences(self, L, N, shape, padded_gradient):
        d = make_domain(make_grid(L, N), shape)
        rng = np.random.default_rng(4)
        f = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
        m = d.mask
        fx, fy = padded_gradient(f, m, d.grid.h)
        ref = float(np.sqrt((np.abs(f[m]) ** 2 + np.abs(fx[m]) ** 2
                             + np.abs(fy[m]) ** 2).sum() * d.grid.cell_measure))
        assert w12_norm(f, d) == boundary._masked_w12_norm(f[m], d) == ref

    def test_scaling(self, disk_q):
        g, d, q = disk_q
        rng = np.random.default_rng(0)
        f = rng.normal(size=(128, 128)).astype(complex)
        assert w12_norm(3.0 * f, d) == pytest.approx(3.0 * w12_norm(f, d), rel=1e-12)

    def test_constant(self, disk_q):
        g, d, _ = disk_q
        val = w12_norm(np.ones((128, 128), dtype=complex), d)
        assert val == pytest.approx(math.sqrt(d.measure), rel=1e-12)
