"""Forward Dirichlet solver for Delta U + q U = 0, the Dirichlet-Neumann
pairing, the Alessandrini identity check, and the Cauchy-data distance
proxy built from oscillating-solution pairs and trigonometric traces.

A pairing int u1 (q1 - q2) u2 dm is a stored side walked against a
streamed partner: the side holds q1's holomorphic oscillating solutions
over the (z0, tau) jobs (or the message of a divergence) and its lifts
of the trigonometric data with their W^{1,2} norms, masked to the domain;
q2's antiholomorphic solution is solved job by job during the walk and
never stored.  A side built once serves every partner of q1.  Only the
distance normalizes the oscillating pairs, so it alone takes their
W^{1,2} norms: the side's on first read, the partner's during the walk.

The solver is a Shortley-Weller five-point scheme: at cells whose stencil
crosses the boundary, the arms are cut at the exact shape intersection
and the Dirichlet datum enters through the cut point, which keeps the
scheme second order on disks and grid-aligned polygons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bukhgeim import assemble_u, solve_f
from .errors import BklabError, DomainError, FixedPointDivergenceError, SingularSystemError
from .grid import Disk, DomainSpec, PhaseParams, Polygon
from .util import masked_gradient, parallel_map

__all__ = [
    "DirichletProblem", "DirichletSolver", "forward_solve", "w12_norm",
    "dn_pairing", "alessandrini_check", "AlessandriniReport",
    "FamilySpec", "CauchyDistanceReport", "cauchy_distance",
    "boundary_mode", "dn_norm_over_family", "Side", "solve_side", "side_distance",
]

_THETA_FLOOR = 1e-3


def _arm_cuts(shape, zc: np.ndarray, ex: int, ey: int, h: float) -> np.ndarray:
    """Distances (in units of h, in (0, 1]) from the masked cell centres zc
    to the boundary along the +/-x or +/-y arm."""
    if isinstance(shape, Disk):
        w = zc - shape.center
        beta = w.real * ex + w.imag * ey
        gam = np.abs(w) ** 2 - shape.radius ** 2
        t = -beta + np.sqrt(beta * beta - gam)
    elif isinstance(shape, Polygon):
        verts = np.asarray(shape.vertices, dtype=complex)
        t = np.full(zc.shape, np.inf)
        for av, bv in zip(verts, np.roll(verts, -1)):
            # zc + s*(ex + i ey) = av + r*(bv - av)
            dx, dy = bv.real - av.real, bv.imag - av.imag
            det = ex * (-dy) - ey * (-dx)
            if abs(det) < 1e-300:
                continue
            rx, ry = av.real - zc.real, av.imag - zc.imag
            s = (rx * (-dy) + ry * dx) / det
            r = (ex * ry - ey * rx) / det
            # a centre on the edge itself (s ~ 0) is cut there only by an arm
            # leaving the domain; the polygon is positively oriented, so
            # such an arm has det < 0
            s_min = -1e-12 if det < 0 else 1e-12
            t = np.where((-1e-12 <= r) & (r <= 1 + 1e-12) & (s_min < s) & (s < t), s, t)
        if not np.isfinite(t).all():
            raise DomainError("stencil arm does not cross the polygon boundary")
    else:
        raise DomainError(f"unsupported shape {shape!r}")
    return np.clip(t / h, _THETA_FLOOR, 1.0)


class DirichletSolver:
    """Factorized (Delta_h + q) with Dirichlet data on the cut stencil;
    reusable across boundary data for a fixed (domain, q)."""

    def __init__(self, domain: DomainSpec, q):
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla
        grid = domain.grid
        self.domain = domain
        self.q = grid.check_field(np.asarray(q, dtype=complex))
        N, h = grid.N, grid.h
        mask = domain.mask
        self.n = int(mask.sum())
        idx = np.full((N + 2, N + 2), -1, dtype=np.int64)
        idx[1:-1, 1:-1][mask] = np.arange(self.n)
        k = np.arange(self.n)
        zc = grid.Z[mask]
        # one pass per arm over every cell: an arm to a masked neighbour has
        # length 1, any other is cut at the boundary and its Dirichlet datum
        # at the cut point enters b (Shortley-Weller)
        diag = np.zeros(self.n)
        rows, cols, vals, bc = [], [], [], []
        for arms in (((1, 0), (-1, 0)), ((0, 1), (0, -1))):
            nbs = [idx[1 + ey:N + 1 + ey, 1 + ex:N + 1 + ex][mask] for ex, ey in arms]
            ts = [np.ones(self.n) for _ in arms]
            for (ex, ey), nb, t in zip(arms, nbs, ts):
                t[nb < 0] = _arm_cuts(domain.shape, zc[nb < 0], ex, ey, h)
            tp, tm = ts
            coeffs = (2.0 / (tp * (tp + tm) * h * h), 2.0 / (tm * (tp + tm) * h * h))
            diag -= coeffs[0] + coeffs[1]
            for (ex, ey), nb, t, c in zip(arms, nbs, ts, coeffs):
                cut = nb < 0
                rows.append(k[~cut]); cols.append(nb[~cut]); vals.append(c[~cut])
                bc.append((k[cut], c[cut], zc[cut] + t[cut] * h * (ex + 1j * ey)))
        rows.append(k); cols.append(k); vals.append(diag + self.q[mask])
        self.matrix = sp.csc_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.n, self.n))
        # (row, coefficient, boundary point), each cell's terms in E, W, N, S
        # order so that np.add.at sums them in a fixed order
        bk, bcoeff, bz = (np.concatenate(a) for a in zip(*bc))
        order = np.argsort(bk, kind="stable")
        self._bc_rows, self._bc_coeff, self._bc_z = bk[order], bcoeff[order], bz[order]
        try:
            self.factor = spla.splu(self.matrix)
        except RuntimeError as e:
            raise SingularSystemError(f"Dirichlet system is singular: {e}") from e
        # conditioning probe: q at (or extremely near) a discrete interior
        # Dirichlet eigenvalue makes the factored system unusable
        inv_op = spla.LinearOperator(
            self.matrix.shape, dtype=complex,
            matvec=lambda b: self.factor.solve(b.astype(complex)),
            rmatvec=lambda b: self.factor.solve(b.astype(complex), trans="H"))
        with np.errstate(all="ignore"):
            inv_norm = float(spla.onenormest(inv_op))
            cond = float(spla.onenormest(self.matrix)) * inv_norm
        if not np.isfinite(cond) or cond > 1e12:
            raise SingularSystemError(
                f"Dirichlet system is numerically singular (cond ~ {cond:.2e}): "
                f"q sits at an interior Dirichlet eigenvalue")

    def solve(self, g) -> "DirichletProblem":
        """Solve with Dirichlet datum g (callable on complex points)."""
        b = np.zeros(self.n, dtype=complex)
        np.add.at(b, self._bc_rows,
                  -self._bc_coeff * np.asarray(g(self._bc_z), dtype=complex))
        U = self.factor.solve(b)
        resid = float(np.abs(self.matrix @ U - b).max())
        scale = float(np.abs(b).max())
        rel = resid / scale if scale > 0 else 0.0
        if not np.all(np.isfinite(U)) or rel > 1e-6:
            raise SingularSystemError(
                f"factorization residual {rel:.3e}: q sits at or near an interior "
                f"Dirichlet eigenvalue")
        grid = self.domain.grid
        Ug = np.zeros((grid.N, grid.N), dtype=complex)
        Ug[self.domain.mask] = U
        return DirichletProblem(self.domain, self.q, g, Ug, rel, self)


@dataclass
class DirichletProblem:
    domain: DomainSpec
    q: np.ndarray
    g: object                   # callable datum
    U: np.ndarray               # solution, zero outside the mask
    residual: float             # factorization residual (relative)
    solver: DirichletSolver = field(repr=False, default=None)


def forward_solve(q, g, domain: DomainSpec) -> DirichletProblem:
    return DirichletSolver(domain, q).solve(g)


def w12_norm(fld: np.ndarray, domain: DomainSpec) -> float:
    """Discrete W^{1,2} norm with the same centered-difference gradient
    the pairing quadrature uses."""
    grid = domain.grid
    fx, fy = masked_gradient(np.asarray(fld, dtype=complex), domain.mask, grid.h)
    m = domain.mask
    s = (np.abs(fld[m]) ** 2 + np.abs(fx[m]) ** 2 + np.abs(fy[m]) ** 2).sum()
    return float(np.sqrt(s * grid.cell_measure))


def interior_pairing(U, dq, V, domain: DomainSpec) -> complex:
    """int U dq V dm over the domain by midpoint quadrature, from the
    samples of each factor on the domain mask."""
    return complex((U * dq * V).sum() * domain.grid.cell_measure)


def _weak_form(U, V, q, domain: DomainSpec) -> complex:
    grid = domain.grid
    Ux, Uy = masked_gradient(U, domain.mask, grid.h)
    Vx, Vy = masked_gradient(V, domain.mask, grid.h)
    m = domain.mask
    val = (-(Ux[m] * Vx[m] + Uy[m] * Vy[m]) + q[m] * U[m] * V[m]).sum()
    return complex(val * grid.cell_measure)


def dn_pairing(P1: DirichletProblem, v) -> complex:
    """(Lambda_q u, v) = int(-grad U . grad V + q U V) dm by midpoint
    quadrature, V being the q-solve lift of v (or another problem's
    solution on the same domain)."""
    if isinstance(v, DirichletProblem):
        if v.domain is not P1.domain:
            raise BklabError("pairing requires problems on the same domain")
        V = v.U
    elif callable(v):
        V = P1.solver.solve(v).U
    else:
        raise BklabError("v must be a DirichletProblem or a trace callable")
    return _weak_form(P1.U, V, P1.q, P1.domain)


@dataclass(frozen=True)
class AlessandriniReport:
    interior: complex
    boundary: complex
    gap: float


def _normal_derivative(P: DirichletProblem) -> np.ndarray:
    """Outward normal derivative at the quadrature nodes: one-sided
    second-order difference through the boundary value and two interior
    samples along the inward normal."""
    domain = P.domain
    grid = domain.grid
    d = 2.0 * grid.h
    g0 = domain.sample_trace(P.g)
    u1 = interp_bilinear(grid, P.U, domain.nodes - domain.normals * d)
    u2 = interp_bilinear(grid, P.U, domain.nodes - domain.normals * 2 * d)
    return (3.0 * g0 - 4.0 * u1 + u2) / (2.0 * d)


def interp_bilinear(grid, fld: np.ndarray, pts: np.ndarray) -> np.ndarray:
    gx = (pts.real + grid.L) / grid.h - 0.5
    gy = (pts.imag + grid.L) / grid.h - 0.5
    i0 = np.clip(np.floor(gx).astype(int), 0, grid.N - 2)
    j0 = np.clip(np.floor(gy).astype(int), 0, grid.N - 2)
    fx = np.clip(gx - i0, 0.0, 1.0)
    fy = np.clip(gy - j0, 0.0, 1.0)
    return (fld[j0, i0] * (1 - fx) * (1 - fy) + fld[j0, i0 + 1] * fx * (1 - fy)
            + fld[j0 + 1, i0] * (1 - fx) * fy + fld[j0 + 1, i0 + 1] * fx * fy)


def alessandrini_check(P1: DirichletProblem, P2: DirichletProblem) -> AlessandriniReport:
    """Interior side int U1 (q1 - q2) U2 dm versus the boundary side
    int Tr U1 dnu U2 - Tr U2 dnu U1 dsigma."""
    if P1.domain is not P2.domain:
        raise BklabError("both problems must live on the same domain")
    domain = P1.domain
    m = domain.mask
    interior = interior_pairing(P1.U[m], P1.q[m] - P2.q[m], P2.U[m], domain)
    tr1 = domain.sample_trace(P1.g)
    tr2 = domain.sample_trace(P2.g)
    dn1 = _normal_derivative(P1)
    dn2 = _normal_derivative(P2)
    boundary = complex(np.sum((tr1 * dn2 - tr2 * dn1) * domain.weights))
    return AlessandriniReport(interior, boundary, abs(interior - boundary))


# ---------------------------------------------------------------------------
# Cauchy-data distance

def save_trace(path, domain: DomainSpec, values) -> None:
    """Trace file: CSV rows `arclength,re,im` at the quadrature nodes."""
    values = np.asarray(values, dtype=complex)
    if values.shape != domain.nodes.shape:
        raise BklabError("trace values must be sampled at the quadrature nodes")
    s = domain.node_arclength()
    with open(path, "w") as f:
        f.write("arclength,re,im\n")
        for si, v in zip(s, values):
            f.write(f"{float(si)!r},{float(v.real)!r},{float(v.imag)!r}\n")


def load_trace(path, domain: DomainSpec):
    """Read an `arclength,re,im` CSV and return a periodic arclength
    interpolant usable as a Dirichlet datum (callable on complex points;
    points are mapped to the nearest boundary node's arclength)."""
    rows = []
    with open(path) as f:
        header = f.readline().strip()
        if header != "arclength,re,im":
            raise BklabError(f"{path}: expected header 'arclength,re,im'")
        for line in f:
            a, re, im = line.strip().split(",")
            rows.append((float(a), float(re), float(im)))
    if not rows:
        raise BklabError(f"{path}: empty trace")
    rows.sort()
    s = np.array([r[0] for r in rows])
    v = np.array([complex(r[1], r[2]) for r in rows])
    per = domain.perimeter
    s_wrap = np.concatenate([s - per, s, s + per])
    v_wrap = np.concatenate([v, v, v])

    def g(z):
        sz = domain.arclength_at(z)
        return np.interp(sz, s_wrap, v_wrap.real) + 1j * np.interp(sz, s_wrap, v_wrap.imag)
    return g


def boundary_mode(domain: DomainSpec, k: int):
    """k-th trigonometric boundary datum as a callable: e^{i k angle} on
    disks, e^{2 pi i k s / perimeter} in nearest-node arclength otherwise."""
    shape = domain.shape
    if isinstance(shape, Disk):
        c = shape.center

        def g(z):
            return np.exp(1j * k * np.angle(np.asarray(z, dtype=complex) - c))
        return g
    per = domain.perimeter

    def g(z):
        return np.exp(2j * np.pi * k * domain.arclength_at(z) / per)
    return g


@dataclass(frozen=True)
class FamilySpec:
    """Finite solution family for the distance proxy: oscillating pairs
    over a z0 lattice and tau set, plus optional finite-difference pairs
    with trigonometric data."""

    z0_points: tuple
    taus: tuple
    fd_modes: int = 8

    def validate(self):
        if len(self.z0_points) < 9:
            raise BklabError(f"need at least 9 lattice points, got {len(self.z0_points)}")
        if len(self.taus) < 3:
            raise BklabError(f"need at least 3 tau values, got {len(self.taus)}")

    @property
    def jobs(self) -> list:
        """The (z0, tau) pairs of the oscillating family, z0-major."""
        return [(z0, tau) for z0 in self.z0_points for tau in self.taus]


@dataclass
class CauchyDistanceReport:
    d_hat: float                 # certified lower bound on the true sup
    pairs: list                  # per-pair records: kind, parameters, value
    skipped: list                # (z0, tau, reason) for diverged solves
    family: dict

    def add(self, rec):
        self.pairs.append(rec)
        self.d_hat = max(self.d_hat, rec["value"])


def _mode_lifts(domain: DomainSpec, q, modes: int) -> list[tuple[np.ndarray, float]]:
    """(U_k[mask], ||U_k||_{W^{1,2}}) for the q-lifts of the trigonometric
    data k = 1..modes, all solved with one factorization."""
    solver = DirichletSolver(domain, q)
    lifts = []
    for k in range(1, modes + 1):
        U = solver.solve(boundary_mode(domain, k)).U
        lifts.append((U[domain.mask], w12_norm(U, domain)))
    return lifts


@dataclass
class Side:
    """q's holomorphic oscillating solutions over the family's (z0, tau)
    jobs and its q-lifts of the trigonometric data k = 1..fd_modes, masked
    to the domain."""

    q: np.ndarray
    domain: DomainSpec
    family: FamilySpec
    solutions: dict      # (z0, tau) -> u[mask] or divergence message
    lifts: list          # (U_k[mask], ||U_k||_{W^{1,2}})

    @cached_property
    def norms(self) -> dict:
        """(z0, tau) -> ||u||_{W^{1,2}} of every stored solution, taken on
        first read."""
        m = self.domain.mask

        def norm(u):
            # the masked gradient reads only masked cells, so zero-filling
            # the rest gives the norm of the full solution
            fld = np.zeros(m.shape, dtype=complex)
            fld[m] = u
            return w12_norm(fld, self.domain)

        solved = {job: u for job, u in self.solutions.items() if not isinstance(u, str)}
        return dict(zip(solved, parallel_map(norm, solved.values())))

    def pairing(self, q2, params: PhaseParams) -> tuple[complex, np.ndarray]:
        """(int u1 (q - q2) u2 dm, u2) at one job: u1 the stored solution,
        u2 q2's antiholomorphic one, solved now.  Raises
        FixedPointDivergenceError with the stored message if u1 diverged
        (q2 is then not solved), else with q2's if u2 diverges."""
        u1 = self.solutions[(params.z0, params.tau)]
        if isinstance(u1, str):
            raise FixedPointDivergenceError(u1)
        u2 = assemble_u(solve_f(q2, params, self.domain, "antiholomorphic"))
        m = self.domain.mask
        return interior_pairing(u1, self.q[m] - q2[m], u2[m], self.domain), u2


def solve_side(q, domain: DomainSpec, family: FamilySpec) -> Side:
    """q's side over the family: its holomorphic solve at every job, in
    parallel, and its mode lifts when fd_modes > 0."""
    q = domain.grid.check_field(np.asarray(q, dtype=complex))
    m = domain.mask

    def one(job):
        z0, tau = job
        try:
            sol = solve_f(q, PhaseParams(tau, z0), domain, "holomorphic")
        except FixedPointDivergenceError as e:
            return str(e)
        return assemble_u(sol)[m]

    jobs = list(dict.fromkeys(family.jobs))
    solutions = dict(zip(jobs, parallel_map(one, jobs)))
    lifts = _mode_lifts(domain, q, family.fd_modes) if family.fd_modes > 0 else []
    return Side(q, domain, family, solutions, lifts)


def side_distance(side: Side, q2) -> CauchyDistanceReport:
    """The Cauchy-data distance of the side's potential to q2: the side
    walked against q2 over the family's jobs, then its lifts against q2's."""
    domain, family = side.domain, side.family
    q2 = domain.grid.check_field(np.asarray(q2, dtype=complex))
    report = CauchyDistanceReport(0.0, [], [], {
        "z0_points": len(family.z0_points), "taus": list(family.taus),
        "fd_modes": family.fd_modes})

    norms = side.norms

    def one(job):
        z0, tau = job
        try:
            val, u2 = side.pairing(q2, PhaseParams(tau, z0))
        except FixedPointDivergenceError as e:
            return ("skip", z0, tau, str(e))
        return ("ok", z0, tau, abs(val) / (norms[job] * w12_norm(u2, domain)))

    for res in parallel_map(one, family.jobs):
        if res[0] == "ok":
            report.add({"kind": "oscillating", "z0": res[1], "tau": res[2],
                        "value": res[3]})
        else:
            report.skipped.append({"z0": res[1], "tau": res[2], "reason": res[3]})
    if family.fd_modes > 0:
        m = domain.mask
        dq = side.q[m] - q2[m]
        lifts2 = _mode_lifts(domain, q2, family.fd_modes)
        for j, (Uj, nj) in enumerate(side.lifts, start=1):
            for k, (Vk, nk) in enumerate(lifts2, start=1):
                val = abs(interior_pairing(Uj, dq, Vk, domain))
                report.add({"kind": "fd", "modes": (j, k), "value": val / (nj * nk)})
    return report


def cauchy_distance(q1, q2, domain: DomainSpec, family: FamilySpec) -> CauchyDistanceReport:
    """Max over the family of |int U (q1 - q2) V dm| with both solutions
    normalized in discrete W^{1,2}.  A lower bound on the true supremum,
    reported as such."""
    family.validate()
    return side_distance(solve_side(q1, domain, family), q2)


def dn_norm_over_family(q1, q2, domain: DomainSpec, modes: int = 8) -> float:
    """max |((Lambda_1 - Lambda_2) u_j, v_k)| over the trigonometric trace
    family, normalized by quotient-norm surrogates (the smallest W^{1,2}
    norm among the harmonic, q1- and q2-lifts of each trace)."""
    m = domain.mask
    dq = np.asarray(q1, complex)[m] - np.asarray(q2, complex)[m]
    lifts0 = _mode_lifts(domain, np.zeros_like(q1), modes)
    lifts1 = _mode_lifts(domain, q1, modes)
    lifts2 = _mode_lifts(domain, q2, modes)
    qn = [min(n0, n1, n2) for (_, n0), (_, n1), (_, n2) in zip(lifts0, lifts1, lifts2)]
    best = 0.0
    for (U1j, _), nj in zip(lifts1, qn):
        for (V2k, _), nk in zip(lifts2, qn):
            val = abs(interior_pairing(U1j, dq, V2k, domain))
            best = max(best, val / (nj * nk))
    return best
