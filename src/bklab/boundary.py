"""Forward Dirichlet solver for Delta U + q U = 0, the Dirichlet-Neumann
pairing, the Alessandrini identity check, and the Cauchy-data distance
proxy built from oscillating-solution pairs and trigonometric traces.

A pairing int u1 (q1 - q2) u2 dm walks q1's side, the one store of its
solutions, against a streamed partner: each holomorphic oscillating
solution of q1 (or the message of its divergence) and each lift of the
trigonometric data is solved the first time it is asked for and kept,
masked to the domain, for every partner of q1; q2's antiholomorphic
solution is solved job by job during the walk and never stored.  Only
the distance normalizes the oscillating pairs, so it alone takes their
W^{1,2} norms: the side's once each, the partner's during the walk.  The
distance also lifts the trigonometric data for both potentials: one job
at the head of the walk's pool factors each side's system in turn and
solves all its modes as one multi-column solve, while the other workers
take the oscillating jobs.  W^{1,2} norms read the values on the mask
through the domain's cached difference stencil.

The solver's discrete Laplacian belongs to the domain: the Shortley-Weller
operator `DomainSpec.laplacian`, built once per domain and shared with
`bukhgeim.pde_residual`.  A potential q enters only on its diagonal, and
the Dirichlet data enter through its cut points, all data of one solve
in one sparse product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bukhgeim import _sorted_taus, solve_f
from .errors import BklabError, FixedPointDivergenceError, SingularSystemError
from .grid import Disk, DomainSpec, PhaseParams
from .util import gradient_on_mask, parallel_map

__all__ = [
    "DirichletProblem", "DirichletSolver", "forward_solve", "w12_norm",
    "dn_pairing", "alessandrini_check", "AlessandriniReport",
    "FamilySpec", "CauchyDistanceReport", "cauchy_distance",
    "boundary_mode", "Side", "side_distance",
]

class DirichletSolver:
    """Factorized (Delta_h + q) with Dirichlet data on the cut stencil;
    reusable across boundary data for a fixed (domain, q).  The matrix is
    the domain's Shortley-Weller Laplacian L plus diag(q), so a solver
    builds no geometry; the data at the cut points enter the right-hand
    sides -B g(z) through one sparse product (`DomainSpec.laplacian`).

    The Shortley-Weller matrix has a symmetric pattern, so the LU factor
    takes the minimum-degree ordering of A^T + A, which fills in far less
    than the default COLAMD (unit disk on L=1.2, a 0.5 bump; best of 5 on
    a 2-CPU Xeon, one BLAS thread):

    | N   | ordering      | factor (ms) | solve (ms) | nnz(L) + nnz(U) |
    |-----|---------------|-------------|------------|-----------------|
    | 128 | COLAMD        | 40          | 2.8        | 613k            |
    | 128 | MMD_AT_PLUS_A | 31          | 1.7        | 333k            |
    | 256 | COLAMD        | 299         | 14.6       | 3.27M           |
    | 256 | MMD_AT_PLUS_A | 265         | 8.3        | 1.76M           |

    `solve_on_mask` solves several data as one multi-column solve, bit for
    bit the columns of one-column solves; `solve` is its one-column case.
    Eight trigonometric lifts, right-hand sides and residual checks
    included (same machine and domain):

    | N   | 8 one-column solves (ms) | one 8-column solve (ms) |
    |-----|--------------------------|-------------------------|
    | 128 | 15.7                     | 8.5                     |
    | 256 | 87.1                     | 53.3                    |

    The conditioning probe multiplies the exact ||A||_1 (the largest column
    abs-sum) by the Hager-Higham estimate of ||A^{-1}||_1 with one column
    (`onenormest` with t=1): a few one-column solves, deterministic, and
    numpy's global random state is never drawn from.
    """

    def __init__(self, domain: DomainSpec, q):
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla
        self.domain = domain
        self.q = domain.grid.check_field(np.asarray(q, dtype=complex))
        L, self._B, self._z = domain.laplacian
        self.n = L.shape[0]
        self.matrix = L + sp.diags(self.q[domain.mask])
        try:
            self.factor = spla.splu(self.matrix, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as e:
            raise SingularSystemError(f"Dirichlet system is singular: {e}") from e
        # conditioning probe: q at (or extremely near) a discrete interior
        # Dirichlet eigenvalue makes the factored system unusable.  ||A||_1
        # is exact; ||A^{-1}||_1 is the one-column estimate, which never
        # draws random sign vectors
        inv_op = spla.LinearOperator(
            self.matrix.shape, dtype=complex,
            matvec=lambda b: self.factor.solve(b.astype(complex)),
            rmatvec=lambda b: self.factor.solve(b.astype(complex), trans="H"))
        with np.errstate(all="ignore"):
            inv_norm = float(spla.onenormest(inv_op, t=1))
            cond = float(abs(self.matrix).sum(axis=0).max()) * inv_norm
        if not np.isfinite(cond) or cond > 1e12:
            raise SingularSystemError(
                f"Dirichlet system is numerically singular (cond ~ {cond:.2e}): "
                f"q sits at an interior Dirichlet eigenvalue")

    def solve_on_mask(self, gs) -> tuple[np.ndarray, np.ndarray]:
        """(U, rel): the solutions on the mask for the Dirichlet data `gs`
        (callables on complex points), one column of U each, found by one
        multi-column solve, and their relative factorization residuals."""
        z = self._z  # a datum may give one value for every point
        b = -(self._B @ np.array([np.broadcast_to(g(z), z.shape) for g in gs], dtype=complex).T)
        U = self.factor.solve(b)
        resid = np.abs(self.matrix @ U - b).max(axis=0)
        scale = np.abs(b).max(axis=0)
        rel = np.divide(resid, scale, out=np.zeros_like(resid), where=scale > 0)
        if not np.all(np.isfinite(U)) or (rel > 1e-6).any():
            raise SingularSystemError(
                f"factorization residual {rel.max():.3e}: q sits at or near an "
                f"interior Dirichlet eigenvalue")
        return U, rel

    def solve(self, g) -> "DirichletProblem":
        """Solve with Dirichlet datum g (callable on complex points): the
        one-column case of `solve_on_mask`."""
        U, rel = self.solve_on_mask([g])
        grid = self.domain.grid
        Ug = np.zeros((grid.N, grid.N), dtype=complex)
        Ug[self.domain.mask] = U[:, 0]
        return DirichletProblem(self.domain, self.q, g, Ug, float(rel[0]))


@dataclass
class DirichletProblem:
    domain: DomainSpec
    q: np.ndarray
    g: object                   # callable datum
    U: np.ndarray               # solution, zero outside the mask
    residual: float             # factorization residual (relative)


def forward_solve(q, g, domain: DomainSpec) -> DirichletProblem:
    return DirichletSolver(domain, q).solve(g)


def w12_norm(fld: np.ndarray, domain: DomainSpec) -> float:
    """Discrete W^{1,2} norm with the same centered-difference gradient
    the pairing quadrature uses, from the field's values on the mask."""
    return _masked_w12_norm(np.asarray(fld, dtype=complex)[domain.mask], domain)


def _masked_w12_norm(vals: np.ndarray, domain: DomainSpec) -> float:
    """w12_norm of a field given by its values on the mask: the masked
    gradient reads only masked cells."""
    fx, fy = gradient_on_mask(vals, domain.stencil, domain.grid.h)
    s = (np.abs(vals) ** 2 + np.abs(fx) ** 2 + np.abs(fy) ** 2).sum()
    return float(np.sqrt(s * domain.grid.cell_measure))


def interior_pairing(U, dq, V, domain: DomainSpec) -> complex:
    """int U dq V dm over the domain by midpoint quadrature, from the
    samples of each factor on the domain mask."""
    return complex((U * dq * V).sum() * domain.grid.cell_measure)


def dn_pairing(P1: DirichletProblem, P2: DirichletProblem) -> complex:
    """(Lambda_q u, v) = int(-grad U . grad V + q U V) dm by midpoint
    quadrature, V being the solution of P2, a problem on the same domain
    (the q-solve lift of v)."""
    if P2.domain is not P1.domain:
        raise BklabError("pairing requires problems on the same domain")
    domain, m = P1.domain, P1.domain.mask
    u, v = P1.U[m], P2.U[m]
    Ux, Uy = gradient_on_mask(u, domain.stencil, domain.grid.h)
    Vx, Vy = gradient_on_mask(v, domain.stencil, domain.grid.h)
    val = (-(Ux * Vx + Uy * Vy) + P1.q[m] * u * v).sum()
    return complex(val * domain.grid.cell_measure)


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


def interp_bilinear(grid, fld: np.ndarray, pts: np.ndarray, box=None) -> np.ndarray:
    """Bilinear interpolation of a field at points.  `fld` holds the cells
    of `box`, a (rows, columns) pair of slices such as `DomainSpec.box`
    that holds every point's stencil, or of the whole grid by default."""
    j0, i0, fy, fx = grid.bilinear_stencil(pts)
    if box is not None:
        j0, i0 = j0 - box[0].start, i0 - box[1].start
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

    def __post_init__(self):
        if len(self.z0_points) < 9:
            raise BklabError(f"need at least 9 lattice points, got {len(self.z0_points)}")
        object.__setattr__(self, "taus", tuple(_sorted_taus(self.taus)))
        if len(self.taus) < 3:
            raise BklabError(f"need at least 3 tau values, got {len(self.taus)}")
        if self.fd_modes < 0:
            raise BklabError(f"fd_modes must be >= 0, got {self.fd_modes}")

    @property
    def jobs(self) -> list:
        """The (z0, tau) pairs of the oscillating family, z0-major."""
        return [(z0, tau) for z0 in self.z0_points for tau in self.taus]

    def check_for(self, domain: DomainSpec) -> None:
        """BklabError unless the domain's grid admits every tau, and fd_modes
        is at most the domain's cut points: a lift reads its datum only there."""
        for tau in self.taus:
            domain.grid.check_tau(tau)
        cuts = domain.laplacian[2].size
        if self.fd_modes > cuts:
            raise BklabError(f"fd_modes must be at most {cuts}, the domain's boundary "
                             f"cut points, got {self.fd_modes}")


@dataclass
class CauchyDistanceReport:
    d_hat: float                 # certified lower bound on the true sup
    pairs: list                  # per-pair records: kind, parameters, value
    skipped: list                # (z0, tau, reason) for diverged solves
    family: dict

    def add(self, rec):
        self.pairs.append(rec)
        self.d_hat = max(self.d_hat, rec["value"])


class Side:
    """The store of one potential's solutions on a domain: its holomorphic
    oscillating solution at each (z0, tau) (or the message of a divergence)
    with its W^{1,2} norm, and its q-lifts of the trigonometric data with
    their norms, all masked to the domain.  Nothing is solved until it is
    first asked for; then it is kept.  Threads asking for one (z0, tau) at
    once may each solve it, to the same result."""

    def __init__(self, q, domain: DomainSpec):
        self.q = domain.grid.check_field(np.asarray(q, dtype=complex))
        self.domain = domain
        self._solutions: dict = {}   # (z0, tau) -> u[mask] or divergence message
        self._norms: dict = {}       # (z0, tau) -> ||u||_{W^{1,2}}
        self._lifts: list = []       # (U_k[mask], ||U_k||_{W^{1,2}}), k = 1, 2, ...

    def solution(self, z0, tau) -> np.ndarray:
        """u[mask] at (z0, tau); raises FixedPointDivergenceError with the
        stored message if the solve diverged."""
        key = (z0, tau)
        if key not in self._solutions:
            try:
                self._solutions[key] = solve_f(self.q, PhaseParams(tau, z0), self.domain,
                                               "holomorphic").u_on_mask()
            except FixedPointDivergenceError as e:
                self._solutions[key] = str(e)
        u = self._solutions[key]
        if isinstance(u, str):
            raise FixedPointDivergenceError(u)
        return u

    def norm(self, z0, tau) -> float:
        """||u||_{W^{1,2}} at (z0, tau)."""
        key = (z0, tau)
        if key not in self._norms:
            self._norms[key] = _masked_w12_norm(self.solution(z0, tau), self.domain)
        return self._norms[key]

    def lifts(self, modes: int) -> list[tuple[np.ndarray, float]]:
        """(U_k[mask], ||U_k||_{W^{1,2}}) for the q-lifts of the
        trigonometric data k = 1..modes; those not yet kept are solved with
        one factorization and one multi-column solve."""
        if len(self._lifts) < modes:
            solver = DirichletSolver(self.domain, self.q)
            U, _ = solver.solve_on_mask([boundary_mode(self.domain, k)
                                         for k in range(len(self._lifts) + 1, modes + 1)])
            for u in U.T:
                u = np.ascontiguousarray(u)
                self._lifts.append((u, _masked_w12_norm(u, self.domain)))
        return self._lifts[:modes]

    def pairing(self, q2, params: PhaseParams) -> tuple[complex, np.ndarray]:
        """(int u1 (q - q2) u2 dm, u2[mask]) at one job: u1 the stored
        solution, u2 q2's antiholomorphic one, solved now.  Raises
        FixedPointDivergenceError with the stored message if u1 diverged
        (q2 is then not solved), else with q2's if u2 diverges."""
        u1 = self.solution(params.z0, params.tau)
        u2 = solve_f(q2, params, self.domain, "antiholomorphic").u_on_mask()
        m = self.domain.mask
        return interior_pairing(u1, self.q[m] - q2[m], u2, self.domain), u2


def side_distance(side: Side, q2, family: FamilySpec) -> CauchyDistanceReport:
    """The Cauchy-data distance of the side's potential to q2: the side
    walked against q2 over the family's jobs, then its lifts against q2's.
    Both sides' lifts are the first job of the walk's pool, so their
    factorizations and solves (SuperLU releases the GIL) overlap the
    oscillating solves; they are one job, so that no two factors are held
    at once.  The family is checked against the domain before any solve."""
    domain = side.domain
    family.check_for(domain)
    q2 = domain.grid.check_field(np.asarray(q2, dtype=complex))
    report = CauchyDistanceReport(0.0, [], [], {
        "z0_points": len(family.z0_points), "taus": list(family.taus),
        "fd_modes": family.fd_modes})

    def one(job):
        if job == "lifts":
            return side.lifts(family.fd_modes), Side(q2, domain).lifts(family.fd_modes)
        z0, tau = job
        try:
            val, u2 = side.pairing(q2, PhaseParams(tau, z0))
        except FixedPointDivergenceError as e:
            return ("skip", z0, tau, str(e))
        return ("ok", z0, tau,
                abs(val) / (side.norm(z0, tau) * _masked_w12_norm(u2, domain)))

    (lifts1, lifts2), *walk = parallel_map(one, ["lifts", *family.jobs])
    for res in walk:
        if res[0] == "ok":
            report.add({"kind": "oscillating", "z0": res[1], "tau": res[2],
                        "value": res[3]})
        else:
            report.skipped.append({"z0": res[1], "tau": res[2], "reason": res[3]})
    m = domain.mask
    dq = side.q[m] - q2[m]
    for j, (Uj, nj) in enumerate(lifts1, start=1):
        for k, (Vk, nk) in enumerate(lifts2, start=1):
            val = abs(interior_pairing(Uj, dq, Vk, domain))
            report.add({"kind": "fd", "modes": (j, k), "value": val / (nj * nk)})
    return report


def cauchy_distance(q1, q2, domain: DomainSpec, family: FamilySpec) -> CauchyDistanceReport:
    """Max over the family of |int U (q1 - q2) V dm| with both solutions
    normalized in discrete W^{1,2}.  A lower bound on the true supremum,
    reported as such."""
    return side_distance(Side(q1, domain), q2, family)
