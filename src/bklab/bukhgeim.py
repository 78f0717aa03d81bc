"""Oscillating solutions u = e^{i tau (z - z0)^2} f of Delta u + q u = 0 by
Picard iteration on f = 1 - (1/4) C(e^{-i tau R} chi Cbar(e^{i tau R} chi q f)),
plus the tau-sweep machinery that measures the decay rates of the
weighted transforms.

The antiholomorphic variant swaps the two Cauchy transforms and carries
the phase e^{i tau (zbar - z0bar)^2}; it provides the second member of a
solution pair.

The Picard loop runs on the domain's bounding box (`DomainSpec.box`),
since chi q f reads f on the mask only; a solution's full-grid values
are filled when something reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cauchy import get_plan
from .errors import BklabError, DomainError, FixedPointDivergenceError, GridError
from .grid import DomainSpec, Grid, PhaseParams
from .lorentz import LorentzIndex, norm_of_sorted
from .util import LogLogFit, fit_loglog, parallel_map

__all__ = [
    "BukhgeimSolution", "SweepRecord", "apply_S", "solve_f", "assemble_u",
    "pde_residual", "ResidualReport", "carleman_sweep",
    "apply_S_dense", "solve_f_dense",
]

PHASE_TYPES = ("holomorphic", "antiholomorphic")

# Picard stopping rule shared by solve_f and the dense oracle, so that
# their iteration counts are comparable
_TOL = 1e-10
_MAX_ITER = 200


class _SPipeline:
    """One (q, tau, z0, phase_type) instance of the double-transform
    operator on the domain's box: both transforms take input supported on
    the mask, which the box holds, so S f and the inner transform on the
    box need only the box's plan.  `on_grid` runs either transform over
    the full grid from its input on the box.

    Two box factors of the weight P = e^{i tau R} are precomputed, so each
    transform's input is one multiply: the inner factor P chi q and the
    outer factor chi conj(P).  P on the box is the outer product of the
    box's slices of `PhaseParams.weight_factors`, and chi q is read from
    the box of q alone and made complex there: no full-grid array is
    formed, whatever q's dtype."""

    def __init__(self, q, params: PhaseParams, domain: DomainSpec,
                 phase_type: str):
        if phase_type not in PHASE_TYPES:
            raise BklabError(f"phase_type must be one of {PHASE_TYPES}")
        grid = domain.grid
        params.validate_for(grid)
        q = grid.check_field(np.asarray(q))
        self.box = box = domain.box
        row, col = params.weight_factors(grid)
        P = row[box[0], None] * col[None, box[1]]
        self.Pq = P * np.where(domain.mask[box], q[box], 0j)
        if not np.isfinite(self.Pq).all():
            raise BklabError("potential q has non-finite samples in the domain")
        self.Pc = np.where(domain.mask[box], np.conj(P), 0.0 + 0.0j)
        self.grid = grid
        self.holomorphic = phase_type == "holomorphic"
        self.n = box[0].stop - box[0].start
        self._plan = get_plan(grid, self.n)

    def _transforms(self, plan):
        """(inner, outer): Cbar then C for the holomorphic phase."""
        if self.holomorphic:
            return plan.apply_conj, plan.apply
        return plan.apply, plan.apply_conj

    def apply(self, f) -> tuple[np.ndarray, np.ndarray]:
        """(S f, inner transform) on the box, from f on the box."""
        inner, outer = self._transforms(self._plan)
        t2 = inner(self.Pq * f)
        return outer(self.Pc * t2), t2

    def on_grid(self, k: int, x_box) -> np.ndarray:
        """The inner (k = 0) or outer (k = 1) transform over the full grid
        of the input x_box on the box, zero off it: Pq f for the inner
        transform, Pc t2 for the outer one."""
        x = np.zeros((self.grid.N, self.grid.N), dtype=complex)
        x[self.box] = x_box
        return self._transforms(get_plan(self.grid))[k](x)


def apply_S(q, f, params: PhaseParams, domain: DomainSpec,
            phase_type: str = "holomorphic") -> np.ndarray:
    """S f: mask, phase multiply, inner Cauchy transform, opposite phase
    multiply, mask, outer Cauchy transform.  Linear in f.  The inner
    transform runs on the domain's box, the outer over the full grid."""
    pipe = _SPipeline(q, params, domain, phase_type)
    f = domain.grid.check_field(np.asarray(f, dtype=complex))
    inner, _ = pipe._transforms(pipe._plan)
    # t2 is named: numpy would multiply an unnamed temporary in place with
    # the operands swapped, and a fused complex product is not commutative
    t2 = inner(pipe.Pq * f[pipe.box])
    return pipe.on_grid(1, pipe.Pc * t2)


@dataclass
class BukhgeimSolution:
    """A Picard fixed point.  The loop ran on the domain's box, and `f_box`
    and `inner_box` are its values there.  The full-grid `f`, `defect`,
    `sup_f` and `inner_transform` are filled on first read, each fill
    taking one full-grid transform (`_SPipeline.on_grid`); see `solve_f`."""

    params: PhaseParams
    phase_type: str
    iterations: int
    contraction_ratios: tuple
    domain: DomainSpec
    f_box: np.ndarray              # f on domain.box
    inner_box: np.ndarray          # Cbar/C(e^{i tau R} chi q f) on domain.box
    pipeline: _SPipeline = field(repr=False)

    @property
    def box(self) -> tuple[slice, slice]:
        return self.pipeline.box

    @property
    def weighted_q(self) -> np.ndarray:
        """e^{i tau R} chi q on the box."""
        return self.pipeline.Pq

    @cached_property
    def _filled(self) -> tuple[np.ndarray, float]:
        # f is f_box on the box and 1 - S f/4 off it, so its residual off
        # the box is exactly zero
        f = 1.0 - 0.25 * self.pipeline.on_grid(1, self.pipeline.Pc * self.inner_box)
        defect = float(np.abs(self.f_box - f[self.box]).max())
        f[self.box] = self.f_box
        return f, defect

    @property
    def f(self) -> np.ndarray:
        return self._filled[0]

    @property
    def defect(self) -> float:
        """sup |f - (1 - S f / 4)| over the grid at the returned f."""
        return self._filled[1]

    @cached_property
    def sup_f(self) -> float:
        return float(np.abs(self.f).max())

    @cached_property
    def inner_transform(self) -> np.ndarray:
        """Cbar/C(e^{i tau R} chi q f) over the grid, inner_box on the box."""
        G = self.pipeline.on_grid(0, self.pipeline.Pq * self.f_box)
        G[self.box] = self.inner_box
        return G

    @property
    def contraction(self) -> float:
        return max(self.contraction_ratios) if self.contraction_ratios else 0.0

    def u_on_mask(self) -> np.ndarray:
        """u at the masked cells, in `domain.mask` order, from the box
        values alone."""
        m = self.domain.mask
        return (oscillating_phase(self.params, self.domain.grid.Z[m], self.phase_type)
                * self.f_box[m[self.box]])


def solve_f(q, params: PhaseParams, domain: DomainSpec,
            phase_type: str = "holomorphic", tol: float = _TOL) -> BukhgeimSolution:
    """Picard iteration f_0 = 1, f_{k+1} = 1 - S f_k / 4.

    The loop runs on the domain's box (`DomainSpec.box`), the mask with a
    margin, since S f reads f on the mask only: each S apply is two
    transforms of the box, whose weight is built from the box's slices of
    `PhaseParams.weight_factors`.  It stops when the sup-norm update
    |f_{k+1} - f_k| over the box drops below tol and returns f_k, the
    iterate S was last applied to, with its inner transform, both on the
    box.  So a solve makes exactly `iterations` S applies.  Five
    consecutive growing updates raise FixedPointDivergenceError: tau is
    below the contraction threshold for this potential.

    The full-grid values are filled only when read.  `f`, `defect` and
    `sup_f` take one full-grid outer transform: f is f_k on the box and
    1 - S f_k / 4 off it, so `defect`, sup |f - (1 - S f / 4)| over the
    grid, is the box's residual under that transform and agrees with the
    last update to round-off.  `inner_transform` takes one full-grid inner
    transform and keeps the box's values on the box.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise BklabError(f"tolerance must be a positive number, got {tol}")
    pipe = _SPipeline(q, params, domain, phase_type)
    f = np.ones((pipe.n, pipe.n), dtype=complex)
    updates: list[float] = []
    growing = 0
    for it in range(1, _MAX_ITER + 1):
        Sf, t2 = pipe.apply(f)
        fn = 1.0 - 0.25 * Sf
        upd = float(np.abs(fn - f).max())
        updates.append(upd)
        if upd < tol:
            break
        f = fn
        if len(updates) >= 2 and upd > updates[-2]:
            growing += 1
            if growing >= 5:
                raise FixedPointDivergenceError(
                    f"update grew for 5 consecutive iterations at tau={params.tau}; "
                    f"tau is below the contraction threshold")
        else:
            growing = 0
    else:  # no break: the update never fell below tol
        raise FixedPointDivergenceError(
            f"no convergence to {tol} within {_MAX_ITER} iterations at tau={params.tau}")
    ratios = tuple(updates[i] / updates[i - 1] for i in range(1, len(updates))
                   if updates[i - 1] > 0)
    return BukhgeimSolution(
        params=params, phase_type=phase_type, iterations=it,
        contraction_ratios=ratios, domain=domain, f_box=f, inner_box=t2,
        pipeline=pipe)


def _sorted_taus(taus) -> list[float]:
    """A tau list in ascending order; BklabError if a tau is given twice."""
    taus = sorted(float(t) for t in taus)
    for t0, t1 in zip(taus, taus[1:]):
        if t0 == t1:
            raise BklabError(f"tau sample {t0:g} is given more than once")
    return taus


def oscillating_phase(params: PhaseParams, Z: np.ndarray, phase_type: str) -> np.ndarray:
    """e^{i tau (z-z0)^2} at the points Z, or e^{i tau (zbar-z0bar)^2} for
    the antiholomorphic type."""
    dz = Z - params.z0
    if phase_type == "holomorphic":
        return np.exp(1j * params.tau * dz * dz)
    return np.exp(1j * params.tau * np.conj(dz) ** 2)


def assemble_u(sol: BukhgeimSolution) -> np.ndarray:
    """u = e^{i tau (z-z0)^2} f over the grid, or the conjugate-phase
    variant."""
    return oscillating_phase(sol.params, sol.domain.grid.Z, sol.phase_type) * sol.f


def dbar_u(sol: BukhgeimSolution) -> np.ndarray:
    """dbar u from the fixed-point relation dbar f = -(1/4) e^{-i tau R} G
    with G the stored inner transform; avoids numerical differentiation
    of the oscillatory field.  (Holomorphic phase type.)"""
    if sol.phase_type != "holomorphic":
        raise BklabError("dbar_u uses the holomorphic-phase fixed point")
    holo = oscillating_phase(sol.params, sol.domain.grid.Z, "holomorphic")
    return -0.25 * np.conj(holo) * sol.inner_transform


@dataclass(frozen=True)
class ResidualReport:
    rel_l2: float | None     # ||Delta_h u + q u||_2 / ||q u||_2 on the eroded interior
    abs_l2: float            # ||Delta_h u + q u||_2 there
    abs_sup: float
    n_cells: int


def pde_residual(sol: BukhgeimSolution, q) -> ResidualReport:
    """Discrete Laplacian residual of the solution, restricted to cells at
    least 3h inside the boundary.  Delta_h is the domain's Shortley-Weller
    operator, whose rows there are the plain five-point stencil over
    masked neighbours, so it reads u on the mask alone: u is taken from
    `u_on_mask`, and no full-grid transform is run.  DomainError if no
    cell lies that far inside."""
    domain = sol.domain
    grid = domain.grid
    q = grid.check_field(np.asarray(q, dtype=complex))
    inner = domain.interior_mask(3 * grid.h)[domain.mask]
    if not inner.any():
        raise DomainError(f"no masked cell lies more than 3h = {3 * grid.h:g} "
                          f"inside the boundary, where the residual is measured")
    u = sol.u_on_mask()
    qu = (q[domain.mask] * u)[inner]
    res = (domain.laplacian[0] @ u)[inner] + qu
    abs_l2 = float(np.sqrt((np.abs(res) ** 2).sum() * grid.cell_measure))
    den = float(np.sqrt((np.abs(qu) ** 2).sum() * grid.cell_measure))
    rel = abs_l2 / den if den > 0 else None
    return ResidualReport(rel, abs_l2, float(np.abs(res).max()), int(inner.sum()))


@dataclass
class SweepRecord:
    """(tau, norm) samples with fitted log-log decay slopes."""

    taus: tuple                    # taus actually measured (strictly increasing)
    values: dict                   # name -> tuple of measured norms
    slopes: dict                   # name -> LogLogFit or None
    skipped: tuple                 # taus rejected by the aliasing guard
    insufficient: bool             # too few samples to fit a slope


def carleman_sweep(a_or_q, taus, domain: DomainSpec, z0: complex,
                   mode: str = "field") -> SweepRecord:
    """Measure decay of the phase-weighted transforms over a tau sweep.

    mode='field':    v_tau = C(e^{-i tau R} chi_Omega a); records the
                     normed weak-L^2 norm and the sup norm of v_tau.
    mode='operator': v_tau = S 1 for the potential q; same norms.
    Guard-violating taus are skipped and reported; BklabError if no tau
    is left, or if a tau is given twice.

    Field mode forms chi_Omega a once, transposed, (x, y); for a = 1 it
    is the mask itself, whose cells multiply as 1 + 0j and 0 + 0j, the
    same products as those of chi_Omega 1.  Each tau writes its weight
    times chi_Omega a straight into one transform buffer
    (`ConvolutionPlan.apply_xy`).  In both modes |v_tau| is then written
    over v_tau's own buffer (`_sort_moduli_in_place`) and sorted there:
    the sup is the last value, and the weak norm is read from the sorted
    values a block at a time (`lorentz.norm_of_sorted`), so a tau
    allocates no N x N array after its transform.  The full-grid plan is
    built before the tau pool opens, so its build has every worker and no
    tau waits for it.
    """
    if mode not in ("field", "operator"):
        raise BklabError(f"unknown sweep mode {mode!r}")
    grid = domain.grid
    grid.cell_index(z0)
    a = grid.check_field(np.asarray(a_or_q, dtype=complex))
    taus = _sorted_taus(taus)
    used = [t for t in taus if grid.admits(t)]
    skipped = tuple(t for t in taus if t not in used)
    if not used:
        raise BklabError(f"no tau at or below the aliasing guard {grid.aliasing_guard():.6g}")
    weak_idx = LorentzIndex(2.0, np.inf, normed=True)
    plan = get_plan(grid)
    if mode == "field":
        chi_a_xy = np.ascontiguousarray((domain.mask if np.all(a == 1)
                                         else domain.restrict(a)).T)

    def one(tau: float):
        params = PhaseParams(tau, z0)
        if mode == "field":
            row, col = params.weight_factors(grid, -1)

            def fill(x):  # row[y] * col[x], weight_factors' operand order
                np.multiply(row[None, :], col[:, None], out=x)
                x *= chi_a_xy
            v = plan.apply_xy(fill)
            s = _sort_moduli_in_place(v, v.base)
        else:
            v = apply_S(a, np.broadcast_to(1 + 0j, a.shape), params, domain)
            s = _sort_moduli_in_place(v, v)
        return norm_of_sorted(s, grid.cell_measure, weak_idx), float(s[-1])

    results = parallel_map(one, used)
    weak = tuple(r[0] for r in results)
    sup = tuple(r[1] for r in results)
    insufficient = len(used) < 2
    slopes: dict[str, LogLogFit | None] = {"weak": None, "sup": None}
    if not insufficient:
        slopes["weak"] = fit_loglog(used, weak)
        slopes["sup"] = fit_loglog(used, sup)
    return SweepRecord(
        taus=tuple(used), values={"weak": weak, "sup": sup}, slopes=slopes,
        skipped=skipped, insufficient=insufficient)


def _sort_moduli_in_place(v: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """|v| sorted ascending, written over the memory of `buf`, the
    C-contiguous complex array whose first element v starts at: the first
    v.size float64 values of buf, one contiguous run.  v's rows are
    contiguous and at least as far apart as they are long, so row i's
    moduli, written to floats [i n, (i + 1) n), land at or before row i's
    own bytes: no row is overwritten before it is read (row 0 overlaps
    itself, and numpy copies it before writing)."""
    n = v.shape[1]
    run = buf.reshape(-1).view(np.float64)[:v.size]
    for i, row in enumerate(v):
        np.abs(row, out=run[i * n:(i + 1) * n])
    run.sort()
    return run


# ---------------------------------------------------------------------------
# dense-quadrature oracle (small grids): the same discrete sums evaluated
# as explicit O(N^4) matrix products, independent of the FFT pipeline.

_DENSE_LIMIT = 48


def _dense_kernel(grid: Grid, conj_kernel: bool) -> np.ndarray:
    if grid.N > _DENSE_LIMIT:
        raise GridError(f"dense oracle limited to N <= {_DENSE_LIMIT}")
    z = grid.Z.ravel()
    W = z[:, None] - z[None, :]
    if conj_kernel:
        W = np.conj(W)
    K = np.zeros_like(W)
    nz = W != 0
    K[nz] = 1.0 / (np.pi * W[nz])
    return K * grid.cell_measure


def apply_S_dense(q, f, params: PhaseParams, domain: DomainSpec,
                  phase_type: str = "holomorphic") -> np.ndarray:
    grid = domain.grid
    params.validate_for(grid)
    K = _dense_kernel(grid, conj_kernel=False)
    Kc = _dense_kernel(grid, conj_kernel=True)
    P = np.exp(1j * params.tau * params.phase_field(grid)).ravel()
    chi = domain.mask.ravel()
    qv = domain.restrict(np.asarray(q, dtype=complex)).ravel()
    fv = np.asarray(f, dtype=complex).ravel()
    inner, outer = (Kc, K) if phase_type == "holomorphic" else (K, Kc)
    t2 = inner @ (P * qv * fv)
    out = outer @ (np.where(chi, np.conj(P) * t2, 0))
    return out.reshape(grid.N, grid.N)


def solve_f_dense(q, params: PhaseParams, domain: DomainSpec,
                  phase_type: str = "holomorphic") -> tuple[np.ndarray, int]:
    """Dense-oracle Picard iteration; returns (f, iterations).  Same
    stopping rule as solve_f so iteration counts are comparable."""
    grid = domain.grid
    f = np.ones((grid.N, grid.N), dtype=complex)
    for it in range(1, _MAX_ITER + 1):
        fn = 1.0 - 0.25 * apply_S_dense(q, f, params, domain, phase_type)
        upd = float(np.abs(fn - f).max())
        f = fn
        if upd < _TOL:
            return f, it
    raise FixedPointDivergenceError(f"dense oracle did not converge at tau={params.tau}")
