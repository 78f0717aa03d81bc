"""Oscillating solutions u = e^{i tau (z - z0)^2} f of Delta u + q u = 0 by
Picard iteration on f = 1 - (1/4) C(e^{-i tau R} chi Cbar(e^{i tau R} chi q f)),
plus the tau-sweep machinery that measures the decay rates of the
weighted transforms.

The antiholomorphic variant swaps the two Cauchy transforms and carries
the phase e^{i tau (zbar - z0bar)^2}; it provides the second member of a
solution pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cauchy import cauchy, conj_cauchy
from .errors import BklabError, FixedPointDivergenceError, GridError
from .grid import DomainSpec, Grid, PhaseParams
from .lorentz import LorentzIndex, lorentz_norm
from .util import LogLogFit, fit_loglog, parallel_map

__all__ = [
    "BukhgeimSolution", "SweepRecord", "apply_S", "solve_f", "assemble_u",
    "pde_residual", "ResidualReport", "carleman_sweep",
    "apply_S_dense", "solve_f_dense",
]

PHASE_TYPES = ("holomorphic", "antiholomorphic")


class _SPipeline:
    """One (q, tau, z0, phase_type) instance of the double-transform
    operator, with the unimodular weights precomputed."""

    def __init__(self, q, params: PhaseParams, domain: DomainSpec,
                 phase_type: str):
        if phase_type not in PHASE_TYPES:
            raise BklabError(f"phase_type must be one of {PHASE_TYPES}")
        grid = domain.grid
        params.validate_for(grid)
        q = grid.check_field(np.asarray(q, dtype=complex))
        self.q_masked = domain.restrict(q)
        if not np.isfinite(self.q_masked).all():
            raise BklabError("potential q has non-finite samples in the domain")
        self.grid = grid
        self.domain = domain
        self.phase_type = phase_type
        self.params = params
        self.P = params.weight(grid)     # inner weight
        self.Pc = np.conj(self.P)        # outer weight
        self.mask = domain.mask

    def apply(self, f) -> tuple[np.ndarray, np.ndarray]:
        """(S f, inner transform Cbar/C(e^{i tau R} chi q f))."""
        t1 = self.P * (self.q_masked * f)
        if self.phase_type == "holomorphic":
            t2 = conj_cauchy(t1, self.grid)
            t3 = np.where(self.mask, self.Pc * t2, 0.0 + 0.0j)
            out = cauchy(t3, self.grid)
        else:
            t2 = cauchy(t1, self.grid)
            t3 = np.where(self.mask, self.Pc * t2, 0.0 + 0.0j)
            out = conj_cauchy(t3, self.grid)
        return out, t2


def apply_S(q, f, params: PhaseParams, domain: DomainSpec,
            phase_type: str = "holomorphic") -> np.ndarray:
    """S f: mask, phase multiply, inner Cauchy transform, opposite phase
    multiply, mask, outer Cauchy transform.  Linear in f."""
    pipe = _SPipeline(q, params, domain, phase_type)
    f = domain.grid.check_field(np.asarray(f, dtype=complex))
    return pipe.apply(f)[0]


@dataclass
class BukhgeimSolution:
    f: np.ndarray
    params: PhaseParams
    phase_type: str
    iterations: int
    contraction_ratios: tuple
    defect: float                  # sup |f - (1 - S f / 4)| at the returned f
    sup_f: float
    inner_transform: np.ndarray    # Cbar/C(e^{i tau R} chi q f) at the fixed point
    domain: DomainSpec
    converged: bool

    @property
    def contraction(self) -> float:
        return max(self.contraction_ratios) if self.contraction_ratios else 0.0

    @property
    def sup_bound_ok(self) -> bool:
        """Discrete surrogate for the 4/3 fixed-point norm control."""
        return self.sup_f <= (4.0 / 3.0) * 1.10


def solve_f(q, params: PhaseParams, domain: DomainSpec,
            phase_type: str = "holomorphic", tol: float = 1e-10,
            max_iter: int = 200) -> BukhgeimSolution:
    """Picard iteration f_0 = 1, f_{k+1} = 1 - S f_k / 4.

    Stops when the sup-norm update |f_{k+1} - f_k| drops below tol and
    returns f_k, the iterate S was last applied to: its inner transform
    and its defect sup |f_k - (1 - S f_k / 4)| (the last update) come from
    that apply, so a solve makes exactly `iterations` S applies.  Five
    consecutive growing updates raise FixedPointDivergenceError: tau is
    below the contraction threshold for this potential.
    """
    if tol <= 0:
        raise BklabError(f"tolerance must be positive, got {tol}")
    pipe = _SPipeline(q, params, domain, phase_type)
    grid = domain.grid
    f = np.ones((grid.N, grid.N), dtype=complex)
    updates: list[float] = []
    growing = 0
    converged = False
    for it in range(1, max_iter + 1):
        Sf, t2 = pipe.apply(f)
        fn = 1.0 - 0.25 * Sf
        upd = float(np.abs(fn - f).max())
        updates.append(upd)
        if upd < tol:
            converged = True
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
    if not converged:
        raise FixedPointDivergenceError(
            f"no convergence to {tol} within {max_iter} iterations at tau={params.tau}")
    ratios = tuple(updates[i] / updates[i - 1] for i in range(1, len(updates))
                   if updates[i - 1] > 0)
    return BukhgeimSolution(
        f=f, params=params, phase_type=phase_type, iterations=it,
        contraction_ratios=ratios, defect=updates[-1],
        sup_f=float(np.abs(f).max()), inner_transform=t2, domain=domain,
        converged=converged)


def oscillating_phase(params: PhaseParams, grid: Grid, phase_type: str) -> np.ndarray:
    """e^{i tau (z-z0)^2}, or e^{i tau (zbar-z0bar)^2} for the
    antiholomorphic type."""
    dz = grid.Z - params.z0
    if phase_type == "holomorphic":
        return np.exp(1j * params.tau * dz * dz)
    return np.exp(1j * params.tau * np.conj(dz) ** 2)


def assemble_u(sol: BukhgeimSolution) -> np.ndarray:
    """u = e^{i tau (z-z0)^2} f, or the conjugate-phase variant."""
    return oscillating_phase(sol.params, sol.domain.grid, sol.phase_type) * sol.f


def dbar_u(sol: BukhgeimSolution) -> np.ndarray:
    """dbar u from the fixed-point relation dbar f = -(1/4) e^{-i tau R} G
    with G the stored inner transform; avoids numerical differentiation
    of the oscillatory field.  (Holomorphic phase type.)"""
    if sol.phase_type != "holomorphic":
        raise BklabError("dbar_u uses the holomorphic-phase fixed point")
    holo = oscillating_phase(sol.params, sol.domain.grid, "holomorphic")
    return -0.25 * np.conj(holo) * sol.inner_transform


@dataclass(frozen=True)
class ResidualReport:
    rel_l2: float | None     # ||Delta_h u + q u||_2 / ||q u||_2 on the eroded interior
    abs_l2: float            # ||Delta_h u + q u||_2 there
    abs_sup: float
    n_cells: int


def pde_residual(sol: BukhgeimSolution, q) -> ResidualReport:
    """Five-point discrete Laplacian residual of the assembled solution,
    restricted to cells at least 3h inside the boundary."""
    domain = sol.domain
    grid = domain.grid
    h = grid.h
    q = grid.check_field(np.asarray(q, dtype=complex))
    u = assemble_u(sol)
    lap = np.full_like(u, np.nan)
    lap[1:-1, 1:-1] = (u[1:-1, 2:] + u[1:-1, :-2] + u[2:, 1:-1] + u[:-2, 1:-1]
                       - 4.0 * u[1:-1, 1:-1]) / (h * h)
    inner = domain.interior_mask(3 * h)
    inner[0, :] = inner[-1, :] = inner[:, 0] = inner[:, -1] = False
    res = lap[inner] + (q * u)[inner]
    qu = (q * u)[inner]
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
    metadata: dict = field(default_factory=dict)


def carleman_sweep(a_or_q, taus, domain: DomainSpec, z0: complex,
                   mode: str = "field") -> SweepRecord:
    """Measure decay of the phase-weighted transforms over a tau sweep.

    mode='field':    v_tau = C(e^{-i tau R} chi_Omega a); records the
                     normed weak-L^2 norm and the sup norm of v_tau.
    mode='operator': v_tau = S 1 for the potential q; same norms.
    Guard-violating taus are skipped and reported.
    """
    if mode not in ("field", "operator"):
        raise BklabError(f"unknown sweep mode {mode!r}")
    grid = domain.grid
    grid.cell_index(z0)
    a = grid.check_field(np.asarray(a_or_q, dtype=complex))
    guard = grid.aliasing_guard()
    taus = sorted(float(t) for t in taus)
    if len(taus) != len(set(taus)):
        raise BklabError("tau samples must be strictly increasing")
    used = [t for t in taus if t <= guard * (1 + 1e-12)]
    skipped = tuple(t for t in taus if t not in used)
    weak_idx = LorentzIndex(2.0, np.inf, normed=True)

    def one(tau: float):
        params = PhaseParams(tau, z0)
        if mode == "field":
            v = cauchy(params.weight(grid, -1) * domain.restrict(a), grid)
        else:
            v = apply_S(a, np.ones_like(a), params, domain)
        return (lorentz_norm(v, weak_idx, grid=grid), float(np.abs(v).max()))

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
        skipped=skipped, insufficient=insufficient,
        metadata={"mode": mode, "z0": z0, "guard": guard})


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
                  phase_type: str = "holomorphic", tol: float = 1e-10,
                  max_iter: int = 200) -> tuple[np.ndarray, int]:
    """Dense-oracle Picard iteration; returns (f, iterations).  Same
    stopping rule as solve_f so iteration counts are comparable."""
    grid = domain.grid
    f = np.ones((grid.N, grid.N), dtype=complex)
    for it in range(1, max_iter + 1):
        fn = 1.0 - 0.25 * apply_S_dense(q, f, params, domain, phase_type)
        upd = float(np.abs(fn - f).max())
        f = fn
        if upd < tol:
            return f, it
    raise FixedPointDivergenceError(f"dense oracle did not converge at tau={params.tau}")
