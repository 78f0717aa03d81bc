"""Stationary-phase recovery of the potential on a z0 lattice (interior
quadrature, boundary-integral, and two-potential pairing forms) and the
log-stability experiment that drives the boundary-data distance through
the tau-selection rule tau = ln(1/d) / (2 B).

The boundary form uses the identity dbar u = -(1/4) e^{-i tau
(zbar-z0bar)^2} G, with G the inner transform stored by the fixed point;
the oscillating phases then cancel against the reconstruction weight and
the boundary integral reduces to (tau/pi) int conj(eta) G dsigma.

The pairing form and the stability experiment's distance are pairings of
a stored side of q1 (boundary.Side) walked against a streamed q2.  The
experiment keeps q1's family side, and its pairing side per tau, for as
long as consecutive pairs share q1, so each potential is solved once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .boundary import (FamilySpec, Side, interp_bilinear, side_distance, solve_side,
                       w12_norm)
from .bukhgeim import solve_f
from .errors import BklabError, FixedPointDivergenceError
from .grid import DomainSpec, Grid, PhaseParams
from .lorentz import LorentzIndex, lorentz_norm
from .stationary import smooth
from .util import parallel_map

__all__ = [
    "ReconstructionResult", "StabilityRecord", "StabilityConfig",
    "make_z0_lattice", "bump_field", "reconstruct", "reconstruct_interior",
    "reconstruct_boundary", "reconstruct_pairing", "stability_experiment",
    "calibrate_exponential_rate",
]

_WEAK = LorentzIndex(2.0, np.inf, normed=True)


def bump_field(grid: Grid, center: complex, width: float,
               amplitude: complex) -> np.ndarray:
    """Gaussian bump amplitude * exp(-|z - center|^2 / width^2)."""
    return amplitude * np.exp(-(np.abs(grid.Z - center) / width) ** 2)


def make_z0_lattice(domain: DomainSpec, n: int, margin: float | None = None) -> np.ndarray:
    """n x n candidate points spanning the admissible region's bounding
    box, snapped to cell centers, keeping those at least `margin`
    (default 5h) inside the boundary."""
    grid = domain.grid
    if not 1 <= n <= grid.N:
        raise BklabError(f"lattice size must be in [1, {grid.N}], got {n}")
    if margin is None:
        margin = 5 * grid.h
    ok = domain.interior_mask(margin)
    if not ok.any():
        raise BklabError("no cells satisfy the interior margin")
    zs = grid.Z[ok]
    xs = np.linspace(zs.real.min(), zs.real.max(), n + 2)[1:-1] if n > 1 \
        else np.array([0.5 * (zs.real.min() + zs.real.max())])
    ys = np.linspace(zs.imag.min(), zs.imag.max(), n + 2)[1:-1] if n > 1 \
        else np.array([0.5 * (zs.imag.min() + zs.imag.max())])
    pts = []
    for yv in ys:
        for xv in xs:
            iy, ix = grid.cell_index(complex(xv, yv))
            if ok[iy, ix]:
                pts.append(grid.Z[iy, ix])
    seen: dict[complex, None] = {}
    for p in pts:
        seen.setdefault(complex(p))
    return np.array(list(seen), dtype=complex)


@dataclass
class ReconstructionResult:
    form: str                      # interior | boundary | pairing
    tau: float
    z0: np.ndarray
    values: np.ndarray
    ok: np.ndarray                 # False where the fixed point diverged
    truth: np.ndarray | None = None
    baseline: np.ndarray | None = None   # pure-smoothing values at the lattice
    metadata: dict = field(default_factory=dict)

    def errors(self) -> dict:
        if self.truth is None:
            raise BklabError("no ground truth attached")
        d = np.abs(self.values[self.ok] - self.truth[self.ok])
        if d.size == 0:
            raise BklabError("no successful lattice points")
        w = self.metadata.get("lattice_measure", 1.0)
        t = w * np.arange(1, d.size + 1)
        ds = np.sort(d)[::-1]
        fss = np.cumsum(ds * w) / t
        return {
            "sup": float(d.max()),
            "l2": float(np.sqrt((d ** 2).mean())),
            "weak": float((np.sqrt(t) * fss).max()),
        }


def _check_lattice(domain: DomainSpec, lattice) -> np.ndarray:
    """The lattice as a complex array, each point >= 5h inside the boundary."""
    lattice = np.asarray(lattice, dtype=complex)
    ok = domain.interior_mask(5 * domain.grid.h - 1e-12)
    for z in lattice:
        if not ok[domain.grid.cell_index(z)]:
            raise BklabError(f"lattice point {z} is not >= 5h inside the boundary")
    return lattice


def _interior_value(sol, q) -> complex:
    grid, m = sol.domain.grid, sol.domain.mask
    P = sol.params.weight(grid)
    return (2 * sol.params.tau / np.pi) * complex(
        (P[m] * q[m] * sol.f[m]).sum() * grid.cell_measure)


def _boundary_value(sol, q) -> complex:
    d = sol.domain
    Gb = interp_bilinear(d.grid, sol.inner_transform, d.nodes)
    return (sol.params.tau / np.pi) * complex(np.sum(np.conj(d.normals) * Gb * d.weights))


_FORMS = {"interior": _interior_value, "boundary": _boundary_value}


def _lattice_results(forms, target, tau, lattice, domain: DomainSpec,
                     point_values) -> list[ReconstructionResult]:
    """The one per-point loop over a checked lattice: `point_values(params)`
    returns one value per form; a diverged fixed point marks the point
    failed in every form."""

    def one(z0):
        try:
            return point_values(PhaseParams(tau, complex(z0))), True
        except FixedPointDivergenceError:
            return (np.nan + 0j,) * len(forms), False

    out = parallel_map(one, list(lattice))
    okv = np.array([o for _, o in out])
    grid = domain.grid
    cells = [grid.cell_index(z) for z in lattice]
    truth = np.array([target[c] for c in cells])
    sm = smooth(target, tau, grid)
    baseline = np.array([sm[c] for c in cells])
    return [ReconstructionResult(
                form, tau, lattice, np.array([v[i] for v, _ in out]), okv, truth,
                baseline, {"lattice_measure": domain.measure / max(1, lattice.size)})
            for i, form in enumerate(forms)]


def reconstruct(q, tau: float, lattice, domain: DomainSpec,
                forms=("interior", "boundary")) -> list[ReconstructionResult]:
    """q(z0) by each requested form ('interior', 'boundary'), all evaluated
    from the one holomorphic fixed point solved per lattice point.  Returns
    one result per form, in the order given."""
    if not forms or not set(forms) <= set(_FORMS):
        raise BklabError(f"forms must be a non-empty selection of {tuple(_FORMS)}")
    q = domain.grid.check_field(np.asarray(q, dtype=complex))
    lattice = _check_lattice(domain, lattice)

    def values(params):
        sol = solve_f(q, params, domain, "holomorphic")
        return tuple(_FORMS[f](sol, q) for f in forms)
    return _lattice_results(tuple(forms), q, tau, lattice, domain, values)


def reconstruct_interior(q, tau: float, lattice,
                         domain: DomainSpec) -> ReconstructionResult:
    """q(z0) by the interior quadrature (2 tau/pi) int e^{i tau R} q f dm,
    f the oscillating correction solved per lattice point."""
    return reconstruct(q, tau, lattice, domain, ("interior",))[0]


def reconstruct_boundary(q, tau: float, lattice,
                         domain: DomainSpec) -> ReconstructionResult:
    """q(z0) from boundary data of the oscillating solution: the phase-
    cancelled form (tau/pi) int conj(eta) G dsigma with G the inner
    transform interpolated at the quadrature nodes."""
    return reconstruct(q, tau, lattice, domain, ("boundary",))[0]


def reconstruct_pairing(q1, q2, tau: float, lattice,
                        domain: DomainSpec) -> ReconstructionResult:
    """(q1 - q2)(z0) from the two-solution pairing
    (2 tau/pi) int u1 (q1 - q2) u2 dm with opposite phase types."""
    grid = domain.grid
    q1 = grid.check_field(np.asarray(q1, dtype=complex))
    q2 = grid.check_field(np.asarray(q2, dtype=complex))
    lattice = _check_lattice(domain, lattice)
    return _pairing(_pairing_side(q1, tau, lattice, domain), q2, tau, lattice)


def _pairing_side(q1, tau: float, lattice: np.ndarray, domain: DomainSpec) -> Side:
    """q1's side over the checked lattice x {tau}, without mode lifts."""
    return solve_side(q1, domain, FamilySpec(tuple(map(complex, lattice)), (tau,),
                                             fd_modes=0))


def _pairing(side: Side, q2: np.ndarray, tau: float,
             lattice: np.ndarray) -> ReconstructionResult:
    """The pairing form: the side walked against the checked q2 over its
    lattice."""

    def values(params):
        return ((2 * tau / np.pi) * side.pairing(q2, params)[0],)
    return _lattice_results(("pairing",), side.q - q2, tau, lattice, side.domain,
                            values)[0]


# ---------------------------------------------------------------------------
# stability experiment

@dataclass(frozen=True)
class StabilityConfig:
    lattice_n: int = 3
    family_taus: tuple = (8.0, 16.0, 32.0)
    fd_modes: int = 8
    smoothness: float = 0.25
    norm_bound: float = 10.0          # admissibility cap for the potentials
    b_omega: float | None = None      # None: calibrate from the u-norm growth
    tau_min: float = 2.0
    recon_lattice_n: int = 3


@dataclass
class StabilityRecord:
    dq_weak: float          # ||q1 - q2||_{(2,infty)(Omega)}
    d_hat: float
    bound_value: float      # (ln 1/d_hat)^{-s/4}
    tau: float
    pairing_l2: float | None  # None when every lattice point diverged
    excluded: bool
    reason: str = ""


def calibrate_exponential_rate(domain: DomainSpec, taus=(2.0, 4.0, 8.0, 16.0)) -> float:
    """Growth rate C in ||u||_{BC(W^{1,2})} <= e^{C tau}: fitted slope of
    ln sup_{z0} ||e^{i tau (z-z0)^2}||_{W^{1,2}} against tau."""
    grid = domain.grid
    z0s = make_z0_lattice(domain, 3, margin=2 * grid.h)
    vals = []
    for tau in taus:
        best = 0.0
        for z0 in z0s:
            u = np.exp(1j * tau * (grid.Z - z0) ** 2)
            best = max(best, w12_norm(domain.restrict(u), domain))
        vals.append(best)
    lt = np.asarray(taus, dtype=float)
    ly = np.log(np.asarray(vals))
    A = np.vstack([lt, np.ones_like(lt)]).T
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    return float(max(coef[0], 1e-3))


def stability_experiment(pairs, domain: DomainSpec,
                         config: StabilityConfig = StabilityConfig()) -> list[StabilityRecord]:
    """For each potential pair: measure the boundary-data distance proxy,
    choose tau = ln(1/d)/2B clamped to the admissible window, run the
    pairing reconstruction, and record both sides of the stability trend.
    Pairs with identical potentials are excluded from the records.  q1's
    sides are solved once and kept while consecutive pairs share q1."""
    grid = domain.grid
    s = config.smoothness
    if config.b_omega is None:
        B = 1.0 + 2.0 * calibrate_exponential_rate(domain)
    else:
        B = config.b_omega
    guard = grid.aliasing_guard()
    lattice = make_z0_lattice(domain, config.lattice_n)
    fam = FamilySpec(tuple(lattice), tuple(config.family_taus),
                     fd_modes=config.fd_modes)
    rl = make_z0_lattice(domain, config.recon_lattice_n)
    records = []
    side, pairing_sides = None, {}
    for q1, q2 in pairs:
        q1 = grid.check_field(np.asarray(q1, dtype=complex))
        q2 = grid.check_field(np.asarray(q2, dtype=complex))
        for q in (q1, q2):
            nq = lorentz_norm(q, LorentzIndex(2.0, 1.0), domain=domain)
            if nq > config.norm_bound:
                raise BklabError(f"potential norm {nq:.3g} exceeds the configured "
                                 f"bound {config.norm_bound}")
        dq_weak = lorentz_norm(q1 - q2, _WEAK, domain=domain)
        # the CLI loads q1 afresh for each pair, so equal q1 are equal
        # arrays rather than one object
        if side is None or not np.array_equal(side.q, q1):
            fam.validate()
            side, pairing_sides = solve_side(q1, domain, fam), {}
        d_hat = side_distance(side, q2).d_hat
        if d_hat <= 0.0:
            records.append(StabilityRecord(dq_weak, d_hat, math.nan, math.nan,
                                           None, True, "identical boundary data"))
            continue
        if d_hat >= 1.0:
            records.append(StabilityRecord(dq_weak, d_hat, math.nan, math.nan,
                                           None, True, "d_hat >= 1"))
            continue
        tau = math.log(1.0 / d_hat) / (2.0 * B)
        tau = float(np.clip(tau, config.tau_min, 0.98 * guard))
        if tau not in pairing_sides:
            pairing_sides[tau] = _pairing_side(q1, tau, rl, domain)
        rec = _pairing(pairing_sides[tau], q2, tau, rl)
        pairing_l2 = rec.errors()["l2"] if rec.ok.any() else None
        bound = math.log(1.0 / d_hat) ** (-s / 4.0)
        records.append(StabilityRecord(dq_weak, d_hat, bound, tau,
                                       pairing_l2, False))
    return records


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks of a; tied values share the mean of the ranks they span."""
    order = np.argsort(a, kind="stable")
    s = a[order]
    first = np.r_[True, s[1:] != s[:-1]]
    starts = np.flatnonzero(first)
    ends = np.r_[starts[1:], a.size]
    ranks = np.empty(a.size)
    ranks[order] = ((starts + ends + 1) / 2.0)[np.cumsum(first) - 1]
    return ranks


def spearman_rank(x, y) -> float:
    """Spearman's rank correlation: the Pearson correlation of the average
    ranks.  NaN when there are fewer than two samples, a sample is NaN or
    an input is constant (the correlation is undefined)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise BklabError("spearman_rank needs two 1-D sequences of equal length")
    if (x.size < 2 or np.isnan(x).any() or np.isnan(y).any()
            or (x == x[0]).all() or (y == y[0]).all()):
        return math.nan
    return float(np.corrcoef(_average_ranks(x), _average_ranks(y))[0, 1])


def stability_trend(records: list[StabilityRecord]) -> float:
    rows = [(r.dq_weak, r.bound_value) for r in records if not r.excluded]
    if len(rows) < 3:
        raise BklabError("need at least 3 usable records for a trend")
    return spearman_rank([r[0] for r in rows], [r[1] for r in rows])

