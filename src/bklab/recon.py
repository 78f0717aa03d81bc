"""Stationary-phase recovery of the potential on a z0 lattice (interior
quadrature, boundary-integral, and two-potential pairing forms) and the
log-stability experiment that drives the boundary-data distance through
the tau-selection rule tau = ln(1/d) / (2 B).

The boundary form uses the identity dbar u = -(1/4) e^{-i tau
(zbar-z0bar)^2} G, with G the inner transform stored by the fixed point;
the oscillating phases then cancel against the reconstruction weight and
the boundary integral reduces to (tau/pi) int conj(eta) G dsigma.

The pairing form and the stability experiment's distance walk q1's side
(boundary.Side, the lazy store of q1's solutions) against a streamed q2.
The experiment keeps one side while consecutive pairs share q1, so each
potential is solved once at each (z0, tau).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary import FamilySpec, Side, interp_bilinear, side_distance, w12_norm
from .bukhgeim import oscillating_phase, solve_f
from .errors import BklabError, FixedPointDivergenceError
from .grid import DomainSpec, Grid, PhaseParams
from .lorentz import LorentzIndex, lorentz_norm, norm_of_sorted
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
    """Gaussian bump amplitude * exp(-|z - center|^2 / width^2); a tiny
    width gives exact zeros away from the center, without a warning."""
    with np.errstate(over="ignore"):
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
    # the admissible cells the candidates snap to, each once, in first-seen order
    seen: dict[complex, None] = {}
    for yv in ys:
        for xv in xs:
            iy, ix = grid.cell_index(complex(xv, yv))
            if ok[iy, ix]:
                seen.setdefault(complex(grid.Z[iy, ix]))
    return np.array(list(seen), dtype=complex)


@dataclass
class ReconstructionResult:
    form: str                      # interior | boundary | pairing
    tau: float
    z0: np.ndarray
    values: np.ndarray
    ok: np.ndarray                 # False where the fixed point diverged
    lattice_measure: float         # domain measure per lattice point
    truth: np.ndarray
    baseline: np.ndarray           # pure-smoothing values at the lattice

    def errors(self) -> dict:
        d = np.abs(self.values[self.ok] - self.truth[self.ok])
        if d.size == 0:
            if self.ok.size:
                raise FixedPointDivergenceError(
                    f"the fixed point diverged at all {self.ok.size} lattice points "
                    f"at tau={self.tau!r}")
            raise BklabError("no successful lattice points")
        return {
            "sup": float(d.max()),
            "l2": float(np.sqrt((d ** 2).mean())),
            "weak": norm_of_sorted(np.sort(d), self.lattice_measure, _WEAK),
        }


def _check_lattice(domain: DomainSpec, lattice) -> np.ndarray:
    """The lattice as a complex array, each point >= 5h inside the boundary."""
    lattice = np.asarray(lattice, dtype=complex)
    ok = domain.interior_mask(5 * domain.grid.h - 1e-12)
    for z in lattice:
        if not ok[domain.grid.cell_index(z)]:
            raise BklabError(f"lattice point {z} is not >= 5h inside the boundary")
    return lattice


def _interior_value(sol) -> complex:
    mb = sol.domain.mask[sol.box]
    return (2 * sol.params.tau / np.pi) * complex(
        (sol.weighted_q[mb] * sol.f_box[mb]).sum() * sol.domain.grid.cell_measure)


def _boundary_value(sol) -> complex:
    d = sol.domain
    Gb = interp_bilinear(d.grid, sol.inner_box, d.nodes, sol.box)
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
    w = domain.measure / max(1, lattice.size)
    return [ReconstructionResult(form, tau, lattice, np.array([v[i] for v, _ in out]),
                                 okv, w, truth, baseline)
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
        return tuple(_FORMS[f](sol) for f in forms)
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
    q2 = domain.grid.check_field(np.asarray(q2, dtype=complex))
    lattice = _check_lattice(domain, lattice)
    return _pairing(Side(q1, domain), q2, tau, lattice)


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

    def __post_init__(self):
        if self.b_omega is not None and not self.b_omega > 0:
            raise BklabError(f"b_omega must be positive or None, got {self.b_omega}")
        if not self.smoothness > 0:
            raise BklabError(f"s (smoothness) must be positive, got {self.smoothness}")


@dataclass
class StabilityRecord:
    dq_weak: float          # ||q1 - q2||_{(2,infty)(Omega)}
    d_hat: float
    bound_value: float      # (ln 1/d_hat)^{-s/4}
    tau: float
    pairing_l2: float | None  # None when every lattice point diverged
    excluded: bool
    reason: str = ""


# the taus the growth rate is fitted over
_CALIBRATION_TAUS = (2.0, 4.0, 8.0, 16.0)


def calibrate_exponential_rate(domain: DomainSpec) -> float:
    """Growth rate C in ||u||_{BC(W^{1,2})} <= e^{C tau}: fitted slope of
    ln sup_{z0} ||e^{i tau (z-z0)^2}||_{W^{1,2}} against tau."""
    grid = domain.grid
    z0s = make_z0_lattice(domain, 3, margin=2 * grid.h)
    vals = []
    for tau in _CALIBRATION_TAUS:
        best = 0.0
        for z0 in z0s:
            u = oscillating_phase(PhaseParams(tau, complex(z0)), grid.Z, "holomorphic")
            best = max(best, w12_norm(u, domain))
        vals.append(best)
    lt = np.asarray(_CALIBRATION_TAUS)
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
    side is kept while consecutive pairs share q1."""
    grid = domain.grid
    tau_max = 0.98 * grid.aliasing_guard()
    if not 0 < config.tau_min <= tau_max:
        raise BklabError(f"tau_min must lie in (0, 0.98 pi N/(8 L^2)] = (0, {tau_max:.6g}], "
                         f"got {config.tau_min}")
    lattice = make_z0_lattice(domain, config.lattice_n)
    fam = FamilySpec(tuple(lattice), config.family_taus, fd_modes=config.fd_modes)
    fam.check_for(domain)
    if config.b_omega is None:
        B = 1.0 + 2.0 * calibrate_exponential_rate(domain)
    else:
        B = config.b_omega
    rl = make_z0_lattice(domain, config.recon_lattice_n)
    records = []
    side = None
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
            side = Side(q1, domain)
        d_hat = side_distance(side, q2, fam).d_hat
        if d_hat <= 0.0:
            records.append(StabilityRecord(dq_weak, d_hat, math.nan, math.nan,
                                           None, True, "identical boundary data"))
            continue
        if d_hat >= 1.0:
            records.append(StabilityRecord(dq_weak, d_hat, math.nan, math.nan,
                                           None, True, "d_hat >= 1"))
            continue
        tau = math.log(1.0 / d_hat) / (2.0 * B)
        tau = float(np.clip(tau, config.tau_min, tau_max))
        rec = _pairing(side, q2, tau, rl)
        pairing_l2 = rec.errors()["l2"] if rec.ok.any() else None
        bound = math.log(1.0 / d_hat) ** (-config.smoothness / 4.0)
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

