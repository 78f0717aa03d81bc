"""Symmetry oracles for the fast paths.

The grid's cell centres are symmetric under z -> iz and z -> conj z, so
the Cauchy transform, a convolution with 1/(pi z), obeys two exact
discrete identities on any box plan: a quarter turn of the input turns
the output and multiplies it by i, and a reflection in the x-axis with
conjugation commutes with it.  A half turn of q, z0 and the domain
leaves the phase e^{i tau (z - z0)^2} unchanged, so it turns a Picard
solution, a Dirichlet solution, the reconstruction and the Carleman
sweep's norms with it.  These identities check the index-heavy paths
(box pads M = 2^a c, the conjugate fold of the rows past M / 2, the
small-plan rule, the lazy full-grid fill) with no dense oracle.

The tolerances were fixed before these tests from measurements of the
same identities (2-CPU Xeon, numpy 2.4.6): plans held within 6.0e-16
relative, solves within 2.2e-16 where both sides define f by the same
rule, a Dirichlet solve within 3.1e-15, a reconstruction within 3.4e-16
and the Carleman norms within 4.2e-16.
"""

import numpy as np
import pytest

from bklab import (Disk, PhaseParams, Polygon, carleman_sweep, make_domain,
                   make_grid, solve_f)
from bklab.boundary import DirichletSolver
from bklab.cauchy import get_plan
from bklab.recon import bump_field, make_z0_lattice, reconstruct_interior

# relative bound for every identity below but the Dirichlet solve's
RTOL = 1e-14

# (grid, box side; None for the whole grid).  n = 1...8 pad to M = 1, 3, 5,
# 7, 10, 12, 14, 16; on N = 256 the boxes pad to M = 128, 160, 192, 224 and
# 256, which keep every spectrum row, and to 320, 384, 448 and 512, which
# fold the rows past M / 2
_G64, _G256 = (1.0, 64), (1.5, 256)
PLAN_SHAPES = ([(_G64, n) for n in range(1, 9)]
               + [(_G256, n) for n in (60, 80, 90, 112, 120, 129, 161, 218, 240)]
               + [(_G64, None), (_G256, None)])


def _plan(shape):
    (L, N), n = shape
    return get_plan(make_grid(L, N), n)


def _plan_id(shape):
    plan = _plan(shape)
    return f"N{plan.grid.N}-n{plan.n}-M{plan.M}"


def _random(n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def _close(a, b, rtol):
    return np.abs(a - b).max() <= rtol * np.abs(b).max()


def test_plan_shapes_take_every_branch():
    # pads 2^a c for each c, with and without the fold, and the full grid
    branches = set()
    for shape in PLAN_SHAPES:
        plan = _plan(shape)
        c = plan.M // (plan.M & -plan.M)
        branches.add((c, len(plan._rows) < plan.M))
    assert branches == {(c, fold) for c in (1, 3, 5, 7) for fold in (False, True)}
    assert {_plan(s).n for s in PLAN_SHAPES if s[0] == _G64} >= set(range(1, 9))


@pytest.mark.parametrize("shape", PLAN_SHAPES, ids=_plan_id)
class TestPlan:
    def test_quarter_turn(self, shape):
        plan = _plan(shape)
        f = _random(plan.n, 0)
        assert _close(plan.apply(np.rot90(f)), 1j * np.rot90(plan.apply(f)), RTOL)

    def test_conjugate_reflection(self, shape):
        plan = _plan(shape)
        f = _random(plan.n, 1)
        assert _close(plan.apply(np.conj(f[::-1])), np.conj(plan.apply(f)[::-1]), RTOL)


def _half_turn(shape):
    if isinstance(shape, Disk):
        return Disk(-shape.center, shape.radius)
    return Polygon(tuple(-v for v in shape.vertices))


def _in_box(domain):
    m = np.zeros(domain.mask.shape, dtype=bool)
    m[domain.box] = True
    return m


_QUAD = Polygon((-0.35 - 0.52j, 0.76 - 0.45j, 0.62 + 0.39j, -0.15 + 0.32j))
SOLVE_DOMAINS = {
    "centred-disk": Disk(0j, 1.0),
    "off-centre-disk": Disk(0.15 + 0.1j, 0.8),
    # centrally symmetric, but its box is widened to a square on one side
    "centred-polygon": Polygon((-0.8 - 0.5j, 0.6 - 0.7j, 0.8 + 0.5j, -0.6 + 0.7j)),
    "off-centre-polygon": _QUAD,
}


@pytest.mark.parametrize("phase", ["holomorphic", "antiholomorphic"])
@pytest.mark.parametrize("name", SOLVE_DOMAINS)
def test_picard_solve_half_turn(name, phase):
    # inside both boxes f is the last iterate on each side, and outside
    # both it is 1 - S f / 4 from the full-grid transform: round-off apart.
    # On a cell inside one box only, one side holds the last iterate and
    # the other the next one, which differ by at most the last update
    g = make_grid(1.2, 64)
    d = make_domain(g, SOLVE_DOMAINS[name])
    dr = make_domain(g, _half_turn(d.shape))
    q = d.restrict(bump_field(g, 0.2 + 0.1j, 0.45, 0.5))
    z0 = complex(g.Z[g.cell_index(0.1 + 0.05j)])
    one_box = _in_box(d) != _in_box(dr)[::-1, ::-1]
    for tau in (4.0, 16.0):
        sol = solve_f(q, PhaseParams(tau, z0), d, phase)
        rot = solve_f(q[::-1, ::-1], PhaseParams(tau, -z0), dr, phase)
        err = np.abs(rot.f[::-1, ::-1] - sol.f)
        scale = np.abs(sol.f).max()
        assert rot.iterations == sol.iterations
        assert err[~one_box].max() <= RTOL * scale
        if one_box.any():
            assert err[one_box].max() <= max(sol.defect, rot.defect) + RTOL * scale
    assert one_box.any() == (name != "centred-disk")


def test_dirichlet_solve_half_turn():
    g = make_grid(1.2, 64)
    d, dr = (make_domain(g, s) for s in (_QUAD, _half_turn(_QUAD)))
    q = d.restrict(bump_field(g, 0.2 + 0.1j, 0.45, 0.8))

    def datum(z):
        return z.real + 0.3 * z.imag ** 2 + 0.2j * z.real * z.imag
    U = DirichletSolver(d, q).solve(datum).U
    Ur = DirichletSolver(dr, q[::-1, ::-1]).solve(lambda z: datum(-z)).U
    assert _close(Ur[::-1, ::-1], U, 1e-13)


def test_reconstruction_half_turn():
    g = make_grid(1.2, 64)
    d, dr = (make_domain(g, s) for s in (_QUAD, _half_turn(_QUAD)))
    q = d.restrict(bump_field(g, 0.2 + 0.1j, 0.45, 0.5))
    lattice = make_z0_lattice(d, 3)
    res = reconstruct_interior(q, 8.0, lattice, d)
    rot = reconstruct_interior(q[::-1, ::-1], 8.0, -lattice, dr)
    assert res.ok.all() and rot.ok.all()
    assert _close(rot.values, res.values, RTOL)


def test_carleman_weak_norm_half_turn():
    g = make_grid(1.2, 64)
    d, dr = (make_domain(g, s) for s in (_QUAD, _half_turn(_QUAD)))
    ones = np.ones((g.N, g.N), dtype=complex)
    z0 = 0.12 + 0.07j
    rec = carleman_sweep(ones, [4, 8, 16], d, z0, mode="field")
    rot = carleman_sweep(ones, [4, 8, 16], dr, -z0, mode="field")
    for key in ("weak", "sup"):
        assert _close(np.array(rot.values[key]), np.array(rec.values[key]), RTOL)
