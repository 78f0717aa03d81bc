"""Command line interface.

Subcommands: lorentz-norm, cauchy-selftest, stationary-phase,
carleman-sweep, bukhgeim, cauchy-distance, reconstruct, stability.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
Errors are emitted as a JSON object on stderr.  Sweeps write a CSV (the
authoritative artifact) and an SVG log-log plot encoding the same sample
values.  Each subcommand returns the files it would write and the report
it would print; `main` alone creates --out-dir, writes the files and
prints the report, once the subcommand has returned, so a run that fails
creates no directory and writes nothing.  BKLAB_THREADS caps parallelism
(0 = auto).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import recon, svgplot
from .boundary import FamilySpec, cauchy_distance
from .bukhgeim import _sorted_taus, assemble_u, carleman_sweep, solve_f
from .cauchy import cauchy, wirtinger
from .errors import BklabError, NumericalError
from .grid import (DomainSpec, Grid, PhaseParams, _checked, _object, _read_json_object,
                   domain_from_spec, load_domain, load_field, make_grid, save_field)
from .lorentz import LorentzIndex, bessel_norm, lorentz_norm
from .stationary import smooth
from .util import fit_loglog


def _fmt(x) -> str:
    """Shortest round-trip decimal; deterministic across runs and thread
    counts.  Numpy scalars are cast so their verbose reprs never leak."""
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


# The writers open their files through the module-level name `open`, and
# bench/spans.py wraps them (and `open`, for bklab.cli) by name: keep the
# names and the lookup.
def _write_csv(path, header, rows):
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_text(path, text: str):
    with open(path, "w") as f:
        f.write(text)


def _parse_numbers(spec: str, sep: str, what: str, count: int = 0, kind=float) -> list:
    """Split `spec` on `sep` into finite numbers, exactly `count` of them if
    count > 0; anything else is a configuration error (exit 2)."""
    try:
        vals = [kind(s) for s in spec.split(sep) if s]
    except ValueError:
        vals = []
    if not vals or (count and len(vals) != count) or not all(map(math.isfinite, vals)):
        raise BklabError(f"malformed {what} {spec!r}")
    return vals


def _parse_taus(spec: str) -> list[float]:
    """'4:256' = geometric sweep with ratio 2; otherwise comma list.  The
    sweep must be non-empty with every tau above 0 and none given twice;
    it is returned in ascending order."""
    if ":" in spec:
        lo, hi = _parse_numbers(spec, ":", "tau range", 2)
        out = []
        t = lo
        while 0 < t <= hi * (1 + 1e-12):
            out.append(t)
            t *= 2.0
    else:
        out = _parse_numbers(spec, ",", "tau list")
    if not out or min(out) <= 0:
        raise BklabError(f"tau sweep {spec!r} must be non-empty with every tau above 0")
    return _sorted_taus(out)


def _parse_z0(spec: str) -> complex:
    return complex(*_parse_numbers(spec, ",", "z0", 2))


def _load_field_on(path, domain: DomainSpec | None) -> tuple[np.ndarray, Grid]:
    """Load a field file, which must be finite everywhere; with a domain, the
    field must live on its grid."""
    field, grid = load_field(path)
    if not np.isfinite(field).all():
        raise BklabError(f"{path}: field contains NaN or infinite samples")
    if domain is not None and (grid.N, grid.L) != (domain.grid.N, domain.grid.L):
        raise BklabError(f"{path}: field grid does not match the domain grid")
    return field, grid


# ---------------------------------------------------------------------------
# subcommands: each returns (files, report), files a list of
# (name, writer, *data) entries written as writer(path, *data)

def cmd_lorentz_norm(ns):
    domain = load_domain(ns.domain) if ns.domain else None
    field, grid = _load_field_on(ns.field, domain)
    q = math.inf if ns.q in ("inf", "Inf") else _parse_numbers(ns.q, ",", "q index", 1)[0]
    idx = LorentzIndex(ns.p, q, normed=not ns.seminormed)
    if ns.s is not None:
        val = bessel_norm(field, ns.s, idx, domain, grid)
    else:
        val = lorentz_norm(field, idx, domain=domain, grid=grid)
    return [], f"{val:.12g}"


def cmd_cauchy_selftest(ns):
    rows = []
    for N in (64, 128, 256) if ns.n == 0 else (ns.n,):
        grid = make_grid(1.5, N)
        ball = np.abs(grid.Z) < 1.0
        g = cauchy(ball.astype(complex), grid)
        exact = np.where(ball, np.conj(grid.Z), 1.0 / grid.Z)
        chi_err = float(np.abs(g - exact).max())
        r2 = np.abs(grid.Z) ** 2
        phi = np.where(r2 < 1.0, np.exp(-1.0 / np.maximum(1e-300, 1.0 - r2)), 0.0)
        dg = wirtinger(cauchy(phi.astype(complex), grid), "dbar", grid)
        inv_err = float(np.abs(dg - phi)[3:-3, 3:-3].max())
        rows.append((N, chi_err, 10 * grid.h * math.log(1 / grid.h), inv_err))
    return ([("cauchy_selftest.csv", _write_csv,
              ["n", "chi_ball_sup_err", "bound_10hlog", "inverse_sup_err"], rows)],
            "\n".join(f"N={row[0]}: chi_ball={row[1]:.3e} (bound {row[2]:.3e}) "
                      f"inverse={row[3]:.3e}" for row in rows))


def cmd_stationary_phase(ns):
    hnorm = math.sqrt(3 * math.pi / 2) if ns.norm is None else ns.norm
    if not (math.isfinite(ns.s) and math.isfinite(hnorm) and hnorm > 0):
        raise BklabError(f"--s must be finite and --norm finite and positive, "
                         f"got {ns.s} and {hnorm}")
    field, grid = _load_field_on(ns.field, None)
    taus = _parse_taus(f"{ns.tau_min}:{ns.tau_max}")
    h2 = grid.cell_measure
    rows = []
    for tau in taus:
        sm = smooth(field, tau, grid)
        err = float(np.sqrt((np.abs(field - sm) ** 2).sum() * h2))
        bound = 2.0 * tau ** (-ns.s / 2.0) * hnorm
        rows.append((tau, err, bound))
    fit = fit_loglog(taus, [r[1] for r in rows]) if len(taus) >= 2 else None
    svg = svgplot.loglog_svg(
        taus, {"error": [r[1] for r in rows], "bound": [r[2] for r in rows]},
        "smoothing error vs tau", "tau", "L2 error",
        {"error": f"slope {fit.slope:.3f}"} if fit else None)
    return ([("stationary_phase.csv", _write_csv, ["tau", "error", "bound"], rows),
             ("stationary_phase.svg", _write_text, svg)],
            f"slope {fit.slope:.4f} over {len(taus)} taus" if fit
            else "insufficient tau samples for a slope fit")


def cmd_carleman_sweep(ns):
    taus = _parse_taus(ns.tau)
    if 1 + math.log(taus[0]) <= 0:  # the taus ascend
        raise BklabError(f"tau {taus[0]!r} is at or below 1/e, where the bound's shape "
                         f"tau^-1 (1 + ln tau) is not positive")
    domain = load_domain(ns.domain)
    grid = domain.grid
    if ns.a == "one":
        a = np.broadcast_to(1 + 0j, (grid.N, grid.N))  # no N x N array of ones
    else:
        a, _ = _load_field_on(ns.a, domain)
    rec = carleman_sweep(a, taus, domain, _parse_z0(ns.z0),
                         mode=ns.mode)
    rows = []
    for i, tau in enumerate(rec.taus):
        ref = rec.values["weak"][0] * (tau / rec.taus[0]) ** -1 \
            * (1 + math.log(tau)) / (1 + math.log(rec.taus[0]))
        rows.append((tau, rec.values["weak"][i], rec.values["sup"][i], ref))
    ann = {}
    if not rec.insufficient:
        ann = {"norm_l2weak": f"slope {rec.slopes['weak'].slope:.3f}",
               "norm_sup": f"slope {rec.slopes['sup'].slope:.3f}"}
    svg = svgplot.loglog_svg(
        list(rec.taus), {"norm_l2weak": list(rec.values["weak"]),
                         "norm_sup": list(rec.values["sup"]),
                         "bound": [r[3] for r in rows]},
        "weighted-transform decay", "tau", "norm", ann)
    report = [f"skipped tau={t:g}: aliasing guard" for t in rec.skipped]
    if rec.insufficient:
        report.insert(0, "insufficient tau samples for a slope fit")
    else:
        report.append(f"weak slope {rec.slopes['weak'].slope:.4f}, "
                      f"sup slope {rec.slopes['sup'].slope:.4f}")
    return ([("carleman_sweep.csv", _write_csv,
              ["tau", "norm_l2weak", "norm_sup", "bound"], rows),
             ("carleman_sweep.svg", _write_text, svg)], "\n".join(report))


def cmd_bukhgeim(ns):
    domain = load_domain(ns.domain)
    q, grid = _load_field_on(ns.q, domain)
    params = PhaseParams(ns.tau, _parse_z0(ns.z0))
    phase = "antiholomorphic" if ns.phase == "anti" else "holomorphic"
    sol = solve_f(q, params, domain, phase, tol=ns.tol)
    diag = {
        "tau": ns.tau, "z0": [params.z0.real, params.z0.imag],
        "phase_type": phase, "iterations": sol.iterations,
        "final_update": sol.defect, "defect": sol.defect,
        "sup_f": sol.sup_f, "contraction": sol.contraction,
        "converged": True,
    }
    return ([("f.bkfld", save_field, sol.f, grid),
             ("u.bkfld", save_field, assemble_u(sol), grid),
             ("bukhgeim.json", _write_json, diag)],
            f"converged in {sol.iterations} iterations, defect {sol.defect:.3e}")


def cmd_cauchy_distance(ns):
    domain = load_domain(ns.domain)
    q1, _ = _load_field_on(ns.q1, domain)
    q2, _ = _load_field_on(ns.q2, domain)
    n, ny = _parse_numbers(ns.z0_grid, "x", "z0 grid", 2, int)
    if n != ny:
        raise BklabError(f"z0 grid {ns.z0_grid!r} must be n x n, with equal sides")
    lattice = recon.make_z0_lattice(domain, n)
    fam = FamilySpec(tuple(lattice), _parse_taus(ns.taus), fd_modes=ns.fd_modes)
    rep = cauchy_distance(q1, q2, domain, fam)
    doc = {"d_hat": rep.d_hat, "family": rep.family}
    for key in ("pairs", "skipped"):
        doc[key] = [{k: ([v.real, v.imag] if isinstance(v, complex) else v)
                     for k, v in p.items()} for p in getattr(rep, key)]
    return ([("cauchy_distance.json", _write_json, doc)],
            f"d_hat = {rep.d_hat:.6e} over {len(rep.pairs)} pairs "
            f"({len(rep.skipped)} skipped)")


def cmd_reconstruct(ns):
    domain = load_domain(ns.domain)
    q, grid = _load_field_on(ns.q, domain)
    taus = _parse_taus(ns.tau)
    for tau in taus:
        grid.check_tau(tau)
    lattice = recon.make_z0_lattice(domain, ns.lattice)
    forms = ("interior", "boundary") if ns.form == "both" else (ns.form,)
    metrics: dict = {"taus": taus, "forms": list(forms), "errors": {}}
    sweep_err: dict = {f: [] for f in forms}
    fields = {}
    for tau in taus:
        for res in recon.reconstruct(q, tau, lattice, domain, forms):
            errs = res.errors()
            metrics["errors"].setdefault(res.form, {})[repr(tau)] = errs
            sweep_err[res.form].append(errs["sup"])
            if tau == taus[-1]:
                fld = fields[res.form] = np.zeros((grid.N, grid.N), dtype=complex)
                for z, v in zip(res.z0, res.values):
                    fld[grid.cell_index(z)] = v
    rows = [(tau, *(sweep_err[f][i] for f in forms)) for i, tau in enumerate(taus)]
    files = [(f"recon_{form}.bkfld", save_field, fld, grid) for form, fld in fields.items()]
    files += [("recon_metrics.json", _write_json, metrics),
              ("recon_sweep.csv", _write_csv, ["tau", *(f"sup_err_{f}" for f in forms)], rows)]
    if len(taus) >= 2:
        files.append(("recon_sweep.svg", _write_text, svgplot.loglog_svg(
            taus, {f: sweep_err[f] for f in forms}, "reconstruction error vs tau", "tau",
            "sup error")))
    return files, "\n".join(f"{form}: sup errors {['%.3e' % e for e in sweep_err[form]]}"
                             for form in forms)


# optional stability config keys and their kinds ("s" sets smoothness); a
# key left out takes the StabilityConfig default
_STAB_KINDS = {"s": "number", "lattice_n": "integer", "family_taus": "list of numbers",
               "fd_modes": "integer", "tau_min": "number", "recon_lattice_n": "integer",
               "norm_bound": "number", "b_omega": "number or null"}


def _field_from_spec(spec: dict, domain: DomainSpec, where: str) -> np.ndarray:
    spec = _object(spec, where, {"bump": ("center", "width", "amplitude"),
                                 "field": ("path",)})
    if spec["type"] == "bump":
        f = recon.bump_field(
            domain.grid, complex(*_checked(spec["center"], "point [x, y]", f"{where}.center")),
            float(_checked(spec["width"], "positive number", f"{where}.width")),
            complex(_checked(spec["amplitude"], "number", f"{where}.amplitude")))
        return domain.restrict(f)
    return _load_field_on(_checked(spec["path"], "string", f"{where}.path"), domain)[0]


def cmd_stability(ns):
    path = ns.config
    cfg = _read_json_object(path, ("version", "domain", "pairs"), _STAB_KINDS)
    gspec = _object(cfg["domain"], f"{path}: domain", ("L", "N", "shape"))
    domain = domain_from_spec(gspec["L"], gspec["N"], gspec["shape"], f"{path}: domain.")
    pairs = []
    for i, p in enumerate(_checked(cfg["pairs"], "list", f"{path}: pairs")):
        p = _object(p, f"{path}: pairs[{i}]", ("q1", "q2"))
        pairs.append(tuple(_field_from_spec(p[k], domain, f"{path}: pairs[{i}].{k}")
                           for k in ("q1", "q2")))
    sc = recon.StabilityConfig(**{
        "smoothness" if key == "s" else key: _checked(v, _STAB_KINDS[key], f"{path}: {key}")
        for key, v in cfg.items() if key in _STAB_KINDS})
    records = recon.stability_experiment(pairs, domain, sc)
    rows = [(i, r.dq_weak, r.d_hat, r.bound_value, r.tau,
             r.pairing_l2 if r.pairing_l2 is not None else math.nan,
             int(r.excluded)) for i, r in enumerate(records)]
    used = [r for r in records if not r.excluded]
    files = [("stability.csv", _write_csv, ["pair", "dq_weak", "d_hat", "bound_value", "tau",
                                             "pairing_l2", "excluded"], rows)]
    if len(used) < 3:
        return files, "fewer than 3 usable pairs; no trend computed"
    rho = recon.stability_trend(records)
    files.append(("stability.svg", _write_text, svgplot.loglog_svg(
        [r.bound_value for r in used], {"dq_weak": [r.dq_weak for r in used]},
        "stability trend", "(ln 1/d)^(-s/4)", "||q1-q2|| weak",
        {"dq_weak": f"spearman {rho:.3f}"})))
    return files, f"spearman rank correlation: {rho:.4f} over {len(used)} pairs"


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors take the JSON error path."""

    def error(self, message):
        raise BklabError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="bklab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)  # the subcommands that write files
    out.add_argument("--out-dir", default=".")

    s = sub.add_parser("lorentz-norm", help="Lorentz / Bessel norm of a field")
    s.add_argument("--field", required=True)
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--q", required=True, help="q index, or 'inf'")
    s.add_argument("--s", type=float, default=None, help="Bessel smoothness")
    s.add_argument("--domain", default=None)
    s.add_argument("--seminormed", action="store_true")
    s.set_defaults(fn=cmd_lorentz_norm)

    s = sub.add_parser("cauchy-selftest", parents=[out], help="closed-form transform checks")
    s.add_argument("--n", type=int, default=0, help="grid size (0 = 64,128,256)")
    s.set_defaults(fn=cmd_cauchy_selftest)

    s = sub.add_parser("stationary-phase", parents=[out], help="smoothing error sweep")
    s.add_argument("--field", required=True)
    s.add_argument("--s", type=float, default=1.0)
    s.add_argument("--tau-min", type=float, default=4.0)
    s.add_argument("--tau-max", type=float, default=256.0)
    s.add_argument("--norm", type=float, default=None,
                   help="H^{s,2} norm of the field (default: the reference Gaussian's)")
    s.set_defaults(fn=cmd_stationary_phase)

    s = sub.add_parser("carleman-sweep", parents=[out], help="weighted-transform decay rates")
    s.add_argument("--domain", required=True)
    s.add_argument("--a", default="one", help="'one' or a field file")
    s.add_argument("--tau", default="4:256")
    s.add_argument("--z0", default="0.1,0.07")
    s.add_argument("--mode", choices=("field", "operator"), default="field")
    s.set_defaults(fn=cmd_carleman_sweep)

    s = sub.add_parser("bukhgeim", parents=[out], help="solve the oscillating fixed point")
    s.add_argument("--q", required=True)
    s.add_argument("--domain", required=True)
    s.add_argument("--tau", type=float, required=True)
    s.add_argument("--z0", required=True)
    s.add_argument("--phase", choices=("holo", "anti"), default="holo")
    s.add_argument("--tol", type=float, default=1e-10)
    s.set_defaults(fn=cmd_bukhgeim)

    s = sub.add_parser("cauchy-distance", parents=[out], help="boundary-data distance proxy")
    s.add_argument("--q1", required=True)
    s.add_argument("--q2", required=True)
    s.add_argument("--domain", required=True)
    s.add_argument("--z0-grid", default="3x3")
    s.add_argument("--taus", default="8,16,32")
    s.add_argument("--fd-modes", type=int, default=8)
    s.set_defaults(fn=cmd_cauchy_distance)

    s = sub.add_parser("reconstruct", parents=[out], help="recover the potential on a lattice")
    s.add_argument("--q", required=True)
    s.add_argument("--domain", required=True)
    s.add_argument("--tau", default="32")
    s.add_argument("--form", choices=("interior", "boundary", "both"), default="both")
    s.add_argument("--lattice", type=int, default=3)
    s.set_defaults(fn=cmd_reconstruct)

    s = sub.add_parser("stability", parents=[out], help="log-stability trend experiment")
    s.add_argument("--config", required=True)
    s.set_defaults(fn=cmd_stability)
    return p


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        files, report = ns.fn(ns)
        if files:
            os.makedirs(ns.out_dir or ".", exist_ok=True)
        for name, write, *data in files:
            write(os.path.join(ns.out_dir, name), *data)
        print(report)
        return 0
    except SystemExit as e:  # --help
        return 2 if e.code not in (0, None) else 0
    except (BklabError, OSError, UnicodeDecodeError, KeyError, json.JSONDecodeError,
            NumericalError) as e:
        json.dump({"error": {"type": type(e).__name__, "message": str(e)}},
                  sys.stderr)
        sys.stderr.write("\n")
        return 3 if isinstance(e, NumericalError) else 2


if __name__ == "__main__":
    sys.exit(main())
