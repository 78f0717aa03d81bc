"""Output checks for one workload run.  Every check reads only the files
the CLI wrote; `check()` returns the list of problems found (empty when the
run is correct).

At seed 0 the CSV values and the reconstructed lattice values are also
compared with reference.json at relative tolerance REF_RTOL.  Reordering
the FFT changes results by round-off (about 1e-15 relative per transform;
the fixed-point tolerance of 1e-10 bounds what the Picard loop can add, and
the sup errors, about 1e-2, amplify that to at most about 1e-8).  A wrong
transform, such as an off-by-one kernel shift, a missing cell measure or a
conjugated kernel, moves every value by far more than 1e-4.
"""

from __future__ import annotations

import json
import math
import os
import xml.etree.ElementTree as ET

import numpy as np

REF_RTOL = 1e-6
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

FILES = {
    "recon": ("recon_sweep.csv", "recon_sweep.svg", "recon_metrics.json",
              "recon_interior.bkfld", "recon_boundary.bkfld"),
    "stability": ("stability.csv", "stability.svg"),
    "carleman": ("carleman_sweep.csv", "carleman_sweep.svg"),
}
HEADERS = {
    "recon": ["tau", "sup_err_interior", "sup_err_boundary"],
    "stability": ["pair", "dq_weak", "d_hat", "bound_value", "tau",
                  "pairing_l2", "excluded"],
    "carleman": ["tau", "norm_l2weak", "norm_sup", "bound"],
}
CARLEMAN_TAUS = [4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0]
SVG_NS = "{http://www.w3.org/2000/svg}"


def read_csv(path) -> tuple[list[str], list[list[float]]]:
    with open(path) as f:
        lines = f.read().splitlines()
    return lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]


def read_svg_points(path) -> dict:
    """{series: [(x, y), ...]} from the data attributes of the plot's
    circles; a truncated or malformed file raises ET.ParseError."""
    root = ET.parse(path).getroot()
    pts: dict[str, list] = {}
    for c in root.iter(SVG_NS + "circle"):
        pts.setdefault(c.get("data-series"), []).append(
            (float(c.get("data-x")), float(c.get("data-y"))))
    return pts


def read_field(path) -> tuple[np.ndarray, int, float]:
    with open(path, "rb") as f:
        magic, n, L = f.readline().decode("ascii").split()
        data = f.read()
    n = int(n)
    if magic != "BKFLD1" or len(data) != 16 * n * n:
        raise ValueError(f"{path}: malformed field file")
    return np.frombuffer(data, dtype="<c16").reshape(n, n), n, float(L)


def loglog_slope(x, y) -> float:
    """Least-squares slope of log y on log x with the smallest x dropped,
    the sweep convention of the CLI."""
    x, y = np.asarray(x[1:], dtype=float), np.asarray(y[1:], dtype=float)
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def spearman(x, y) -> float:
    from scipy.stats import spearmanr
    return float(spearmanr(x, y).statistic)


def _svg_series(workload, rows) -> dict:
    """The points the SVG must carry, derived from the CSV rows."""
    if workload == "recon":
        return {"interior": [(r[0], r[1]) for r in rows],
                "boundary": [(r[0], r[2]) for r in rows]}
    if workload == "stability":
        return {"dq_weak": [(r[3], r[1]) for r in rows if r[6] == 0]}
    return {"norm_l2weak": [(r[0], r[1]) for r in rows],
            "norm_sup": [(r[0], r[2]) for r in rows],
            "bound": [(r[0], r[3]) for r in rows]}


def _lattice_values(outdir) -> dict:
    out = {}
    for form in ("interior", "boundary"):
        fld, _, _ = read_field(os.path.join(outdir, f"recon_{form}.bkfld"))
        out[form] = fld[fld != 0]
    return out


def reference_values(workload, outdir) -> dict:
    """The values compared with reference.json at seed 0."""
    _, rows = read_csv(os.path.join(outdir, FILES[workload][0]))
    ref = {"csv": rows}
    if workload == "recon":
        ref["lattice"] = {k: [[z.real, z.imag] for z in v]
                          for k, v in _lattice_values(outdir).items()}
    return ref


def compare_reference(got, want, rtol=REF_RTOL) -> list[str]:
    a = np.asarray(_flatten(got), dtype=float)
    b = np.asarray(_flatten(want), dtype=float)
    if a.shape != b.shape:
        return [f"reference: {a.size} values, expected {b.size}"]
    bad = ~np.isclose(a, b, rtol=rtol, atol=0.0, equal_nan=True)
    if bad.any():
        i = int(np.argmax(bad))
        return [f"reference: {int(bad.sum())} values differ beyond rtol {rtol:g}, "
                f"first {float(a[i])!r} vs {float(b[i])!r}"]
    return []


def _flatten(v):
    if isinstance(v, dict):
        return [x for k in sorted(v) for x in _flatten(v[k])]
    if isinstance(v, (list, tuple)):
        return [x for item in v for x in _flatten(item)]
    return [v]


def check(workload: str, outdir: str, params: dict, rc: int, seed: int) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    missing = [f for f in FILES[workload] if not os.path.isfile(os.path.join(outdir, f))]
    if missing:
        return [f"missing outputs {missing}"]
    try:
        return _check_outputs(workload, outdir, params, seed)
    except (ValueError, IndexError, KeyError, TypeError, ET.ParseError) as e:
        return [f"unreadable output: {type(e).__name__}: {e}"]


def _check_outputs(workload, outdir, params, seed) -> list[str]:
    problems = []
    csv_name, svg_name = FILES[workload][:2]
    header, rows = read_csv(os.path.join(outdir, csv_name))
    if header != HEADERS[workload]:
        problems.append(f"{csv_name}: header {header}")
    if not rows or any(len(r) != len(HEADERS[workload]) for r in rows):
        return problems + [f"{csv_name}: ragged or empty"]
    if read_svg_points(os.path.join(outdir, svg_name)) != _svg_series(workload, rows):
        problems.append(f"{svg_name}: data points do not match {csv_name}")

    if workload == "recon":
        taus = [r[0] for r in rows]
        if taus != params["taus"]:
            problems.append(f"taus {taus}, expected {params['taus']}")
        for col, form in ((1, "interior"), (2, "boundary")):
            errs = [r[col] for r in rows]
            if not all(b < a for a, b in zip(errs, errs[1:])):
                problems.append(f"{form} sup errors do not fall strictly: {errs}")
        fi, n, L = read_field(os.path.join(outdir, "recon_interior.bkfld"))
        fb, nb, Lb = read_field(os.path.join(outdir, "recon_boundary.bkfld"))
        if (n, L) != (nb, Lb) or (n, L) != (params["N"], params["L"]):
            problems.append("reconstructed fields are on the wrong grid")
        elif not np.array_equal(fi != 0, fb != 0) or not fi.any():
            problems.append("reconstructed fields have different lattice cells")
        else:
            gap = float(np.abs(fi - fb).max())
            limit = 0.01 * (2 * L / n) * taus[-1]
            if not gap <= limit:
                problems.append(f"interior/boundary gap {gap:.3e} > 0.01*h*tau = {limit:.3e}")
    elif workload == "stability":
        if len(rows) != len(params["eps"]):
            problems.append(f"{len(rows)} pairs, expected {len(params['eps'])}")
        if any(r[6] != 0 for r in rows):
            problems.append("excluded rows present")
        x, y = [r[1] for r in rows], [r[3] for r in rows]
        if not all(math.isfinite(v) for v in x + y):
            problems.append("non-finite dq_weak or bound_value")
        else:
            rho = spearman(x, y)
            if not rho >= 0.9:
                problems.append(f"Spearman {rho:.4f} < 0.9")
    else:
        taus = [r[0] for r in rows]
        if taus != CARLEMAN_TAUS:
            problems.append(f"taus {taus}, expected {CARLEMAN_TAUS}")
        weak = loglog_slope(taus, [r[1] for r in rows])
        sup = loglog_slope(taus, [r[2] for r in rows])
        if not weak <= -0.90:
            problems.append(f"weak slope {weak:.4f} > -0.90")
        if not sup <= -0.30:
            problems.append(f"sup slope {sup:.4f} > -0.30")

    if seed == 0:
        with open(REFERENCE) as f:
            want = json.load(f)[workload]
        problems += compare_reference(reference_values(workload, outdir), want)
    return problems
