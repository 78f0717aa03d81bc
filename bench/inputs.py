"""Seeded inputs for the benchmark workloads.

Inputs are written with numpy alone, following the file formats of
docs/io.md, so that they do not depend on the code being measured.  Seed 0
reproduces the acceptance-criterion inputs exactly; any other seed jitters
the bump centres and z0 inside a box small enough that the acceptance
properties checked by checks.py still hold.
"""

from __future__ import annotations

import json
import os

import numpy as np

JITTER = 0.02          # half-width of the box the seed moves centres and z0 in

RECON = {"N": 256, "L": 1.2, "radius": 1.0, "center": 0.2 + 0.1j,
         "width": 0.45, "amplitude": 0.5, "taus": "8,16,32", "lattice": 3}
STABILITY = {"N": 128, "L": 1.2, "radius": 1.0, "center": 0.2 + 0.1j,
             "width": 0.45, "amplitude": 0.5, "perturb_center": -0.15 + 0.2j,
             "perturb_width": 0.35, "eps": (0.4, 0.2, 0.1, 0.05, 0.025, 0.0125)}
CARLEMAN = {"N": 1024, "L": 1.1, "radius": 1.0, "z0": 0.12 + 0.07j,
            "taus": "4:256"}


def _jitter(rng, z: complex) -> complex:
    if rng is None:
        return complex(z)
    dx, dy = rng.uniform(-JITTER, JITTER, size=2)
    return complex(z) + complex(dx, dy)


def _cell_centers(L: float, N: int) -> np.ndarray:
    h = 2.0 * L / N
    axis = -L + (np.arange(N) + 0.5) * h
    X = np.broadcast_to(axis[None, :], (N, N)).copy()
    Y = np.broadcast_to(axis[:, None], (N, N)).copy()
    return X + 1j * Y


def _bump(Z, center, width, amplitude):
    return amplitude * np.exp(-(np.abs(Z - center) / width) ** 2)


def _save_field(path, field, L, N):
    with open(path, "wb") as f:
        f.write(f"BKFLD1 {N} {float(L)!r}\n".encode("ascii"))
        f.write(np.ascontiguousarray(field, dtype="<c16").tobytes())


def _disk_doc(L, N, radius):
    return {"version": 1, "grid": {"L": float(L), "N": int(N)},
            "shape": {"type": "disk", "center": [0.0, 0.0], "radius": radius}}


def _write_json(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def generate(workload: str, seed: int, workdir: str) -> dict:
    """Write the inputs of `workload` into `workdir` and return the CLI
    argument list (with '{out}' standing for the output directory) and the
    parameters a checker needs."""
    os.makedirs(workdir, exist_ok=True)
    rng = None if seed == 0 else np.random.default_rng(seed)
    if workload == "recon":
        p = RECON
        Z = _cell_centers(p["L"], p["N"])
        center = _jitter(rng, p["center"])
        q = np.where(np.abs(Z) < p["radius"],
                     _bump(Z, center, p["width"], complex(p["amplitude"])), 0j)
        _save_field(os.path.join(workdir, "q.bkfld"), q, p["L"], p["N"])
        _write_json(os.path.join(workdir, "disk.json"),
                    _disk_doc(p["L"], p["N"], p["radius"]))
        argv = ["reconstruct", "--q", os.path.join(workdir, "q.bkfld"),
                "--domain", os.path.join(workdir, "disk.json"),
                "--tau", p["taus"], "--form", "both",
                "--lattice", str(p["lattice"]), "--out-dir", "{out}"]
        params = {"L": p["L"], "N": p["N"], "center": [center.real, center.imag],
                  "taus": [float(t) for t in p["taus"].split(",")]}
    elif workload == "stability":
        p = STABILITY
        Z = _cell_centers(p["L"], p["N"])
        inside = np.abs(Z) < p["radius"]
        center = _jitter(rng, p["center"])
        pcenter = _jitter(rng, p["perturb_center"])
        q1 = np.where(inside, _bump(Z, center, p["width"], complex(p["amplitude"])), 0j)
        _save_field(os.path.join(workdir, "q1.bkfld"), q1, p["L"], p["N"])
        pairs = []
        for i, eps in enumerate(p["eps"]):
            dq = np.where(inside, _bump(Z, pcenter, p["perturb_width"], complex(eps)), 0j)
            path = os.path.join(workdir, f"q2_{i}.bkfld")
            _save_field(path, q1 + dq, p["L"], p["N"])
            pairs.append({"q1": {"type": "field", "path": os.path.join(workdir, "q1.bkfld")},
                          "q2": {"type": "field", "path": path}})
        cfg = {"version": 1,
               "domain": {"L": p["L"], "N": p["N"],
                          "shape": {"type": "disk", "center": [0.0, 0.0],
                                    "radius": p["radius"]}},
               "pairs": pairs, "s": 0.25, "lattice_n": 3,
               "family_taus": [8.0, 16.0, 32.0], "fd_modes": 8}
        _write_json(os.path.join(workdir, "stability.json"), cfg)
        argv = ["stability", "--config", os.path.join(workdir, "stability.json"),
                "--out-dir", "{out}"]
        params = {"L": p["L"], "N": p["N"], "center": [center.real, center.imag],
                  "perturb_center": [pcenter.real, pcenter.imag],
                  "eps": list(p["eps"])}
    elif workload == "carleman":
        p = CARLEMAN
        z0 = _jitter(rng, p["z0"])
        _write_json(os.path.join(workdir, "disk.json"),
                    _disk_doc(p["L"], p["N"], p["radius"]))
        argv = ["carleman-sweep", "--domain", os.path.join(workdir, "disk.json"),
                "--a", "one", "--tau", p["taus"], "--mode", "field",
                "--z0", f"{z0.real!r},{z0.imag!r}", "--out-dir", "{out}"]
        params = {"L": p["L"], "N": p["N"], "z0": [z0.real, z0.imag]}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"argv": argv, "params": params}
