"""Fuzz the command line over argument strings and small malformed domain,
config and field files: every run ends with exit 0, 2 or 3, a failing run
prints exactly one JSON line on stderr, and no run prints a traceback."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

import bklab
from bklab import Disk, make_domain, make_grid, save_domain, save_field

SUBCOMMANDS = ["lorentz-norm", "cauchy-selftest", "stationary-phase", "carleman-sweep",
               "bukhgeim", "cauchy-distance", "reconstruct", "stability", "frobnicate"]
OPTIONS = ["--field", "--p", "--q", "--s", "--domain", "--seminormed", "--n", "--tau-min",
           "--tau-max", "--norm", "--a", "--tau", "--z0", "--mode", "--phase", "--tol",
           "--q1", "--q2", "--z0-grid", "--taus", "--fd-modes", "--form", "--lattice",
           "--config", "--help"]
# the small valid files first, so that shrinking keeps a case runnable
VALUES = ["disk.json", "q.bkfld", "fuzz.json", "fuzz.bkfld", "missing.json", "2", "0",
          "-1", "nan", "inf", "1e308", "4:8", "2:4", "0.1,0.07", "3x3", "1,2,3", "one",
          "holo", "both", "field", ""]

# JSON documents: the valid 16-cell disk domain or a one-pair stability
# config with one value replaced, or an arbitrary small document
_json_scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 300),
                          st.floats(allow_nan=False, allow_infinity=False, width=32),
                          st.text(max_size=4))
_json_values = st.recursive(_json_scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)
_DISK = {"type": "disk", "center": [0.0, 0.0], "radius": 1.0}
_DOMAIN = {"version": 1, "grid": {"L": 1.2, "N": 16}, "shape": _DISK}
_CONFIG = {"version": 1, "domain": {"L": 1.2, "N": 16, "shape": _DISK},
           "pairs": [{"q1": {"type": "bump", "center": [0.1, 0.0], "width": 0.4,
                             "amplitude": 0.5},
                      "q2": {"type": "field", "path": "q.bkfld"}}]}
_DOMAIN_KEYS = [("version",), ("grid",), ("grid", "L"), ("grid", "N"), ("shape", "type"),
                ("shape", "center"), ("shape", "radius"), ("shape", "vertices")]
_CONFIG_KEYS = [("version",), ("domain", "N"), ("domain", "shape", "radius"), ("pairs",),
                ("pairs", 0, "q1", "type"), ("pairs", 0, "q1", "width"),
                ("pairs", 0, "q2", "path"), ("s",), ("lattice_n",), ("fd_modes",),
                ("family_taus",), ("tau_min",), ("b_omega",), ("bogus",)]


def _replaced(doc, keys, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    return doc


_json_docs = st.one_of(
    st.builds(_replaced, st.just(_DOMAIN), st.sampled_from(_DOMAIN_KEYS), _json_values),
    st.builds(_replaced, st.just(_CONFIG), st.sampled_from(_CONFIG_KEYS), _json_values),
    _json_values)
_json_files = st.one_of(_json_docs.map(json.dumps), st.text(max_size=40))

# BKFLD files: a header (well formed or not) and a payload of the right or
# a wrong length, possibly holding NaN or infinite samples
_headers = st.sampled_from(["BKFLD1 16 1.2", "BKFLD1 8 1.2", "BKFLD1 16 nan",
                            "BKFLD1 12 1.0", "BKFLD1 -16 1.2", "BKFLD1 16", "BKFLD2 16 1.2",
                            "BKFLD1 x y", "", "BKFLD1 16 1.2 7"])
_samples = st.floats(allow_nan=True, allow_infinity=True, width=64)


@st.composite
def _bkfld_files(draw):
    header = draw(_headers)
    parts = header.split()
    n = int(parts[1]) if len(parts) == 3 and parts[1].isdigit() else 16
    count = 2 * n * n + draw(st.sampled_from([0, 0, 0, -1, 1, -2 * n * n]))
    fill = draw(_samples)
    payload = struct.pack(f"<{max(count, 0)}d", *([fill] * max(count, 0)))
    return header.encode("ascii") + b"\n" + payload


_argv = st.builds(lambda sub, rest: [sub, *rest], st.sampled_from(SUBCOMMANDS),
                  st.lists(st.one_of(st.sampled_from(OPTIONS), st.sampled_from(VALUES)),
                           max_size=8))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    ws = tmp_path_factory.mktemp("fuzz")
    g = make_grid(1.2, 16)
    d = make_domain(g, Disk(0j, 1.0))
    save_domain(ws / "disk.json", d)
    save_field(ws / "q.bkfld", d.restrict(0.5 * np.exp(-np.abs(g.Z) ** 2)), g)
    return ws


# no shrinking: each step would start another process, so a failure
# reports the case as generated
@settings(max_examples=12, derandomize=True, database=None, deadline=None,
          phases=[Phase.generate], suppress_health_check=[HealthCheck.too_slow])
@given(argv=_argv, json_text=_json_files, bkfld=_bkfld_files())
def test_cli_exit_contract(fuzz_dir, argv, json_text, bkfld):
    (fuzz_dir / "fuzz.json").write_text(json_text)
    (fuzz_dir / "fuzz.bkfld").write_bytes(bkfld)
    # the run's working directory is the fuzz directory, so the package is
    # found by its absolute path
    src = str(Path(bklab.__file__).resolve().parents[1])
    env = dict(os.environ, BKLAB_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    r = subprocess.run([sys.executable, "-m", "bklab.cli", *argv], capture_output=True,
                       text=True, env=env, cwd=fuzz_dir, timeout=60)
    assert r.returncode in (0, 2, 3), (argv, r.returncode, r.stderr)
    assert "Traceback" not in r.stderr + r.stdout, (argv, r.stderr)
    if r.returncode != 0:
        lines = r.stderr.splitlines()
        assert len(lines) == 1 and "error" in json.loads(lines[0]), (argv, r.stderr)
