"""Self-test of the benchmark, run from the root of a checkout:

    python3 bench/selftest.py

1. The metric names and units in BENCHMARK.json match what run.py prints,
   checked both against its tables and against real runs.
2. Each workload runs once at seed 0 and passes every check.
3. Deliberately corrupted copies of those outputs are counted as failed,
   and a perturbation at round-off level still passes the reference check.
Exits 0 when every case behaves as expected.
"""

import io
import json
import os
import shutil
import sys
from contextlib import redirect_stdout

import numpy as np

import checks
import run
import spans

ROOT = os.getcwd()
CASES: list[tuple[str, bool]] = []


def expect(label: str, ok: bool) -> None:
    CASES.append((label, ok))
    print(f"{'PASS' if ok else 'FAIL'}  {label}")


def run_benchmark(workload: str, trace: int) -> dict:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = run.main(["--workload", workload, "--seed", "0", "--seconds", "1",
                       "--trace", str(trace)])
    if rc != 0:
        raise SystemExit(f"run.py exited {rc} on {workload}")
    return json.loads(buf.getvalue().splitlines()[-1])


def rewrite(path, fn):
    with open(path) as f:
        text = f.read()
    with open(path, "w") as f:
        f.write(fn(text))


def set_cell(d, workload, row, col, fn, svg=True):
    """Replace one CSV value by fn(value) and, with `svg`, the SVG points
    plotting it as a y value, so that the two stay consistent."""
    csv_name, svg_name = checks.FILES[workload][:2]
    with open(os.path.join(d, csv_name)) as f:
        lines = f.read().splitlines()
    cells = lines[row + 1].split(",")
    old = cells[col]
    cells[col] = repr(fn(float(old)))
    lines[row + 1] = ",".join(cells)
    with open(os.path.join(d, csv_name), "w") as f:
        f.write("\n".join(lines) + "\n")
    if svg:
        rewrite(os.path.join(d, svg_name),
                lambda t: t.replace(f'data-y="{old}"', f'data-y="{cells[col]}"'))


def corruptions(workload):
    """(label, change to an output copy, seed the check runs at)."""
    csv_name, svg_name = checks.FILES[workload][:2]
    last = {"recon": 2, "stability": 5, "carleman": 6}[workload]
    yield ("CSV value perturbed by 1e-3, SVG untouched",
           lambda d: set_cell(d, workload, last, 1, lambda v: v * (1 + 1e-3), svg=False), 1)
    yield ("SVG truncated", lambda d: rewrite(os.path.join(d, svg_name),
                                              lambda t: t[:len(t) // 2]), 1)
    yield ("CSV missing", lambda d: os.remove(os.path.join(d, csv_name)), 1)
    yield ("CSV and SVG moved together by 1e-5: reference catches it",
           lambda d: set_cell(d, workload, last, 1, lambda v: v * (1 + 1e-5)), 0)
    if workload == "recon":
        yield ("interior sup error no longer falls",
               lambda d: set_cell(d, workload, 2, 1, lambda v: v * 10), 1)
        yield ("boundary lattice value moved by 1",
               lambda d: shift_field(os.path.join(d, "recon_boundary.bkfld")), 1)
    elif workload == "stability":
        yield ("excluded pair", lambda d: set_cell(d, workload, 0, 6, lambda v: 1.0), 1)
        yield ("trend reversed",
               lambda d: [set_cell(d, workload, i, 1, lambda v, i=i: 10.0 ** i)
                          for i in range(6)], 1)
    else:
        yield ("weak and sup norms flattened at the largest tau",
               lambda d: [set_cell(d, workload, 6, c, lambda v: v * 100) for c in (1, 2)], 1)


def shift_field(path):
    with open(path, "rb") as f:
        header = f.readline()
        fld = np.frombuffer(f.read(), dtype="<c16").copy()
    fld[np.flatnonzero(fld)[0]] += 1.0
    with open(path, "wb") as f:
        f.write(header + fld.tobytes())


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect("end_to_end names and units match run.py", e2e == run.END_TO_END)
    expect("per_layer names and units match run.py", layers == run.PER_LAYER)
    expect("spans.layer_metrics computes every per_layer metric but the overhead",
           set(spans.layer_metrics([])) | {"trace.overhead_s"} == set(layers))
    expect("workload names match run.py",
           [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS))

    traced = run_benchmark("carleman", 1)
    expect("traced run prints exactly the per_layer metrics",
           list(traced["metrics"]) == list(layers) and traced["correct"])
    for workload in run.WORKLOADS:
        res = run_benchmark(workload, 0)
        expect(f"{workload}: untraced run prints exactly the end_to_end metrics, "
               f"correct at seed 0", list(res["metrics"]) == list(e2e)
               and all(m["unit"] == e2e[k] for k, m in res["metrics"].items())
               and res["correct"] and res["failed"] == 0)
        workdir = os.path.join(ROOT, ".bench_work", f"{workload}-seed0-trace0")
        with open(os.path.join(workdir, "results.json")) as f:
            params = json.load(f)["params"]
        outdir = os.path.join(workdir, "out")
        copy_dir = os.path.join(ROOT, ".bench_work", "selftest", workload)

        def fresh():
            shutil.rmtree(copy_dir, ignore_errors=True)
            shutil.copytree(outdir, copy_dir)
            return copy_dir

        expect(f"{workload}: intact copy passes",
               checks.check(workload, fresh(), params, 0, 0) == [])
        expect(f"{workload}: exit code 3 counts as failed",
               checks.check(workload, fresh(), params, 3, 0) != [])
        d = fresh()
        set_cell(d, workload, 0, 1, lambda v: v * (1 + 1e-9))
        expect(f"{workload}: CSV and SVG moved together by 1e-9 (round-off) pass",
               checks.check(workload, d, params, 0, 0) == [])
        for label, corrupt, seed in corruptions(workload):
            d = fresh()
            corrupt(d)
            problems = checks.check(workload, d, params, 0, seed)
            expect(f"{workload}: {label} counts as failed ({'; '.join(problems)[:90]})",
                   problems != [])
    bad = [label for label, ok in CASES if not ok]
    print(f"{len(CASES) - len(bad)}/{len(CASES)} self-test cases pass")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
