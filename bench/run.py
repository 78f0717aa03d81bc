"""Benchmark of the bklab command line, run from the root of a checkout.

    python3 bench/run.py --workload {recon,stability,carleman} [--seed N]
                         [--seconds S] [--trace 0|1]

Generates the workload's inputs from the seed, then starts the CLI in a
fresh process again and again for S seconds (at least once), checks every
run's outputs, and prints one JSON object as the last line of stdout:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1 (runs
alternate between untraced and traced processes, so the tracing overhead
is measured in the same window).  Working files and a full result record
with the machine description go to .bench_work/ in the checkout.  See
bench/README.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import inputs
import machine

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("recon", "stability", "carleman")
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cauchy.transform.calls": "count", "cauchy.transform.s": "s",
    "cauchy.transform.fft_flops": "flop", "cauchy.transform.bytes": "B",
    "cauchy.plan_build.calls": "count", "cauchy.plan_build.s": "s",
    "bukhgeim.solve_f.calls": "count", "bukhgeim.solve_f.s": "s",
    "bukhgeim.picard_iters": "count", "bukhgeim.s_applies": "count",
    "bukhgeim.diverged": "count", "bukhgeim.carleman_sweep.s": "s",
    "recon.reconstruct.s": "s", "recon.lattice_points": "count",
    "recon.ok_ratio": "ratio", "recon.solves_per_point": "ratio",
    "recon.calibrate.s": "s", "recon.stability.s": "s",
    "boundary.factor.calls": "count", "boundary.factor.s": "s",
    "boundary.dirichlet_solve.calls": "count", "boundary.dirichlet_solve.s": "s",
    "boundary.w12_norm.s": "s", "boundary.cauchy_distance.s": "s",
    "boundary.skipped_pairs": "count",
    "lorentz.norm.calls": "count", "lorentz.norm.s": "s",
    "grid.load_domain.s": "s", "grid.load_field.s": "s",
    "stationary.smooth.s": "s",
    "util.parallel_map.s": "s", "util.parallel_map.busy_s": "s",
    "util.parallel_map.efficiency": "ratio",
    "cli.output.s": "s",
    "trace.overhead_s": "s",
}
SETUP_SAMPLES = 5          # fewest fresh imports whose median is setup_s
CHILD_TIMEOUT = 150.0      # seconds before a CLI process counts as hung
RUN_BUDGET = 160.0         # no new run starts once it could end past this


def child_env(src: str) -> dict:
    """Threads: bklab's pool gets every CPU, BLAS gets one thread, so the
    compute threads never exceed the CPU count."""
    env = dict(os.environ)
    env.update({"PYTHONPATH": src, "BENCH_SRC": src,
                "BKLAB_THREADS": str(len(os.sched_getaffinity(0)))})
    for var in machine.THREAD_VARS[1:]:
        env[var] = "1"
    return env


def spawn(env, workdir, tag, argv=None, traced=False):
    """Start child.py in a fresh interpreter and wait for it.  Returns its
    result record (None if it wrote none) and the wall time at spawn."""
    result_path = os.path.join(workdir, f"{tag}.result.json")
    opts = [result_path]
    if traced:
        opts += ["--trace", os.path.join(workdir, "spans.json")]
    if argv is None:
        opts.append("--import-only")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), *opts, "--", *(argv or [])]
    if os.path.exists(result_path):
        os.remove(result_path)
    t_spawn = time.time()
    with open(os.path.join(workdir, f"{tag}.log"), "w") as log:
        try:
            subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                           timeout=CHILD_TIMEOUT, check=False)
        except subprocess.TimeoutExpired:
            return {"rc": None, "error": "timeout"}, t_spawn
    if not os.path.exists(result_path):
        return None, t_spawn
    with open(result_path) as f:
        return json.load(f), t_spawn


def run(workload: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    t_begin = time.perf_counter()
    src = os.path.join(root, "src")
    workdir = os.path.join(root, ".bench_work", f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    indir = os.path.join(workdir, "inputs")
    generated = inputs.generate(workload, seed, indir)
    env = child_env(src)
    outdir = os.path.join(workdir, "out")
    argv = [a.replace("{out}", outdir) for a in generated["argv"]]

    # the first import compiles bytecode and fills the file cache; users
    # pay that once per install, so it is not part of setup_s
    warm, _ = spawn(env, workdir, "warmup")
    if warm is None or warm.get("error"):
        raise RuntimeError(f"bklab.cli does not import from {src}: "
                           f"{(warm or {}).get('error', 'see warmup.log')}")

    # every CLI process is a fresh interpreter, so each one gives a setup_s
    # sample; import-only processes top the samples up to SETUP_SAMPLES
    setup = []
    runs = []
    t_start = time.perf_counter()
    longest = 0.0
    while not runs or (time.perf_counter() - t_start < seconds
                       and time.perf_counter() - t_begin + longest < RUN_BUDGET):
        for traced in ((False, True) if trace else (False,)):
            shutil.rmtree(outdir, ignore_errors=True)
            t0 = time.perf_counter()
            res, t_spawn = spawn(env, workdir, "traced" if traced else "run", argv, traced)
            longest = max(longest, time.perf_counter() - t0)
            res = res or {"rc": None, "error": "no result written"}
            if "imported" in res:
                setup.append(res["imported"] - t_spawn)
            problems = ([res["error"]] if res.get("error") else []) + \
                checks.check(workload, outdir, generated["params"], res.get("rc"), seed)
            runs.append({"traced": traced, "rc": res.get("rc"),
                         "run_s": res.get("run_s"), "peak_rss_mb": res.get("peak_rss_mb"),
                         "layers": res.get("layers"), "problems": problems})
    shutil.rmtree(indir)   # the seed regenerates them; the last outputs stay
    while len(setup) < SETUP_SAMPLES:
        res, t_spawn = spawn(env, workdir, "setup")
        if res is None or "imported" not in res:
            raise RuntimeError(f"import-only process failed: see {workdir}/setup.log")
        setup.append(res["imported"] - t_spawn)

    plain = [r for r in runs if not r["traced"] and r["run_s"] is not None]
    traced_runs = [r for r in runs if r["traced"] and r["layers"]]
    if not plain or (trace and not traced_runs):
        raise RuntimeError(f"no CLI run completed: see the logs in {workdir}")
    if trace:
        metrics = {}
        for name in PER_LAYER:
            if name == "trace.overhead_s":
                value = (statistics.median(r["run_s"] for r in traced_runs)
                         - statistics.median(r["run_s"] for r in plain))
            else:
                value = statistics.median(r["layers"][name] for r in traced_runs)
            metrics[name] = {"value": value, "unit": PER_LAYER[name]}
    else:
        values = {"run_s": statistics.median(r["run_s"] for r in plain),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain)}
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    failed = sum(1 for r in runs if r["problems"])
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "argv": argv, "params": generated["params"],
        "machine": machine.describe(env), "setup_s_samples": setup,
        "runs": runs, "metrics": metrics,
    }
    with open(os.path.join(workdir, "results.json"), "w") as f:
        json.dump(record, f, indent=2)
    return {"record": record, "path": os.path.join(workdir, "results.json"),
            "result": {"correct": failed == 0, "attempted": len(runs),
                       "failed": failed, "metrics": metrics}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bklab", "cli.py")):
        print(f"no bklab sources under {root}/src: run from the root of a checkout",
              file=sys.stderr)
        return 2
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except RuntimeError as e:
        print(str(e), file=sys.stderr)
        return 1
    rec = out["record"]
    for i, r in enumerate(rec["runs"]):
        status = "ok" if not r["problems"] else "FAILED: " + "; ".join(r["problems"])
        kind = "traced" if r["traced"] else "untraced"
        print(f"run {i} ({kind}): run_s {r['run_s']} {status}")
    for name, m in rec["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print("machine " + json.dumps(rec["machine"], sort_keys=True))
    print(f"seed {rec['seed']}; full record in {out['path']}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
