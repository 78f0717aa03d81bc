"""Regenerate reference.json: the seed-0 output values of each workload
that checks.py compares later runs against.

    python3 bench/make_reference.py        (from the root of a checkout)

Run it only when a change is meant to alter the numbers, and say why.
"""

import json
import os
import shutil
import sys

import checks
import inputs
import run


def main() -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    env = run.child_env(src)
    ref = {}
    for workload in run.WORKLOADS:
        workdir = os.path.join(root, ".bench_work", f"reference-{workload}")
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        generated = inputs.generate(workload, 0, os.path.join(workdir, "inputs"))
        outdir = os.path.join(workdir, "out")
        argv = [a.replace("{out}", outdir) for a in generated["argv"]]
        res, _ = run.spawn(env, workdir, "run", argv)
        if res is None or res.get("rc") != 0:
            print(f"{workload}: CLI run failed, see {workdir}/run.log", file=sys.stderr)
            return 1
        ref[workload] = checks.reference_values(workload, outdir)
    with open(checks.REFERENCE, "w") as f:
        json.dump(ref, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
