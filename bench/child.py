"""One fresh-process run of the bklab CLI, as a user would start it.

    python3 bench/child.py RESULT.json [--trace SPANS.json] [--import-only] -- ARGV...

Imports `bklab.cli` first, so that the parent can time interpreter start
to the end of that import, then (unless --import-only) calls
`bklab.cli.main(ARGV)` and writes its exit code, wall time, peak resident
memory and, with --trace, the per-layer metrics to RESULT.json.
"""

import time

import bklab.cli

IMPORTED = time.time()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def main() -> int:
    sep = sys.argv.index("--")
    opts, argv = sys.argv[1:sep], sys.argv[sep + 1:]
    result_path = opts[0]
    spans_path = opts[opts.index("--trace") + 1] if "--trace" in opts else None
    src = os.environ["BENCH_SRC"]
    result = {"imported": IMPORTED, "bklab_file": bklab.cli.__file__}
    if os.path.commonpath([os.path.abspath(bklab.cli.__file__), src]) != src:
        result["error"] = f"bklab imported from {bklab.cli.__file__}, not from {src}"
        result["rc"] = -1
    elif "--import-only" not in opts:
        rec = None
        if spans_path:
            import spans
            rec = spans.Recorder()
            spans.install(rec)
        t0 = time.perf_counter()
        try:
            rc = bklab.cli.main(argv)
        except Exception:
            rc = -1
            result["error"] = traceback.format_exc()
        result["run_s"] = time.perf_counter() - t0
        result["rc"] = rc
        if rec is not None:
            result["layers"] = spans.layer_metrics(rec.spans)
            with open(spans_path, "w") as f:
                json.dump({"fields": ["id", "name", "start", "end", "parent",
                                      "thread", "attrs"], "spans": rec.spans}, f)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    with open(result_path, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
