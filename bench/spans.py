"""Span recorder installed from outside the program, and the per-layer
metrics computed from its spans.

`install()` wraps the public entry points of each bklab layer: methods on
their classes, and module-level functions at every module that holds a
reference to them (`from .x import y` binds `y` separately in each
importer, so patching the defining module alone would miss most calls).
Spans record name, start, end, parent and thread; they are kept in memory
and written out by the caller when the run ends.  The thread pool of
`bklab.util.parallel_map` does not copy context variables, so each item is
given its parent span explicitly.

Times of a layer are summed over threads (busy seconds), counting only the
outermost span of a layer when its spans nest.
"""

from __future__ import annotations

import builtins
import contextvars
import functools
import hashlib
import importlib
import itertools
import math
import sys
import threading
import time

import numpy as np

# name, start, end, parent id, thread id, attributes
_ID, _NAME, _START, _END, _PARENT, _THREAD, _ATTRS = range(7)

# Computed cost of one padded transform on an N x N field (M = 2N): a
# forward and an inverse complex M x M FFT at 5 M^2 log2(M^2) flops each,
# plus the 6 M^2 flops of the spectral product.  Bytes: read the input (N^2)
# and write the output (N^2), write the padded array (M^2), each FFT reads
# and writes its M^2 array once (4 M^2), the product reads the kernel (M^2);
# 16 bytes per complex sample.  Cache misses are ignored.
FFT_FLOPS_FORMULA = "2 * 5 * M^2 * log2(M^2) + 6 * M^2, M = 2N"
FFT_BYTES_FORMULA = "16 * (2 * N^2 + 6 * M^2), M = 2N"


def transform_flops(n: int) -> float:
    m2 = (2 * n) ** 2
    return 2 * 5 * m2 * math.log2(m2) + 6 * m2


def transform_bytes(n: int) -> float:
    return 16.0 * (2 * n * n + 6 * (2 * n) ** 2)


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "bench_span", default=None)

    def begin(self, name: str, parent=None) -> list:
        """Start a span, child of `parent` (default the current span)."""
        if parent is None:
            parent = self._current.get()
        span = [next(self._ids), name, time.perf_counter(), None,
                parent[_ID] if parent else 0, threading.get_ident(), {}]
        with self._lock:
            self.spans.append(span)
        return span

    def open(self, name: str, parent=None):
        """Start a span and make it current.  Returns the span and the
        token for close()."""
        span = self.begin(name, parent)
        return span, self._current.set(span)

    def close(self, span, token, **attrs):
        span[_END] = time.perf_counter()
        span[_ATTRS].update(attrs)
        self._current.reset(token)


class _OutputFile:
    """A file opened for writing whose lifetime is recorded as a span."""

    def __init__(self, f, span):
        self._f, self._span = f, span

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        self._f.close()
        if self._span[_END] is None:
            self._span[_END] = time.perf_counter()


def _digest(*arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def install(rec: Recorder) -> None:
    """Wrap every layer of the imported bklab package so that its calls
    record spans into `rec`."""
    # the package re-exports functions named like some submodules (cauchy),
    # so the submodules are taken from sys.modules
    boundary, bukhgeim, cauchy, cli, grid, lorentz, recon, stationary, svgplot, util = (
        importlib.import_module(f"bklab.{m}") for m in (
            "boundary", "bukhgeim", "cauchy", "cli", "grid", "lorentz", "recon",
            "stationary", "svgplot", "util"))

    def wrap(fn, name, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, token = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                rec.close(span, token, error=type(e).__name__)
                raise
            rec.close(span, token)
            if after is not None:
                after(span, args, result)
            return result
        return traced

    def replace(orig, new):
        for modname, mod in list(sys.modules.items()):
            if (modname == "bklab" or modname.startswith("bklab.")) and mod is not None:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, new)

    def everywhere(module, attr, name, after=None):
        orig = getattr(module, attr)
        replace(orig, wrap(orig, name, after))

    def method(cls, attr, name, after=None):
        setattr(cls, attr, wrap(getattr(cls, attr), name, after))

    def transform_cost(span, args, result):
        n = args[0].grid.N
        span[_ATTRS]["flops"] = transform_flops(n)
        span[_ATTRS]["bytes"] = transform_bytes(n)

    def solve_stats(span, args, result):
        span[_ATTRS]["iterations"] = result.iterations

    def lattice_stats(span, args, result):
        fields = [a for a in args if isinstance(a, np.ndarray) and a.ndim == 2]
        span[_ATTRS]["points"] = [f"{_digest(*fields)}:{result.tau!r}:{complex(z)!r}"
                                  for z in result.z0]
        span[_ATTRS]["ok"] = int(np.count_nonzero(result.ok))

    def skipped_stats(span, args, result):
        span[_ATTRS]["skipped"] = len(result.skipped)

    method(cauchy.ConvolutionPlan, "__init__", "cauchy.plan_build")
    method(cauchy.ConvolutionPlan, "apply", "cauchy.transform", transform_cost)
    method(cauchy.ConvolutionPlan, "apply_beurling", "cauchy.transform", transform_cost)
    method(boundary.DirichletSolver, "__init__", "boundary.factor")
    method(boundary.DirichletSolver, "solve", "boundary.dirichlet_solve")
    everywhere(bukhgeim, "solve_f", "bukhgeim.solve_f", solve_stats)
    everywhere(bukhgeim, "carleman_sweep", "bukhgeim.carleman_sweep")
    for attr in ("reconstruct_interior", "reconstruct_boundary", "reconstruct_pairing"):
        everywhere(recon, attr, "recon.reconstruct", lattice_stats)
    everywhere(recon, "calibrate_exponential_rate", "recon.calibrate")
    everywhere(recon, "stability_experiment", "recon.stability")
    everywhere(boundary, "w12_norm", "boundary.w12_norm")
    everywhere(boundary, "cauchy_distance", "boundary.cauchy_distance", skipped_stats)
    everywhere(lorentz, "lorentz_norm", "lorentz.norm")
    everywhere(grid, "load_domain", "grid.load_domain")
    everywhere(grid, "load_field", "grid.load_field")
    everywhere(stationary, "smooth", "stationary.smooth")
    everywhere(grid, "save_field", "cli.output")
    everywhere(svgplot, "loglog_svg", "cli.output")
    everywhere(cli, "_write_csv", "cli.output")

    def output_open(file, mode="r", *args, **kwargs):
        f = builtins.open(file, mode, *args, **kwargs)
        if not set(mode) & set("wax"):
            return f
        return _OutputFile(f, rec.begin("cli.output"))

    # the CLI writes its JSON and SVG files through open(); a module global
    # shadows the builtin for bklab.cli only
    cli.open = output_open

    orig_map = util.parallel_map

    def parallel_map(fn, items):
        items = list(items)
        n = util.thread_count()
        workers = 1 if n == 1 or len(items) <= 1 else min(n, len(items))
        span, token = rec.open("util.parallel_map")

        def item(it):
            child, ctoken = rec.open("util.parallel_map.item", parent=span)
            try:
                return fn(it)
            finally:
                rec.close(child, ctoken)
        try:
            return orig_map(item, items)
        finally:
            rec.close(span, token, workers=workers)

    replace(orig_map, parallel_map)


def layer_metrics(spans: list) -> dict:
    """Per-layer totals from a finished run's spans."""
    by_id = {s[_ID]: s for s in spans}

    def ancestors(s):
        p = s[_PARENT]
        while p:
            a = by_id[p]
            yield a
            p = a[_PARENT]

    def named(name):
        return [s for s in spans if s[_NAME] == name and s[_END] is not None]

    def busy(name):
        """Summed duration of the outermost spans of `name`."""
        return sum(s[_END] - s[_START] for s in named(name)
                   if not any(a[_NAME] == name for a in ancestors(s)))

    def attr_sum(name, key):
        return sum(s[_ATTRS].get(key, 0) for s in named(name))

    transforms = named("cauchy.transform")
    solves = named("bukhgeim.solve_f")
    in_solve = sum(1 for s in transforms
                   if any(a[_NAME] == "bukhgeim.solve_f" for a in ancestors(s)))
    recon_solves = sum(1 for s in solves
                       if any(a[_NAME] == "recon.reconstruct" for a in ancestors(s)))
    rec_spans = named("recon.reconstruct")
    attempted = sum(len(s[_ATTRS].get("points", ())) for s in rec_spans)
    distinct = len({p for s in rec_spans for p in s[_ATTRS].get("points", ())})
    maps = named("util.parallel_map")
    map_capacity = sum((s[_END] - s[_START]) * s[_ATTRS].get("workers", 1) for s in maps)
    items_busy = sum(s[_END] - s[_START] for s in named("util.parallel_map.item"))
    return {
        "cauchy.transform.calls": len(transforms),
        "cauchy.transform.s": busy("cauchy.transform"),
        "cauchy.transform.fft_flops": attr_sum("cauchy.transform", "flops"),
        "cauchy.transform.bytes": attr_sum("cauchy.transform", "bytes"),
        "cauchy.plan_build.calls": len(named("cauchy.plan_build")),
        "cauchy.plan_build.s": busy("cauchy.plan_build"),
        "bukhgeim.solve_f.calls": len(solves),
        "bukhgeim.solve_f.s": busy("bukhgeim.solve_f"),
        "bukhgeim.picard_iters": attr_sum("bukhgeim.solve_f", "iterations"),
        "bukhgeim.s_applies": in_solve / 2,
        "bukhgeim.diverged": sum(1 for s in solves
                                 if s[_ATTRS].get("error") == "FixedPointDivergenceError"),
        "bukhgeim.carleman_sweep.s": busy("bukhgeim.carleman_sweep"),
        "recon.reconstruct.s": busy("recon.reconstruct"),
        "recon.lattice_points": distinct,
        "recon.ok_ratio": attr_sum("recon.reconstruct", "ok") / attempted if attempted else 0.0,
        "recon.solves_per_point": recon_solves / distinct if distinct else 0.0,
        "recon.calibrate.s": busy("recon.calibrate"),
        "recon.stability.s": busy("recon.stability"),
        "boundary.factor.calls": len(named("boundary.factor")),
        "boundary.factor.s": busy("boundary.factor"),
        "boundary.dirichlet_solve.calls": len(named("boundary.dirichlet_solve")),
        "boundary.dirichlet_solve.s": busy("boundary.dirichlet_solve"),
        "boundary.w12_norm.s": busy("boundary.w12_norm"),
        "boundary.cauchy_distance.s": busy("boundary.cauchy_distance"),
        "boundary.skipped_pairs": attr_sum("boundary.cauchy_distance", "skipped"),
        "lorentz.norm.calls": len(named("lorentz.norm")),
        "lorentz.norm.s": busy("lorentz.norm"),
        "grid.load_domain.s": busy("grid.load_domain"),
        "grid.load_field.s": busy("grid.load_field"),
        "stationary.smooth.s": busy("stationary.smooth"),
        "util.parallel_map.s": busy("util.parallel_map"),
        "util.parallel_map.busy_s": items_busy,
        "util.parallel_map.efficiency": items_busy / map_capacity if map_capacity else 0.0,
        "cli.output.s": busy("cli.output"),
    }
