"""Description of the machine and the numerical stack a result was measured
on, written next to every result."""

from __future__ import annotations

import os
import platform
from importlib import metadata

import spans

THREAD_VARS = ("BKLAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_bytes(level: int):
    """Size of the unified cache of `level` seen by CPU 0."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            with open(os.path.join(base, index, "level")) as f:
                if int(f.read()) != level:
                    continue
            with open(os.path.join(base, index, "size")) as f:
                size = f.read().strip()
            return int(size[:-1]) * 1024 if size.endswith("K") else int(size)
    except (OSError, ValueError):
        pass
    return None


def _sysconf(name: str):
    try:
        value = os.sysconf(name)
    except (ValueError, OSError):
        return None
    return value if value > 0 else None


def _openblas() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return "unknown"
    return blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}"


def describe(env: dict) -> dict:
    pages, page_size = _sysconf("SC_PHYS_PAGES"), _sysconf("SC_PAGE_SIZE")
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": _cache_bytes(2),
        "l3_bytes": _cache_bytes(3),
        "ram_bytes": pages * page_size if pages and page_size else None,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": _openblas(),
        "threads": {v: env.get(v) for v in THREAD_VARS},
        "fft_flops_formula": spans.FFT_FLOPS_FORMULA,
        "fft_bytes_formula": spans.FFT_BYTES_FORMULA,
    }
