"""Host record and calibration kernel, printed with every result.

Two run sets can only be compared when they ran on like hosts: the record
names the CPU, core count, caches, Python/NumPy/BLAS versions and the BLAS
thread count every child runs with, and a short fixed calibration kernel
(a STREAM-like triad and an ``np.take`` gather at melt sizes) shows runner
drift between run sets.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

#: BLAS/OpenMP threads for every child, so parent and change run alike.
BLAS_THREADS = 1
THREAD_ENV = {
    name: str(BLAS_THREADS)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}

#: melt-kk sizes: ~300k stored pairs gathered from ~10k local+ghost atoms
CALIB_PAIRS = 300_000
CALIB_ATOMS = 10_000
CALIB_REPEATS = 15


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        out[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return out


def _blas() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name', '?')} {deps.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def calibrate(seed: int = 0) -> dict[str, float]:
    """Median milliseconds of a triad and a gather over melt-sized arrays."""
    rng = np.random.default_rng(seed)
    b = rng.random((CALIB_PAIRS, 3))
    c = rng.random((CALIB_PAIRS, 3))
    a = np.empty_like(b)
    x = rng.random((CALIB_ATOMS, 3))
    idx = rng.integers(0, CALIB_ATOMS, CALIB_PAIRS)
    g = np.empty((CALIB_PAIRS, 3))
    triad, gather = [], []
    for _ in range(CALIB_REPEATS):
        t0 = time.perf_counter()
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)
        t1 = time.perf_counter()
        np.take(x, idx, axis=0, out=g)
        t2 = time.perf_counter()
        triad.append(t1 - t0)
        gather.append(t2 - t1)
    return {
        "triad_ms": 1e3 * statistics.median(triad),
        "gather_ms": 1e3 * statistics.median(gather),
        "array_mb": a.nbytes / 2**20,
    }


def host_record() -> dict:
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": BLAS_THREADS,
        "calibration": calibrate(),
    }
