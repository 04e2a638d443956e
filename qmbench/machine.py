"""Machine facts and a fixed machine-speed probe, recorded with every run.

``ref_ms`` times a fixed pure-Python plus numpy-FFT loop.  It is taken
just before and just after the timed window and is a diagnostic only:
no metric is divided by it.  When a metric moves together with
``ref_ms`` the host changed speed; when it moves alone the program did.
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np
import scipy

_REF_SIGNAL = np.cos(np.arange(4096) * 0.001)


def _ref_once() -> None:
    acc = 0
    for i in range(20_000):
        acc += i * i
    for _ in range(20):
        np.fft.fft(_REF_SIGNAL)


def ref_ms(repeats: int = 15) -> float:
    """Median wall time of the fixed reference loop, in ms."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _ref_once()
        times.append(1e3 * (time.perf_counter() - start))
    return statistics.median(times)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        out[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return out


def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return {k: {f: deps[k].get(f) for f in ("name", "version")}
                for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError):  # older numpy: no dict mode
        return {}


def source_digest(src: Path) -> str:
    """sha256 over the package sources, in path order."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def facts(src: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith(("_NUM_THREADS", "_MAXIMUM_THREADS"))},
        "source_digest": source_digest(src),
    }
