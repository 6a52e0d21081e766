"""Host calibration and fingerprint.

The reference host runs at two speeds about 1.65-1.9x apart, switching
on timescales from under a millisecond to seconds, and each core
switches on its own.  So every timed warm and simulator call is
bracketed by a fixed pure-Python spin: the spin times say which state
the host was in (``host.*`` metrics), and the warm and simulator
medians are taken over the calls whose two bracketing spins both read
the fast state (see ``stats.py``, ``probes.py`` and ``worker.py``).
"""

from __future__ import annotations

import ctypes
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

_NP_X = np.linspace(1.0, 2.0, 256)
_NP_OUT = np.empty_like(_NP_X)


def spin() -> int:
    """The fixed pure-Python spin: about 5 us on the fast state."""
    s = 0
    for i in range(200):
        s += i
    return s


def spin_ns() -> int:
    t0 = time.perf_counter_ns()
    spin()
    return time.perf_counter_ns() - t0


def np_ns() -> int:
    """One fixed small NumPy operation, after an untimed one."""
    np.multiply(_NP_X, _NP_X, out=_NP_OUT)
    t0 = time.perf_counter_ns()
    np.multiply(_NP_X, _NP_X, out=_NP_OUT)
    return time.perf_counter_ns() - t0


_RDTSC_C = """
#include <x86intrin.h>
unsigned long long perfbench_rdtsc(void) { return __rdtsc(); }
"""


def tsc_ghz(workdir: Path, cc: str | None) -> float | None:
    """The time-stamp counter rate, from a two-line rdtsc helper built
    with the local compiler and timed against the monotonic clock."""
    if cc is None or platform.machine() not in ("x86_64", "AMD64"):
        return None
    workdir.mkdir(parents=True, exist_ok=True)
    so = workdir / "rdtsc.so"
    try:
        subprocess.run([cc, "-O2", "-shared", "-fPIC", "-x", "c", "-",
                        "-o", str(so)], input=_RDTSC_C, text=True,
                       capture_output=True, check=True, timeout=60)
        fn = ctypes.CDLL(str(so)).perfbench_rdtsc
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None
    fn.argtypes, fn.restype = [], ctypes.c_ulonglong
    rates = []
    for _ in range(5):
        t0, c0 = time.perf_counter_ns(), fn()
        time.sleep(0.02)
        t1, c1 = time.perf_counter_ns(), fn()
        rates.append((c1 - c0) / (t1 - t0))
    return float(np.median(rates))


def _caches() -> dict[str, str]:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        out[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    return out


def _cpu_flags() -> tuple[str, list[str]]:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return platform.processor() or "unknown", []
    model = re.search(r"model name\s*:\s*(.+)", text)
    flags = re.search(r"flags\s*:\s*(.+)", text)
    return (model.group(1).strip() if model else "unknown",
            sorted(flags.group(1).split()) if flags else [])


def fingerprint(cc_version: str | None, tsc: float | None) -> dict:
    """Everything a measurement depends on besides the code."""
    model, flags = _cpu_flags()
    simd = [f for f in flags if re.match(
        r"(sse|ssse|avx|fma|f16c|bmi|popcnt|amx)", f)]
    return {
        "cpu": model,
        "simd_flags": simd,
        "caches": _caches(),
        "nproc": os.cpu_count(),
        "cc": cc_version,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "tsc_ghz": tsc,
    }
