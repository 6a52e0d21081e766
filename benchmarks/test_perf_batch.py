"""Batched execution performance: amortizing the per-call boundary tax.

The numbers behind DESIGN.md §13: one batched dispatch replaces N
managed-to-native boundary crossings (native tier: one call of the
generated extension over a packed ``void**`` table) or N interpreter
walks (simulated tier: one whole-batch numpy sweep).  Amortized
per-call latency is measured through the same ``call_batch`` API at
batch sizes 1, 32 and 1024 on both tiers; the acceptance bar —
hard-asserted here — is that batch 1024 beats batch 1 per call on both
tiers.  Absolute speedups are tracked through ``BENCH_batch.json``, not
asserted, so a loaded CI box cannot flake the suite.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.conftest import print_series, series_entry, write_bench_json
from repro.core import compile_staged
from repro.core.cache import default_cache
from repro.core.resilience import clear_session_state
from repro.lms import forloop
from repro.lms.ops import array_apply, array_update
from repro.lms.types import FLOAT, INT32, array_of
from tests.conftest import requires_compiler

N = 8                                  # tiny kernel: boundary-dominated
BATCH_SIZES = (1, 32, 1024)
REPEATS = {1: 200, 32: 40, 1024: 3}    # ~equal work per batch size
BEST_OF = 3


def scalar_saxpy(a, x, n):
    forloop(0, n, step=1, body=lambda i: array_update(
        a, i, array_apply(a, i) * x + 0.5))


TYPES = [array_of(FLOAT), FLOAT, INT32]


def _entries(size: int):
    """Distinct arrays per entry (shared mutated arrays would force the
    simulator sweep into its sequential fallback)."""
    return [(np.ones(N, np.float32), np.float32(1.0 + i * 1e-3), N)
            for i in range(size)]


def _per_call_latency(kernel, size: int) -> float:
    entries = _entries(size)
    kernel.call_batch(entries)             # warm caches and arenas
    repeats = REPEATS[size]
    best = float("inf")
    for _ in range(BEST_OF):
        t0 = time.perf_counter()
        for _ in range(repeats):
            kernel.call_batch(entries)
        best = min(best,
                   (time.perf_counter() - t0) / (repeats * size))
    return best


@requires_compiler
@pytest.mark.benchmark(group="batch")
def test_perf_batch(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "kcache"))
    monkeypatch.delenv("REPRO_TIER", raising=False)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_SERVICE", raising=False)
    default_cache.clear()
    clear_session_state()
    wall0 = time.perf_counter()
    try:
        kernels = {
            "simulated": compile_staged(
                scalar_saxpy, TYPES, name="bench_batch_sim",
                backend="simulated", use_cache=False),
            "native": compile_staged(
                scalar_saxpy, TYPES, name="bench_batch_native",
                backend="native", tier="sync", use_cache=False),
        }
        latency = {
            tier: {size: _per_call_latency(kernel, size)
                   for size in BATCH_SIZES}
            for tier, kernel in kernels.items()
        }

        rows = []
        for tier in kernels:
            per_call = latency[tier]
            # the acceptance bar: batching must amortize the boundary
            # tax on both tiers, not just shuffle it around
            assert per_call[1024] < per_call[1], (
                f"{tier}: per-call latency at batch 1024 "
                f"({per_call[1024] * 1e6:.2f} us) is not better than "
                f"batch 1 ({per_call[1] * 1e6:.2f} us)")
            for size in BATCH_SIZES:
                rows.append((tier, str(size),
                             per_call[size] * 1e6,
                             1.0 / per_call[size]))
        print_series("batched execution (amortized per call)",
                     ["tier", "batch", "us/call", "calls/s"], rows)

        series = [
            series_entry("scalar_saxpy", tier, list(BATCH_SIZES),
                         [latency[tier][s] for s in BATCH_SIZES])
            for tier in kernels
        ]
        extra = {
            "unit": "seconds_per_call",
            "throughput_calls_per_s": {
                tier: {str(s): 1.0 / latency[tier][s]
                       for s in BATCH_SIZES}
                for tier in kernels
            },
            "amortization_1024_vs_1": {
                tier: latency[tier][1] / latency[tier][1024]
                for tier in kernels
            },
        }
        write_bench_json("batch", series,
                         time.perf_counter() - wall0, extra)
    finally:
        default_cache.clear()
        clear_session_state()
