"""Tiered dispatch performance: time-to-first-result, hot-swap latency,
warm native call overhead against named baselines, and batch-compile
throughput.

The numbers behind DESIGN.md §10: with ``REPRO_TIER=async`` a fresh
kernel must answer its first call from the simulated tier in
milliseconds (hard-asserted < 50 ms, the acceptance bar) while the
native compile runs in the background; ``compile_many`` fans N ladder
walks across the worker pool.  The warm-call micro-benchmark times four
things interleaved best-of-N, so machine noise hits them alike: a plain
``NativeKernel`` call, the legacy re-derive-ctypes-per-call loop, the
bare ctypes call with pre-marshalled arguments (the floor) and
``call_batch`` at n=1.  Everything lands in ``BENCH_dispatch.json``,
including ``call_over_floor`` (a plain call over the floor) and
``batch1_over_call`` (``call_batch`` at n=1 over a plain call); the only
hard gates are the 50 ms first-call bound and "the plan does not lose"
to the legacy loop — speedup targets are tracked through the JSON, not
asserted, so a loaded CI box cannot flake the suite.
"""

from __future__ import annotations

import ctypes
import time

import numpy as np
import pytest

from benchmarks.conftest import print_series, write_bench_json
from repro.codegen.compiler import inspect_system
from repro.codegen.native import _CTYPE_BY_SCALAR
from repro.core import BackendKind, compile_many, compile_staged, wait_all
from repro.core.cache import default_cache
from repro.core.resilience import clear_session_state
from repro.lms import forloop
from repro.lms.ops import array_apply, array_update
from repro.lms.types import FLOAT, INT32, ArrayType, array_of

requires_compiler = pytest.mark.skipif(
    inspect_system().best_compiler is None,
    reason="no C compiler on this host",
)

N = 8
ROUNDS = 20000
BATCH = 4


def build_unique(salt: float):
    def fn(a, n):
        forloop(0, n, step=1, body=lambda i: array_update(
            a, i, array_apply(a, i) * 2.0 + salt))

    return fn


def _legacy_native_call(native, args):
    """The pre-plan dispatch path: re-derive dtype, pointer type and
    contiguity checks from the staged signature on every call."""
    converted = []
    for param, value in zip(native.staged.params, args):
        if isinstance(param.tp, ArrayType):
            if not isinstance(value, np.ndarray):
                raise TypeError(f"expected numpy array for {param!r}")
            if value.dtype != param.tp.elem.np_dtype:
                raise TypeError(
                    f"array for {param!r} must have dtype "
                    f"{param.tp.elem.np_dtype}")
            if not value.flags["C_CONTIGUOUS"]:
                raise TypeError("arrays must be C-contiguous")
            converted.append(value.ctypes.data_as(
                ctypes.POINTER(_CTYPE_BY_SCALAR[param.tp.elem.name])))
        else:
            converted.append(value)
    return native._fn(*converted)


def _time_calls(fn, rounds: int) -> float:
    t0 = time.perf_counter()
    for _ in range(rounds):
        fn()
    return (time.perf_counter() - t0) / rounds


@requires_compiler
@pytest.mark.benchmark(group="dispatch")
def test_perf_dispatch(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "kcache"))
    monkeypatch.setenv("REPRO_COMPILE_WORKERS", str(BATCH))
    monkeypatch.delenv("REPRO_TIER", raising=False)
    default_cache.clear()
    clear_session_state()
    types = [array_of(FLOAT), INT32]
    series: list[dict] = []
    extra: dict = {}
    wall = 0.0
    try:
        # -- time-to-first-result: sync vs tiered ----------------------
        t0 = time.perf_counter()
        sync_k = compile_staged(build_unique(1.5), types,
                                name="ttfr_sync", tier="sync")
        a = np.ones(N, np.float32)
        sync_k(a, N)
        ttfr_sync = time.perf_counter() - t0

        t0 = time.perf_counter()
        async_k = compile_staged(build_unique(2.5), types,
                                 name="ttfr_async", tier="async")
        a = np.ones(N, np.float32)
        async_k(a, N)
        ttfr_async = time.perf_counter() - t0
        # the acceptance bar: instant service from the simulated tier
        assert ttfr_async < 0.05, (
            f"tiered first result took {ttfr_async * 1e3:.1f} ms")

        # -- hot-swap latency: enqueue -> native serving ---------------
        t0 = time.perf_counter()
        async_k.wait_native(120)
        swap_latency = time.perf_counter() - t0 + ttfr_async
        assert async_k.backend == BackendKind.NATIVE
        wall += ttfr_sync + ttfr_async + swap_latency

        # -- warm native call overhead against named baselines ---------
        native = async_k._native
        args = (np.ones(N, np.float32), N)
        floor_args = tuple(value if address is None else address(value)
                           for address, value in zip(native._plan, args))
        calls = {
            "plan": lambda: native(*args),
            "legacy": lambda: _legacy_native_call(native, args),
            "floor": lambda: native._fn(*floor_args),
            "batch1": lambda: native.call_batch([args]),
        }
        best = dict.fromkeys(calls, float("inf"))
        for call in calls.values():         # warm
            call()
        for _ in range(5):                  # interleaved best-of-N
            for key, call in calls.items():
                best[key] = min(best[key], _time_calls(call, ROUNDS // 5))
        best_plan, best_legacy = best["plan"], best["legacy"]
        plan_ratio = best_legacy / best_plan
        wall += sum(best.values()) * ROUNDS

        # -- compile_many: batch vs sequential ladder walks ------------
        t0 = time.perf_counter()
        for i in range(BATCH):
            compile_staged(build_unique(10.0 + i), types,
                           name=f"seq{i}", tier="sync")
        sequential = time.perf_counter() - t0

        clear_session_state()
        t0 = time.perf_counter()
        batch = compile_many(
            [build_unique(20.0 + i) for i in range(BATCH)],
            [types] * BATCH,
            names=[f"par{i}" for i in range(BATCH)])
        returned = time.perf_counter() - t0
        wait_all(batch, timeout=240)
        parallel = time.perf_counter() - t0
        batch_ratio = sequential / parallel
        assert all(k.backend == BackendKind.NATIVE for k in batch)
        assert returned < 0.5, (
            f"compile_many blocked for {returned:.2f}s")
        wall += sequential + parallel

        for label, seconds in [
                ("ttfr-sync", ttfr_sync), ("ttfr-tiered", ttfr_async),
                ("hot-swap-latency", swap_latency),
                ("call-plan", best_plan), ("call-legacy", best_legacy),
                ("call-floor", best["floor"]),
                ("call-batch1", best["batch1"]),
                ("compile-seq", sequential),
                ("compile-many", parallel)]:
            series.append({"kernel": label, "backend": "native",
                           "points": [{"size": str(N),
                                       "seconds": seconds}]})
        extra = {
            "unit": "seconds",
            "speedup": {"first_result": ttfr_sync / ttfr_async,
                        "marshalling_plan": plan_ratio,
                        "compile_many": batch_ratio},
            "ratio": {"call_over_floor": best_plan / best["floor"],
                      "batch1_over_call": best["batch1"] / best_plan},
            "workers": BATCH,
        }
        print_series(
            "Tiered dispatch",
            ["metric", "value [ms]"],
            [("ttfr sync", ttfr_sync * 1e3),
             ("ttfr tiered", ttfr_async * 1e3),
             ("hot-swap", swap_latency * 1e3),
             ("call plan [us]", best_plan * 1e6),
             ("call legacy [us]", best_legacy * 1e6),
             ("call floor [us]", best["floor"] * 1e6),
             ("call_batch n=1 [us]", best["batch1"] * 1e6),
             ("seq compile x4", sequential * 1e3),
             ("compile_many x4", parallel * 1e3)])
        # Soft gates: the plan must not lose to the per-call re-derive
        # loop, and the batch must not lose to sequential compiles; the
        # 2x batch target is tracked through BENCH_dispatch.json (it
        # needs the multi-core CI runner, not a 1-cpu dev box).
        assert plan_ratio > 1.0, (
            f"marshalling plan slower than legacy path "
            f"({plan_ratio:.2f}x)")
        assert parallel <= sequential * 1.15, (
            f"compile_many slower than sequential "
            f"({batch_ratio:.2f}x)")
    finally:
        clear_session_state()
        default_cache.clear()
    write_bench_json("dispatch", series, wall, extra=extra)
