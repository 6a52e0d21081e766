"""Batched kernel execution and the bugfixes shipped with it.

Covers DESIGN.md §13 end to end: the batch-vs-loop differential
contract (bit-identical results, array mutations and simulator op
accounting on both simulator engines and the native tier, including
whole-batch sweep fallbacks and a deterministic mid-batch hot-swap),
and regressions for the three fixes riding along:

* an expired compile deadline raises :class:`CompileDeadlineError`
  instead of clamping up and dispatching a doomed remote compile,
* the hotness countdown promotes exactly once under threaded hammering,
* :meth:`DiskKernelCache.contains` probes existence without reading
  artifacts or refreshing the entry's LRU eviction rank.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

import repro.core.batch as batch_mod
from repro.core import compile_staged
from repro.core.cache import DiskKernelCache, default_cache, graph_hash
from repro.core.resilience import clear_session_state
from repro.core.tiered import SimulatedDispatch
from repro.lms import forloop, if_then_else
from repro.lms.ops import array_apply, array_update
from repro.lms.staging import stage_function
from repro.lms.types import FLOAT, INT32, array_of
from repro.simd.batch_exec import BatchFallback, sweep_batch
from repro.simd.machine import SimdMachine
from tests.conftest import requires_compiler

ENGINES = ("compiled", "tree")


@pytest.fixture(autouse=True)
def _pin_env(monkeypatch):
    """Hermetic suite: ambient chaos/service knobs (the CI matrix sets
    them) must not perturb these exact assertions."""
    for var in ("REPRO_FAULTS", "REPRO_SERVICE"):
        monkeypatch.delenv(var, raising=False)


@pytest.fixture
def fresh_state(monkeypatch, tmp_path):
    """Fresh cache dir and drained session state, like test_tiered."""
    cache_dir = tmp_path / "kcache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    monkeypatch.delenv("REPRO_CC", raising=False)
    monkeypatch.delenv("REPRO_TIER", raising=False)
    default_cache.clear()
    clear_session_state()
    yield cache_dir
    default_cache.clear()
    clear_session_state()


# -- kernel builders ----------------------------------------------------

SAXPY_TYPES = [array_of(FLOAT), FLOAT, INT32]


def scalar_saxpy(a, x, n):
    """a[i] = a[i] * x + 0.5 — mutates ``a``, scalar ``x`` varies."""
    forloop(0, n, step=1, body=lambda i: array_update(
        a, i, array_apply(a, i) * x + 0.5))


def fma_scalar(x, y):
    """Pure scalar kernel: returns a value, mutates nothing."""
    return x * 2.0 + y


def branchy(x):
    """Control flow on a runtime scalar — batch-varying ``x`` must
    force the whole-batch sweep to fall back to the per-entry loop."""
    return if_then_else(x > 1.0, lambda: x * 2.0, lambda: x + 3.0)


def _saxpy_entries(n_entries: int, length: int = 8):
    rng = np.random.default_rng(0xBA7C)
    return [
        (rng.standard_normal(length).astype(np.float32),
         np.float32(rng.standard_normal()), length)
        for _ in range(n_entries)
    ]


def _clone(entries):
    return [tuple(np.copy(v) if isinstance(v, np.ndarray) else v
                  for v in e) for e in entries]


# -- whole-batch simulator sweep differential ---------------------------


class TestSweepDifferential:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_mutating_kernel_bit_identical(self, engine):
        staged = stage_function(scalar_saxpy, SAXPY_TYPES,
                                "batch_saxpy_" + engine)
        loop_entries = _saxpy_entries(64)
        batch_entries = _clone(loop_entries)

        loop_m = SimdMachine(executor=engine)
        loop_results = [loop_m.run(staged, e) for e in loop_entries]
        batch_m = SimdMachine(executor=engine)
        batch_results = batch_m.run_batch(staged, batch_entries)

        assert batch_results == loop_results
        for (a_loop, *_), (a_batch, *_) in zip(loop_entries,
                                               batch_entries):
            assert a_loop.tobytes() == a_batch.tobytes()
        assert batch_m.op_counts == loop_m.op_counts

    @pytest.mark.parametrize("engine", ENGINES)
    def test_pure_scalar_results_match(self, engine):
        staged = stage_function(fma_scalar, [FLOAT, FLOAT],
                                "batch_fma_" + engine)
        entries = [(np.float32(i * 0.25 - 3.0), np.float32(7 - i))
                   for i in range(32)]
        loop_m = SimdMachine(executor=engine)
        expected = [loop_m.run(staged, e) for e in entries]
        batch_m = SimdMachine(executor=engine)
        got = batch_m.run_batch(staged, entries)
        assert [np.float32(v) for v in got] == \
               [np.float32(v) for v in expected]
        assert batch_m.op_counts == loop_m.op_counts

    def test_varying_control_flow_falls_back(self):
        staged = stage_function(branchy, [FLOAT], "batch_branchy")
        entries = [(np.float32(v),) for v in (-2.0, 0.5, 1.5, 4.0)]
        machine = SimdMachine(executor="compiled")
        with pytest.raises(BatchFallback):
            sweep_batch(machine, staged, entries)
        # run_batch transparently replays the loop on fallback
        loop_m = SimdMachine(executor="compiled")
        expected = [loop_m.run(staged, e) for e in entries]
        got = SimdMachine(executor="compiled").run_batch(staged, entries)
        assert [np.float32(v) for v in got] == \
               [np.float32(v) for v in expected]

    def test_intrinsic_kernel_falls_back(self):
        from repro.kernels.saxpy import make_staged_saxpy
        staged = make_staged_saxpy()
        rng = np.random.default_rng(7)
        entries = [
            (rng.standard_normal(16).astype(np.float32),
             rng.standard_normal(16).astype(np.float32),
             np.float32(2.5), 16)
            for _ in range(3)
        ]
        machine = SimdMachine()
        with pytest.raises(BatchFallback):
            sweep_batch(machine, staged, _clone(entries))
        loop_entries = _clone(entries)
        batch_entries = _clone(entries)
        loop_m = SimdMachine()
        for e in loop_entries:
            loop_m.run(staged, e)
        SimdMachine().run_batch(staged, batch_entries)
        for (a_loop, *_), (a_batch, *_) in zip(loop_entries,
                                               batch_entries):
            assert a_loop.tobytes() == a_batch.tobytes()

    def test_aliased_mutated_array_falls_back(self):
        """Two entries sharing one mutated array must run sequentially
        (entry 2 observes entry 1's writes), which the sweep cannot
        express — it falls back, and run_batch matches the loop."""
        staged = stage_function(scalar_saxpy, SAXPY_TYPES,
                                "batch_saxpy_alias")
        shared = np.ones(8, np.float32)
        entries = [(shared, np.float32(2.0), 8),
                   (shared, np.float32(3.0), 8)]
        with pytest.raises(BatchFallback):
            sweep_batch(SimdMachine(), staged,
                        [(shared, np.float32(2.0), 8),
                         (shared, np.float32(3.0), 8)])
        loop_arr = np.ones(8, np.float32)
        loop_m = SimdMachine()
        loop_m.run(staged, (loop_arr, np.float32(2.0), 8))
        loop_m.run(staged, (loop_arr, np.float32(3.0), 8))
        SimdMachine().run_batch(staged, entries)
        assert shared.tobytes() == loop_arr.tobytes()

    def test_empty_and_singleton_batches(self):
        staged = stage_function(fma_scalar, [FLOAT, FLOAT],
                                "batch_fma_edge")
        machine = SimdMachine()
        assert machine.run_batch(staged, []) == []
        one = machine.run_batch(staged, [(np.float32(1.0),
                                          np.float32(2.0))])
        assert [np.float32(v) for v in one] == [np.float32(4.0)]


# -- execute_batch across tiers ----------------------------------------


class TestExecuteBatchTiers:
    @requires_compiler
    def test_native_batch_matches_loop(self, fresh_state):
        loop_k = compile_staged(scalar_saxpy, SAXPY_TYPES,
                                name="batch_native_loop",
                                backend="native", tier="sync",
                                use_cache=False)
        batch_k = compile_staged(scalar_saxpy, SAXPY_TYPES,
                                 name="batch_native_batch",
                                 backend="native", tier="sync",
                                 use_cache=False)
        loop_entries = _saxpy_entries(33)
        batch_entries = _clone(loop_entries)
        loop_results = [loop_k(*e) for e in loop_entries]
        batch_results = batch_k.call_batch(batch_entries)
        assert batch_results == loop_results
        for (a_loop, *_), (a_batch, *_) in zip(loop_entries,
                                               batch_entries):
            assert a_loop.tobytes() == a_batch.tobytes()

    def test_simulated_kernel_batch_matches_loop(self, fresh_state):
        loop_k = compile_staged(scalar_saxpy, SAXPY_TYPES,
                                name="batch_sim_loop",
                                backend="simulated", use_cache=False)
        batch_k = compile_staged(scalar_saxpy, SAXPY_TYPES,
                                 name="batch_sim_batch",
                                 backend="simulated", use_cache=False)
        loop_entries = _saxpy_entries(17)
        batch_entries = _clone(loop_entries)
        for e in loop_entries:
            loop_k(*e)
        batch_k.call_batch(batch_entries)
        for (a_loop, *_), (a_batch, *_) in zip(loop_entries,
                                               batch_entries):
            assert a_loop.tobytes() == a_batch.tobytes()
        assert batch_k._machine.op_counts == loop_k._machine.op_counts

    @requires_compiler
    def test_mid_batch_hot_swap_splits_chunks(self, fresh_state,
                                              monkeypatch):
        """A hot-swap landing mid-batch takes effect on the next chunk
        boundary: the old tier finishes its chunk atomically, every
        later chunk runs native, and results stay bit-identical."""
        monkeypatch.setattr(batch_mod, "BATCH_MAX", 4)
        native_twin = compile_staged(scalar_saxpy, SAXPY_TYPES,
                                     name="batch_swap_native",
                                     backend="native", tier="sync",
                                     use_cache=False)
        kernel = compile_staged(scalar_saxpy, SAXPY_TYPES,
                                name="batch_swap_sim",
                                backend="simulated", use_cache=False)

        class SwapAfterFirstChunk:
            calls = 0

            def call_batch(self, chunk):
                SwapAfterFirstChunk.calls += 1
                results = kernel._machine.run_batch(kernel.staged,
                                                    chunk)
                kernel._swap_to_native(native_twin._native)
                return results

        kernel._impl = SwapAfterFirstChunk()
        loop_entries = _saxpy_entries(12)
        batch_entries = _clone(loop_entries)
        loop_k = compile_staged(scalar_saxpy, SAXPY_TYPES,
                                name="batch_swap_loop",
                                backend="simulated", use_cache=False)
        for e in loop_entries:
            loop_k(*e)
        kernel.call_batch(batch_entries)

        assert SwapAfterFirstChunk.calls == 1
        assert kernel.tier == "native"
        assert kernel.tier_calls["native"] == 8   # chunks 2 and 3
        for (a_loop, *_), (a_batch, *_) in zip(loop_entries,
                                               batch_entries):
            assert a_loop.tobytes() == a_batch.tobytes()


# -- regression: the three bugfixes ------------------------------------


class TestExpiredDeadline:
    def test_expired_deadline_raises_without_dispatch(
            self, tmp_path, monkeypatch):
        import repro.serve.client as client_mod
        from repro.codegen.compiler import CompileDeadlineError

        monkeypatch.setattr(
            client_mod, "request",
            lambda *a, **k: pytest.fail(
                "an expired deadline must not dispatch a remote "
                "compile"))
        mgr = client_mod.ServiceKernelManager(
            socket_path=tmp_path / "no-daemon.sock", workers=1)
        staged = stage_function(scalar_saxpy, SAXPY_TYPES,
                                "deadline_probe")
        try:
            with pytest.raises(CompileDeadlineError):
                mgr._remote_compile(staged, graph_hash(staged),
                                    frozenset(),
                                    deadline=time.monotonic() - 1.0)
        finally:
            mgr.reset()

    def test_live_deadline_still_clamps_to_floor(self, tmp_path,
                                                 monkeypatch):
        import repro.serve.client as client_mod

        seen = {}

        def fake_request(message, **kwargs):
            seen["timeout_s"] = message["timeout_s"]
            return {"ok": True}

        monkeypatch.setattr(client_mod, "request", fake_request)
        mgr = client_mod.ServiceKernelManager(
            socket_path=tmp_path / "no-daemon.sock", workers=1)
        staged = stage_function(scalar_saxpy, SAXPY_TYPES,
                                "deadline_floor_probe")
        try:
            mgr._remote_compile(staged, graph_hash(staged),
                                frozenset(),
                                deadline=time.monotonic() + 0.05)
            assert seen["timeout_s"] == 0.5
        finally:
            mgr.reset()


class TestCountdownRace:
    class _FakeMachine:
        def run(self, staged, args):
            return None

        def run_batch(self, staged, args_list):
            return [None] * len(args_list)

    class _FakeManager:
        def __init__(self):
            self.promotions = 0
            self._lock = threading.Lock()

        def promote(self, kernel):
            with self._lock:
                self.promotions += 1

    def _kernel(self):
        class K:
            tier_calls = {"simulated": 0, "native": 0}
            staged = None
            _machine = self._FakeMachine()
        return K()

    def test_threaded_countdown_promotes_exactly_once(self):
        manager = self._FakeManager()
        dispatch = SimulatedDispatch(self._kernel(), manager,
                                     countdown=64)
        n_threads, calls_each = 16, 16
        barrier = threading.Barrier(n_threads)

        def hammer():
            barrier.wait()
            for _ in range(calls_each):
                dispatch()

        threads = [threading.Thread(target=hammer)
                   for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert manager.promotions == 1
        assert dispatch.countdown is None

    def test_zero_threshold_promotes_on_first_call(self):
        manager = self._FakeManager()
        dispatch = SimulatedDispatch(self._kernel(), manager,
                                     countdown=0)
        dispatch()
        dispatch()
        assert manager.promotions == 1

    def test_batch_ticks_count_toward_threshold(self):
        manager = self._FakeManager()
        dispatch = SimulatedDispatch(self._kernel(), manager,
                                     countdown=5)
        dispatch.call_batch([(i,) for i in range(8)])
        assert manager.promotions == 1
        dispatch.call_batch([(i,) for i in range(8)])
        assert manager.promotions == 1


class TestContainsProbe:
    def test_contains_is_stat_only(self, tmp_path):
        cache = DiskKernelCache(root=tmp_path / "disk", max_entries=8)
        key = DiskKernelCache.artifact_key("f" * 16, "gcc-13.0",
                                           ("-O2",), frozenset())
        cache.put(key, b"\x7fELF-not-really", {"name": "probe_me"})
        meta_path = cache._paths(key)[1]
        # backdate the manifest so a refresh is visible at any mtime
        # granularity
        stale = meta_path.stat().st_mtime_ns - 10**9
        os.utime(meta_path, ns=(stale, stale))

        for _ in range(5):
            assert cache.contains(key) is True
        assert meta_path.stat().st_mtime_ns == stale
        assert cache.hits == 0          # probes are not cache hits

        assert cache.get(key) is not None
        assert meta_path.stat().st_mtime_ns > stale

        assert cache.contains("no-such-key") is False

    def test_artifact_published_never_calls_get(self, fresh_state,
                                                monkeypatch):
        from repro.serve.client import ServiceKernelManager

        monkeypatch.setattr(
            DiskKernelCache, "get",
            lambda self, key: pytest.fail(
                "_artifact_published must use the stat-only contains "
                "probe, not get"))
        mgr = ServiceKernelManager(
            socket_path=fresh_state / "no.sock", workers=1)
        try:
            assert mgr._artifact_published("0" * 16,
                                           frozenset()) is False
        finally:
            mgr.reset()
