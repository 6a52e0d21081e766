"""Tiered background compilation and fast-path dispatch (DESIGN.md §10).

Covers the HotSpot-shaped execution lattice: instant simulated-tier
service with background native compilation and atomic hot-swap
(``REPRO_TIER=async``) with every promotion admitted, quarantine-aware
demotion that never raises into callers and leaves no admission state
behind, single-flight compile deduplication by graph hash,
``compile_many`` batch warming, hermetic ``clear_session_state``
draining, and the precomputed marshalling plan of the native dispatch
fast path.
"""

from __future__ import annotations

import json
import os
import stat
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro.codegen.compiler as compiler
import repro.core.tiered as tiered
import repro.obs as obs
from repro.codegen.compiler import CompileError, _detect_compilers_cached
from repro.core import BackendKind, compile_many, compile_staged, wait_all
from repro.core.cache import default_cache, graph_hash
from repro.core.resilience import (
    clear_session_state,
    quarantine,
    quarantined_kernels,
)
from repro.core.tiered import compile_workers, default_manager, tier_mode
from repro.lms import forloop
from repro.lms.ops import array_apply, array_update
from repro.lms.staging import stage_function
from repro.lms.types import FLOAT, INT32, array_of
from tests.conftest import requires_compiler

REPO_ROOT = Path(__file__).resolve().parent.parent


def build_unique(salt: float, name: str):
    """A unique-by-salt scalar-loop kernel (compiles on any host)."""

    def fn(a, n):
        forloop(0, n, step=1, body=lambda i: array_update(
            a, i, array_apply(a, i) * 2.0 + salt))

    return fn


def _expected(salt: float, n: int = 8) -> np.ndarray:
    return np.ones(n, np.float32) * 2.0 + np.float32(salt)


@pytest.fixture(autouse=True)
def _pin_faults(monkeypatch):
    """Keep this suite hermetic: an ambient ``REPRO_FAULTS`` (the CI
    chaos job sets one) must not perturb its exact assertions."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


@pytest.fixture
def tiered_state(monkeypatch, tmp_path):
    """Fresh cache dir, drained manager, pinned worker count, no
    REPRO_* leakage into or out of the tier under test."""
    cache_dir = tmp_path / "kcache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    monkeypatch.setenv("REPRO_COMPILE_WORKERS", "2")
    monkeypatch.delenv("REPRO_CC", raising=False)
    monkeypatch.delenv("REPRO_TIER", raising=False)
    default_cache.clear()
    clear_session_state()
    yield cache_dir
    default_cache.clear()
    clear_session_state()


@pytest.fixture
def held_compiles(tiered_state, monkeypatch):
    """Background compiles that wait to be released and then fail as a
    broken toolchain does: the admission path without a compiler run.
    Released at teardown at the latest, so a failing test cannot leave
    the drain waiting."""
    release = threading.Event()

    def acquire(staged, **_kwargs):
        release.wait(60)
        raise CompileError(f"held compile of {staged.name} released")

    monkeypatch.setattr(tiered, "acquire_native", acquire)
    yield release
    release.set()


def _write_script(path: Path, body: str) -> Path:
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return path


_VERSION_PASSTHROUGH = """
if [ "$1" = "--version" ]; then exec gcc --version; fi
"""


def _slow_cc(tmp_path: Path, sleep_s: float,
             count_file: Path | None = None) -> Path:
    """A gcc that dawdles (and optionally counts compile invocations):
    keeps background jobs in flight long enough to observe the
    simulated tier deterministically."""
    counting = ""
    if count_file is not None:
        counting = f"""
n=$(cat "{count_file}" 2>/dev/null || echo 0)
n=$((n+1)); echo $n > "{count_file}"
"""
    return _write_script(tmp_path / "slow-cc", _VERSION_PASSTHROUGH
                         + counting + f"""
sleep {sleep_s}
exec gcc "$@"
""")


def _broken_cc(tmp_path: Path) -> Path:
    return _write_script(tmp_path / "broken-cc", _VERSION_PASSTHROUGH + """
echo "kernel.c:1:1: error: unknown type name 'simd'" >&2
exit 1
""")


class TestEnvKnobs:
    def test_tier_mode_default_and_values(self, monkeypatch):
        monkeypatch.delenv("REPRO_TIER", raising=False)
        assert tier_mode() == "sync"
        for mode in ("sync", "async"):
            monkeypatch.setenv("REPRO_TIER", mode)
            assert tier_mode() == mode
        monkeypatch.setenv("REPRO_TIER", "ASYNC")
        assert tier_mode() == "async"

    def test_tier_mode_malformed_warns_to_sync(self, monkeypatch):
        for raw in ("turbo", "hot"):
            monkeypatch.setenv("REPRO_TIER", raw)
            with pytest.warns(RuntimeWarning, match="REPRO_TIER"):
                assert tier_mode() == "sync"

    def test_compile_workers_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILE_WORKERS", "3")
        assert compile_workers() == 3
        monkeypatch.setenv("REPRO_COMPILE_WORKERS", "0")
        assert compile_workers() == 1          # clamped
        monkeypatch.setenv("REPRO_COMPILE_WORKERS", "many")
        with pytest.warns(RuntimeWarning, match="REPRO_COMPILE_WORKERS"):
            assert compile_workers() == min(4, os.cpu_count() or 1)

    @pytest.mark.parametrize("raw", [None, "  "], ids=["unset", "blank"])
    def test_compile_workers_default_is_quiet(self, monkeypatch, raw):
        if raw is None:
            monkeypatch.delenv("REPRO_COMPILE_WORKERS", raising=False)
        else:
            monkeypatch.setenv("REPRO_COMPILE_WORKERS", raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert compile_workers() == min(4, os.cpu_count() or 1)

    def test_unknown_tier_argument_raises(self, tiered_state):
        for tier in ("turbo", "hot"):
            with pytest.raises(ValueError, match="unknown tier"):
                compile_staged(build_unique(0.5, "badtier"),
                               [array_of(FLOAT), INT32],
                               name="badtier", tier=tier)


@requires_compiler
class TestAsyncTier:
    def test_first_call_serves_simulator_then_swaps(
            self, tiered_state, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CC", f"gcc={_slow_cc(tmp_path, 0.8)}")
        kernel = compile_staged(build_unique(3.5, "async_k"),
                                [array_of(FLOAT), INT32],
                                name="async_k", tier="async")
        # the handle returns while the compiler is still asleep
        assert kernel.tier == "simulated"
        assert kernel.backend == BackendKind.SIMULATED
        a = np.ones(8, np.float32)
        t0 = time.perf_counter()
        kernel(a, 8)
        first_call = time.perf_counter() - t0
        assert first_call < 0.05, \
            f"simulated-tier first call took {first_call * 1e3:.1f} ms"
        assert np.array_equal(a, _expected(3.5))

        kernel.wait_native(60)
        assert kernel.tier == "native"
        assert kernel.backend == BackendKind.NATIVE
        assert kernel.report is not None
        assert kernel.report.smoke == "passed"
        # the native tier computes the bit-identical result
        b = np.ones(8, np.float32)
        kernel(b, 8)
        assert np.array_equal(b, _expected(3.5))
        assert kernel.tier_calls["simulated"] >= 1
        assert kernel.tier_calls["native"] >= 1
        actions = [ev.action for ev in kernel.tier_events]
        assert actions[:2] == ["start", "enqueue"]
        assert actions[-1] == "swap"

    def test_sync_tier_compiles_inline(self, tiered_state):
        before = default_manager.stats()["submitted"]
        kernel = compile_staged(build_unique(5.5, "sync_k"),
                                [array_of(FLOAT), INT32],
                                name="sync_k", tier="sync")
        assert kernel.backend == BackendKind.NATIVE
        assert kernel.tier == "native"
        assert default_manager.stats()["submitted"] == before
        assert kernel.tier_events == []     # unmanaged
        assert kernel.wait_native() is kernel   # no-op

    @pytest.mark.parametrize("backend,tier", [("auto", "native"),
                                              ("simulated", "simulated")])
    def test_sync_kernel_reports_its_calls(self, tiered_state, monkeypatch,
                                           backend, tier):
        """An unmanaged kernel counts its calls on the tier serving
        them, native ones in its glue: one per call, one per batch
        entry.  Only managed kernels report ``tiered.calls``."""
        monkeypatch.delenv("REPRO_OBS", raising=False)
        kernel = compile_staged(build_unique(5.25, "sync_count_k"),
                                [array_of(FLOAT), INT32],
                                name="sync_count_k", backend=backend,
                                tier="sync")
        assert kernel.tier == tier
        seen = obs.get_registry().counter_value("tiered.calls")
        a = np.ones(8, np.float32)
        for _ in range(5):
            kernel(a, 8)
        kernel.call_batch([(a, 8)] * 3)
        calls = {"simulated": 0, "native": 0, tier: 8}
        assert kernel.tier_calls == calls
        assert (f"(calls: simulated={calls['simulated']} "
                f"native={calls['native']})") in kernel.explain()
        assert obs.get_registry().counter_value("tiered.calls") == seen

    def test_explicit_native_backend_ignores_tiering(
            self, tiered_state, monkeypatch):
        monkeypatch.setenv("REPRO_TIER", "async")
        kernel = compile_staged(build_unique(6.5, "natreq_k"),
                                [array_of(FLOAT), INT32],
                                name="natreq_k", backend="native")
        assert kernel.backend == BackendKind.NATIVE   # inline, no defer

    def test_explain_shows_tier_history(self, tiered_state, tmp_path,
                                        monkeypatch):
        monkeypatch.setenv("REPRO_CC", f"gcc={_slow_cc(tmp_path, 0.3)}")
        kernel = compile_staged(build_unique(7.5, "explain_k"),
                                [array_of(FLOAT), INT32],
                                name="explain_k", tier="async")
        a = np.ones(8, np.float32)
        kernel(a, 8)
        kernel.wait_native(60)
        text = kernel.explain()
        assert "tier history:" in text
        assert "swap" in text and "enqueue" in text
        assert "tiered.compile" in text     # background trace attached


class TestAdmission:
    """Every promotion gets its compile: no queue bound, no breaker."""

    def test_a_burst_past_64_pending_compiles_is_all_admitted(
            self, held_compiles):
        n = 70
        names = [f"burst{i}" for i in range(n)]
        kernels = compile_many(
            [build_unique(100.0 + i, name) for i, name in enumerate(names)],
            [[array_of(FLOAT), INT32]] * n, names=names)
        stats = default_manager.stats()
        assert stats["submitted"] == n
        assert stats["pending"] == n
        assert all(k.fallback_reason is None for k in kernels)
        a = np.ones(8, np.float32)
        kernels[-1](a, 8)             # served while its compile waits
        assert np.array_equal(a, _expected(100.0 + n - 1))
        held_compiles.set()
        wait_all(kernels, timeout=60)
        assert default_manager.stats() == {
            "submitted": n, "attached": 0, "swapped": 0, "demoted": n,
            "cancelled": 0, "pending": 0}
        assert [k.fallback_reason for k in kernels] == [
            f"held compile of {name} released" for name in names]

    def test_wait_native_times_out_while_the_compile_runs(
            self, held_compiles):
        kernel = compile_staged(build_unique(171.5, "held_k"),
                                [array_of(FLOAT), INT32],
                                name="held_k", tier="async")
        with pytest.raises(TimeoutError, match="held_k"):
            kernel.wait_native(0.05)
        assert kernel.tier == "simulated"
        assert kernel.tier_events[-1].action == "enqueue"
        held_compiles.set()
        assert kernel.wait_native(60) is kernel
        assert kernel.tier_events[-1].action == "demote"

    @requires_compiler
    def test_kernels_without_a_background_compile_are_never_promoted(
            self, tiered_state):
        """``wait_native`` returns at once and enqueues nothing for a
        kernel that has no background compile: a sync kernel settled
        inline, a forced simulated one stays simulated."""
        types = [array_of(FLOAT), INT32]
        synced = compile_staged(build_unique(172.5, "inline_k"), types,
                                name="inline_k", tier="sync")
        forced = compile_staged(build_unique(173.5, "forced_sim_k"),
                                types, name="forced_sim_k",
                                backend="simulated", tier="async")
        assert synced.wait_native(0) is synced
        assert forced.wait_native(0) is forced
        assert synced.tier == "native"
        assert forced.tier == "simulated"
        assert default_manager.stats()["submitted"] == 0


@requires_compiler
class TestDemotion:
    def test_ladder_exhaustion_demotes_without_raising(
            self, tiered_state, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CC", f"gcc={_broken_cc(tmp_path)}")
        kernel = compile_staged(build_unique(11.5, "demote_k"),
                                [array_of(FLOAT), INT32],
                                name="demote_k", tier="async")
        # calls keep succeeding while (and after) the ladder fails
        a = np.ones(8, np.float32)
        kernel(a, 8)
        assert np.array_equal(a, _expected(11.5))
        kernel.wait_native(60)
        assert kernel.backend == BackendKind.SIMULATED
        assert kernel.fallback_reason is not None
        assert kernel.report is not None
        assert all(att.outcome == "permanent"
                   for att in kernel.report.attempts)
        assert kernel.tier_events[-1].action == "demote"
        b = np.ones(8, np.float32)
        kernel(b, 8)
        assert np.array_equal(b, _expected(11.5))

    def test_recovery_needs_no_cooldown(self, tiered_state, tmp_path,
                                        monkeypatch):
        """Kernels demoted by a broken toolchain leave no admission
        state behind: the first kernel after the repair compiles."""
        monkeypatch.setattr(compiler, "COMPILE_RETRIES", 0)
        # an unrunnable compiler: every attempt fails to start
        monkeypatch.setenv("REPRO_CC", f"gcc={tmp_path}/missing-cc")
        types = [array_of(FLOAT), INT32]
        for i in range(3):
            kernel = compile_staged(
                build_unique(14.5 + i, f"down{i}"), types,
                name=f"down{i}", tier="async").wait_native(60)
            assert kernel.backend == BackendKind.SIMULATED
            assert kernel.tier_events[-1].action == "demote"
        monkeypatch.delenv("REPRO_CC")
        kernel = compile_staged(build_unique(17.0, "up"), types,
                                name="up", tier="async").wait_native(60)
        assert kernel.tier == "native"
        a = np.ones(8, np.float32)
        kernel(a, 8)
        assert np.array_equal(a, _expected(17.0))

    def test_a_demoted_kernel_leaves_the_memory_cache(
            self, tiered_state, tmp_path, monkeypatch):
        """Neither a kernel demoted by a broken toolchain nor a sync
        fallback is served from the in-memory cache once the toolchain
        is repaired: the same graph staged again compiles, on either
        tier."""
        monkeypatch.setattr(compiler, "COMPILE_RETRIES", 0)
        monkeypatch.setenv("REPRO_CC", f"gcc={tmp_path}/missing-cc")
        fn, types = build_unique(14.25, "outage_k"), [array_of(FLOAT), INT32]
        demoted = compile_staged(fn, types, name="outage_k",
                                 tier="async").wait_native(60)
        assert demoted.tier_events[-1].action == "demote"
        fallback = compile_staged(fn, types, name="outage_k", tier="sync")
        assert fallback.backend == BackendKind.SIMULATED
        assert len(default_cache) == 0
        monkeypatch.delenv("REPRO_CC")
        again = compile_staged(fn, types, name="outage_k",
                               tier="async").wait_native(60)
        assert again.tier == "native"
        synced = compile_staged(fn, types, name="outage_k", tier="sync")
        assert synced.tier == "native"
        a = np.ones(8, np.float32)
        synced(a, 8)
        assert np.array_equal(a, _expected(14.25))

    def test_a_quarantined_graph_is_refused_at_once(self, tiered_state):
        """Not caching a fallback costs a quarantined graph nothing: it
        is refused before any compiler runs, on either tier."""
        fn, types = build_unique(14.75, "q_again_k"), [array_of(FLOAT), INT32]
        staged = stage_function(fn, types, "q_again_k")
        quarantine(graph_hash(staged), "crashed: signal 11")
        for _ in range(2):
            synced = compile_staged(fn, types, name="q_again_k",
                                    tier="sync")
            managed = compile_staged(fn, types, name="q_again_k",
                                     tier="async").wait_native(60)
            for kernel in (synced, managed):
                assert kernel.backend == BackendKind.SIMULATED
                assert kernel.fallback_reason.startswith("quarantined")
                assert kernel.report.compiler_invocations == 0

    def test_no_compiler_on_path_demotes_without_an_attempt(
            self, tiered_state, tmp_path, monkeypatch):
        """With no compiler to find, a background compile demotes its
        kernel at once; once one is back the next kernel compiles."""
        types = [array_of(FLOAT), INT32]
        path = os.environ["PATH"]
        monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
        _detect_compilers_cached.cache_clear()
        try:
            kernel = compile_staged(build_unique(18.5, "nocc"), types,
                                    name="nocc",
                                    tier="async").wait_native(60)
        finally:
            monkeypatch.setenv("PATH", path)
            _detect_compilers_cached.cache_clear()
        assert kernel.backend == BackendKind.SIMULATED
        assert kernel.fallback_reason == "no C compiler available"
        assert kernel.report.compiler_invocations == 0
        a = np.ones(8, np.float32)
        kernel(a, 8)
        assert np.array_equal(a, _expected(18.5))
        kernel = compile_staged(build_unique(19.0, "cc_back"), types,
                                name="cc_back",
                                tier="async").wait_native(60)
        assert kernel.tier == "native"

    def _poison_disk_cache(self, cache_dir: Path, symbol: str,
                           workdir: Path) -> None:
        """Swap the cached artifact for a crashing one with a valid
        checksum, so only the forked smoke-run can catch it."""
        import hashlib

        src = workdir / "broken.c"
        src.write_text(
            f"void {symbol}(float *a, int n) "
            "{ *(volatile int *)0 = 1; }\n")
        out = workdir / "broken.so"
        subprocess.run(["gcc", "-shared", "-fPIC", str(src), "-o",
                        str(out)], check=True, capture_output=True)
        so_bytes = out.read_bytes()
        metas = list(cache_dir.glob("*/*.json"))
        assert len(metas) == 1
        meta = json.loads(metas[0].read_text())
        meta["checksum"] = hashlib.sha256(so_bytes).hexdigest()
        metas[0].with_name(metas[0].stem + ".so").write_bytes(so_bytes)
        metas[0].write_text(json.dumps(meta))

    def test_quarantine_during_background_compile_demotes(
            self, tiered_state, tmp_path):
        fn = build_unique(13.5, "bgq_k")
        types = [array_of(FLOAT), INT32]
        seeded = compile_staged(fn, types, name="bgq_k",
                                tier="async").wait_native(60)
        assert seeded.tier == "native"
        self._poison_disk_cache(tiered_state, seeded._native.symbol,
                                tmp_path)
        default_cache.clear()
        clear_session_state()
        kernel = compile_staged(fn, types, name="bgq_k", tier="async")
        a = np.ones(8, np.float32)
        kernel(a, 8)                  # must not raise mid-quarantine
        assert np.array_equal(a, _expected(13.5))
        kernel.wait_native(60)
        assert kernel.backend == BackendKind.SIMULATED
        assert "quarantined" in kernel.fallback_reason
        assert kernel.report.smoke == "crashed"
        assert quarantined_kernels()
        b = np.ones(8, np.float32)
        kernel(b, 8)
        assert np.array_equal(b, _expected(13.5))


@requires_compiler
class TestConcurrency:
    def test_concurrent_calls_race_the_hot_swap(
            self, tiered_state, tmp_path, monkeypatch):
        """Callers hammering a kernel across the swap observe either
        tier but always the same bits — never a torn kernel."""
        monkeypatch.setenv("REPRO_CC", f"gcc={_slow_cc(tmp_path, 0.4)}")
        kernel = compile_staged(build_unique(17.5, "race_k"),
                                [array_of(FLOAT), INT32],
                                name="race_k", tier="async")
        want = _expected(17.5)
        errors: list = []
        swapped = threading.Event()

        def caller():
            try:
                extra = 5
                while extra:
                    a = np.ones(8, np.float32)
                    kernel(a, 8)
                    if not np.array_equal(a, want):
                        errors.append(a.copy())
                    if swapped.is_set():
                        extra -= 1
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=caller) for _ in range(4)]
        for t in threads:
            t.start()
        kernel.wait_native(60)
        swapped.set()
        for t in threads:
            t.join()
        assert not errors
        assert kernel.tier == "native"
        assert kernel.tier_calls["simulated"] >= 1
        assert kernel.tier_calls["native"] >= 1

    def test_same_graph_hash_is_single_flight(
            self, tiered_state, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        count_file = tmp_path / "cc-count"
        monkeypatch.setenv(
            "REPRO_CC",
            f"gcc={_slow_cc(tmp_path, 0.8, count_file=count_file)}")
        fn = build_unique(19.5, "sf_k")
        types = [array_of(FLOAT), INT32]
        kernels: list = []
        barrier = threading.Barrier(2)
        errors: list = []

        def compile_one():
            try:
                barrier.wait()
                ks = compile_many([fn], [types], names=["sf_k"],
                                  use_cache=False)
                kernels.extend(ks)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=compile_one)
                   for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(kernels) == 2
        wait_all(kernels, timeout=60)
        assert all(k.tier == "native" for k in kernels)
        # both handles share one background compile and one gcc run
        stats = default_manager.stats()
        assert stats["submitted"] == 1
        assert stats["attached"] == 1
        assert stats["swapped"] == 2
        assert int(count_file.read_text().strip()) == 1
        # one library, loaded as a module per handle: each handle's
        # glue counts its own calls
        assert kernels[0]._native.library_path == \
            kernels[1]._native.library_path
        before = [k.tier_calls["native"] for k in kernels]
        seen = obs.get_registry().counter_value("tiered.calls",
                                                tier="native")
        a = np.ones(8, np.float32)
        for _ in range(3):
            kernels[0](a, 8)
        kernels[0].call_batch([(a, 8)] * 2)
        assert [k.tier_calls["native"] for k in kernels] == \
            [before[0] + 5, before[1]]
        kernels[1](a, 8)
        assert [k.tier_calls["native"] for k in kernels] == \
            [before[0] + 5, before[1] + 1]
        assert obs.get_registry().counter_value(
            "tiered.calls", tier="native") == seen + 6


@requires_compiler
class TestCompileMany:
    def test_batch_returns_immediately_and_beats_sequential(
            self, tiered_state, tmp_path, monkeypatch):
        """Four independent kernels cost ~one ladder-walk of wall
        clock, not four (the acceptance-criteria 2x on >=4 kernels)."""
        monkeypatch.setenv("REPRO_COMPILE_WORKERS", "4")
        monkeypatch.setenv("REPRO_CC", f"gcc={_slow_cc(tmp_path, 1.0)}")
        types = [array_of(FLOAT), INT32]

        seq_fns = [(build_unique(20.0 + i, f"seq{i}"), f"seq{i}")
                   for i in range(4)]
        t0 = time.perf_counter()
        for fn, name in seq_fns:
            k = compile_staged(fn, types, name=name, tier="sync")
            assert k.backend == BackendKind.NATIVE
        sequential = time.perf_counter() - t0

        clear_session_state()   # drain; fresh pool picks up workers=4
        par_fns = [(build_unique(30.0 + i, f"par{i}"), f"par{i}")
                   for i in range(4)]
        t0 = time.perf_counter()
        kernels = compile_many([fn for fn, _ in par_fns],
                               [types] * 4,
                               names=[name for _, name in par_fns])
        returned = time.perf_counter() - t0
        assert returned < 0.5, \
            f"compile_many blocked for {returned:.2f}s"
        for i, k in enumerate(kernels):     # instantly servable
            a = np.ones(8, np.float32)
            k(a, 8)
            assert np.array_equal(a, _expected(30.0 + i))
        wait_all(kernels, timeout=120)
        parallel = time.perf_counter() - t0
        assert all(k.tier == "native" for k in kernels)
        assert parallel * 2.0 <= sequential, (
            f"compile_many speedup only "
            f"{sequential / parallel:.2f}x "
            f"(sequential {sequential:.2f}s, parallel {parallel:.2f}s)")

    def test_length_mismatch_raises(self, tiered_state):
        with pytest.raises(ValueError, match="equal lengths"):
            compile_many([build_unique(1.0, "x")], [])


@requires_compiler
class TestClearSessionState:
    def test_clear_drains_pending_compiles_and_resets_counters(
            self, tiered_state, tmp_path, monkeypatch):
        """Regression: clear_session_state must leave no background
        work running and zeroed manager counters, so the next test
        starts from a clean slate."""
        monkeypatch.setenv("REPRO_COMPILE_WORKERS", "1")
        monkeypatch.setenv("REPRO_CC", f"gcc={_slow_cc(tmp_path, 0.6)}")
        types = [array_of(FLOAT), INT32]
        k1 = compile_staged(build_unique(40.5, "drain1"), types,
                            name="drain1", tier="async")
        k2 = compile_staged(build_unique(41.5, "drain2"), types,
                            name="drain2", tier="async")
        time.sleep(0.2)         # let the single worker pick up k1
        clear_session_state()
        stats = default_manager.stats()
        assert stats["pending"] == 0
        assert all(v == 0 for v in stats.values())
        # k1 was running: drained to completion and swapped.  k2 was
        # queued: cancelled, still serving correct simulated results.
        assert k1.tier == "native"
        assert k2.tier == "simulated"
        assert k2.tier_events[-1].action == "cancel"
        a = np.ones(8, np.float32)
        k2(a, 8)
        assert np.array_equal(a, _expected(41.5))
        # a cancelled handle leaves the memory cache: staged again, its
        # graph compiles
        again = compile_staged(build_unique(41.5, "drain2"), types,
                               name="drain2", tier="async")
        assert again is not k2
        assert again.wait_native(60).tier == "native"
        # the manager comes back to life after a reset
        k3 = compile_staged(build_unique(42.5, "drain3"), types,
                            name="drain3", tier="async").wait_native(60)
        assert k3.tier == "native"


_STAGE_AND_RETURN = """
import sys
import time
import repro.codegen.compiler as compiler
import repro.core.resilience as resilience
from repro.core import compile_staged
from repro.lms.types import FLOAT, INT32, array_of
from tests.test_tiered import build_unique

compiler.COMPILE_TIMEOUT_S = 1.0
resilience.COMPILE_DEADLINE_S = float(sys.argv[1])
for i in range(4):
    compile_staged(build_unique(60.5 + i, f"exit{i}"),
                   [array_of(FLOAT), INT32], name=f"exit{i}", tier="async")
print(time.monotonic(), flush=True)
"""


class TestExit:
    def test_exit_cancels_queued_compiles(self, tiered_state, tmp_path):
        """Under a hung compiler only the running compile holds the
        process at exit (one deadline), not every queued one."""
        hang = _write_script(tmp_path / "hang-cc",
                             _VERSION_PASSTHROUGH + "sleep 600\n")
        deadline = 2.0
        env = dict(os.environ, REPRO_CC=f"gcc={hang}",
                   REPRO_COMPILE_WORKERS="1",
                   PYTHONPATH=f"{REPO_ROOT}/src:{REPO_ROOT}")
        child = subprocess.run(
            [sys.executable, "-c", _STAGE_AND_RETURN, str(deadline)],
            env=env, cwd=REPO_ROOT, capture_output=True, text=True,
            timeout=60)
        exited = time.monotonic()
        assert child.returncode == 0, child.stderr
        waited = exited - float(child.stdout.split()[-1])
        # four queued kernels would hold it ~4 deadlines
        assert waited < deadline + 3.0, f"exit took {waited:.1f}s"


@requires_compiler
class TestMarshallingPlan:
    def test_plan_preserves_argument_checking(self, tiered_state):
        kernel = compile_staged(build_unique(50.5, "plan_k"),
                                [array_of(FLOAT), INT32],
                                name="plan_k", tier="sync")
        native = kernel._native
        assert native is not None
        # one converter per array param, None for scalars, memoized
        assert len(native._plan) == 2
        assert callable(native._plan[0]) and native._plan[1] is None
        a = np.ones(8, np.float32)
        native(a, 8)
        assert np.array_equal(a, _expected(50.5))
        with pytest.raises(TypeError, match="expects 2"):
            native(a)
        with pytest.raises(TypeError, match="expected numpy array"):
            native([1.0] * 8, 8)
        with pytest.raises(TypeError, match="must have dtype"):
            native(np.ones(8, np.float64), 8)
        with pytest.raises(TypeError, match="C-contiguous"):
            native(np.ones(16, np.float32)[::2], 8)


@requires_compiler
class TestObservability:
    def test_tiered_signals(self, tiered_state, tmp_path, monkeypatch):
        import repro.obs as obs

        monkeypatch.setenv("REPRO_CC", f"gcc={_slow_cc(tmp_path, 0.3)}")
        obs.reset()
        kernel = compile_staged(build_unique(60.5, "obs_k"),
                                [array_of(FLOAT), INT32],
                                name="obs_k", tier="async")
        a = np.ones(8, np.float32)
        kernel(a, 8)
        kernel.wait_native(60)
        b = np.ones(8, np.float32)
        kernel(b, 8)
        reg = obs.get_registry()
        assert reg.counter_value("tiered.calls", tier="simulated") >= 1
        assert reg.counter_value("tiered.calls", tier="native") >= 1
        assert reg.counter_value("tiered.swaps") >= 1
        snap = reg.snapshot()
        assert "tiered.queue_depth" in snap["gauges"]
        assert snap["gauges"]["tiered.queue_depth"] == 0
        hists = snap["histograms"]
        assert any(name.startswith("tiered.compile.seconds")
                   for name in hists)
        spans = [s.name for s in obs.get_tracer().finished_spans()]
        assert "tiered.compile" in spans
        assert "swap" in spans
