"""Chaos hardening: deterministic fault injection, the crash-consistent
sharded disk cache and the compile watchdog (DESIGN.md §11).

The capstone is the chaos differential suite: tier-1 kernels run under
seeded ``REPRO_FAULTS`` schedules and must return bit-identical results
with zero exceptions leaking into callers, and the disk-cache recovery
sweep must leave no torn pairs or orphaned temps behind.
"""

from __future__ import annotations

import fcntl
import json
import os
import stat
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro.codegen.compiler as compiler
from repro.core import compile_staged
from repro.core import faults
from repro.core.cache import (
    CacheLockTimeout,
    DiskKernelCache,
    default_cache,
)
from repro.core.resilience import clear_session_state
from repro.lms import forloop
from repro.lms.ops import array_apply, array_update
from repro.lms.types import FLOAT, INT32, array_of
from tests.conftest import requires_compiler


def build_unique(salt: float, name: str):
    def fn(a, n):
        forloop(0, n, step=1, body=lambda i: array_update(
            a, i, array_apply(a, i) * 2.0 + salt))

    return fn


def _write_script(path: Path, body: str) -> Path:
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return path


_VERSION_PASSTHROUGH = """
if [ "$1" = "--version" ]; then exec gcc --version; fi
"""


@pytest.fixture
def chaos_state(monkeypatch, tmp_path):
    """Fresh cache dir and session state; faults disarmed on exit."""
    cache_dir = tmp_path / "kcache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    monkeypatch.delenv("REPRO_CC", raising=False)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_TIER", raising=False)
    default_cache.clear()
    clear_session_state()
    yield cache_dir
    default_cache.clear()
    clear_session_state()


class TestFaultSpec:
    def test_parse_full_grammar(self):
        specs = faults.parse_spec(
            "disk.partial_write:p=0.3:seed=7, compile.hang:n=2 ,"
            "link.fail:after=1")
        assert len(specs) == 3
        assert specs[0].point == "disk.partial_write"
        assert specs[0].p == pytest.approx(0.3)
        assert specs[0].seed == 7
        assert specs[1].n == 2
        assert specs[2].after == 1

    def test_malformed_entries_warn_and_skip(self):
        with pytest.warns(RuntimeWarning, match="malformed"):
            specs = faults.parse_spec("link.fail:p=maybe,compile.hang")
        assert [s.point for s in specs] == ["compile.hang"]

    def test_unknown_point_warns_but_arms(self):
        with pytest.warns(RuntimeWarning, match="unknown injection"):
            specs = faults.parse_spec("future.point")
        assert specs and specs[0].point == "future.point"

    def test_deterministic_schedule(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "link.fail:p=0.5:seed=42")
        faults.reset()
        first = [faults.fire("link.fail") for _ in range(32)]
        faults.reset()
        second = [faults.fire("link.fail") for _ in range(32)]
        assert first == second
        assert any(first) and not all(first)

    def test_n_and_after_windows(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "link.fail:n=2:after=1")
        faults.reset()
        fired = [faults.fire("link.fail") for _ in range(5)]
        assert fired == [False, True, True, False, False]
        assert faults.fired_counts() == {"link.fail": 2}
        faults.reset()

    def test_unarmed_is_silent(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        faults.reset()
        assert faults.fire("link.fail") is False
        assert faults.fired_counts() == {}

    def test_corrupt_bytes_modes(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULTS", "disk.partial_write,disk.corrupt_blob")
        faults.reset()
        data = bytes(range(32))
        assert faults.corrupt_bytes("disk.partial_write", data) == \
            data[:16]
        flipped = faults.corrupt_bytes("disk.corrupt_blob", data)
        assert len(flipped) == len(data) and flipped != data
        faults.reset()


class TestShardedCache:
    def test_manifest_is_the_commit_point(self, tmp_path, monkeypatch):
        """A put that dies between the ``.so`` rename and the manifest
        rename leaves an uncommitted half that readers never see and
        the recovery sweep deletes."""
        monkeypatch.setenv("REPRO_FAULTS", "disk.torn_publish:n=1")
        faults.reset()
        disk = DiskKernelCache(root=tmp_path / "d", max_entries=8)
        key = "ab" + "0" * 30
        with pytest.raises(faults.FaultError):
            disk.put(key, b"payload", {})
        so = disk.shard_dir(key) / f"{key}.so"
        assert so.exists()                      # the orphaned half
        assert disk.get(key) is None            # invisible to readers
        assert not so.exists()                  # and dropped by the get
        monkeypatch.delenv("REPRO_FAULTS")
        faults.reset()
        # a clean retry succeeds and commits both halves
        disk.put(key, b"payload", {})
        assert disk.get(key) is not None

    def test_recover_sweeps_debris(self, tmp_path):
        root = tmp_path / "d"
        disk = DiskKernelCache(root=root, max_entries=8)
        disk.put("cd" + "1" * 30, b"keeper", {})
        shard = root / "ee"
        shard.mkdir()
        (shard / ("ee" + "2" * 30 + ".so")).write_bytes(b"orphan")
        (shard / ("ee" + "3" * 30 + ".json")).write_text("{}")
        (shard / ".stale.tmp").write_bytes(b"tmp")
        removed = disk.recover()
        assert removed == {"tmp": 1, "orphan_so": 1, "orphan_meta": 1}
        assert sorted(p.name for p in shard.iterdir()) == [".lock"]
        assert disk.get("cd" + "1" * 30) is not None  # keeper survives

    def test_partial_write_detected_as_miss(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "disk.partial_write:n=1")
        faults.reset()
        disk = DiskKernelCache(root=tmp_path / "d", max_entries=8)
        key = "ef" + "4" * 30
        disk.put(key, b"full payload bytes", {})
        # both halves committed, but the blob is truncated: the
        # manifest checksum covers the intended bytes
        assert disk.get(key) is None
        assert len(disk) == 0                   # dropped outright
        monkeypatch.delenv("REPRO_FAULTS")
        faults.reset()

    def test_stale_lock_is_broken(self, tmp_path):
        root = tmp_path / "d"
        disk = DiskKernelCache(root=root, max_entries=8,
                               lock_timeout=0.2)
        key = "aa" + "5" * 30
        disk.put(key, b"payload", {})
        shard = disk.shard_dir(key)
        # hold the shard lock on a *separate* open file description
        # (flock conflicts between fds even in one process) and stamp a
        # dead owner pid, simulating a killed publisher's leftovers
        fd = os.open(shard / ".lock", os.O_RDWR)
        fcntl.flock(fd, fcntl.LOCK_EX)
        os.ftruncate(fd, 0)
        os.write(fd, b"999999999")
        try:
            entry = disk.get(key)
            # the stale lock was broken (unlinked + retried) and the
            # entry served
            assert entry is not None
        finally:
            os.close(fd)

    def test_live_lock_times_out_without_breaking(self, tmp_path):
        root = tmp_path / "d"
        disk = DiskKernelCache(root=root, max_entries=8,
                               lock_timeout=0.2)
        key = "bb" + "6" * 30
        disk.put(key, b"payload", {})
        shard = disk.shard_dir(key)
        fd = os.open(shard / ".lock", os.O_RDWR)
        fcntl.flock(fd, fcntl.LOCK_EX)
        os.ftruncate(fd, 0)
        os.write(fd, str(os.getpid()).encode())    # a *live* owner
        try:
            t0 = time.monotonic()
            assert disk.get(key) is None           # miss, not a hang
            assert time.monotonic() - t0 < 2.0
            with pytest.raises(CacheLockTimeout):
                disk.put(key, b"payload", {})
            assert (shard / ".lock").exists()      # never broken
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)
        assert disk.get(key) is not None           # recovers after


class TestWatchdog:
    def _hang_cc(self, tmp_path: Path) -> Path:
        return _write_script(tmp_path / "hang-cc",
                             _VERSION_PASSTHROUGH + "sleep 600\n")

    def test_hung_compiler_killed_within_deadline(
            self, chaos_state, tmp_path, monkeypatch):
        import repro.obs as obs
        from repro.codegen.compiler import (
            CompilerInfo,
            PermanentCompileError,
            compile_with_fallback,
        )

        monkeypatch.setattr(compiler, "COMPILE_TIMEOUT_S", 1.0)
        obs.reset()
        cc = CompilerInfo("gcc", str(self._hang_cc(tmp_path)), "fake 1")
        attempts = []
        t0 = time.monotonic()
        with pytest.raises(PermanentCompileError, match="exhausted"):
            compile_with_fallback(
                "int x;", tmp_path / "wd", frozenset(),
                compilers=[cc], attempts=attempts, max_retries=0)
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0, f"watchdog too slow: {elapsed:.1f}s"
        assert attempts and all(a.outcome == "transient"
                                for a in attempts)
        assert any("watchdog" in a.detail for a in attempts)
        assert obs.get_registry().counter_value("watchdog.kills") >= 1

    def test_injected_hang_is_killed(self, chaos_state, tmp_path,
                                     monkeypatch):
        """``compile.hang`` substitutes a sleeping child for the real
        compiler; the watchdog must kill it and record transient."""
        from repro.codegen.compiler import (
            PermanentCompileError,
            compile_with_fallback,
            CompilerInfo,
        )

        monkeypatch.setattr(compiler, "COMPILE_TIMEOUT_S", 1.0)
        monkeypatch.setenv("REPRO_FAULTS", "compile.hang")
        faults.reset()
        cc = CompilerInfo("gcc", "/usr/bin/gcc", "gcc")
        attempts = []
        with pytest.raises(PermanentCompileError):
            compile_with_fallback(
                "int x;", tmp_path / "wd", frozenset(),
                compilers=[cc], attempts=attempts, max_retries=0)
        assert all(a.outcome == "transient" for a in attempts)
        assert faults.fired_counts()["compile.hang"] >= 1

    def test_deadline_aborts_ladder(self, chaos_state, tmp_path,
                                    monkeypatch):
        from repro.codegen.compiler import (
            CompileDeadlineError,
            CompilerInfo,
            compile_with_fallback,
        )

        monkeypatch.setattr(compiler, "COMPILE_TIMEOUT_S", 30.0)
        cc = CompilerInfo("gcc", str(self._hang_cc(tmp_path)), "fake 1")
        t0 = time.monotonic()
        with pytest.raises(CompileDeadlineError):
            compile_with_fallback(
                "int x;", tmp_path / "wd", frozenset(),
                compilers=[cc], max_retries=2,
                deadline=time.monotonic() + 0.8)
        elapsed = time.monotonic() - t0
        # one watchdog kill at ~0.8s, then the expired deadline stops
        # the walk — nowhere near the 30s per-attempt timeout
        assert elapsed < 8.0, f"deadline ignored: ran {elapsed:.1f}s"


@requires_compiler
class TestChaosDifferential:
    """Tier-1 kernels under seeded fault schedules: bit-identical
    results, no leaked exceptions, clean recovery."""

    SALTS = (2.5, 71.25, 103.5)

    def _run_suite(self, cache_dir: Path) -> list[np.ndarray]:
        default_cache.clear()
        clear_session_state()
        outputs: list[np.ndarray] = []
        kernels = []
        for i, salt in enumerate(self.SALTS):
            kernels.append(compile_staged(
                build_unique(salt, f"chaos{i}"),
                [array_of(FLOAT), INT32],
                name=f"chaos{i}", tier="async"))
        for kernel in kernels:
            a = np.ones(16, np.float32)
            kernel(a, 16)               # simulated-tier service
            outputs.append(a)
            kernel.wait_native(120)
            b = np.ones(16, np.float32)
            kernel(b, 16)               # whatever tier it settled on
            outputs.append(b)
        return outputs

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bit_identical_under_faults(self, chaos_state, monkeypatch,
                                        seed):
        monkeypatch.setattr(compiler, "COMPILE_TIMEOUT_S", 2.0)
        monkeypatch.setattr(compiler, "COMPILE_RETRIES", 0)
        monkeypatch.setenv("REPRO_COMPILE_WORKERS", "2")

        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        faults.reset()
        baseline = self._run_suite(chaos_state)

        schedule = ",".join([
            f"disk.partial_write:p=0.4:seed={seed}",
            f"disk.torn_publish:p=0.3:seed={seed + 100}",
            f"compile.transient:p=0.3:seed={seed + 200}",
            "compile.hang:n=1",
            f"link.fail:p=0.3:seed={seed + 300}",
            f"smoke.kill_child:p=0.3:seed={seed + 400}",
        ])
        monkeypatch.setenv("REPRO_FAULTS", schedule)
        faults.reset()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")     # chaos may warn freely
            chaotic = self._run_suite(chaos_state)
        monkeypatch.delenv("REPRO_FAULTS")
        faults.reset()

        assert len(baseline) == len(chaotic)
        for want, got in zip(baseline, chaotic):
            assert got.tobytes() == want.tobytes(), \
                "chaos run diverged from fault-free run"

        # recovery: re-opening the cache sweeps every shard; afterwards
        # no temp files and no torn pairs may remain
        if chaos_state.is_dir():
            DiskKernelCache(root=chaos_state).recover()
            assert not list(chaos_state.rglob("*.tmp"))
            for so in chaos_state.glob("[0-9a-f][0-9a-f]/*.so"):
                assert so.with_suffix(".json").exists(), \
                    f"orphaned artifact {so.name} survived recovery"
            for meta in chaos_state.glob("[0-9a-f][0-9a-f]/*.json"):
                assert meta.with_suffix(".so").exists(), \
                    f"orphaned manifest {meta.name} survived recovery"
                json.loads(meta.read_text())    # and it parses


class TestWorkdirSweep:
    def test_leaked_workdir_of_dead_process_is_removed(self, tmp_path):
        from repro.codegen.native import _sweep_leaked_workdirs

        base = tmp_path
        dead = base / "repro-native-dead"
        dead.mkdir()
        (dead / "owner.pid").write_text("999999999")
        alive = base / "repro-native-alive"
        alive.mkdir()
        (alive / "owner.pid").write_text(str(os.getpid()))
        fresh_unstamped = base / "repro-native-fresh"
        fresh_unstamped.mkdir()
        assert _sweep_leaked_workdirs(base) == 1
        assert not dead.exists()
        assert alive.exists()               # owner alive: untouched
        assert fresh_unstamped.exists()     # unstamped but recent


class TestReportSurface:
    def test_resilience_section_in_report(self, monkeypatch):
        import repro.obs as obs
        from repro.obs.report import render_report

        obs.reset()
        monkeypatch.setenv("REPRO_FAULTS", "link.fail:n=1")
        faults.reset()
        assert faults.fire("link.fail")
        obs.counter("watchdog.kills", compiler="gcc")
        obs.counter("tiered.abandoned", 2)
        snap = obs.get_registry().snapshot()
        text = render_report([], snap)
        assert "== resilience ==" in text
        assert "faults.fired" in text and "link.fail" in text
        assert "watchdog.kills = 1" in text
        assert "tiered.abandoned = 2" in text
        assert "cache.disk.recovered = 0" in text
        monkeypatch.delenv("REPRO_FAULTS")
        faults.reset()
        obs.reset()
