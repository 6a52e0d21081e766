"""The build lock of the disk kernel store and the emitted-C key it is
taken under (DESIGN.md §12).

The lock tests drive :meth:`DiskKernelCache.build_lock` directly, with
threads standing in for processes: a ``flock`` belongs to an open file
description, so two opens in one process contend exactly as two
processes do.  The acquire tests drive :func:`acquire_native` through
the lock with the host's compiler.  The races between real processes
(four builders, a SIGKILLed holder, a waiter past its deadline) are in
``tests/test_cache_crossproc.py``.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import json
import os
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro.codegen.native as native_mod
import repro.core.resilience as resilience
import repro.core.tiered as tiered
import repro.obs as obs
from repro.codegen.compiler import (
    CompileDeadlineError,
    CompileError,
    CompilerInfo,
    compiler_chain,
    flag_ladder,
    glue_headers,
    inspect_system,
)
from repro.codegen.native import (
    NativeLinkError,
    build_native,
    export_source,
    required_isas,
)
from repro.core import compile_staged
from repro.core.cache import DiskKernelCache, graph_hash
from repro.core.resilience import acquire_native, clear_session_state
from repro.lms import forloop, stage_function
from repro.lms.ops import array_apply, array_update
from repro.lms.types import FLOAT, INT32, array_of, vector_type_for_bits
from tests._cache_hammer import KEYS, payload_for
from tests.conftest import requires_compiler

KEY = KEYS[0]


@pytest.fixture(autouse=True)
def _pin_env(monkeypatch):
    """Hermetic suite: an ambient chaos schedule or a disabled tracer
    (the CI matrix sets both) must not perturb these assertions."""
    for var in ("REPRO_FAULTS", "REPRO_OBS"):
        monkeypatch.delenv(var, raising=False)
    obs.reset()


@pytest.fixture
def store(tmp_path) -> DiskKernelCache:
    return DiskKernelCache(root=tmp_path / "store")


def _lock_file(store: DiskKernelCache, key: str) -> Path:
    return store.shard_dir(key) / f"{key}.build"


@contextlib.contextmanager
def _held_elsewhere(store: DiskKernelCache, key: str,
                    at_most_s: float = 20.0):
    """Hold ``key``'s build lock in another thread until the block ends
    (or ``at_most_s`` passes, so a waiter that ignores its deadline
    fails its timing assertion instead of hanging the suite)."""
    taken, release = threading.Event(), threading.Event()

    def hold():
        with store.build_lock(key, None) as held:
            assert held
            taken.set()
            release.wait(at_most_s)

    holder = threading.Thread(target=hold)
    holder.start()
    assert taken.wait(10), "the holder never took the lock"
    try:
        yield
    finally:
        release.set()
        holder.join(30)


def _release_after(store: DiskKernelCache, key: str,
                   seconds: float) -> threading.Thread:
    """Take ``key``'s build lock in another thread, hold it for
    ``seconds`` and release it; returns once the lock is held."""
    taken = threading.Event()

    def hold():
        with store.build_lock(key, None):
            taken.set()
            time.sleep(seconds)

    holder = threading.Thread(target=hold)
    holder.start()
    assert taken.wait(10), "the holder never took the lock"
    return holder


def _block_shard_dir(store: DiskKernelCache, key: str) -> None:
    """Put a regular file where ``key``'s shard directory belongs, so
    its lock file cannot be created."""
    store.root.mkdir(parents=True, exist_ok=True)
    store.shard_dir(key).write_text("")


def _spans(name: str) -> list:
    return [s for s in obs.get_tracer().finished_spans() if s.name == name]


class TestBuildLock:
    def test_a_free_lock_is_held_and_its_file_removed_on_release(
            self, store):
        with store.build_lock(KEY, None) as held:
            assert held is True
            assert _lock_file(store, KEY).is_file()
        assert not _lock_file(store, KEY).exists()

    def test_a_waiter_gives_up_at_its_deadline(self, store):
        with _held_elsewhere(store, KEY):
            start = time.monotonic()
            with store.build_lock(KEY, start + 0.3) as held:
                waited = time.monotonic() - start
                assert held is False
            # a waiter that gave up leaves the holder's file in place:
            # unlinking it would let a third party lock a new file
            assert _lock_file(store, KEY).is_file()
        assert 0.3 <= waited < 10

    def test_a_past_deadline_does_not_wait(self, store):
        with _held_elsewhere(store, KEY):
            start = time.monotonic()
            with store.build_lock(KEY, start - 1.0) as held:
                assert held is False
            assert time.monotonic() - start < 1.0

    def test_a_free_lock_is_taken_even_past_the_deadline(self, store):
        with store.build_lock(KEY, time.monotonic() - 1.0) as held:
            assert held is True

    @pytest.mark.parametrize("budget", [30.0, None],
                             ids=["deadline", "no-deadline"])
    def test_a_waiter_takes_the_lock_its_holder_releases(self, store,
                                                         budget):
        holder = _release_after(store, KEY, 0.3)
        start = time.monotonic()
        deadline = None if budget is None else start + budget
        with store.build_lock(KEY, deadline) as held:
            waited = time.monotonic() - start
            assert held is True
        holder.join(10)
        assert 0.2 <= waited < 10

    def test_kernels_do_not_contend(self, store):
        with _held_elsewhere(store, KEYS[1]):
            with store.build_lock(KEY, time.monotonic()) as held:
                assert held is True

    def test_holding_it_leaves_the_shard_open_to_reads_and_writes(
            self, store):
        quick = DiskKernelCache(root=store.root, lock_timeout=0.05)
        with store.build_lock(KEY, None):
            quick.put(KEY, payload_for(KEY), {"who": "publisher"})
            entry = quick.get(KEY)
            assert entry is not None and entry.meta["who"] == "publisher"
            quick.invalidate(KEY)
            assert quick.get(KEY) is None

    def test_a_held_shard_lock_does_not_delay_the_build(self, store):
        import fcntl

        shard = store.shard_dir(KEY)
        shard.mkdir(parents=True)
        fd = os.open(shard / ".lock", os.O_RDWR | os.O_CREAT)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            with store.build_lock(KEY, time.monotonic()) as held:
                assert held is True
        finally:
            os.close(fd)

    def test_an_exception_in_the_build_releases_the_lock(self, store):
        with pytest.raises(RuntimeError, match="compiler blew up"):
            with store.build_lock(KEY, None) as held:
                assert held
                raise RuntimeError("compiler blew up")
        assert not _lock_file(store, KEY).exists()
        with store.build_lock(KEY, time.monotonic()) as held:
            assert held is True

    def test_an_uncreatable_lock_file_is_not_waited_for(self, store):
        _block_shard_dir(store, KEY)
        start = time.monotonic()
        with store.build_lock(KEY, start + 30) as held:
            assert held is False
        assert time.monotonic() - start < 5

    def test_a_file_left_by_a_killed_holder_does_not_block(self, store):
        path = _lock_file(store, KEY)
        path.parent.mkdir(parents=True)
        path.write_text("")             # unlocked: its holder is gone
        with store.build_lock(KEY, time.monotonic()) as held:
            assert held is True
        assert not path.exists()

    def test_one_holder_at_a_time(self, store):
        """Holders unlink the file before unlocking it; a waiter that
        then wins the lock of the unlinked file must not count as a
        holder beside whoever locked the new one."""
        guard = threading.Lock()
        state = {"inside": 0, "most": 0, "takes": 0, "refused": 0}

        def builder():
            for _ in range(15):
                with store.build_lock(KEY, None) as held:
                    with guard:
                        if not held:
                            state["refused"] += 1
                            continue
                        state["inside"] += 1
                        state["takes"] += 1
                        state["most"] = max(state["most"], state["inside"])
                    time.sleep(0.001)
                    with guard:
                        state["inside"] -= 1

        threads = [threading.Thread(target=builder) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert state == {"inside": 0, "most": 1, "takes": 90,
                         "refused": 0}
        assert not _lock_file(store, KEY).exists()

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(),
                        reason="needs a per-process descriptor table")
    def test_no_descriptor_outlives_a_take(self, store, tmp_path):
        blocked = DiskKernelCache(root=tmp_path / "blocked")
        _block_shard_dir(blocked, KEY)
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(5):
            with store.build_lock(KEY, None):
                pass
            with _held_elsewhere(store, KEY):
                with store.build_lock(KEY, time.monotonic()):
                    pass
            with blocked.build_lock(KEY, None):
                pass
        assert len(os.listdir("/proc/self/fd")) == before

    @pytest.mark.parametrize("outcome", ["held", "timeout", "unavailable"])
    def test_the_wait_is_a_span_with_its_outcome(self, store, outcome):
        if outcome == "unavailable":
            _block_shard_dir(store, KEY)
        holder = _held_elsewhere(store, KEY) if outcome == "timeout" \
            else contextlib.nullcontext()
        with holder:
            with obs.span("acquire"):
                with store.build_lock(KEY, time.monotonic() + 0.2):
                    pass
        (outer,) = _spans("acquire")
        waits = [s for s in _spans("build_lock")
                 if s.parent_id == outer.span_id]
        assert len(waits) == 1
        assert waits[0].attrs["outcome"] == outcome

    def test_recovery_and_eviction_leave_a_held_lock_alone(self, tmp_path):
        store = DiskKernelCache(root=tmp_path / "store", max_entries=2)
        with store.build_lock(KEY, None):
            store.put(KEY, payload_for(KEY), {})
            store.put(KEYS[1], payload_for(KEYS[1]), {})
            assert store.recover() == {"tmp": 0, "orphan_so": 0,
                                       "orphan_meta": 0}
            assert _lock_file(store, KEY).is_file()
            assert len(store) == 2      # the lock file is not an entry
        assert store.get(KEY).so_path.read_bytes() == payload_for(KEY)
        assert store.get(KEYS[1]) is not None

    def test_recovery_sweeps_a_file_left_by_a_killed_holder(self, store):
        path = _lock_file(store, KEY)
        path.parent.mkdir(parents=True)
        holder = subprocess.Popen(
            [sys.executable, "-c",
             "import fcntl, os, sys, time\n"
             "fd = os.open(sys.argv[1], os.O_RDWR | os.O_CREAT)\n"
             "fcntl.flock(fd, fcntl.LOCK_EX)\n"
             "print('held', flush=True)\n"
             "time.sleep(60)\n", str(path)],
            stdout=subprocess.PIPE, text=True)
        try:
            assert holder.stdout.readline() == "held\n"
            store.recover()
            assert path.is_file()       # held by a live process
        finally:
            holder.kill()
            holder.communicate(timeout=30)
        store.recover()
        assert not path.exists()


def _kernel_fn(salt: float):
    """A unique-by-salt scalar loop (compiles on any host)."""

    def fn(a, n):
        forloop(0, n, step=1, body=lambda i: array_update(
            a, i, array_apply(a, i) * 2.0 + salt))

    return fn


def _staged(salt: float, name: str):
    return stage_function(_kernel_fn(salt), [array_of(FLOAT), INT32], name)


def _vector_param_staged():
    return stage_function(lambda v, n: None,
                          [vector_type_for_bits(128, "float"), INT32],
                          "vector_param_k")


class TestEmittedSourceKey:
    def test_export_source_is_the_same_for_the_same_kernel(self):
        first = export_source(_staged(6.5, "det_k"))
        assert export_source(_staged(6.5, "det_k")) == first
        assert export_source(_staged(7.5, "det_k")) != first

    def test_export_source_refuses_a_signature_that_cannot_cross(self):
        with pytest.raises(NativeLinkError, match="cannot cross"):
            export_source(_vector_param_staged())

    @pytest.mark.parametrize("part", ["source_digest", "compiler_version",
                                      "flags", "isas"])
    def test_artifact_key_covers_each_part(self, part):
        base = {"source_digest": "a" * 64,
                "compiler_version": "gcc (Debian 12.2.0-14) 12.2.0",
                "flags": ("-O3", "-mavx2"), "isas": ("AVX", "AVX2")}
        other = {"source_digest": "b" * 64,
                 "compiler_version": "gcc (Debian 13.1.0-1) 13.1.0",
                 "flags": ("-O2", "-mavx2"), "isas": ("AVX",)}
        changed = dict(base, **{part: other[part]})
        assert DiskKernelCache.artifact_key(**changed) != \
            DiskKernelCache.artifact_key(**base)

    def test_artifact_key_ignores_isa_order(self):
        key = DiskKernelCache.artifact_key
        assert key("a" * 64, "gcc", ("-O3",), ("AVX2", "AVX", "FMA")) == \
            key("a" * 64, "gcc", ("-O3",), ("FMA", "AVX", "AVX2"))

    def test_artifact_key_names_the_interpreter_abi(self, monkeypatch):
        import repro.core.cache as cache_mod

        args = ("a" * 64, "gcc", ("-O3",), ("AVX",))
        here = DiskKernelCache.artifact_key(*args)
        monkeypatch.setattr(cache_mod, "_EXT_SUFFIX",
                            ".cpython-399-x86_64-linux-gnu.so")
        assert DiskKernelCache.artifact_key(*args) != here

    def test_first_builds_on_racing_threads_agree_on_key_and_headers(
            self, monkeypatch):
        """``sysconfig`` publishes its config-var cache empty and fills
        it after, so threads whose first reads race (a process's first
        builds on two background workers) can see no ``EXT_SUFFIX``.
        Every build must use the values read at import."""
        import sysconfig

        args = ("a" * 64, "gcc", ("-O3",), ("AVX",))
        want = (DiskKernelCache.artifact_key(*args), glue_headers())
        monkeypatch.setattr(sysconfig, "_CONFIG_VARS", None)
        if hasattr(sysconfig, "_CONFIG_VARS_INITIALIZED"):  # 3.12+
            monkeypatch.setattr(sysconfig, "_CONFIG_VARS_INITIALIZED",
                                False)
        for name in [m for m in sys.modules
                     if m.startswith("_sysconfigdata_")]:
            monkeypatch.delitem(sys.modules, name)
        barrier = threading.Barrier(4)
        got = []

        def first_build():
            barrier.wait(10)
            got.append((DiskKernelCache.artifact_key(*args),
                        glue_headers()))

        threads = [threading.Thread(target=first_build) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert got == [want] * 4

    @requires_compiler
    def test_build_native_compiles_the_source_it_is_given(
            self, tmp_path, monkeypatch):
        staged = _staged(8.5, "given_k")
        source = export_source(staged)
        monkeypatch.setattr(
            native_mod, "emit_c_source",
            lambda *a, **k: pytest.fail("build_native emitted the C again"))
        artifact = build_native(staged, workdir=tmp_path, source=source)
        assert artifact.c_source == source
        assert artifact.so_path.is_file()


class TestCompileDeadline:
    def test_the_manager_and_the_lock_share_one_budget(self, session,
                                                       monkeypatch):
        """One constant is both the deadline the manager hands a
        background compile and the bound on an inline compile's wait
        for the build lock: patching it moves both."""
        monkeypatch.setattr(resilience, "COMPILE_DEADLINE_S", 7.0)
        budgets = []

        def background(staged, *, deadline):
            budgets.append(deadline - time.monotonic())
            raise CompileError("no compile in this test")

        def lock_wait(self, key, wait_until):
            budgets.append(wait_until - time.monotonic())
            raise CompileError("no compile in this test")

        monkeypatch.setattr(tiered, "acquire_native", background)
        monkeypatch.setattr(DiskKernelCache, "build_lock", lock_wait)
        kernel = compile_staged(_kernel_fn(6.5), [array_of(FLOAT), INT32],
                                name="budget_k", tier="async",
                                use_cache=False).wait_native(30)
        assert kernel.tier_events[-1].action == "demote"
        with pytest.raises(CompileError):
            acquire_native(_staged(6.5, "budget_k"),
                           compilers=[CompilerInfo("gcc", "gcc", "gcc 0")])
        assert len(budgets) == 2
        assert all(6.0 < budget <= 7.0 for budget in budgets), budgets


@pytest.fixture
def session(tmp_path, monkeypatch):
    """A fresh store at ``REPRO_CACHE_DIR``, no quarantines, the host's
    own compiler and the default deadline."""
    root = tmp_path / "kcache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    monkeypatch.delenv("REPRO_CC", raising=False)
    clear_session_state()
    yield root
    clear_session_state()


def _preferred_key(staged) -> str:
    """The key :func:`acquire_native` locks: the entry key of the first
    rung of the first compiler, over the emitted C."""
    cc = compiler_chain(inspect_system())[0]
    isas = required_isas(staged)
    _rung, flags = flag_ladder(cc, isas)[0]
    digest = hashlib.sha256(export_source(staged).encode()).hexdigest()
    return DiskKernelCache.artifact_key(digest, cc.version, flags, isas)


def _runs_right(native, salt: float) -> bool:
    a = np.ones(8, np.float32)
    native(a, 8)
    return bool(np.all(a == np.float32(2.0 + salt)))


@requires_compiler
class TestAcquireUnderTheLock:
    def test_a_miss_builds_under_its_preferred_key(self, session,
                                                   monkeypatch):
        staged = _staged(5.5, "miss_k")
        locked = []
        take = DiskKernelCache.build_lock

        def recording(self, key, deadline):
            locked.append(key)
            return take(self, key, deadline)

        monkeypatch.setattr(DiskKernelCache, "build_lock", recording)
        native, report = acquire_native(staged)
        assert report.cache_source == "compiled"
        assert _runs_right(native, 5.5)
        assert locked == [_preferred_key(staged)]
        (manifest,) = session.glob("*/*.json")
        assert manifest.stem == locked[0]
        assert json.loads(manifest.read_text())["graph_hash"] == \
            graph_hash(staged)
        assert not list(session.glob("*/*.build"))
        (wait,) = _spans("build_lock")
        assert wait.attrs["outcome"] == "held"
        (outer,) = _spans("acquire")
        assert wait.parent_id == outer.span_id

    def test_a_build_emits_its_source_once(self, session, monkeypatch):
        emitted = []
        emit = native_mod.emit_c_source

        def counting(*args, **kwargs):
            emitted.append(args[0].name)
            return emit(*args, **kwargs)

        monkeypatch.setattr(native_mod, "emit_c_source", counting)
        _native, report = acquire_native(_staged(9.5, "emit_once_k"))
        assert report.cache_source == "compiled"
        assert emitted == ["emit_once_k"]

    def test_a_build_published_while_waiting_is_a_hit(self, session,
                                                      tmp_path,
                                                      monkeypatch):
        """The waiter probes again once it holds the lock, so the
        holder's publish spares it the compile."""
        staged = _staged(1.5, "published_k")
        key = _preferred_key(staged)
        # a store of its own stands in for the process that builds first
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "winner"))
        acquire_native(staged)
        built = DiskKernelCache(root=tmp_path / "winner").get(key)
        assert built is not None
        monkeypatch.setenv("REPRO_CACHE_DIR", str(session))
        clear_session_state()
        obs.reset()

        mine = DiskKernelCache(root=session)
        result = {}

        def wait_for_it():
            try:
                result["acquired"] = acquire_native(staged)
            except Exception as exc:  # noqa: BLE001 - reported below
                result["error"] = exc

        waiter = threading.Thread(target=wait_for_it)
        with _held_elsewhere(mine, key):
            waiter.start()
            time.sleep(0.5)
            assert waiter.is_alive(), result
            mine.put(key, built.so_path.read_bytes(), built.meta)
        waiter.join(60)
        assert "error" not in result, result
        native, report = result["acquired"]
        assert report.cache_source == "disk"
        assert report.compiler_invocations == 0
        assert _runs_right(native, 1.5)
        (wait,) = [s for s in _spans("build_lock")
                   if s.parent_id is not None]
        assert wait.attrs["outcome"] == "held"
        assert wait.duration_ms >= 400

    def test_an_explicit_deadline_bounds_the_wait(self, session):
        """With a deadline of its own the waiter stops at it, not at
        the 300 s :data:`~repro.core.resilience.COMPILE_DEADLINE_S`, and
        the compile it then owes is out of time."""
        staged = _staged(2.5, "deadline_k")
        with _held_elsewhere(DiskKernelCache(root=session),
                             _preferred_key(staged)):
            start = time.monotonic()
            with pytest.raises(CompileDeadlineError) as exc:
                acquire_native(staged, deadline=start + 0.5)
            waited = time.monotonic() - start
        assert 0.5 <= waited < 10
        assert "deadline" in exc.value.report.fallback_reason
        (wait,) = [s for s in _spans("build_lock")
                   if s.parent_id is not None]
        assert wait.attrs["outcome"] == "timeout"

    def test_the_lock_is_released_before_the_smoke_run(self, session,
                                                       monkeypatch):
        staged = _staged(3.5, "smoke_k")
        key = _preferred_key(staged)
        free_during_smoke = []
        smoke = resilience.smoke_test_artifact

        def checking(artifact, *args, **kwargs):
            with DiskKernelCache(root=session).build_lock(
                    key, time.monotonic()) as held:
                free_during_smoke.append(held)
            return smoke(artifact, *args, **kwargs)

        monkeypatch.setattr(resilience, "smoke_test_artifact", checking)
        native, report = acquire_native(staged)
        assert report.cache_source == "compiled"
        assert report.smoke == "passed"
        assert free_during_smoke == [True]
        assert _runs_right(native, 3.5)

    def test_a_failed_compile_releases_the_lock(self, session, tmp_path,
                                                monkeypatch):
        cc = tmp_path / "broken-cc"
        cc.write_text('#!/bin/sh\n'
                      'if [ "$1" = "--version" ]; then '
                      'exec gcc --version; fi\n'
                      'echo "kernel.c:1:1: error: unknown type" >&2\n'
                      'exit 1\n')
        cc.chmod(cc.stat().st_mode | stat.S_IXUSR)
        monkeypatch.setenv("REPRO_CC", f"gcc={cc}")
        staged = _staged(10.5, "broken_k")
        with pytest.raises(CompileError):
            acquire_native(staged)
        assert not list(session.glob("*/*.build"))
        with DiskKernelCache(root=session).build_lock(
                _preferred_key(staged), time.monotonic()) as held:
            assert held is True

    def test_a_disk_hit_takes_no_lock(self, session):
        staged = _staged(4.5, "hit_k")
        acquire_native(staged)
        obs.reset()
        native, report = acquire_native(staged)
        assert report.cache_source == "disk"
        assert _runs_right(native, 4.5)
        names = {s.name for s in obs.get_tracer().finished_spans()}
        assert "disk_probe" in names
        assert "build_lock" not in names

    def test_a_signature_that_cannot_cross_is_refused_before_the_lock(
            self, session):
        with pytest.raises(NativeLinkError, match="cannot cross") as exc:
            acquire_native(_vector_param_staged())
        assert exc.value.report.compiler_invocations == 0
        assert not _spans("build_lock")


@requires_compiler
class TestAcquireDefaults:
    """The disk tier and the smoke-run are always on, and a store that
    cannot be written costs the kernel nothing."""

    def test_the_former_off_switches_are_not_read(self, session,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        monkeypatch.setenv("REPRO_SMOKE", "0")
        staged = _staged(12.5, "defaults_k")
        native, report = acquire_native(staged)
        assert report.cache_source == "compiled"
        assert report.smoke == "passed"
        assert _runs_right(native, 12.5)
        clear_session_state()           # forget that the smoke-run passed
        _native, again = acquire_native(staged)
        assert again.cache_source == "disk"
        assert again.smoke == "passed"

    def test_a_store_that_cannot_be_written_does_not_block_the_build(
            self, session, monkeypatch):
        def full(self, key, so_bytes, meta):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(DiskKernelCache, "put", full)
        staged = _staged(14.5, "full_k")
        native, report = acquire_native(staged)
        assert report.cache_source == "compiled"
        assert report.smoke == "passed"
        assert _runs_right(native, 14.5)
        assert DiskKernelCache(root=session).get(
            _preferred_key(staged)) is None
        assert not list(session.rglob("*.build"))
