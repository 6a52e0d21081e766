"""Processes sharing one on-disk kernel store.

Two processes hammer the store while injected disk faults (torn
writes, corrupted media, mid-publish kills) fire.  The crash-consistency
contract under test (DESIGN.md §11): no reader ever observes a
half-published artifact or a checksum mismatch, and a recovery sweep
plus eviction pass restores the bound with every surviving entry intact
— no matter where a publisher died.

Processes that miss the same kernel at once compile it once (DESIGN.md
§12): the build lock holds them back while one compiles, a killed
holder hands the build on, and a waiter past its deadline compiles on
its own.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro.core.resilience as resilience
import repro.obs as obs
from repro.core.cache import DiskKernelCache, default_cache
from repro.core.resilience import clear_session_state
from tests._build_worker import compile_one
from tests._cache_hammer import KEYS, payload_for
from tests.conftest import requires_compiler

REPO_ROOT = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="requires POSIX process semantics")


def _spawn(cache_dir: Path, seed: int, *, kills: bool,
           iters: int = 150) -> subprocess.Popen:
    schedule = [
        f"disk.partial_write:p=0.15:seed={seed}",
        f"disk.torn_publish:p=0.1:seed={seed + 1000}",
    ]
    if kills:
        schedule.append(f"disk.kill_mid_publish:p=0.04:seed={seed + 2000}")
    env = dict(os.environ,
               REPRO_CACHE_DIR=str(cache_dir),
               REPRO_FAULTS=",".join(schedule),
               PYTHONPATH=f"{REPO_ROOT}/src:{REPO_ROOT}")
    cmd = [sys.executable, "-c",
           f"from tests._cache_hammer import main; main({seed}, {iters})"]
    return subprocess.Popen(cmd, env=env, cwd=REPO_ROOT,
                            stderr=subprocess.PIPE, text=True)


def test_concurrent_hammer_never_tears(tmp_path):
    cache_dir = tmp_path / "shared"
    DiskKernelCache(root=cache_dir, max_entries=8).put(
        KEYS[0], payload_for(KEYS[0]), {})

    # Two children race put/get/invalidate on the shared store.  An
    # injected mid-publish SIGKILL ends a child; it is relaunched with
    # a fresh fault seed (the same seed would die at the same point
    # forever).  The final launch drops the kill fault so every child
    # is guaranteed to finish an uninterrupted pass.  Exit code 1 —
    # the invariant violation — is the only failure.
    max_launches = 4
    launches = {1: 0, 2: 0}
    while launches:
        procs = {}
        for child_id, launch in launches.items():
            seed = 100 * child_id + 17 * launch
            procs[child_id] = _spawn(cache_dir, seed,
                                     kills=launch < max_launches - 1)
        for child_id, proc in procs.items():
            _, stderr = proc.communicate(timeout=120)
            assert proc.returncode != 1, \
                f"child {child_id} saw a torn read:\n{stderr}"
            if proc.returncode == 0:
                del launches[child_id]
                continue
            assert proc.returncode == -signal.SIGKILL, \
                f"unexpected exit {proc.returncode}:\n{stderr}"
            launches[child_id] += 1
            assert launches[child_id] < max_launches, \
                "kill-free final launch did not complete"

    # Post-mortem: the sweep removes every torn pair and temp file the
    # kills left behind; one eviction pass settles any transient
    # overshoot (a publish that completed after the store's last
    # internal evict can leave bound+1 on disk).
    disk = DiskKernelCache(root=cache_dir, max_entries=8)
    disk.recover()
    disk._evict()
    assert not list(cache_dir.rglob("*.tmp"))
    metas = list(cache_dir.glob("*/*.json"))
    assert len(metas) <= 8, "eviction bound exceeded after settling"
    for meta_path in metas:
        key = meta_path.stem
        so_path = meta_path.with_suffix(".so")
        assert so_path.exists(), f"torn pair survived recovery: {key}"
        meta = json.loads(meta_path.read_text())
        # by construction the manifest promises the intended payload
        assert meta["checksum"] == \
            hashlib.sha256(payload_for(key)).hexdigest()
        entry = disk.get(key)
        if entry is None:
            # a *committed* torn write: the payload was mangled after
            # its checksum was computed and both halves still
            # published.  get must detect the lie and drop the pair.
            assert not meta_path.exists() and not so_path.exists(), \
                f"corrupt entry {key} detected but not dropped"
        else:
            assert entry.so_path.read_bytes() == payload_for(key), \
                f"get served bytes that do not match {key}'s manifest"
    for so_path in cache_dir.glob("*/*.so"):
        assert so_path.with_suffix(".json").exists(), \
            f"orphaned artifact survived recovery: {so_path.name}"


def test_eviction_is_lru_by_last_read(tmp_path):
    """``get`` refreshes an entry's manifest mtime, so eviction drops
    the least recently *read* entry, not the oldest publish."""
    disk = DiskKernelCache(root=tmp_path / "c", max_entries=2)
    a, b, c = KEYS[0], KEYS[1], KEYS[2]
    disk.put(a, payload_for(a), {})
    time.sleep(0.02)
    disk.put(b, payload_for(b), {})
    time.sleep(0.02)
    assert disk.get(a) is not None     # A is now the most recent read
    time.sleep(0.02)
    disk.put(c, payload_for(c), {})    # forces one eviction
    assert disk.get(b) is None
    assert disk.get(a) is not None
    assert disk.get(c) is not None


def test_eviction_drops_the_oldest_unread_entry(tmp_path):
    """With no reads, the publish time is the LRU rank: the oldest
    entry goes first."""
    disk = DiskKernelCache(root=tmp_path / "c", max_entries=2)
    oldest, newer, trigger = KEYS[3], KEYS[4], KEYS[5]
    disk.put(oldest, payload_for(oldest), {})
    time.sleep(0.02)
    disk.put(newer, payload_for(newer), {})
    time.sleep(0.02)
    disk.put(trigger, payload_for(trigger), {})
    assert disk.get(oldest) is None
    assert disk.get(newer) is not None
    assert disk.get(trigger) is not None


def test_census_gates_the_evict_scan(tmp_path):
    """A put under the bound must not scan the manifests — the
    eviction pass only runs past ``max_entries``."""
    reg = obs.get_registry()
    before = reg.counter_value("cache.disk.evict_scans")
    disk = DiskKernelCache(root=tmp_path / "c", max_entries=4)
    for key in KEYS[:4]:
        disk.put(key, payload_for(key), {})
    assert reg.counter_value("cache.disk.evict_scans") == before
    disk.put(KEYS[4], payload_for(KEYS[4]), {})   # past the bound
    assert reg.counter_value("cache.disk.evict_scans") == before + 1
    assert len(list((tmp_path / "c").glob("*/*.json"))) == 4


def test_two_processes_share_one_entry(tmp_path):
    """The boring happy path, cross-process: what one publishes the
    other reads back verbatim (no faults armed)."""
    cache_dir = tmp_path / "shared"
    key = KEYS[3]
    env = dict(os.environ,
               REPRO_CACHE_DIR=str(cache_dir),
               PYTHONPATH=f"{REPO_ROOT}/src:{REPO_ROOT}")
    env.pop("REPRO_FAULTS", None)
    writer = (f"from repro.core.cache import DiskKernelCache;"
              f"from tests._cache_hammer import payload_for;"
              f"DiskKernelCache(root={str(cache_dir)!r})"
              f".put({key!r}, payload_for({key!r}), {{'who': 'w'}})")
    reader = (f"from repro.core.cache import DiskKernelCache;"
              f"e = DiskKernelCache(root={str(cache_dir)!r}).get({key!r});"
              f"assert e is not None and e.meta['who'] == 'w';"
              f"print(e.so_path.read_bytes().hex())")
    for snippet in (writer, reader):
        out = subprocess.run([sys.executable, "-c", snippet], env=env,
                             cwd=REPO_ROOT, capture_output=True,
                             text=True, timeout=60)
        assert out.returncode == 0, out.stderr
    assert bytes.fromhex(out.stdout.strip()) == payload_for(key)


# -- one compile per kernel across processes ---------------------------

def _counting_cc(tmp_path: Path, log: Path, sleep_s: float) -> Path:
    """A gcc that appends its pid to ``log`` for every compile (an
    append, so concurrent compiles are all counted) and sleeps
    ``sleep_s`` before compiling; ``--version`` probes pass through
    uncounted."""
    script = tmp_path / "counting-cc"
    script.write_text(f"""#!/bin/sh
if [ "$1" = "--version" ]; then exec gcc --version; fi
echo $$ >> "{log}"
sleep {sleep_s}
exec gcc "$@"
""")
    script.chmod(0o755)
    return script


def _spawn_kernel_build(store: Path, cc: Path, tier: str,
                   order: list[int]) -> subprocess.Popen:
    env = dict(os.environ,
               REPRO_CACHE_DIR=str(store),
               REPRO_CC=f"gcc={cc}",
               PYTHONPATH=f"{REPO_ROOT}/src:{REPO_ROOT}")
    for var in ("REPRO_FAULTS", "REPRO_TIER"):
        env.pop(var, None)
    cmd = [sys.executable, "-c",
           f"from tests._build_worker import main; "
           f"main({tier!r}, {order!r})"]
    return subprocess.Popen(cmd, env=env, cwd=REPO_ROOT,
                            stderr=subprocess.PIPE, text=True)


@requires_compiler
@pytest.mark.parametrize("tier", ["sync", "async"])
def test_processes_compile_each_kernel_once(tmp_path, tier):
    """Four processes build the same three kernels at once on one empty
    store: the compiler runs exactly three times, and every kernel ends
    native with the right answer in every process."""
    log = tmp_path / "cc.log"
    cc = _counting_cc(tmp_path, log, sleep_s=1.0)
    # rotated, so processes both build side by side and wait on each other
    orders = ([0, 1, 2], [1, 2, 0], [2, 0, 1], [0, 1, 2])
    procs = [_spawn_kernel_build(tmp_path / "store", cc, tier, order)
             for order in orders]
    for proc in procs:
        _, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, stderr
    assert len(log.read_text().splitlines()) == 3


@pytest.fixture
def holder(tmp_path, monkeypatch):
    """A process inside its compile of kernel 0, holding that kernel's
    build lock while its compiler sleeps; this process is pointed at
    the same store with the host's own compiler.  Yields the holder;
    the holder and its compiler are killed on the way out."""
    store, log = tmp_path / "store", tmp_path / "cc.log"
    cc = _counting_cc(tmp_path, log, sleep_s=120)
    proc = _spawn_kernel_build(store, cc, "sync", [0])
    monkeypatch.setenv("REPRO_CACHE_DIR", str(store))
    for var in ("REPRO_CC", "REPRO_FAULTS", "REPRO_TIER", "REPRO_OBS"):
        monkeypatch.delenv(var, raising=False)
    default_cache.clear()
    clear_session_state()
    try:
        deadline = time.monotonic() + 120
        while not (log.exists() and log.read_text().split()):
            assert proc.poll() is None, proc.stderr.read()
            assert time.monotonic() < deadline, "holder never compiled"
            time.sleep(0.05)
        yield proc
    finally:
        proc.kill()
        proc.wait(timeout=30)
        for pid in log.read_text().split():
            try:   # the compiler runs in its own process group
                os.killpg(int(pid), signal.SIGKILL)
            except OSError:
                pass
        default_cache.clear()
        clear_session_state()


def _build_lock_span(kernel):
    """The kernel's one ``build_lock`` span, checked to sit under
    ``acquire`` so a trace accounts for the wait."""
    spans = {s.span_id: s for s in kernel.trace}
    waits = [s for s in kernel.trace if s.name == "build_lock"]
    assert len(waits) == 1, [s.name for s in kernel.trace]
    assert spans[waits[0].parent_id].name == "acquire"
    return waits[0]


@requires_compiler
def test_killed_holder_hands_the_build_to_a_waiter(holder):
    """The holder is SIGKILLed while its compiler sleeps: its lock dies
    with it, and the waiter compiles the kernel itself."""
    built = {}
    waiter = threading.Thread(
        target=lambda: built.setdefault("kernel", compile_one(0)))
    waiter.start()
    time.sleep(1.0)             # the waiter is now blocked on the lock
    assert waiter.is_alive()
    holder.kill()
    waiter.join(timeout=120)
    assert not waiter.is_alive()
    kernel = built["kernel"]
    assert kernel.tier == "native", kernel.fallback_reason
    assert kernel.report.cache_source == "compiled"
    a = np.ones(8, np.float32)
    kernel(a, 8)
    assert np.all(a == np.float32(2.25))
    wait = _build_lock_span(kernel)
    assert wait.attrs["outcome"] == "held"
    assert wait.duration_ms >= 500


@requires_compiler
def test_waiter_past_its_deadline_compiles_alone(holder, monkeypatch):
    """A waiter waits no longer than its compile deadline, then compiles
    unlocked while the holder still holds the lock."""
    monkeypatch.setattr(resilience, "COMPILE_DEADLINE_S", 1.0)
    kernel = compile_one(0)
    assert holder.poll() is None        # the lock was never released
    assert kernel.tier == "native", kernel.fallback_reason
    assert kernel.report.cache_source == "compiled"
    wait = _build_lock_span(kernel)
    assert wait.attrs["outcome"] == "timeout"
    assert 900 <= wait.duration_ms < 30_000
