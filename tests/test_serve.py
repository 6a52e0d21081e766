"""The kernel compilation service (DESIGN.md §12).

Covers the wire protocol (framing, malformed and oversized frames),
the daemon lifecycle (stale-socket reclaim, already-running refusal,
``clear_session_state`` cleanup, the ``shutdown`` verb), the client
failure matrix (unreachable ``auto`` falls back in-process,
unreachable ``require`` demotes to the simulator, a daemon stopped
mid-request degrades without failing any caller), and the multi-tenant
contract: two client *processes* requesting the same kernel graph cost
exactly one compiler invocation.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import stat
import struct
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import compile_staged
from repro.core.cache import default_cache
from repro.core.resilience import clear_session_state
from repro.lms import forloop
from repro.lms.ops import array_apply, array_update
from repro.lms.types import FLOAT, INT32, array_of
from repro.serve import protocol
from repro.serve.client import (
    ServiceError,
    ServiceUnavailableError,
    daemon_available,
    request,
)
from repro.serve.daemon import DaemonAlreadyRunningError, \
    KernelCompileDaemon
from tests.conftest import requires_compiler

REPO_ROOT = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="requires POSIX process semantics")


def build_unique(salt: float, name: str):
    """A unique-by-salt scalar-loop kernel (compiles on any host)."""

    def fn(a, n):
        forloop(0, n, step=1, body=lambda i: array_update(
            a, i, array_apply(a, i) * 2.0 + salt))

    return fn


@pytest.fixture
def serve_env(monkeypatch, tmp_path):
    """A short socket path (AF_UNIX paths are ~107-byte bounded — the
    pytest tmp tree is too deep), a private cache dir, and no REPRO_*
    leakage in or out."""
    rundir = Path(tempfile.mkdtemp(prefix="rs-", dir="/tmp"))
    sock = rundir / "serve.sock"
    monkeypatch.setenv("REPRO_SERVICE_SOCKET", str(sock))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "kcache"))
    monkeypatch.setenv("REPRO_COMPILE_WORKERS", "2")
    for var in ("REPRO_FAULTS", "REPRO_SERVICE", "REPRO_CC",
                "REPRO_TIER", "REPRO_SERVICE_TIMEOUT",
                "REPRO_SERVICE_MAX_FRAME"):
        monkeypatch.delenv(var, raising=False)
    default_cache.clear()
    clear_session_state()
    yield sock
    default_cache.clear()
    clear_session_state()   # stops any embedded daemon, resets client
    for leftover in (sock, protocol.pid_path(sock)):
        try:
            leftover.unlink()
        except OSError:
            pass
    try:
        rundir.rmdir()
    except OSError:
        pass


def _write_script(path: Path, body: str) -> Path:
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return path


def _counting_cc(tmp_path: Path, count_file: Path,
                 sleep_s: float = 0.0) -> Path:
    """A gcc that counts (and optionally delays) compile invocations;
    ``--version`` probes pass through uncounted."""
    return _write_script(tmp_path / "counting-cc", f"""
if [ "$1" = "--version" ]; then exec gcc --version; fi
n=$(cat "{count_file}" 2>/dev/null || echo 0)
n=$((n+1)); echo $n > "{count_file}"
sleep {sleep_s}
exec gcc "$@"
""")


def _spawn_daemon(sock: Path, cache_dir: str,
                  extra_env: dict | None = None) -> subprocess.Popen:
    env = dict(os.environ,
               REPRO_SERVICE_SOCKET=str(sock),
               REPRO_CACHE_DIR=cache_dir,
               PYTHONPATH=f"{REPO_ROOT}/src:{REPO_ROOT}")
    for var in ("REPRO_FAULTS", "REPRO_SERVICE"):
        env.pop(var, None)
    env.update(extra_env or {})
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--workers", "2"],
        env=env, cwd=REPO_ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if daemon_available(sock):
            return proc
        if proc.poll() is not None:
            raise AssertionError(
                f"daemon exited {proc.returncode}:\n{proc.stdout.read()}")
        time.sleep(0.05)
    proc.kill()
    raise AssertionError("daemon did not become available")


def _spawn_client(sock: Path, cache_dir: str, salt: float, name: str,
                  extra_env: dict | None = None) -> subprocess.Popen:
    env = dict(os.environ,
               REPRO_SERVICE="require",
               REPRO_TIER="async",
               REPRO_SERVICE_SOCKET=str(sock),
               REPRO_CACHE_DIR=cache_dir,
               PYTHONPATH=f"{REPO_ROOT}/src:{REPO_ROOT}")
    env.pop("REPRO_FAULTS", None)
    env.update(extra_env or {})
    cmd = [sys.executable, "-c",
           f"from tests._serve_worker import main; main({salt}, {name!r})"]
    return subprocess.Popen(cmd, env=env, cwd=REPO_ROOT,
                            stderr=subprocess.PIPE, text=True)


# -- protocol framing -------------------------------------------------

def test_frame_roundtrip():
    a, b = socket.socketpair()
    try:
        protocol.write_frame(a, {"verb": "ping", "n": 1})
        assert protocol.read_frame(b) == {"verb": "ping", "n": 1}
        a.close()
        assert protocol.read_frame(b) is None   # clean EOF
    finally:
        b.close()


@pytest.mark.parametrize("payload, error", [
    (struct.pack(">I", 0), "zero-length"),
    (struct.pack(">I", 1 << 30), "exceeds"),
    (struct.pack(">I", 9) + b"not-json!", "not JSON"),
    (struct.pack(">I", 4) + b"[1]\n", "must be a JSON object"),
    (struct.pack(">I", 64) + b"truncated", "mid-frame"),
])
def test_read_frame_rejects_malformed(payload, error):
    a, b = socket.socketpair()
    try:
        a.sendall(payload)
        a.close()
        with pytest.raises(protocol.ProtocolError, match=error):
            protocol.read_frame(b)
    finally:
        b.close()


def test_write_frame_bounds_encoded_size(monkeypatch):
    monkeypatch.setenv("REPRO_SERVICE_MAX_FRAME", "1024")
    a, b = socket.socketpair()
    try:
        with pytest.raises(protocol.FrameTooLargeError):
            protocol.write_frame(a, {"blob": "x" * 4096})
    finally:
        a.close()
        b.close()


# -- client-side failure handling -------------------------------------

def test_request_unreachable_socket(serve_env):
    with pytest.raises(ServiceUnavailableError, match="unreachable"):
        request({"verb": "ping"}, socket_path=serve_env)


def test_reply_timeout_is_bounded(serve_env, monkeypatch):
    """A daemon that accepts but never replies cannot wedge the client
    past REPRO_SERVICE_TIMEOUT."""
    monkeypatch.setenv("REPRO_SERVICE_TIMEOUT", "0.3")
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(str(serve_env))
    listener.listen(1)
    accepted = []
    thread = threading.Thread(
        target=lambda: accepted.append(listener.accept()), daemon=True)
    thread.start()
    start = time.monotonic()
    try:
        with pytest.raises(ServiceUnavailableError):
            request({"verb": "ping"}, socket_path=serve_env)
        assert time.monotonic() - start < 5.0
    finally:
        listener.close()
        for conn, _ in accepted:
            conn.close()


# -- daemon lifecycle and verbs ---------------------------------------

def test_daemon_verbs(serve_env):
    daemon = KernelCompileDaemon()
    daemon.start()
    assert request({"verb": "ping"})["pid"] == os.getpid()
    status = request({"verb": "status"})
    assert status["workers"] == 2 and status["inflight"] == 0
    stats = request({"verb": "stats"})
    assert stats["breaker"] == "closed"
    assert stats["counts"]["requests"] >= 2
    metrics = request({"verb": "metrics"})
    assert "repro_service_requests_total" in metrics["prometheus"]
    bad = request({"verb": "frobnicate"})
    assert not bad["ok"] and "unknown verb" in bad["error"]
    assert not request({"no": "verb"})["ok"]


def test_shutdown_verb_removes_socket_and_pid(serve_env):
    daemon = KernelCompileDaemon()
    daemon.start()
    assert protocol.pid_path(serve_env).exists()
    reply = request({"verb": "shutdown"})
    assert reply["ok"] and reply["stopping"]
    deadline = time.monotonic() + 10
    while (daemon.running or serve_env.exists()) and \
            time.monotonic() < deadline:
        time.sleep(0.05)
    assert not daemon.running
    assert not serve_env.exists()
    assert not protocol.pid_path(serve_env).exists()


def test_malformed_frames_do_not_kill_daemon(serve_env):
    daemon = KernelCompileDaemon()
    daemon.start()
    # garbage body: an error reply, then the connection is dropped
    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    raw.connect(str(serve_env))
    raw.sendall(struct.pack(">I", 9) + b"not-json!")
    reply = protocol.read_frame(raw)
    assert reply is not None and reply["kind"] == "protocol"
    raw.close()
    # oversized declared length: refused before the body is read
    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    raw.connect(str(serve_env))
    raw.sendall(struct.pack(">I", 1 << 31 - 1))
    reply = protocol.read_frame(raw)
    assert reply is not None and reply["kind"] == "protocol"
    raw.close()
    # the daemon shrugged both off
    assert daemon_available(serve_env)
    assert request({"verb": "stats"})["counts"]["protocol_errors"] == 2


def test_stale_socket_reclaimed(serve_env):
    # a dead daemon's leftovers: a bound-then-abandoned socket plus a
    # pid file naming a process that no longer exists
    stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    stale.bind(str(serve_env))
    stale.close()
    dead = subprocess.run([sys.executable, "-c", "import os;"
                           "print(os.getpid())"],
                          capture_output=True, text=True, check=True)
    protocol.pid_path(serve_env).write_text(dead.stdout.strip())
    daemon = KernelCompileDaemon()
    daemon.start()     # would raise OSError(EADDRINUSE) without reclaim
    assert daemon_available(serve_env)
    assert int(protocol.pid_path(serve_env).read_text()) == os.getpid()


def test_second_daemon_refused_while_first_lives(serve_env):
    first = KernelCompileDaemon()
    first.start()
    with pytest.raises(DaemonAlreadyRunningError, match="already"):
        KernelCompileDaemon().start()
    assert daemon_available(serve_env)   # refusal left it untouched


def test_clear_session_state_stops_embedded_daemon(serve_env):
    daemon = KernelCompileDaemon()
    daemon.start()
    assert serve_env.exists()
    clear_session_state()
    assert not daemon.running
    assert not serve_env.exists()
    assert not protocol.pid_path(serve_env).exists()


def test_idle_daemon_stop_is_prompt(serve_env):
    """stop() wakes the thread blocked in accept() instead of waiting
    out its join timeout with that thread still blocked."""
    daemon = KernelCompileDaemon(workers=1)
    daemon.start()
    accept = [t for t in daemon._threads
              if t.name == "repro-serve-accept"]
    assert len(accept) == 1 and accept[0].is_alive()
    t0 = time.monotonic()
    daemon.stop()
    assert time.monotonic() - t0 < 1.0
    assert not accept[0].is_alive()


def test_serve_forever_returns_after_teardown(serve_env, monkeypatch):
    """The ``__main__`` entry exits once serve_forever() returns; when
    the shutdown verb's thread is still tearing down, returning early
    left the socket and pid file behind."""
    import shutil
    import types

    import repro.serve.daemon as daemon_mod

    release = threading.Event()

    def gated_rmtree(path, ignore_errors=False):
        release.wait(10)
        shutil.rmtree(path, ignore_errors=ignore_errors)

    monkeypatch.setattr(daemon_mod, "shutil",
                        types.SimpleNamespace(rmtree=gated_rmtree))
    daemon = KernelCompileDaemon(workers=1)
    serving = threading.Thread(target=daemon.serve_forever)
    serving.start()
    deadline = time.monotonic() + 10
    while not daemon.running and time.monotonic() < deadline:
        time.sleep(0.01)
    stopper = threading.Thread(target=daemon.stop)
    stopper.start()
    serving.join(0.3)
    assert serving.is_alive()       # teardown is parked in rmtree
    release.set()
    for thread in (stopper, serving):
        thread.join(10)
        assert not thread.is_alive()
    assert not serve_env.exists()
    assert not protocol.pid_path(serve_env).exists()


# -- the failure matrix through the manager ---------------------------

def test_require_demotes_when_unreachable(serve_env, monkeypatch):
    """REPRO_SERVICE=require with no daemon: degraded to the simulator,
    never an exception into callers."""
    monkeypatch.setenv("REPRO_SERVICE", "require")
    monkeypatch.setenv("REPRO_TIER", "async")
    monkeypatch.setenv("REPRO_SERVICE_TIMEOUT", "0.2")
    kernel = compile_staged(build_unique(0.25, "srv_req_down"),
                            [array_of(FLOAT), INT32],
                            backend="auto", name="srv_req_down")
    kernel.wait_native(timeout=30)
    assert kernel.tier == "simulated"
    assert "unreachable" in (kernel.fallback_reason or "")
    a = np.ones(8, np.float32)
    kernel(a, 8)
    np.testing.assert_allclose(a, 2.25)


@requires_compiler
def test_auto_falls_back_in_process(serve_env, monkeypatch):
    """REPRO_SERVICE=auto with no daemon compiles exactly as before."""
    monkeypatch.setenv("REPRO_SERVICE", "auto")
    monkeypatch.setenv("REPRO_TIER", "async")
    monkeypatch.setenv("REPRO_SERVICE_TIMEOUT", "0.2")
    kernel = compile_staged(build_unique(0.5, "srv_auto_down"),
                            [array_of(FLOAT), INT32],
                            backend="auto", name="srv_auto_down")
    kernel.wait_native(timeout=120)
    assert kernel.tier == "native"
    a = np.ones(8, np.float32)
    kernel(a, 8)
    np.testing.assert_allclose(a, 2.5)


@requires_compiler
def test_service_compile_end_to_end(serve_env, monkeypatch, tmp_path):
    """require + live daemon: the daemon compiles and publishes, the
    client disk-hits and links locally."""
    daemon = KernelCompileDaemon()
    daemon.start()
    monkeypatch.setenv("REPRO_SERVICE", "require")
    monkeypatch.setenv("REPRO_TIER", "async")
    kernel = compile_staged(build_unique(0.75, "srv_e2e"),
                            [array_of(FLOAT), INT32],
                            backend="auto", name="srv_e2e")
    kernel.wait_native(timeout=120)
    assert kernel.tier == "native"
    a = np.ones(8, np.float32)
    kernel(a, 8)
    np.testing.assert_allclose(a, 2.75)
    counts = request({"verb": "stats"})["counts"]
    assert counts["compiled"] == 1
    # the artifact landed in the shared store the client linked from
    cache_dir = Path(os.environ["REPRO_CACHE_DIR"])
    metas = list(cache_dir.glob("*/*.json"))
    assert len(metas) == 1
    assert json.loads(metas[0].read_text())["published_by"].startswith(
        "repro-serve:")


@requires_compiler
def test_daemon_stopped_mid_request_degrades(serve_env, monkeypatch,
                                             tmp_path):
    """Stopping the daemon while a compile is in flight: the client
    falls back in-process; no caller sees an exception."""
    count_file = tmp_path / "count"
    slow = _counting_cc(tmp_path, count_file, sleep_s=30)
    monkeypatch.setenv("REPRO_CC", str(slow))
    daemon = KernelCompileDaemon()
    daemon.start()
    monkeypatch.setenv("REPRO_SERVICE", "auto")
    monkeypatch.setenv("REPRO_TIER", "async")
    kernel = compile_staged(build_unique(1.5, "srv_midstop"),
                            [array_of(FLOAT), INT32],
                            backend="auto", name="srv_midstop")
    deadline = time.monotonic() + 20
    while not count_file.exists() and time.monotonic() < deadline:
        time.sleep(0.05)   # the daemon's compiler is now dawdling
    # local fallback must not dawdle 30 s per rung
    monkeypatch.delenv("REPRO_CC")
    daemon.stop()
    kernel.wait_native(timeout=120)
    assert kernel.tier == "native"
    a = np.ones(8, np.float32)
    kernel(a, 8)
    np.testing.assert_allclose(a, 3.5)


@requires_compiler
def test_daemon_killed_mid_request_degrades(serve_env, monkeypatch,
                                            tmp_path):
    """SIGKILL — not a graceful stop — while a compile is in flight:
    the connection dies mid-frame and the auto client still delivers a
    native kernel in-process."""
    count_file = tmp_path / "count"
    slow = _counting_cc(tmp_path, count_file, sleep_s=30)
    proc = _spawn_daemon(serve_env, os.environ["REPRO_CACHE_DIR"],
                         extra_env={"REPRO_CC": str(slow)})
    try:
        monkeypatch.setenv("REPRO_SERVICE", "auto")
        monkeypatch.setenv("REPRO_TIER", "async")
        kernel = compile_staged(build_unique(2.5, "srv_midkill"),
                                [array_of(FLOAT), INT32],
                                backend="auto", name="srv_midkill")
        deadline = time.monotonic() + 20
        while not count_file.exists() and \
                time.monotonic() < deadline:
            time.sleep(0.05)
        proc.kill()
        kernel.wait_native(timeout=120)
        assert kernel.tier == "native"
        a = np.ones(8, np.float32)
        kernel(a, 8)
        np.testing.assert_allclose(a, 4.5)
    finally:
        proc.kill()
        proc.wait(timeout=30)


# -- the multi-tenant contract ----------------------------------------

@requires_compiler
def test_two_clients_one_compile(serve_env, monkeypatch, tmp_path):
    """Two client *processes*, same kernel graph, one daemon: exactly
    one compiler invocation serves both (cluster-wide single-flight —
    faults-free counting compiler as the witness)."""
    count_file = tmp_path / "count"
    slow = _counting_cc(tmp_path, count_file, sleep_s=1.5)
    cache_dir = os.environ["REPRO_CACHE_DIR"]
    proc = _spawn_daemon(serve_env, cache_dir,
                         extra_env={"REPRO_CC": str(slow)})
    try:
        clients = [_spawn_client(serve_env, cache_dir, 0.125,
                                 "srv_dedup") for _ in range(2)]
        for client in clients:
            _, stderr = client.communicate(timeout=180)
            assert client.returncode == 0, stderr
        assert count_file.read_text().strip() == "1", \
            "the same graph was compiled more than once"
        counts = request({"verb": "stats"})["counts"]
        assert counts["compiled"] == 1
        assert counts["errors"] == 0 and counts["shed"] == 0
        # the second client attached to the in-flight compile (dedup),
        # hit the already-published artifact at the daemon (cached), or
        # probed it locally and never sent a request — any of these is
        # one compile for two clients
        assert counts["dedup"] + counts["cached"] <= 1
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)
    assert not serve_env.exists(), "SIGTERM left the socket behind"


def test_sigterm_removes_socket_and_pid(serve_env):
    proc = _spawn_daemon(serve_env, os.environ["REPRO_CACHE_DIR"])
    assert protocol.pid_path(serve_env).exists()
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=30) == 0
    assert not serve_env.exists()
    assert not protocol.pid_path(serve_env).exists()
