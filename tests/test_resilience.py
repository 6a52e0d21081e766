"""The fault-tolerant compile-and-link pipeline: retry/backoff, the
compiler and flag fallback ladder, forked smoke-runs with quarantine,
and the persistent disk kernel cache."""

from __future__ import annotations

import json
import os
import shutil
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro.core.cache as cache_mod
import repro.core.resilience as resilience
import repro.obs as obs
from repro.codegen.compiler import (
    CompilerInfo,
    PermanentCompileError,
    compile_with_fallback,
    flag_ladder,
)
from repro.core import BackendKind, KernelQuarantinedError, compile_staged
from repro.core import faults
from repro.core.cache import DiskKernelCache, default_cache
from repro.core.resilience import (
    acquire_native,
    clear_session_state,
    quarantined_kernels,
)
from repro.lms import forloop, stage_function
from repro.lms.ops import array_apply, array_update
from repro.lms.types import FLOAT, INT32, array_of
from tests.conftest import requires_compiler

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _pin_faults(monkeypatch):
    """Keep this suite hermetic: an ambient ``REPRO_FAULTS`` (the CI
    chaos job sets one) must not perturb its exact assertions."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


@pytest.fixture
def clean_state(monkeypatch, tmp_path):
    """Fresh cache dir, no quarantines, no REPRO_CC leakage."""
    cache_dir = tmp_path / "kcache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    monkeypatch.delenv("REPRO_CC", raising=False)
    default_cache.clear()
    clear_session_state()
    yield cache_dir
    default_cache.clear()
    clear_session_state()


def _staged(salt: float, name: str):
    """A unique-by-salt scalar-loop kernel (compiles on any host)."""

    def fn(a, n):
        forloop(0, n, step=1, body=lambda i: array_update(
            a, i, array_apply(a, i) * 2.0 + salt))

    return stage_function(fn, [array_of(FLOAT), INT32], name)


def _write_script(path: Path, body: str) -> Path:
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return path


# every fake cc answers --version (the detection probe) for real, so
# only actual compile invocations hit the scripted failure behavior.
_VERSION_PASSTHROUGH = """
if [ "$1" = "--version" ]; then exec gcc --version; fi
"""


def _fake_cc_transient_then_ok(tmp_path: Path, failures: int) -> Path:
    count = tmp_path / "cc-count"
    return _write_script(tmp_path / "flaky-cc", _VERSION_PASSTHROUGH + f"""
n=$(cat "{count}" 2>/dev/null || echo 0)
n=$((n+1)); echo $n > "{count}"
if [ $n -le {failures} ]; then
  echo "virtual memory exhausted: Cannot allocate memory" >&2
  exit 1
fi
exec gcc "$@"
""")


def _fake_cc_always_fail(tmp_path: Path) -> Path:
    return _write_script(tmp_path / "broken-cc", _VERSION_PASSTHROUGH + """
echo "kernel.c:1:1: error: unknown type name 'simd'" >&2
exit 1
""")


def _fake_cc_rejects_o3(tmp_path: Path) -> Path:
    return _write_script(tmp_path / "o3less-cc", _VERSION_PASSTHROUGH + """
for a in "$@"; do
  if [ "$a" = "-O3" ]; then
    echo "internal error: gimplification failed at -O3" >&2
    exit 1
  fi
done
exec gcc "$@"
""")


class TestFlagLadder:
    def test_the_ladder_is_o3_then_o2(self):
        cc = CompilerInfo("gcc", "/usr/bin/gcc", "gcc 12")
        (o3_tag, o3), (o2_tag, o2) = flag_ladder(
            cc, frozenset({"AVX", "AVX2", "FMA"}))
        assert (o3_tag, o2_tag) == ("O3", "O2")
        assert "-O3" in o3 and "-mavx2" in o3 and "-mfma" in o3
        # the same flags, one optimization level down
        assert o2 == ["-O2" if f == "-O3" else f for f in o3]


@requires_compiler
class TestRetryAndFallback:
    def test_transient_failures_retried_to_success(self, clean_state,
                                                   tmp_path, monkeypatch):
        script = _fake_cc_transient_then_ok(tmp_path, failures=2)
        monkeypatch.setenv("REPRO_CC", f"gcc={script}")
        kernel = compile_staged(build_unique(3.125, "retry_k"),
                                [array_of(FLOAT), INT32],
                                name="retry_k", backend="auto").wait_native()
        assert kernel.backend == BackendKind.NATIVE
        rep = kernel.report
        assert [a.outcome for a in rep.attempts] == \
            ["transient", "transient", "ok"]
        assert rep.cache_source == "compiled"
        a = np.ones(8, np.float32)
        kernel(a, 8)
        assert a[0] == pytest.approx(2.0 + 3.125)

    def test_permanent_failure_falls_back_to_simulator(
            self, clean_state, tmp_path, monkeypatch):
        script = _fake_cc_always_fail(tmp_path)
        monkeypatch.setenv("REPRO_CC", f"gcc={script}")
        kernel = compile_staged(build_unique(7.25, "permfail_k"),
                                [array_of(FLOAT), INT32],
                                name="permfail_k", backend="auto").wait_native()
        assert kernel.backend == BackendKind.SIMULATED
        assert kernel.fallback_reason is not None
        rep = kernel.report
        assert rep is not None
        # the ladder was walked: both rungs, permanent each time
        assert len(rep.attempts) >= 2
        assert all(a.outcome == "permanent" for a in rep.attempts)
        # the simulator still computes the right answer
        a = np.ones(8, np.float32)
        kernel(a, 8)
        assert a[0] == pytest.approx(2.0 + 7.25)

    def test_permanent_failure_raises_for_native_backend(
            self, clean_state, tmp_path, monkeypatch):
        script = _fake_cc_always_fail(tmp_path)
        monkeypatch.setenv("REPRO_CC", f"gcc={script}")
        with pytest.raises(PermanentCompileError):
            compile_staged(build_unique(9.25, "permfail_native"),
                           [array_of(FLOAT), INT32],
                           name="permfail_native", backend="native")

    @pytest.mark.parametrize("breaks_o3",
                             ["o3-rejecting-cc", "compile.permanent"])
    def test_flag_ladder_downgrades_to_o2(self, clean_state, tmp_path,
                                          monkeypatch, breaks_o3):
        if breaks_o3 == "o3-rejecting-cc":
            script = _fake_cc_rejects_o3(tmp_path)
            monkeypatch.setenv("REPRO_CC", f"gcc={script}")
        else:
            # the host's gcc; set after _pin_faults cleared the variable
            monkeypatch.setenv("REPRO_FAULTS", "compile.permanent:n=1")
            faults.reset()
        obs.reset()
        kernel = compile_staged(build_unique(11.5, "o3less_k"),
                                [array_of(FLOAT), INT32],
                                name="o3less_k", backend="auto").wait_native()
        assert kernel.backend == BackendKind.NATIVE
        rep = kernel.report
        outcomes = [(a.rung, a.outcome) for a in rep.attempts]
        assert outcomes[0] == ("O3", "permanent")
        assert outcomes[-1] == ("O2", "ok")
        assert "-O2" in rep.flags
        if breaks_o3 == "compile.permanent":
            assert obs.get_registry().counter_value(
                "faults.fired", point="compile.permanent") == 1

    def test_failing_compiler_falls_through_to_the_next(
            self, clean_state, tmp_path, monkeypatch):
        """The chain is walked in its fixed order: an icc that always
        fails is tried first, and the next compiler links."""
        real_gcc = shutil.which("gcc")
        assert real_gcc, "suite requires gcc"
        icc = _fake_cc_always_fail(tmp_path)
        monkeypatch.setenv("REPRO_CC", f"icc={icc},gcc={real_gcc}")
        kernel = compile_staged(build_unique(5.5, "fallthrough_k"),
                                [array_of(FLOAT), INT32],
                                name="fallthrough_k", backend="native")
        assert kernel.backend == BackendKind.NATIVE
        attempts = kernel.report.attempts
        assert (attempts[0].compiler, attempts[0].outcome) == \
            ("icc", "permanent")
        assert (attempts[-1].compiler, attempts[-1].outcome) == \
            ("gcc", "ok")

    def test_compile_with_fallback_exhaustion_raises(self, tmp_path):
        bad = CompilerInfo("gcc", str(_fake_cc_always_fail(tmp_path)),
                           "fake 1")
        attempts = []
        with pytest.raises(PermanentCompileError, match="exhausted"):
            compile_with_fallback("int x = ;", tmp_path / "wd",
                                  frozenset(), compilers=[bad],
                                  attempts=attempts, max_retries=1)
        assert attempts and all(a.outcome == "permanent"
                                for a in attempts)

    def test_unrunnable_compiler_is_transient(self, tmp_path):
        ghost = CompilerInfo("gcc", str(tmp_path / "does-not-exist"),
                             "none")
        attempts = []
        sleeps = []
        with pytest.raises(PermanentCompileError):
            compile_with_fallback("int x;", tmp_path / "wd",
                                  frozenset(), compilers=[ghost],
                                  attempts=attempts, max_retries=2,
                                  sleep=sleeps.append)
        assert all(a.outcome == "transient" for a in attempts)
        # bounded exponential backoff between retries of one rung
        assert len(sleeps) >= 2 and sleeps[1] > sleeps[0]


def build_unique(salt: float, name: str):
    def fn(a, n):
        forloop(0, n, step=1, body=lambda i: array_update(
            a, i, array_apply(a, i) * 2.0 + salt))

    return fn


#: Takes and stamps every shard lock of the store at ``argv[1]``, says
#: ``locked`` and holds them until its stdin closes.
_HOLD_EVERY_SHARD_LOCK = """
import fcntl, os, sys
fds = []
for shard in range(256):
    path = os.path.join(sys.argv[1], f"{shard:02x}")
    os.makedirs(path, exist_ok=True)
    fd = os.open(os.path.join(path, ".lock"), os.O_RDWR | os.O_CREAT)
    fcntl.flock(fd, fcntl.LOCK_EX)
    os.write(fd, str(os.getpid()).encode())
    fds.append(fd)
print("locked", flush=True)
sys.stdin.read()
"""


@requires_compiler
class TestSmokeAndQuarantine:
    def _compile_broken_so(self, tmp_path: Path, symbol: str,
                           crash: bool) -> bytes:
        body = "*(volatile int *)0 = 1;" if crash else ""
        src = tmp_path / "broken.c"
        src.write_text(
            f"void {symbol}(float *a, int n) {{ {body} }}\n")
        out = tmp_path / "broken.so"
        subprocess.run(["gcc", "-shared", "-fPIC", str(src), "-o",
                        str(out)], check=True, capture_output=True)
        return out.read_bytes()

    def _poison_disk_cache(self, cache_dir: Path, so_bytes: bytes) -> None:
        """Swap the (single) cached artifact for a broken one with a
        *valid* checksum — corruption that only the smoke-run catches."""
        import hashlib

        metas = list(cache_dir.glob("*/*.json"))
        assert len(metas) == 1
        meta = json.loads(metas[0].read_text())
        meta["checksum"] = hashlib.sha256(so_bytes).hexdigest()
        metas[0].with_name(metas[0].stem + ".so").write_bytes(so_bytes)
        metas[0].write_text(json.dumps(meta))

    def _poisoned_pipeline_kernel(self, clean_state, salt, name,
                                  crash):
        fn = build_unique(salt, name)
        types = [array_of(FLOAT), INT32]
        first = compile_staged(fn, types, name=name, backend="auto").wait_native()
        assert first.backend == BackendKind.NATIVE
        symbol = first._native.symbol
        broken = self._compile_broken_so(clean_state.parent, symbol,
                                         crash=crash)
        self._poison_disk_cache(clean_state, broken)
        default_cache.clear()
        clear_session_state()
        return compile_staged(fn, types, name=name, backend="auto").wait_native()

    def test_segfaulting_kernel_is_contained(self, clean_state):
        kernel = self._poisoned_pipeline_kernel(
            clean_state, 13.25, "segv_k", crash=True)
        # the host process survived, the kernel fell back to the
        # simulator, and the reason names the quarantine
        assert kernel.backend == BackendKind.SIMULATED
        assert "quarantined" in kernel.fallback_reason
        assert "SIGSEGV" in kernel.fallback_reason
        assert kernel.report.smoke == "crashed"
        a = np.ones(8, np.float32)
        kernel(a, 8)
        assert a[0] == pytest.approx(2.0 + 13.25)
        assert quarantined_kernels()

    def test_mismatching_kernel_is_quarantined(self, clean_state):
        kernel = self._poisoned_pipeline_kernel(
            clean_state, 17.75, "lying_k", crash=False)
        assert kernel.backend == BackendKind.SIMULATED
        assert "quarantined" in kernel.fallback_reason
        assert kernel.report.smoke == "mismatch"

    def test_quarantine_short_circuits_recompiles(self, clean_state):
        self._poisoned_pipeline_kernel(clean_state, 19.5, "q_k",
                                       crash=True)
        default_cache.clear()  # memory tier only; quarantine survives
        fn = build_unique(19.5, "q_k")
        staged = stage_function(fn, [array_of(FLOAT), INT32], "q_k")
        with pytest.raises(KernelQuarantinedError) as exc:
            acquire_native(staged)
        # refused before any compiler ran
        assert exc.value.report.compiler_invocations == 0

    def test_quarantine_falls_back_when_the_cache_is_wedged(
            self, clean_state, monkeypatch):
        """Every shard lock is held by a live process, so dropping the
        crashed artifact from the store times out; the kernel is still
        quarantined and served by the simulator."""
        monkeypatch.setattr(cache_mod, "SHARD_LOCK_TIMEOUT_S", 0.05)
        default_cache.disk   # opened on an absent root: no sweep to wait out
        wedge = subprocess.Popen(
            [sys.executable, "-c", _HOLD_EVERY_SHARD_LOCK,
             str(clean_state)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            assert wedge.stdout.readline().strip() == "locked"
            monkeypatch.setenv("REPRO_FAULTS", "smoke.kill_child:n=1")
            kernel = compile_staged(build_unique(37.5, "wedged_k"),
                                    [array_of(FLOAT), INT32],
                                    name="wedged_k",
                                    backend="auto").wait_native()
        finally:
            wedge.stdin.close()
            wedge.wait(timeout=30)
        assert kernel.backend == BackendKind.SIMULATED
        assert kernel.fallback_reason.startswith("quarantined: crashed")
        a = np.ones(8, np.float32)
        kernel(a, 8)
        assert a[0] == pytest.approx(2.0 + 37.5)

    def test_healthy_kernel_smoke_passes(self, clean_state):
        kernel = compile_staged(build_unique(23.5, "healthy_k"),
                                [array_of(FLOAT), INT32],
                                name="healthy_k", backend="auto").wait_native()
        assert kernel.backend == BackendKind.NATIVE
        assert kernel.report.smoke == "passed"


@requires_compiler
class TestDiskCache:
    def test_disk_hit_after_memory_eviction(self, clean_state):
        fn = build_unique(29.5, "disk_k")
        types = [array_of(FLOAT), INT32]
        k1 = compile_staged(fn, types, name="disk_k", backend="auto").wait_native()
        assert k1.report.cache_source == "compiled"
        default_cache.clear()
        clear_session_state()
        k2 = compile_staged(fn, types, name="disk_k", backend="auto").wait_native()
        assert k2.backend == BackendKind.NATIVE
        assert k2.report.cache_source == "disk"
        assert k2.report.compiler_invocations == 0

    def test_second_process_hits_disk_cache(self, clean_state):
        env = dict(os.environ,
                   REPRO_CACHE_DIR=str(clean_state),
                   PYTHONPATH=f"{REPO_ROOT}/src:{REPO_ROOT}")
        cmd = [sys.executable, "-c",
               "from tests._resilience_kernel import main; main()"]
        reports = []
        for _ in range(2):
            out = subprocess.run(cmd, env=env, cwd=REPO_ROOT,
                                 capture_output=True, text=True,
                                 timeout=180)
            assert out.returncode == 0, out.stderr
            reports.append(json.loads(out.stdout.strip().splitlines()[-1]))
        assert reports[0]["backend"] == "native"
        assert reports[0]["cache_source"] == "compiled"
        assert reports[1]["backend"] == "native"
        # no compiler subprocess spawned the second time
        assert reports[1]["cache_source"] == "disk"
        assert reports[1]["invocations"] == 0

    def test_code_generator_change_is_a_miss(self, clean_state,
                                             monkeypatch):
        """The disk key covers the emitted C: after a code-generator
        change a store filled before it serves no stale library."""
        import repro.codegen.native as native_mod

        fn = build_unique(41.5, "codegen_k")
        types = [array_of(FLOAT), INT32]
        k1 = compile_staged(fn, types, name="codegen_k",
                            backend="auto").wait_native()
        assert k1.report.cache_source == "compiled"
        default_cache.clear()
        clear_session_state()
        emit = native_mod.emit_c_source
        monkeypatch.setattr(
            native_mod, "emit_c_source",
            lambda *a, **k: emit(*a, **k) + "/* edited generator */\n")
        k2 = compile_staged(fn, types, name="codegen_k",
                            backend="auto").wait_native()
        assert k2.backend == BackendKind.NATIVE
        assert k2.report.cache_source == "compiled"
        assert k2.c_source.endswith("/* edited generator */\n")

    def test_corrupted_entry_recompiled_not_loaded(self, clean_state):
        fn = build_unique(31.5, "corrupt_k")
        types = [array_of(FLOAT), INT32]
        compile_staged(fn, types, name="corrupt_k", backend="auto").wait_native()
        # corrupt the artifact *without* fixing the checksum
        sos = list(clean_state.glob("*/*.so"))
        assert len(sos) == 1
        sos[0].write_bytes(b"\x7fELFgarbage")
        default_cache.clear()
        clear_session_state()
        k2 = compile_staged(fn, types, name="corrupt_k", backend="auto").wait_native()
        assert k2.backend == BackendKind.NATIVE
        assert k2.report.cache_source == "compiled"  # silent miss
        a = np.ones(8, np.float32)
        k2(a, 8)
        assert a[0] == pytest.approx(2.0 + 31.5)

    def test_atomic_layout_and_lru_bound(self, tmp_path):
        disk = DiskKernelCache(root=tmp_path / "d", max_entries=2)
        for i in range(3):
            disk.put(f"k{i:032d}", f"blob{i}".encode(), {"i": i})
        assert len(disk) == 2
        assert disk.get("k" + "0".zfill(31) + "0") is None  # evicted
        hit = disk.get(f"k{2:032d}")
        assert hit is not None and hit.meta["i"] == 2
        # no temp droppings left behind by the write-then-rename; the
        # only dotfiles are the per-shard advisory locks
        droppings = [p for p in (tmp_path / "d").rglob(".*")
                     if p.name != ".lock"]
        assert not droppings
        # entries live in two-hex-char shard directories
        assert hit.so_path.parent.name == f"k{2:032d}"[:2]

    def test_bounds_default_to_the_module_constants(self, tmp_path,
                                                    monkeypatch):
        """A store opened without bounds takes them from
        ``DISK_CACHE_ENTRIES`` and ``SHARD_LOCK_TIMEOUT_S`` as it
        opens."""
        monkeypatch.setattr(cache_mod, "DISK_CACHE_ENTRIES", 2)
        monkeypatch.setattr(cache_mod, "SHARD_LOCK_TIMEOUT_S", 0.25)
        disk = DiskKernelCache(root=tmp_path / "d")
        assert disk.lock_timeout == 0.25
        for i in range(3):
            disk.put(f"k{i:032d}", f"blob{i}".encode(), {"i": i})
        assert len(disk) == 2
        assert disk.get(f"k{0:032d}") is None               # evicted

    def test_checksum_validation(self, tmp_path):
        disk = DiskKernelCache(root=tmp_path / "d")
        key = "a" * 32
        entry = disk.put(key, b"good bytes", {})
        entry.write_bytes(b"bad bytes")
        assert disk.get(key) is None
        assert disk.misses == 1
        # the corrupt entry was dropped entirely
        assert len(disk) == 0


class TestKernelCacheThreadSafety:
    def test_concurrent_get_put(self):
        from repro.core.cache import KernelCache

        cache = KernelCache(maxsize=64)
        sfs = [_staged(float(i), f"mt{i}") for i in range(8)]
        errors = []

        def worker():
            try:
                for _ in range(50):
                    for i, sf in enumerate(sfs):
                        if cache.get_for(sf, "simulated") is None:
                            cache.put_for(sf, "simulated", f"k{i}")
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) == 8
        total_gets = 8 * 50 * 8
        assert cache.hits + cache.misses == total_gets


class TestRequiredIsas:
    """A kernel's ISAs are the CPUIDs the generator stamped on its
    intrinsics' classes, whichever spec version its eDSL came from."""

    @staticmethod
    def _fma_kernel(version: str):
        from repro.isa import load_isas

        cir = load_isas("AVX", "FMA", version=version)

        def fma(a):
            v = cir._mm256_loadu_ps(a, 0)
            cir._mm256_storeu_ps(a, cir._mm256_fmadd_ps(v, v, v), 0)

        return stage_function(fma, [array_of(FLOAT)], "fma_v")

    @pytest.mark.parametrize("version", ["3.2.2", "3.3.16", "3.4"])
    def test_each_spec_version_stamps_its_eDSL(self, version):
        from repro.codegen.native import required_isas

        assert required_isas(self._fma_kernel(version)) == {"AVX", "FMA"}

    def test_a_dead_intrinsic_adds_no_isa(self):
        """Codegen emits the scheduled body only, so a dead AVX-512
        intrinsic must not put AVX-512 into the flags or the host
        check."""
        from repro.codegen.native import required_isas
        from repro.isa import load_isas

        cir = load_isas("AVX", "AVX-512")

        def add_dead512(a):
            v = cir._mm256_loadu_ps(a, 0)
            cir._mm512_set1_ps(1.0)   # dead
            cir._mm256_storeu_ps(a, cir._mm256_add_ps(v, v), 0)

        staged = stage_function(add_dead512, [array_of(FLOAT)], "dead512")
        assert required_isas(staged) == {"AVX"}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestSmokeTimeout:
    @staticmethod
    def _hung_artifact(monkeypatch):
        """An artifact whose smoke-run child sleeps for a minute."""
        from repro.codegen.compiler import inspect_system
        from repro.codegen.native import NativeArtifact

        def hang(*args, **kwargs):
            time.sleep(60)
            return 0

        monkeypatch.setattr(resilience, "_child_smoke", hang)
        # the child never links: the library need not exist
        return NativeArtifact(
            staged=_staged(3.5, "hang_k"), c_source="",
            so_path=Path("unbuilt.so"), symbol="repro_native_hang_k",
            isas=frozenset(), system=inspect_system())

    def test_hung_child_is_killed_without_spinning(self, monkeypatch):
        forked: list[int] = []
        real_fork = os.fork

        def fork():
            pid = real_fork()
            if pid:
                forked.append(pid)
            return pid

        artifact = self._hung_artifact(monkeypatch)
        monkeypatch.setattr(os, "fork", fork)
        start = time.thread_time()
        verdict = resilience.smoke_test_artifact(artifact, timeout=0.5)
        spent = time.thread_time() - start
        assert verdict.status == "timeout"
        assert len(forked) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(forked[0], os.WNOHANG)     # already reaped
        assert spent < 0.25, f"the wait burned {spent:.2f}s of CPU"

    def test_the_module_constant_is_the_default_bound(self, monkeypatch):
        """Without ``timeout=`` the run is bounded by
        :data:`~repro.core.resilience.SMOKE_TIMEOUT_S`, read at call
        time."""
        artifact = self._hung_artifact(monkeypatch)
        monkeypatch.setattr(resilience, "SMOKE_TIMEOUT_S", 0.3)
        start = time.monotonic()
        verdict = resilience.smoke_test_artifact(artifact)
        assert verdict.status == "timeout"
        assert time.monotonic() - start < 10


class TestValidateShadowCopies:
    def test_validate_does_not_mutate_noncontiguous_view(self):
        fn = build_unique(37.5, "val_k")
        kernel = compile_staged(fn, [array_of(FLOAT), INT32],
                                name="val_k", backend="simulated")
        backing = np.ones(16, np.float32)
        view = backing[::2]
        assert not view.flags["C_CONTIGUOUS"]
        kernel.validate(view, 8)
        # the simulator wrote only into the shadow copy
        assert np.array_equal(backing, np.ones(16, np.float32))
