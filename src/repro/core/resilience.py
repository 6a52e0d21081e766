"""Fault tolerance for the compile-and-link path.

The paper's Section 3.5 names the two weak points of linking generated
SIMD code into a live managed runtime: invalid code faults the host
process ("it is the responsibility of the developer to write valid SIMD
code"), and code generation itself can fail or stall.  This module is
the harness layer around both:

* **Compiler fallback** — :func:`repro.codegen.compiler.compile_with_fallback`
  retries transient failures with bounded exponential backoff and
  degrades down the icc→gcc→clang chain and a flag ladder; every
  invocation lands in a :class:`CompileReport`.
* **Crash containment** — before a freshly built (or disk-cached)
  artifact is linked into the host, :func:`acquire_native` smoke-runs it
  once in a forked child against simulator-validated shadow arguments
  and compares the results with the bit-accurate simulator.  A SIGSEGV,
  hang or mismatch quarantines the kernel by graph hash for the rest of
  the session and the pipeline falls back to the simulator backend.
* **Persistent caching** — validated artifacts live in the disk tier of
  :class:`repro.core.cache.DiskKernelCache`, keyed by ``(digest of the
  emitted C, compiler version, flags, ISA set)``, so a second process
  skips the compiler entirely (visible as ``cache_source == "disk"``
  with zero attempts in the report).  Processes that miss the same
  kernel at once compile it once: the first takes the kernel's build
  lock, the others wait and then hit.

Exception taxonomy: :class:`TransientCompileError` (retryable),
:class:`PermanentCompileError` (ladder moves on), and
:class:`KernelQuarantinedError` (this session will not link the kernel).
"""

from __future__ import annotations

import faulthandler
import hashlib
import os
import select
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

import numpy as np

import repro.obs as obs
from repro.codegen.compiler import (
    CompileAttempt,
    CompileError,
    CompilerInfo,
    PermanentCompileError,
    SystemInfo,
    TransientCompileError,
    compiler_chain,
    flag_ladder,
    inspect_system,
)
from repro.codegen.native import (
    NativeArtifact,
    NativeKernel,
    NativeLinkError,
    build_native,
    call_raw_symbol,
    check_kernel_isas,
    export_source,
    link_native,
    load_kernel,
    required_isas,
)
from repro.core import faults
from repro.core.cache import DiskKernelCache, default_cache, graph_hash
from repro.lms.staging import StagedFunction
from repro.lms.types import ArrayType, ScalarType
from repro.simd.machine import SimdMachine

__all__ = [
    "COMPILE_DEADLINE_S",
    "CompileReport",
    "KernelQuarantinedError",
    "PermanentCompileError",
    "TransientCompileError",
    "acquire_native",
    "clear_session_state",
    "quarantined_kernels",
]


@dataclass
class CompileReport:
    """Everything that happened while acquiring one native kernel."""

    graph_hash: str
    attempts: list[CompileAttempt] = field(default_factory=list)
    cache_source: str | None = None   # "disk" | "compiled" | None
    smoke: str = "not-run"
    fallback_reason: str | None = None
    compiler: str | None = None
    compiler_version: str | None = None
    flags: tuple[str, ...] = ()

    @property
    def compiler_invocations(self) -> int:
        return len(self.attempts)

    def to_dict(self) -> dict:
        return {
            "graph_hash": self.graph_hash,
            "attempts": [a.to_dict() for a in self.attempts],
            "cache_source": self.cache_source,
            "smoke": self.smoke,
            "fallback_reason": self.fallback_reason,
            "compiler": self.compiler,
            "compiler_version": self.compiler_version,
            "flags": list(self.flags),
        }


class KernelQuarantinedError(RuntimeError):
    """This kernel crashed or mis-computed in its smoke-run (now or
    earlier this session); the runtime refuses to link it."""

    def __init__(self, graph_hash_: str, reason: str,
                 report: CompileReport | None = None) -> None:
        super().__init__(
            f"kernel {graph_hash_} is quarantined: {reason}")
        self.graph_hash = graph_hash_
        self.reason = reason
        self.report = report


# Session state: kernels proven dangerous, artifacts proven safe.
_quarantined: dict[str, str] = {}
_trusted: set[tuple[str, str]] = set()
_state_lock = threading.Lock()


def quarantine(graph_hash_: str, reason: str) -> None:
    with _state_lock:
        _quarantined[graph_hash_] = reason
    obs.counter("quarantine.events")
    obs.event("quarantine", graph_hash=graph_hash_, reason=reason)


def quarantined_kernels() -> dict[str, str]:
    """Graph hash → reason for every kernel quarantined this session."""
    with _state_lock:
        return dict(_quarantined)


def clear_session_state() -> None:
    """Forget quarantines and smoke-trusted artifacts, after draining
    any pending background compiles and resetting the tiered manager's
    counters (test hook; keeps suites hermetic under ``REPRO_TIER``).

    Order matters: the manager drains first so an in-flight compile
    cannot quarantine a kernel *after* the registry is cleared.
    """
    from repro.core.tiered import default_manager
    default_manager.reset()
    with _state_lock:
        _quarantined.clear()
        _trusted.clear()
    faults.reset()


# ---------------------------------------------------------------------------
# Shadow arguments: small deterministic inputs the simulator validates.

_SHADOW_LEN = 64
_SHADOW_BOUNDS = (64, 16, 8, 1, 0)


def _candidate_shadow_args(staged: StagedFunction
                           ) -> Iterator[list[Any]]:
    """Candidate argument sets: arrays of ``_SHADOW_LEN`` elements and a
    descending ladder of integer-scalar values (loop bounds, usually).
    The first set the simulator executes cleanly is used for the smoke
    run; if it raises (e.g. out-of-bounds for that bound), try smaller.
    """
    for bound in _SHADOW_BOUNDS:
        args: list[Any] = []
        ok = True
        for i, p in enumerate(staged.params):
            tp = p.tp
            if isinstance(tp, ArrayType):
                elem = tp.elem
                if elem.is_float:
                    arr = ((np.arange(_SHADOW_LEN) % 7 + 1 + i)
                           .astype(elem.np_dtype) / elem.np_dtype.type(4))
                elif elem.name == "Boolean":
                    arr = (np.arange(_SHADOW_LEN) % 2 == 0)
                else:
                    arr = ((np.arange(_SHADOW_LEN) + i) % 5
                           ).astype(elem.np_dtype)
                args.append(np.ascontiguousarray(arr))
            elif isinstance(tp, ScalarType):
                if tp.is_float:
                    args.append(1.5)
                elif tp.name == "Boolean":
                    args.append(True)
                else:
                    args.append(bound)
            else:
                ok = False
                break
        if ok:
            yield args


def _copy_args(args: Sequence[Any]) -> list[Any]:
    return [np.array(a, copy=True) if isinstance(a, np.ndarray) else a
            for a in args]


def _validated_shadow_args(staged: StagedFunction,
                           machine: SimdMachine | None = None
                           ) -> list[Any] | None:
    """The first candidate set the bit-accurate simulator accepts."""
    if machine is None:
        machine = SimdMachine()
    for args in _candidate_shadow_args(staged):
        try:
            machine.run(staged, _copy_args(args))
        except Exception:  # noqa: BLE001 - any failure disqualifies
            continue
        return args
    return None


def _scalars_match(tp, got: Any, want: Any) -> bool:
    if not isinstance(tp, ScalarType):
        return True
    a = tp.np_dtype.type(got)
    b = tp.np_dtype.type(want)
    if tp.is_float and np.isnan(a) and np.isnan(b):
        return True
    return a.tobytes() == b.tobytes()


def _arrays_match(a: np.ndarray, b: np.ndarray) -> bool:
    if np.issubdtype(a.dtype, np.floating):
        return np.array_equal(a, b, equal_nan=True)
    return np.array_equal(a, b)


# ---------------------------------------------------------------------------
# The forked smoke-run.

@dataclass
class SmokeVerdict:
    status: str          # "passed" | "skipped" | "crashed" | "mismatch"
    #                      | "timeout" | "child-error"
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status in ("crashed", "mismatch", "timeout")


#: Seconds before a smoke-run child is killed and its kernel
#: quarantined.  Read at call time, so tests may patch it.
SMOKE_TIMEOUT_S = 30.0
#: How often the smoke run's blocking wait rechecks ``waitpid``.
_SMOKE_POLL_S = 0.005


def _child_smoke(artifact: NativeArtifact, shadow: list[Any],
                 expected_args: list[Any], expected_ret: Any,
                 write_fd: int) -> int:
    """Runs in the forked child: link, run, compare.  Returns exit code
    0 (match), 3 (mismatch) or 4 (infrastructure error); a crash in the
    native code never returns at all — that is the point of the fork.
    """
    try:
        # injected mid-smoke crash: the fork is the containment
        # boundary this exercises — the parent sees WIFSIGNALED
        faults.maybe_kill("smoke.kill_child")
        # faulthandler is imported at module scope: the child must not
        # touch the import machinery (a lock another thread may hold at
        # fork time, now that smoke-runs happen on compile workers).
        if faulthandler.is_enabled():
            # a crash here is expected and contained; don't let the
            # inherited handler dump the parent's stack to stderr
            faulthandler.disable()
        # the glue that will serve calls, loaded without the import
        # statement (see load_kernel)
        unlinkable: NativeLinkError | None = None
        try:
            got = load_kernel(artifact)(*shadow)
        except NativeLinkError as exc:
            # A library without the glue (replaced under a valid
            # checksum) can never link, but its kernel symbol is still
            # probed: a crash or a wrong result quarantines it.
            unlinkable = exc
            got = call_raw_symbol(artifact, shadow)
        problems: list[str] = []
        for param, have, want in zip(artifact.staged.params, shadow,
                                     expected_args):
            if isinstance(have, np.ndarray) and \
                    not _arrays_match(have, want):
                problems.append(f"array {param!r} diverges")
        if not _scalars_match(artifact.staged.result_type, got,
                              expected_ret):
            problems.append(
                f"return value {got!r} != simulator {expected_ret!r}")
        if problems:
            os.write(write_fd, "; ".join(problems).encode()[:512])
            return 3
        if unlinkable is not None:
            os.write(write_fd, str(unlinkable).encode()[:512])
            return 4
        return 0
    except BaseException as exc:  # noqa: BLE001 - child must not unwind
        try:
            os.write(write_fd, f"{type(exc).__name__}: {exc}"
                     .encode()[:512])
        except OSError:
            pass
        return 4


def smoke_test_artifact(artifact: NativeArtifact,
                        timeout: float | None = None) -> SmokeVerdict:
    """Run the artifact once in a forked child on simulator-validated
    shadow arguments and compare against :meth:`run_simulated` output.

    The host process never maps the library: a SIGSEGV, abort or hang
    kills only the child.  Platforms without ``os.fork`` skip.
    """
    if not hasattr(os, "fork"):
        return SmokeVerdict("skipped", "os.fork unavailable")
    # One machine validates and produces the expectation: the staged
    # function's compiled executor program is built once and shared.
    machine = SimdMachine()
    shadow = _validated_shadow_args(artifact.staged, machine)
    if shadow is None:
        return SmokeVerdict(
            "skipped", "no simulator-validated shadow arguments")
    expected_args = _copy_args(shadow)
    expected_ret = machine.run(artifact.staged, expected_args)
    if timeout is None:
        timeout = SMOKE_TIMEOUT_S

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 4
        try:
            os.close(read_fd)
            code = _child_smoke(artifact, shadow, expected_args,
                                expected_ret, write_fd)
        finally:
            os._exit(code)
    os.close(write_fd)
    status: int | None = None
    detail = b""
    try:
        deadline = time.monotonic() + timeout
        # Block on the result pipe: it is readable when the child writes
        # its detail and at EOF once the child exits.  waitpid is
        # rechecked every few ms, so a write end inherited by a
        # concurrent fork cannot stall the wait.
        while True:
            wpid, wstatus = os.waitpid(pid, os.WNOHANG)
            if wpid == pid:
                status = wstatus
                break
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
                os.waitpid(pid, 0)
                break
            ready, _, _ = select.select([read_fd], [], [],
                                        min(remaining, _SMOKE_POLL_S))
            if ready:
                chunk = os.read(read_fd, 4096)
                detail += chunk
                if not chunk:
                    # EOF: the child has exited and is being reaped
                    status = os.waitpid(pid, 0)[1]
                    break
        try:
            while select.select([read_fd], [], [], 0)[0]:
                chunk = os.read(read_fd, 4096)
                if not chunk:
                    break
                detail += chunk
        except OSError:
            pass
    finally:
        os.close(read_fd)

    if status is None:
        return SmokeVerdict("timeout",
                            f"smoke-run exceeded {timeout}s; child killed")
    if os.WIFSIGNALED(status):
        sig = os.WTERMSIG(status)
        try:
            name = signal.Signals(sig).name
        except ValueError:
            name = f"signal {sig}"
        return SmokeVerdict("crashed", f"native smoke-run died with {name}")
    code = os.WEXITSTATUS(status)
    text = detail.decode(errors="replace")
    if code == 0:
        return SmokeVerdict("passed")
    if code == 3:
        return SmokeVerdict("mismatch", text or "results diverge")
    return SmokeVerdict("child-error", text or f"child exit {code}")


# ---------------------------------------------------------------------------
# The acquisition path: disk cache → ladder compile → smoke → link.

#: Per-kernel wall-clock budget of one compile, in seconds.  The tiered
#: manager turns it into an absolute deadline threaded down the whole
#: ladder walk, so a hung compiler never wedges a worker slot longer
#: than this; a compile without a deadline of its own waits at most
#: this long on another process's build of the same kernel.  Read at
#: call time, so tests may patch it.
COMPILE_DEADLINE_S = 300.0


def _disk_lookup(disk: DiskKernelCache, staged: StagedFunction,
                 rungs: Sequence[tuple[CompilerInfo, list[str], str]],
                 isas: frozenset[str], system: SystemInfo,
                 report: CompileReport) -> NativeArtifact | None:
    """Probe the disk tier under every ``(compiler, flags, key)`` the
    ladder could produce, preferred configuration first."""
    with obs.span("disk_probe") as probe_span:
        for cc, flags, key in rungs:
            entry = disk.get(key)
            if entry is None:
                continue
            meta = entry.meta
            report.cache_source = "disk"
            report.compiler = cc.name
            report.compiler_version = cc.version
            report.flags = tuple(flags)
            probe_span.set("outcome", "hit")
            obs.counter("acquire.disk_probe", outcome="hit")
            return NativeArtifact(
                staged=staged,
                c_source=meta.get("c_source", ""),
                so_path=entry.so_path,
                symbol=meta.get("symbol", ""),
                isas=frozenset(meta.get("isas", sorted(isas))),
                system=system, compiler=cc, flags=tuple(flags))
        probe_span.set("outcome", "miss")
    obs.counter("acquire.disk_probe", outcome="miss")
    return None


def _artifact_key(digest: str, artifact: NativeArtifact) -> str:
    return DiskKernelCache.artifact_key(
        digest, artifact.compiler.version, artifact.flags, artifact.isas)


def _compile(staged: StagedFunction, source: str,
             ccs: Sequence[CompilerInfo], report: CompileReport,
             max_retries: int | None,
             deadline: float | None) -> NativeArtifact:
    """Walk the compiler ladder over ``source``, recording the attempts
    and the outcome in ``report``."""
    try:
        artifact = build_native(staged, check_isas=False, compilers=ccs,
                                attempts=report.attempts,
                                max_retries=max_retries,
                                deadline=deadline, source=source)
    except CompileError as err:
        report.fallback_reason = str(err)
        err.report = report  # type: ignore[attr-defined]
        raise
    report.cache_source = "compiled"
    if artifact.compiler is not None:
        report.compiler = artifact.compiler.name
        report.compiler_version = artifact.compiler.version
        report.flags = artifact.flags
    return artifact


def _disk_store(disk: DiskKernelCache, artifact: NativeArtifact,
                ghash: str, digest: str) -> None:
    if artifact.compiler is None:
        return
    try:
        blob = artifact.so_path.read_bytes()
    except OSError:
        return
    key = _artifact_key(digest, artifact)
    meta = {
        "graph_hash": ghash,
        "symbol": artifact.symbol,
        "c_source": artifact.c_source,
        "isas": sorted(artifact.isas),
        "compiler": artifact.compiler.name,
        "compiler_version": artifact.compiler.version,
        "flags": list(artifact.flags),
        "created": time.time(),
    }
    try:
        disk.put(key, blob, meta)
    except OSError:
        pass  # a full or read-only cache never blocks compilation


def _artifact_token(ghash: str, so_path) -> tuple[str, str]:
    try:
        digest = hashlib.sha256(so_path.read_bytes()).hexdigest()
    except OSError:
        digest = "unreadable"
    return (ghash, digest)


def acquire_native(staged: StagedFunction, *,
                   system: SystemInfo | None = None,
                   compilers: Sequence[CompilerInfo] | None = None,
                   max_retries: int | None = None,
                   deadline: float | None = None,
                   ) -> tuple[NativeKernel, CompileReport]:
    """Produce a trusted, linked native kernel — or refuse loudly.

    The full resilience path: quarantine check, C emission, disk-cache
    probe, then on a miss the kernel's build lock, a second probe, and
    only if the kernel is still missing a ladder compile (with retries)
    and disk-cache store; then, with the lock released, a forked
    smoke-run and only then loading its extension module into this
    process.  ``deadline`` (absolute ``time.monotonic()``) bounds the
    compile ladder — see :class:`repro.codegen.compiler.CompileDeadlineError`
    — and the wait for the build lock; without one only the wait is
    bounded, by :data:`COMPILE_DEADLINE_S` from now.  A waiter past its
    bound, or a store whose lock file cannot be taken, compiles unlocked.
    Raises :class:`KernelQuarantinedError`,
    :class:`PermanentCompileError` / :class:`TransientCompileError`
    (both :class:`CompileError`) or :class:`NativeLinkError`; each
    carries the ``report`` attribute.
    """
    system = system or inspect_system()
    ccs = list(compilers) if compilers is not None \
        else list(compiler_chain(system))
    ghash = graph_hash(staged)
    report = CompileReport(graph_hash=ghash)

    with obs.span("acquire", kernel=staged.name,
                  graph_hash=ghash) as acq_span:
        with _state_lock:
            reason = _quarantined.get(ghash)
        if reason is not None:
            report.fallback_reason = f"quarantined: {reason}"
            raise KernelQuarantinedError(ghash, reason, report)

        if not ccs:
            exc: Exception = NativeLinkError("no C compiler available")
            exc.report = report  # type: ignore[attr-defined]
            raise exc

        isas = required_isas(staged)
        try:
            check_kernel_isas(staged.name, isas, system, ccs)
            source = export_source(staged)
        except NativeLinkError as err:
            err.report = report  # type: ignore[attr-defined]
            raise
        digest = hashlib.sha256(source.encode()).hexdigest()

        disk = default_cache.disk
        rungs = [(cc, flags, DiskKernelCache.artifact_key(
                     digest, cc.version, flags, isas))
                 for cc in ccs
                 for _rung, flags in flag_ladder(cc, isas)]
        artifact = _disk_lookup(disk, staged, rungs, isas, system, report)
        if artifact is None:
            wait_until = deadline if deadline is not None \
                else time.monotonic() + COMPILE_DEADLINE_S
            with disk.build_lock(rungs[0][2], wait_until) as held:
                if held:
                    artifact = _disk_lookup(disk, staged, rungs, isas,
                                            system, report)
                if artifact is None:
                    artifact = _compile(staged, source, ccs, report,
                                        max_retries, deadline)
                    _disk_store(disk, artifact, ghash, digest)
        acq_span.set("cache_source", report.cache_source)

        with obs.span("smoke", kernel=staged.name) as smoke_span:
            token = _artifact_token(ghash, artifact.so_path)
            with _state_lock:
                already_trusted = token in _trusted
            if already_trusted:
                report.smoke = "trusted"
            else:
                verdict = smoke_test_artifact(artifact)
                report.smoke = verdict.status
                if verdict.failed:
                    reason = f"{verdict.status}: {verdict.detail}" \
                        if verdict.detail else verdict.status
                    smoke_span.set("verdict", report.smoke)
                    obs.counter("smoke.verdicts", status=report.smoke)
                    quarantine(ghash, reason)
                    if artifact.compiler is not None:
                        # never serve a condemned artifact to others;
                        # a wedged cache does not stop the fallback
                        try:
                            disk.invalidate(_artifact_key(digest, artifact))
                        except OSError:
                            pass
                    report.fallback_reason = f"quarantined: {reason}"
                    raise KernelQuarantinedError(ghash, reason, report)
                if verdict.status == "passed":
                    with _state_lock:
                        _trusted.add(token)
            smoke_span.set("verdict", report.smoke)
        obs.counter("smoke.verdicts", status=report.smoke)

        with obs.span("link", kernel=staged.name):
            try:
                native = link_native(artifact)
            except NativeLinkError as err:
                err.report = report  # type: ignore[attr-defined]
                raise
        return native, report
