"""System inspection and native compiler discovery.

The runtime half of the paper's Figure 3: inspect the CPU (the CPUID
analog reads ``/proc/cpuinfo`` on Linux and falls back to a conservative
baseline), detect available C compilers (icc, gcc, llvm/clang — in the
paper's preference order), and derive the best flag mix for each.
"""

from __future__ import annotations

import os
import platform
import re
import shutil
import subprocess
import sys
import sysconfig
import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

import repro.obs as obs
from repro.core import faults
from repro.core.procutil import kill_process_group

# Map CPU feature flags (as /proc/cpuinfo spells them) to ISA names.
_FLAG_TO_ISA = {
    "mmx": "MMX", "sse": "SSE", "sse2": "SSE2", "pni": "SSE3",
    "ssse3": "SSSE3", "sse4_1": "SSE4.1", "sse4_2": "SSE4.2",
    "avx": "AVX", "avx2": "AVX2", "fma": "FMA", "f16c": "FP16C",
    "rdrand": "RDRAND", "rdseed": "RDSEED", "aes": "AES", "sha_ni": "SHA",
    "pclmulqdq": "PCLMULQDQ", "popcnt": "POPCNT", "abm": "LZCNT",
    "bmi1": "BMI1", "bmi2": "BMI2",
    "avx512f": "AVX512F", "avx512bw": "AVX512BW", "avx512cd": "AVX512CD",
    "avx512dq": "AVX512DQ", "avx512vl": "AVX512VL",
    "avx512ifma": "AVX512IFMA52", "avx512vbmi": "AVX512VBMI",
}

# ISA -> gcc/clang machine flag.
_ISA_TO_FLAG = {
    "SSE": "-msse", "SSE2": "-msse2", "SSE3": "-msse3", "SSSE3": "-mssse3",
    "SSE4.1": "-msse4.1", "SSE4.2": "-msse4.2", "AVX": "-mavx",
    "AVX2": "-mavx2", "FMA": "-mfma", "FP16C": "-mf16c",
    "RDRAND": "-mrdrnd", "RDSEED": "-mrdseed", "AES": "-maes",
    "SHA": "-msha", "PCLMULQDQ": "-mpclmul", "POPCNT": "-mpopcnt",
    "LZCNT": "-mlzcnt", "BMI1": "-mbmi", "BMI2": "-mbmi2",
    "AVX512F": "-mavx512f", "AVX512BW": "-mavx512bw",
    "AVX512CD": "-mavx512cd", "AVX512DQ": "-mavx512dq",
    "AVX512VL": "-mavx512vl",
}


@dataclass(frozen=True)
class CompilerInfo:
    """One detected C compiler."""

    name: str            # "icc" | "gcc" | "clang"
    path: str
    version: str

    def flags_for(self, isas: frozenset[str]) -> list[str]:
        # -ffp-contract=off: FMA contraction must be the programmer's
        # explicit choice (the fmadd intrinsics), so the compiled code
        # is bit-identical to the staged graph's semantics.
        # -fwrapv: staged integer arithmetic has JVM-style two's
        # complement wraparound; signed overflow must not be UB.
        flags = ["-O3", "-shared", "-fPIC", "-fno-strict-aliasing",
                 "-ffp-contract=off", "-fwrapv"]
        if self.name == "icc":
            flags += ["-xHost"]
        else:
            flags += sorted(_ISA_TO_FLAG[isa] for isa in isas
                            if isa in _ISA_TO_FLAG)
        return flags


@dataclass(frozen=True)
class SystemInfo:
    """The inspected host: available ISAs and compilers."""

    cpu: str
    isas: frozenset[str]
    compilers: tuple[CompilerInfo, ...] = field(default=())

    def supports(self, *isas: str) -> bool:
        return all(isa in self.isas for isa in isas)

    @property
    def best_compiler(self) -> CompilerInfo | None:
        # The paper's preference order: icc, gcc, llvm/clang.
        for name in ("icc", "gcc", "clang"):
            for c in self.compilers:
                if c.name == name:
                    return c
        return None


def _compiler_version(path: str) -> str:
    try:
        out = subprocess.run([path, "--version"], capture_output=True,
                             text=True, timeout=10)
        first = (out.stdout or out.stderr).splitlines()
        return first[0] if first else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _parse_cc_override(spec: str) -> tuple[CompilerInfo, ...]:
    """Parse ``REPRO_CC``: a comma list of ``name=path`` or bare paths.

    A bare path infers the flag dialect from the basename (``icc`` /
    ``clang`` / default ``gcc``), so a test can point the runtime at a
    fake compiler script without it being on the PATH.
    """
    found: list[CompilerInfo] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" in part:
            name, path = (s.strip() for s in part.split("=", 1))
        else:
            path = part
            base = Path(part).name
            name = ("icc" if "icc" in base
                    else "clang" if "clang" in base else "gcc")
        found.append(CompilerInfo(name=name, path=path,
                                  version=_compiler_version(path)))
    return tuple(found)


@lru_cache(maxsize=4)
def _detect_compilers_cached(cc_override: str | None
                             ) -> tuple[CompilerInfo, ...]:
    if cc_override:
        return _parse_cc_override(cc_override)
    found: list[CompilerInfo] = []
    for name in ("icc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            found.append(CompilerInfo(name=name, path=path,
                                      version=_compiler_version(path)))
    return tuple(found)


def detect_compilers() -> tuple[CompilerInfo, ...]:
    """Search the PATH for icc, gcc and clang.

    ``REPRO_CC`` overrides discovery entirely (see
    :func:`_parse_cc_override`).
    """
    return _detect_compilers_cached(os.environ.get("REPRO_CC") or None)


def _cpu_flags() -> tuple[str, set[str]]:
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        text = cpuinfo.read_text()
        model = "unknown"
        m = re.search(r"model name\s*:\s*(.+)", text)
        if m:
            model = m.group(1).strip()
        fm = re.search(r"flags\s*:\s*(.+)", text)
        flags = set(fm.group(1).split()) if fm else set()
        return model, flags
    # Conservative non-Linux fallback: assume SSE2 (x86-64 baseline).
    if platform.machine() in ("x86_64", "AMD64"):
        return platform.processor() or "x86-64", {"mmx", "sse", "sse2"}
    return platform.machine(), set()


@lru_cache(maxsize=1)
def _inspect_cpu() -> tuple[str, frozenset[str]]:
    model, flags = _cpu_flags()
    isas = {"MMX"} if flags else set()
    for flag, isa in _FLAG_TO_ISA.items():
        if flag in flags:
            isas.add(isa)
    if any(i.startswith("AVX512") for i in isas):
        isas.add("AVX-512")
    return model, frozenset(isas)


def inspect_system() -> SystemInfo:
    """Inspect the CPU and toolchain (the CPUID step of Figure 3).

    The CPU probe is cached for the process lifetime; the compiler set
    is re-resolved so ``REPRO_CC`` changes take effect immediately.
    """
    model, isas = _inspect_cpu()
    return SystemInfo(cpu=model, isas=isas, compilers=detect_compilers())


class CompileError(RuntimeError):
    """A native compilation failed; carries the compiler diagnostics."""


class TransientCompileError(CompileError):
    """A compilation failed for reasons likely to clear on retry:
    compiler timeout, a failed ``exec``, a signal, or an exhausted
    system resource.  The resilience layer retries these with bounded
    exponential backoff before degrading down the ladder."""


class PermanentCompileError(CompileError):
    """A compilation failed deterministically (diagnostics, bad flags).
    Retrying the same invocation is pointless; the resilience layer
    moves straight to the next rung of the fallback ladder."""


class CompileDeadlineError(TransientCompileError):
    """The per-kernel wall-clock deadline
    (:data:`repro.core.resilience.COMPILE_DEADLINE_S`) expired before
    the ladder produced an artifact.  Transient — the kernel stays on
    the simulator and may be re-promoted later — but the ladder stops
    walking immediately instead of burning rungs against a clock that
    has already run out."""


# stderr signatures of failures worth retrying verbatim.
_TRANSIENT_RE = re.compile(
    r"(?i)resource temporarily unavailable|cannot allocate memory"
    r"|virtual memory exhausted|no space left on device|text file busy"
    r"|interrupted system call|input/output error",
)

#: Seconds before one compiler invocation is killed and counted as a
#: transient failure.  Read at call time, so tests may patch it.
COMPILE_TIMEOUT_S = 120.0


def _run_with_watchdog(cmd: Sequence[str], timeout: float,
                       cc_name: str) -> subprocess.CompletedProcess:
    """Run a compiler invocation in its own process group under a
    wall-clock watchdog.

    ``subprocess.run(timeout=...)`` only kills the direct child, so a
    compiler driver whose cc1/ld child hangs leaves the hung grandchild
    holding the workdir forever.  Each invocation therefore gets its
    own session (``start_new_session=True``); on timeout the *entire
    group* is SIGKILLed via ``killpg`` and the kill is counted
    (``watchdog.kills``)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_process_group(proc.pid)
        try:
            proc.communicate(timeout=5)
        except subprocess.TimeoutExpired:  # pragma: no cover - unkillable
            pass
        obs.counter("watchdog.kills", compiler=cc_name)
        raise TransientCompileError(
            f"{cc_name} watchdog killed hung compiler process group "
            f"after {timeout}s ({' '.join(cmd)})")
    return subprocess.CompletedProcess(cmd, proc.returncode,
                                       stdout, stderr)


# Read once, at import: ``sysconfig`` publishes its config-var cache
# before it fills it, so two threads' first reads (the first builds on
# two background workers) can race and one see it empty.
_PYTHON_INCLUDE_DIR = Path(sysconfig.get_paths()["include"])
_NUMPY_INCLUDE_DIR = Path(np.get_include())


def glue_headers() -> tuple[tuple[Path, str], ...]:
    """``(include dir, header)`` for each header every generated kernel
    includes for its extension glue: this interpreter's ``Python.h`` and
    NumPy's C API (shipped in its wheels).  Each dir is on every
    compile's include path."""
    return ((_PYTHON_INCLUDE_DIR, "Python.h"),
            (_NUMPY_INCLUDE_DIR, "numpy/arrayobject.h"))


def compile_shared_library(source: str, workdir: Path,
                           isas: frozenset[str],
                           compiler: CompilerInfo | None = None,
                           name: str = "kernel",
                           flags: Sequence[str] | None = None,
                           timeout: float | None = None,
                           deadline: float | None = None) -> Path:
    """Compile C source into a shared library and return its path.

    ``flags`` overrides the compiler's derived flag set (used by the
    fallback ladder); the dirs of :func:`glue_headers` are always on
    the include path.  ``deadline`` is an absolute ``time.monotonic()``
    instant; the effective watchdog timeout is clamped to the time
    remaining, and an already-expired deadline raises
    :class:`CompileDeadlineError` without invoking the compiler.
    Failures raise :class:`TransientCompileError` or
    :class:`PermanentCompileError`; both are :class:`CompileError`.
    """
    system = inspect_system()
    cc = compiler or system.best_compiler
    if cc is None:
        raise PermanentCompileError("no C compiler found on this system")
    workdir.mkdir(parents=True, exist_ok=True)
    c_path = workdir / f"{name}.c"
    so_path = workdir / f"{name}.so"
    c_path.write_text(source)
    use_flags = list(flags) if flags is not None else cc.flags_for(isas)
    cmd = [cc.path, *use_flags,
           *(f"-I{include}" for include, _ in glue_headers()),
           str(c_path), "-o", str(so_path)]
    if timeout is None:
        timeout = COMPILE_TIMEOUT_S
    if deadline is not None:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise CompileDeadlineError(
                f"compile deadline expired before invoking {cc.name} "
                f"for {name!r}")
        timeout = min(timeout, remaining)
    faults.maybe_raise("compile.transient", TransientCompileError,
                       f"injected transient compile failure ({cc.name})")
    faults.maybe_raise("compile.permanent", PermanentCompileError,
                       f"injected permanent compile failure ({cc.name})")
    if faults.fire("compile.hang"):
        # stand in a child that sleeps until the watchdog kills it
        cmd = [sys.executable, "-c", "import time; time.sleep(600)"]
    try:
        result = _run_with_watchdog(cmd, timeout, cc.name)
    except OSError as exc:
        raise TransientCompileError(
            f"{cc.name} could not be invoked ({cc.path}): {exc}"
        ) from exc
    if result.returncode != 0:
        msg = f"{cc.name} failed ({' '.join(cmd)}):\n{result.stderr}"
        if result.returncode < 0 or _TRANSIENT_RE.search(result.stderr or ""):
            raise TransientCompileError(msg)
        raise PermanentCompileError(msg)
    return so_path


def compiler_chain(system: SystemInfo | None = None
                   ) -> tuple[CompilerInfo, ...]:
    """All detected compilers in the paper's preference order
    (icc, gcc, clang) — the degradation chain of the fallback ladder."""
    compilers = (system or inspect_system()).compilers
    ordered = [c for name in ("icc", "gcc", "clang")
               for c in compilers if c.name == name]
    ordered += [c for c in compilers if c not in ordered]
    return tuple(ordered)


def flag_ladder(cc: CompilerInfo, isas: frozenset[str]
                ) -> list[tuple[str, list[str]]]:
    """The ``(rung, flags)`` pairs, most aggressive first: the full
    flags at ``-O3``, then the same at ``-O2``."""
    base = cc.flags_for(isas)
    return [("O3", base), ("O2", ["-O2" if f == "-O3" else f for f in base])]


@dataclass
class CompileAttempt:
    """One compiler invocation (or refusal), as recorded in a report."""

    compiler: str
    version: str
    rung: str
    flags: tuple[str, ...]
    outcome: str            # "ok" | "transient" | "permanent"
    detail: str = ""
    duration_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "compiler": self.compiler, "version": self.version,
            "rung": self.rung, "flags": list(self.flags),
            "outcome": self.outcome, "detail": self.detail,
            "duration_s": self.duration_s,
        }


#: Retries of one ladder rung after a transient failure.  Read at call
#: time, so tests may patch it.
COMPILE_RETRIES = 2
# Backoff between those retries: doubling from the base, capped.
_RETRY_BASE_S = 0.05
_RETRY_CAP_S = 1.0


def compile_with_fallback(source: str, workdir: Path,
                          isas: frozenset[str],
                          compilers: Sequence[CompilerInfo] | None = None,
                          name: str = "kernel",
                          attempts: list[CompileAttempt] | None = None,
                          max_retries: int | None = None,
                          sleep: Callable[[float], None] = time.sleep,
                          deadline: float | None = None,
                          ) -> tuple[Path, CompilerInfo, tuple[str, ...]]:
    """Compile down the resilience ladder.

    For each compiler in the icc→gcc→clang chain, walk the flag ladder;
    transient failures are retried up to ``max_retries`` times (default
    :data:`COMPILE_RETRIES`) with bounded exponential backoff,
    permanent ones drop straight to the next rung.  Every invocation is
    appended to ``attempts``.  ``deadline`` (absolute
    ``time.monotonic()``) bounds the whole walk: once it expires the
    ladder raises :class:`CompileDeadlineError` instead of starting
    another rung, and backoff sleeps are capped to the time remaining.
    Returns ``(so_path, compiler, flags)`` of the first success or
    raises :class:`PermanentCompileError` once the whole ladder is
    exhausted.  The order is fixed (O3→O2 within each compiler), so
    the first rung that links costs exactly one attempt.
    """
    ccs = list(compilers) if compilers is not None \
        else list(compiler_chain())
    if not ccs:
        raise PermanentCompileError("no C compiler found on this system")
    retries = COMPILE_RETRIES if max_retries is None \
        else max(0, max_retries)

    rungs = [(cc, rung, fl) for cc in ccs
             for rung, fl in flag_ladder(cc, isas)]
    last: CompileError | None = None
    for cc, rung, fl in rungs:
        for try_no in range(retries + 1):
            if deadline is not None and \
                    time.monotonic() >= deadline:
                exc = CompileDeadlineError(
                    f"compile deadline expired walking the ladder "
                    f"for {name!r} (at {cc.name}/{rung}); last "
                    f"error: {last}")
                if attempts is not None:
                    attempts.append(CompileAttempt(
                        cc.name, cc.version, rung, tuple(fl),
                        "transient", str(exc)[:500], 0.0))
                obs.counter("compile.deadline_expired")
                raise exc
            start = time.monotonic()
            outcome = "ok"
            detail = ""
            so: Path | None = None
            with obs.span("compile.attempt", compiler=cc.name,
                          rung=rung, flags=tuple(fl)) as att_span:
                try:
                    so = compile_shared_library(
                        source, workdir, isas, compiler=cc,
                        name=name, flags=fl, deadline=deadline)
                except TransientCompileError as exc:
                    last = exc
                    outcome, detail = "transient", str(exc)[:500]
                except PermanentCompileError as exc:
                    last = exc
                    outcome, detail = "permanent", str(exc)[:500]
                att_span.set("outcome", outcome)
            duration = time.monotonic() - start
            obs.counter("compile.attempts", outcome=outcome,
                        compiler=cc.name)
            obs.observe("compile.attempt_s", duration,
                        outcome=outcome)
            if attempts is not None:
                attempts.append(CompileAttempt(
                    cc.name, cc.version, rung, tuple(fl), outcome,
                    detail, duration))
            if outcome == "ok":
                return so, cc, tuple(fl)
            if outcome == "transient" and try_no < retries:
                obs.counter("compile.retries")
                pause = min(_RETRY_CAP_S, _RETRY_BASE_S * (2 ** try_no))
                if deadline is not None:
                    pause = min(pause,
                                max(0.0, deadline - time.monotonic()))
                if pause > 0:
                    sleep(pause)
                continue
            # this rung is abandoned; the ladder moves on
            obs.counter("compile.downgrades")
            break
    raise PermanentCompileError(
        f"all compile attempts for {name!r} failed "
        f"({len(ccs)} compiler(s), ladder exhausted); last error: {last}"
    )
