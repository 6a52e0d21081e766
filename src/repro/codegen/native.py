"""Linking generated native code into the runtime (the JNI analog).

The paper links LMS-generated C into the JVM through JNI, automating the
``Java_<pkg>_<class>_<method>`` naming and the glue code with Scala
macros.  Here the glue is a CPython extension generated beside every
exported kernel (:func:`repro.codegen.cgen.emit_extension_glue`), and
the kernel's shared library is loaded as that extension module:

* Every array crosses as the raw address of its NumPy data — the
  equivalent of ``GetPrimitiveArrayCritical`` pinning (numpy arrays
  never move, so the GC-copy caveat of Section 3.5 does not arise).
  The glue's C fast path reads the array through NumPy's C API and
  takes an exact ndarray of the parameter's dtype that is C-contiguous,
  writable and non-empty.  Any other argument goes to its
  :func:`marshalling_plan` entry, bound into the module at link time:
  it raises the boundary's ``TypeError`` (not an ndarray, wrong dtype,
  not C-contiguous) or the ``ValueError`` for a read-only array the
  kernel writes, and otherwise returns the address to use (a read-only
  input, an empty array, a subclass).
* Scalars are converted in C, integers wrapping two's-complement.
* Calling a ``NativeKernel`` calls the glue's ``call`` entry with no
  Python frame between, and :meth:`NativeKernel.call_batch` is its
  ``call_batch`` entry, which packs every argument set into the
  ``void**`` table of ``<symbol>__batch`` and crosses once.  The glue
  counts both in its module state (``NativeKernel.calls``).  Every
  handle links its own module, so each counts only its own calls, even
  when two handles load one library.

The exported symbol name is derived automatically from the staged
function.  A host without ``Python.h`` or NumPy's C headers (shipped
in its wheels) cannot build the glue and degrades like a host without
a compiler.
"""

from __future__ import annotations

import atexit
import ctypes
import importlib.machinery
import itertools
import operator
import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

import repro.obs as obs
from repro.core import faults
from repro.core.procutil import pid_alive
from repro.codegen.cgen import BATCH_SUFFIX, EXPORT_PREFIX, emit_c_source
from repro.codegen.compiler import (
    CompileAttempt,
    CompilerInfo,
    SystemInfo,
    compile_with_fallback,
    glue_headers,
    # not called here; kept bound because perfbench's traced run wraps
    # ``repro.codegen.native.inspect_system`` by name
    inspect_system,
)
from repro.lms.staging import StagedFunction
from repro.lms.types import ArrayType, ScalarType, Type, VectorType, VoidType
from repro.simd.exec import refuse_read_only_store

_CTYPE_BY_SCALAR = {
    "Float": ctypes.c_float, "Double": ctypes.c_double,
    "Byte": ctypes.c_int8, "Short": ctypes.c_int16,
    "Int": ctypes.c_int32, "Long": ctypes.c_int64,
    "Char": ctypes.c_uint16, "Boolean": ctypes.c_bool,
    "UByte": ctypes.c_uint8, "UShort": ctypes.c_uint16,
    "UInt": ctypes.c_uint32, "ULong": ctypes.c_uint64,
}

class NativeLinkError(RuntimeError):
    """Raised when a staged function cannot be linked natively."""


def _ctype_for(tp: Type):
    if isinstance(tp, ScalarType):
        return _CTYPE_BY_SCALAR[tp.name]
    if isinstance(tp, ArrayType):
        return ctypes.c_void_p
    if isinstance(tp, VoidType):
        return None
    if isinstance(tp, VectorType):
        raise NativeLinkError(
            "vector values cannot cross the native boundary; return "
            "scalars or write into arrays"
        )
    raise NativeLinkError(f"no ctypes mapping for {tp}")


def _array_address(param, writes: bool) -> Callable[[Any], int]:
    """One array parameter's slow path: the address to pass, or the
    boundary's error.

    A non-ndarray or a wrong dtype is a ``TypeError``, as is a
    non-contiguous array; a read-only array for a parameter the kernel
    writes (``writes``) is the ``ValueError`` NumPy raises for such a
    store.  Anything else (a read-only input, an empty array, a
    subclass, a dtype carrying metadata) passes by its data address.
    """
    expected = param.tp.elem.np_dtype

    def address(value: Any) -> int:
        if not isinstance(value, np.ndarray):
            raise TypeError(f"expected numpy array for {param!r}")
        if value.dtype != expected:
            raise TypeError(
                f"array for {param!r} must have dtype {expected}"
            )
        if not value.flags.c_contiguous:
            raise TypeError("arrays must be C-contiguous")
        refuse_read_only_store(value, writes)
        return value.ctypes.data

    return address


def marshalling_plan(staged: StagedFunction) -> tuple:
    """The per-parameter marshalling tuple of a staged function's export.

    ``None`` entries are scalars, which the glue converts in C; array
    entries are the :func:`_array_address` functions the glue calls for
    any array its fast path refuses.  Single and batched calls share
    them.
    """
    written = staged.effects.writes
    return tuple(
        _array_address(p, p.id in written)
        if isinstance(p.tp, ArrayType) else None
        for p in staged.params)


def _raw_symbol(path: Path, symbol: str, argtypes: list, restype: Any):
    """A ``ctypes`` handle on one symbol of a loaded kernel library."""
    fn = getattr(ctypes.CDLL(str(path)), symbol)
    fn.argtypes, fn.restype = argtypes, restype
    return fn


@dataclass
class NativeKernel:
    """A compiled-and-linked staged function.

    ``_module`` is the kernel's extension module.  At construction the
    marshalling plan is built and bound into it; calling the kernel
    then calls the glue's ``call`` entry (``_call``) directly, and
    :meth:`call_batch` is its ``call_batch`` entry.  ``calls()`` is the
    module's count of what those ran: one per call, one per batch
    entry.  It is this handle's own, since every load is a fresh module
    (:func:`load_kernel`).  ``_fn`` and ``_batch_fn`` are ``ctypes`` handles
    on the raw kernel and ``__batch`` symbols, bound on first access
    for measurements that time the bare kernel; no call path uses them.
    """

    staged: StagedFunction
    c_source: str
    library_path: Path
    symbol: str
    _module: Any = field(repr=False, compare=False)
    _plan: tuple = field(default=(), repr=False, compare=False)
    _call: Any = field(default=None, repr=False, compare=False)
    _call_batch: Any = field(default=None, repr=False, compare=False)
    calls: Any = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._plan = marshalling_plan(self.staged)
        self._module.bind(self._plan)
        self._call = self._module.call
        self._call_batch = self._module.call_batch
        self.calls = self._module.calls

    # ``kernel(*args)`` is the glue's ``call(*args)``: no Python frame
    __call__ = property(operator.attrgetter("_call"))

    def call_batch(self, args_seq: Sequence[Sequence[Any]]) -> list:
        """Execute ``args_seq`` (N argument tuples) in one native call.

        Batch-atomic: the glue validates and packs every entry before
        the call, so an invalid entry raises without executing
        anything.  Array payloads are never copied — their addresses go
        straight into the ``void**`` table.
        """
        return self._call_batch(args_seq)

    @cached_property
    def _fn(self) -> Any:
        return _raw_symbol(self.library_path, self.symbol,
                           *ctype_signature(self.staged))

    @cached_property
    def _batch_fn(self) -> Any:
        return _raw_symbol(self.library_path, self.symbol + BATCH_SUFFIX,
                           [ctypes.c_int64, ctypes.c_void_p,
                            ctypes.c_void_p], None)


def required_isas(staged: StagedFunction) -> frozenset[str]:
    """The ISAs a staged function's live intrinsics need: the union of
    the CPUIDs the eDSL generator stamped on each intrinsic's class.
    Dead intrinsics are not emitted, so they add no ISA."""
    from repro.isa.base import IntrinsicsDef
    from repro.lms.defs import iter_defs

    needed: set[str] = set()
    for stm, _ in iter_defs(staged.scheduled()):
        if isinstance(stm.rhs, IntrinsicsDef):
            needed.update(stm.rhs.cpuids)
    return frozenset(needed)


def check_kernel_isas(name: str, isas: frozenset[str], system: SystemInfo,
                      compilers: Sequence[CompilerInfo]) -> None:
    """Raise :class:`NativeLinkError` if the host cannot run or no
    available compiler can build a kernel needing ``isas``."""
    unsupported = {i for i in isas
                   if i not in system.isas and i not in ("SVML", "KNCNI")}
    if unsupported:
        raise NativeLinkError(
            f"host CPU lacks ISAs {sorted(unsupported)} required by {name}"
        )
    if "SVML" in isas and not any(c.name == "icc" for c in compilers):
        raise NativeLinkError(
            "SVML intrinsics need the Intel compiler; use the "
            "simulator backend"
        )


_session_root: Path | None = None
_session_lock = threading.Lock()
_build_seq = itertools.count()

#: Unstamped session roots older than this are treated as leaked.
_SWEEP_AGE_S = 3600.0


def _sweep_leaked_workdirs(base: Path) -> int:
    """Remove ``repro-native-*`` session roots leaked by killed
    processes (their atexit cleanup never ran).

    A root is leaked when its ``owner.pid`` stamp names a dead process,
    or when it carries no stamp and has gone untouched for an hour
    (pre-stamp leftovers).  Runs once per session, when this process
    creates its own root.
    """
    swept = 0
    try:
        candidates = list(base.glob("repro-native-*"))
    except OSError:
        return 0
    for root in candidates:
        if not root.is_dir():
            continue
        stamp = root / "owner.pid"
        try:
            pid = int(stamp.read_text().strip())
        except (OSError, ValueError):
            pid = None
        if pid is not None:
            if pid == os.getpid() or pid_alive(pid):
                continue
        else:
            try:
                age = time.time() - root.stat().st_mtime
            except OSError:
                continue
            if age < _SWEEP_AGE_S:
                continue
        shutil.rmtree(root, ignore_errors=True)
        swept += 1
    if swept:
        obs.counter("native.workdirs_swept", swept)
    return swept


def _session_workdir(name: str) -> Path:
    """A per-build directory under one atexit-cleaned session root, so
    no build leaves a directory behind for the life of the machine;
    persistent artifacts belong to the disk kernel cache.  Root creation
    is locked — background compile workers race through here.  Each
    root is stamped with its owner pid so a later process can sweep
    roots whose owners were killed before atexit ran.
    """
    global _session_root
    with _session_lock:
        if _session_root is None or not _session_root.exists():
            _session_root = Path(tempfile.mkdtemp(prefix="repro-native-"))
            try:
                (_session_root / "owner.pid").write_text(str(os.getpid()))
            except OSError:
                pass
            atexit.register(shutil.rmtree, str(_session_root),
                            ignore_errors=True)
            _sweep_leaked_workdirs(_session_root.parent)
        root = _session_root
    wd = root / f"{next(_build_seq):04d}-{name}"
    wd.mkdir(parents=True, exist_ok=True)
    return wd


@dataclass
class NativeArtifact:
    """A compiled-but-not-yet-linked kernel: the unit the resilience
    layer smoke-tests in a forked child before trusting it in-process."""

    staged: StagedFunction
    c_source: str
    so_path: Path
    symbol: str
    isas: frozenset[str]
    compiler: CompilerInfo
    flags: tuple[str, ...]


def export_source(staged: StagedFunction) -> str:
    """The C of a staged function's export: the kernel, its batch
    trampoline and its extension glue, in one translation unit.  A
    signature that cannot cross the boundary raises
    :class:`NativeLinkError` first."""
    ctype_signature(staged)
    with obs.span("emit", kernel=staged.name):
        return emit_c_source(staged, export_name=EXPORT_PREFIX + staged.name)


def build_native(staged: StagedFunction, source: str,
                 isas: frozenset[str],
                 compilers: Sequence[CompilerInfo],
                 attempts: list[CompileAttempt] | None = None,
                 deadline: float | None = None) -> NativeArtifact:
    """Compile ``source``, the :func:`export_source` of ``staged``, down
    the fallback ladder of ``compilers`` for ``isas`` — no linking.

    The caller (:func:`repro.core.resilience.acquire_native`) has
    already checked the host and emitted and keyed the C; this only
    checks that the glue's headers exist, picks a session workdir and
    walks the ladder.  The returned artifact has not been loaded into
    this process; link it with :func:`link_native`.  ``deadline``
    (absolute ``time.monotonic()``) bounds the whole ladder walk; see
    :func:`compile_with_fallback`.
    """
    for include, header in glue_headers():
        if not (include / header).is_file():
            raise NativeLinkError(
                f"{header} not found under {include}: the kernel's "
                f"CPython extension glue cannot be built")
    with obs.span("compile", kernel=staged.name) as compile_span:
        so_path, cc, flags = compile_with_fallback(
            source, _session_workdir(staged.name), isas, compilers,
            name=staged.name, attempts=attempts, deadline=deadline)
        compile_span.set("compiler", cc.name)
        compile_span.set("flags", flags)
    return NativeArtifact(staged=staged, c_source=source, so_path=so_path,
                          symbol=EXPORT_PREFIX + staged.name, isas=isas,
                          compiler=cc, flags=flags)


def ctype_signature(staged: StagedFunction) -> tuple[list, Any]:
    """The ctypes ``(argtypes, restype)`` of a staged function's export."""
    return ([_ctype_for(p.tp) for p in staged.params],
            _ctype_for(staged.result_type))


def _load_module(symbol: str, so_path: Path) -> Any:
    """Load ``so_path`` as the extension module ``symbol``.

    Loads through the extension loader directly, never the ``import``
    statement, so no import-machinery module lock is taken: the forked
    smoke child loads kernels too.  The glue is multi-phase
    initialised, so each load is a fresh module with its own state.
    """
    path = str(so_path)
    loader = importlib.machinery.ExtensionFileLoader(symbol, path)
    spec = importlib.machinery.ModuleSpec(symbol, loader, origin=path)
    try:
        module = loader.create_module(spec)
        loader.exec_module(module)
    except (ImportError, OSError) as exc:
        raise NativeLinkError(f"cannot link {path}: {exc}") from exc
    return module


def load_kernel(artifact: NativeArtifact) -> NativeKernel:
    """Load an artifact's shared library as its extension module (see
    :func:`_load_module`); loading one library again gives a second
    working handle with a module and a call count of its own."""
    return NativeKernel(staged=artifact.staged, c_source=artifact.c_source,
                        library_path=artifact.so_path,
                        symbol=artifact.symbol,
                        _module=_load_module(artifact.symbol,
                                             artifact.so_path))


def call_raw_symbol(artifact: NativeArtifact, args: Sequence[Any]) -> Any:
    """Call an artifact's raw kernel symbol through ``ctypes``, arrays
    by the addresses of its marshalling plan.  Only the smoke child
    does this, for a library that lacks the extension glue."""
    fn = _raw_symbol(artifact.so_path, artifact.symbol,
                     *ctype_signature(artifact.staged))
    return fn(*(value if address is None else address(value)
                for address, value in
                zip(marshalling_plan(artifact.staged), args)))


def link_native(artifact: NativeArtifact) -> NativeKernel:
    """Load an artifact into this process (see :func:`load_kernel`)."""
    faults.maybe_raise("link.fail", NativeLinkError,
                       f"injected link failure for {artifact.symbol}")
    return load_kernel(artifact)
