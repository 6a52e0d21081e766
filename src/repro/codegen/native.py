"""Linking generated native code into the runtime (the JNI analog).

The paper links LMS-generated C into the JVM through JNI, automating the
``Java_<pkg>_<class>_<method>`` naming and the glue code with Scala
macros.  The Python analog is ``ctypes``, with the glue generated here:

* Every array parameter is declared ``c_void_p`` and crosses as the raw
  address of its NumPy buffer — the equivalent of
  ``GetPrimitiveArrayCritical`` pinning (numpy arrays never move, so the
  GC-copy caveat of Section 3.5 does not arise).  One address function
  per parameter (:func:`marshalling_plan`) checks the type and dtype,
  then takes ``addressof(c_char.from_buffer(v))``, which checks
  C-contiguity and writability in C.  When that refuses, a slow path
  raises the boundary's ``TypeError`` for a non-contiguous array and
  ``ValueError`` for a read-only array the kernel writes, and otherwise
  (a read-only input, an empty array) returns ``v.ctypes.data``.
* At link time each export gets a generated Python binding
  (:func:`bind_export`): straight-line code with an arity check and the
  address fast path inlined per array, falling back to the plan entry.
  ``NativeKernel.__call__`` is that binding and nothing else.
* Scalars are marshalled by value by the ``argtypes``, and the exported
  symbol name is derived automatically from the staged function.

The batched entry point (``<symbol>__batch``) takes the same addresses
through the same plan, in a ``void**`` table (see
:meth:`NativeKernel.call_batch`).
"""

from __future__ import annotations

import atexit
import ctypes
import itertools
import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
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
    compiler_chain,
    inspect_system,
)
from repro.lms.staging import StagedFunction
from repro.lms.types import ArrayType, ScalarType, Type, VectorType, VoidType
from repro.simd.exec import _as_scalar, refuse_read_only_store

_CTYPE_BY_SCALAR = {
    "Float": ctypes.c_float, "Double": ctypes.c_double,
    "Byte": ctypes.c_int8, "Short": ctypes.c_int16,
    "Int": ctypes.c_int32, "Long": ctypes.c_int64,
    "Char": ctypes.c_uint16, "Boolean": ctypes.c_bool,
    "UByte": ctypes.c_uint8, "UShort": ctypes.c_uint16,
    "UInt": ctypes.c_uint32, "ULong": ctypes.c_uint64,
}

_addressof = ctypes.addressof
_from_buffer = ctypes.c_char.from_buffer


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
    """One array parameter's address function.

    The fast path is an ``isinstance`` and dtype check, then the buffer
    protocol's address, whose C side refuses non-contiguous and
    read-only buffers (and empty ones: a ``c_char`` needs one byte).
    The slow path sorts those out: a non-contiguous array is a
    ``TypeError``, a read-only array for a parameter the kernel writes
    (``writes``) is the ``ValueError`` NumPy raises for such a store,
    and anything else takes ``ctypes.data``.
    """
    expected = param.tp.elem.np_dtype

    def address(value: Any) -> int:
        if not isinstance(value, np.ndarray):
            raise TypeError(f"expected numpy array for {param!r}")
        if value.dtype != expected:
            raise TypeError(
                f"array for {param!r} must have dtype {expected}"
            )
        try:
            return _addressof(_from_buffer(value))
        except (TypeError, ValueError):
            pass
        if not value.flags.c_contiguous:
            raise TypeError("arrays must be C-contiguous")
        refuse_read_only_store(value, writes)
        return value.ctypes.data

    return address


def marshalling_plan(staged: StagedFunction) -> tuple:
    """The per-parameter marshalling tuple of a staged function's export.

    ``None`` entries pass through untouched (scalars are marshalled by
    the ``argtypes`` ctypes already carries); array entries are the
    :func:`_array_address` functions, whose results the ``c_void_p``
    argtypes take as they are.  Single and batched calls both take
    their addresses from here.
    """
    written = staged.effects.writes
    return tuple(
        _array_address(p, p.id in written)
        if isinstance(p.tp, ArrayType) else None
        for p in staged.params)


def bind_export(staged: StagedFunction, fn: Any, plan: tuple) -> Callable:
    """Generate the Python binding of one export from its signature.

    The binding is straight-line code — an arity check, the address
    fast path inlined for each array parameter, and the ctypes call —
    so a warm call walks no plan.  Any array the inline test does not
    take (a subclass, an equal-but-not-identical dtype, a read-only or
    empty buffer, a wrong argument) goes to its plan entry, which takes
    it or raises.  The arrays themselves stay referenced by the
    binding's ``args`` for the whole native call.  This is how
    :mod:`repro.isa.registry` builds the eDSL modules, and how the paper
    generates its JNI glue.
    """
    n = len(plan)
    names = [f"a{j}" for j in range(n)]
    namespace: dict[str, Any] = {
        "fn": fn, "ndarray": np.ndarray, "addressof": _addressof,
        "from_buffer": _from_buffer,
        "arity": f"{staged.name} expects {n} arguments, got ",
    }
    lines = [
        "def call(*args):",
        f"    if len(args) != {n}:",
        "        raise TypeError(arity + str(len(args)))",
    ]
    if n:
        lines.append(f"    {', '.join(names)}, = args")
    for j, entry in enumerate(plan):
        if entry is None:
            continue
        namespace[f"p{j}"] = entry
        namespace[f"d{j}"] = staged.params[j].tp.elem.np_dtype
        a = names[j]
        lines += [
            f"    if isinstance({a}, ndarray) and {a}.dtype is d{j}:",
            "        try:",
            f"            {a} = addressof(from_buffer({a}))",
            "        except (TypeError, ValueError):",
            f"            {a} = p{j}({a})",
            "    else:",
            f"        {a} = p{j}({a})",
        ]
    lines.append(f"    return fn({', '.join(names)})")
    exec(compile("\n".join(lines) + "\n", f"<binding {staged.name}>",
                 "exec"), namespace)
    return namespace["call"]


class _BatchArena:
    """The reusable buffers behind one kernel's batched calls.

    Holds the ``void**`` argument table, one packed column per scalar
    parameter and (for non-void kernels) the result column.  Buffers
    grow geometrically to the largest batch seen and are reused for
    every later flush — a warm batched call allocates nothing.  Entry
    ``i``'s scalar slots always point at row ``i`` of their columns, so
    they are written once per growth; a batch writes only the array
    addresses and the scalar values.  The arena lock serializes packing
    *and* the native call, so concurrent flushers never tear each
    other's tables; contention is bounded by the batching layer, which
    flushes one batch per kernel at a time.
    """

    __slots__ = ("lock", "capacity", "argv", "scalars", "out", "argv_ptr",
                 "out_ptr", "_scalar_types", "_nargs", "_out_dtype")

    def __init__(self, staged: StagedFunction, plan: tuple) -> None:
        self.lock = threading.Lock()
        self.capacity = 0
        self._nargs = len(plan)
        self._scalar_types = {j: p.tp for j, (p, entry)
                              in enumerate(zip(staged.params, plan))
                              if entry is None}
        tp = staged.result_type
        self._out_dtype = tp.np_dtype if isinstance(tp, ScalarType) \
            else None
        self.argv: np.ndarray | None = None
        self.scalars: dict[int, np.ndarray] = {}
        self.out: np.ndarray | None = None
        self.argv_ptr = self.out_ptr = None

    def reserve(self, n: int) -> None:
        """Grow the buffers to hold ``n`` argument sets (lock held)."""
        if n <= self.capacity:
            return
        cap = max(n, self.capacity * 2, 16)
        nargs = self._nargs
        self.argv = np.empty(max(cap * nargs, 1), dtype=np.uintp)
        self.scalars = {}
        for j, tp in self._scalar_types.items():
            column = np.empty(cap, dtype=tp.np_dtype)
            self.scalars[j] = column
            self.argv[j::nargs] = column.ctypes.data + \
                column.itemsize * np.arange(cap, dtype=np.uintp)
        self.argv_ptr = self.argv.ctypes.data
        if self._out_dtype is not None:
            self.out = np.empty(cap, dtype=self._out_dtype)
            self.out_ptr = self.out.ctypes.data
        self.capacity = cap

    def pack_scalars(self, j: int, values: list) -> None:
        """Write one scalar parameter's values into its column, wrapping
        out-of-range integers two's-complement style as the single call
        (ctypes) and the simulator (``_as_scalar``) do."""
        column = self.scalars[j]
        try:
            column[:len(values)] = values
        except OverflowError:
            tp = self._scalar_types[j]
            column[:len(values)] = [_as_scalar(tp, v) for v in values]


@dataclass
class NativeKernel:
    """A compiled-and-linked staged function.

    The marshalling plan and the generated binding are built once, at
    construction (``__post_init__``); a call is the binding alone.  When
    the artifact carries the batched entry point (``<symbol>__batch``),
    :meth:`call_batch` executes N argument sets in one native call with
    addresses from the same plan; artifacts linked from older caches
    fall back to a per-call loop transparently.
    """

    staged: StagedFunction
    c_source: str
    library_path: Path
    symbol: str
    _fn: Any
    system: SystemInfo
    _plan: tuple = field(default=(), repr=False, compare=False)
    _batch_fn: Any = field(default=None, repr=False, compare=False)
    _arena: Any = field(default=None, repr=False, compare=False)
    _call: Any = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._plan = marshalling_plan(self.staged)
        self._call = bind_export(self.staged, self._fn, self._plan)

    def __call__(self, *args: Any) -> Any:
        return self._call(*args)

    @property
    def supports_batch(self) -> bool:
        """Whether the linked artifact exports the batched entry point."""
        return self._batch_fn is not None

    def call_batch(self, args_seq: Sequence[Sequence[Any]]) -> list:
        """Execute ``args_seq`` (N argument tuples) in one native call.

        Argument packing is batch-atomic: every entry is validated and
        packed before the native call runs, so an invalid entry raises
        without executing anything.  Array payloads are never copied —
        their addresses go straight into the ``void**`` table; scalars
        are packed once into the reusable arena.  Without the batched
        symbol (artifacts published before it existed) this degrades to
        a per-call loop with identical results.
        """
        entries = [tuple(args) for args in args_seq]
        n = len(entries)
        if n == 0:
            return []
        if self._batch_fn is None:
            return [self(*args) for args in entries]
        plan = self._plan
        nargs = len(plan)
        for args in entries:
            if len(args) != nargs:
                raise TypeError(
                    f"{self.staged.name} expects {nargs} "
                    f"arguments, got {len(args)}"
                )
        arena = self._arena
        if arena is None:
            arena = self._arena = _BatchArena(self.staged, plan)
        with arena.lock:
            arena.reserve(n)
            argv = arena.argv
            for j, address in enumerate(plan):
                if address is None:
                    arena.pack_scalars(j, [args[j] for args in entries])
                else:
                    argv[j:n * nargs:nargs] = \
                        [address(args[j]) for args in entries]
            self._batch_fn(n, arena.argv_ptr, arena.out_ptr)
            out = arena.out
            if out is None:
                return [None] * n
            # .tolist() yields the same Python values ctypes' restype
            # conversion produces for the single-call path
            return out[:n].tolist()


def required_isas(staged: StagedFunction,
                  version: str | None = None) -> frozenset[str]:
    """The ISAs a staged function's intrinsics need, from their CPUIDs.

    ``version`` selects the spec release to resolve intrinsics against;
    it defaults to ``REPRO_SPEC_VERSION`` and then to the registry's
    default, so Table-3 version experiments exercise the real link path.
    """
    from repro.isa.base import IntrinsicsDef
    from repro.lms.defs import iter_defs
    from repro.spec.catalog import all_entries
    from repro.spec.versions import DEFAULT_VERSION

    version = (version or os.environ.get("REPRO_SPEC_VERSION")
               or DEFAULT_VERSION)
    by_name = {e.name: e for e in all_entries(version)}
    needed: set[str] = set()
    for stm, _ in iter_defs(staged.body):
        if isinstance(stm.rhs, IntrinsicsDef):
            spec = by_name.get(stm.rhs.intrinsic_name)
            if spec:
                needed.update(spec.cpuids)
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
    """A per-build directory under one atexit-cleaned session root.

    Replaces the old leak where every ``compile_to_native`` call left a
    ``tempfile.mkdtemp`` behind for the life of the machine; persistent
    artifacts belong to the disk kernel cache instead.  Root creation
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
    system: SystemInfo
    compiler: CompilerInfo | None = None
    flags: tuple[str, ...] = ()


def build_native(staged: StagedFunction,
                 workdir: str | Path | None = None,
                 check_isas: bool = True,
                 compilers: Sequence[CompilerInfo] | None = None,
                 attempts: list[CompileAttempt] | None = None,
                 max_retries: int | None = None,
                 deadline: float | None = None) -> NativeArtifact:
    """Generate C and compile it down the fallback ladder — no linking.

    The returned artifact has not been loaded into this process; link
    it with :func:`link_native` (or let
    :func:`repro.core.resilience.acquire_native` smoke-test it first).
    ``deadline`` (absolute ``time.monotonic()``) bounds the whole
    ladder walk; see :func:`compile_with_fallback`.
    """
    system = inspect_system()
    ccs = list(compilers) if compilers is not None \
        else list(compiler_chain(system))
    if not ccs:
        raise NativeLinkError("no C compiler available")

    isas = required_isas(staged)
    if check_isas:
        check_kernel_isas(staged.name, isas, system, ccs)

    symbol = EXPORT_PREFIX + staged.name
    with obs.span("emit", kernel=staged.name):
        source = emit_c_source(staged, export_name=symbol)
    wd = Path(workdir) if workdir is not None else \
        _session_workdir(staged.name)
    with obs.span("compile", kernel=staged.name) as compile_span:
        so_path, cc, flags = compile_with_fallback(
            source, wd, isas, required=isas, compilers=ccs,
            name=staged.name, attempts=attempts, max_retries=max_retries,
            deadline=deadline)
        compile_span.set("compiler", cc.name)
        compile_span.set("flags", flags)
    return NativeArtifact(staged=staged, c_source=source, so_path=so_path,
                          symbol=symbol, isas=isas, system=system,
                          compiler=cc, flags=flags)


def ctype_signature(staged: StagedFunction) -> tuple[list, Any]:
    """The ctypes ``(argtypes, restype)`` of a staged function's export."""
    return ([_ctype_for(p.tp) for p in staged.params],
            _ctype_for(staged.result_type))


def link_native(artifact: NativeArtifact) -> NativeKernel:
    """Load an artifact's shared library into this process via ctypes."""
    faults.maybe_raise("link.fail", NativeLinkError,
                       f"injected link failure for {artifact.symbol}")
    try:
        lib = ctypes.CDLL(str(artifact.so_path))
        fn = getattr(lib, artifact.symbol)
    except (OSError, AttributeError) as exc:
        raise NativeLinkError(
            f"cannot link {artifact.so_path}: {exc}") from exc
    fn.argtypes, fn.restype = ctype_signature(artifact.staged)
    # The batched entry point is optional: artifacts published before
    # it existed still link, they just batch via a per-call loop.
    batch_fn = getattr(lib, artifact.symbol + BATCH_SUFFIX, None)
    if batch_fn is not None:
        batch_fn.argtypes = [ctypes.c_int64, ctypes.c_void_p,
                             ctypes.c_void_p]
        batch_fn.restype = None
    return NativeKernel(staged=artifact.staged, c_source=artifact.c_source,
                        library_path=artifact.so_path,
                        symbol=artifact.symbol, _fn=fn,
                        system=artifact.system, _batch_fn=batch_fn)


def compile_to_native(staged: StagedFunction,
                      workdir: str | Path | None = None,
                      check_isas: bool = True) -> NativeKernel:
    """Generate C, compile it and link it back (Figure 3's runtime path).

    This is the direct, trusting path: no smoke-run, no quarantine, no
    disk cache.  The managed pipeline (:mod:`repro.core.pipeline`) goes
    through :func:`repro.core.resilience.acquire_native` instead.
    """
    return link_native(build_native(staged, workdir=workdir,
                                    check_isas=check_isas))
