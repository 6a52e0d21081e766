"""Compile-once closure executor for the SIMD machine.

The tree-walking interpreter in :mod:`repro.simd.machine` re-dispatches
every statement through an ``isinstance`` chain on every run.  This
module compiles a scheduled SSA block **once** into "threaded code": a
flat tuple of Python closures (``step(machine, regs, counts)``), each
specialized at compile time for its node —

* symbols live in a slot-indexed register file (a plain list) instead of
  a per-run ``dict[int, Any]`` environment; constants and intrinsic
  immediates are pre-coerced into reserved slots of an init template
  that is ``list.copy()``-ed per run;
* intrinsic semantics are resolved through :func:`~repro.simd.semantics
  .lookup` at compile time (with bit-identical fast-path replacements
  for the hottest intrinsics), so runs pay zero registry lookups;
* op counting is an integer bump on a dense counter array, folded back
  into ``machine.op_counts`` when the run finishes (or raises);
* loop bodies are compiled once and re-entered with a plain ``int``
  index written into a reused slot.

Numerical contract: a compiled program is bit-identical to the tree
interpreter — results, mutated arrays, ``op_counts`` and profile
counters all match (enforced by ``tests/test_differential.py``).

This module is imported by :mod:`repro.simd.machine` (which re-exports
:class:`ExecutionError`, :func:`_as_scalar` and :class:`_Box` for
backwards compatibility) and must never import it back; semantic
handlers receive the machine duck-typed as ``ctx``.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Sequence

import numpy as np

import repro.obs as obs
from repro.lms.defs import (
    ArrayApply,
    ArrayUpdate,
    BinaryOp,
    Block,
    Convert,
    ForLoop,
    IfThenElse,
    ReflectMutable,
    Select,
    Stm,
    UnaryOp,
    VarAssign,
    VarDecl,
    VarRead,
    WhileLoop,
)
from repro.lms.expr import Const, Exp, Sym
from repro.lms.staging import StagedFunction
from repro.lms.types import (
    M128,
    M128D,
    M128I,
    M256,
    M256D,
    M256I,
    M512,
    M64,
    ArrayType,
    ScalarType,
)
from repro.simd.semantics import UnimplementedIntrinsic, lookup, registry
from repro.simd.semantics.memory import _LOADS, _STORES
from repro.simd.vector import VecValue

__all__ = [
    "CompiledProgram",
    "ExecutionError",
    "READ_ONLY_STORE",
    "check_arg",
    "compile_program",
    "refuse_read_only_store",
    "refuse_read_only_stores",
]


class ExecutionError(RuntimeError):
    """Raised when a staged graph cannot be executed."""


#: NumPy's message for a store into a read-only array.
READ_ONLY_STORE = "assignment destination is read-only"


def refuse_read_only_store(value: Any, writes: bool) -> None:
    """The read-only rule of every execution path: both simulator
    engines, the batch sweep and the native tier.

    An array passed for a parameter the kernel stores to (``writes``)
    must be writable.  A read-only one is refused before anything runs,
    with the ``ValueError`` NumPy raises for a store into it, so that a
    call which stores nothing (n=0) agrees with one that does.  A
    read-only array the kernel only reads is fine.
    """
    if writes and isinstance(value, np.ndarray) \
            and not value.flags.writeable:
        raise ValueError(READ_ONLY_STORE)


def refuse_read_only_stores(staged: StagedFunction,
                            entries: Sequence[Sequence[Any]]) -> None:
    """:func:`refuse_read_only_store` over every argument of a batch,
    so that a batch holding a refused array runs no entry."""
    written = staged.effects.writes
    for j, param in enumerate(staged.params):
        if param.id in written:
            for args in entries:
                refuse_read_only_store(args[j], True)


def _as_scalar(tp: ScalarType, value: Any):
    """Coerce a runtime value to the numpy scalar type of ``tp``.

    Integer coercion wraps two's-complement style (C semantics with
    ``-fwrapv``); numpy 2.x would raise on out-of-range Python ints.
    """
    if not tp.is_float and tp.name != "Boolean":
        v = int(value) & ((1 << tp.bits) - 1)
        if tp.signed and v >= (1 << (tp.bits - 1)):
            v -= 1 << tp.bits
        return tp.np_dtype.type(v)
    with np.errstate(over="ignore"):
        return tp.np_dtype.type(value)


class _Box:
    """Mutable cell backing a staged variable."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value


def check_arg(param: Sym, value: Any, writes: bool = False) -> Any:
    """Validate/coerce one runtime argument against a staged parameter.

    ``writes`` marks a parameter the kernel stores to; see
    :func:`refuse_read_only_store`.
    """
    if isinstance(param.tp, ArrayType):
        if not isinstance(value, np.ndarray):
            raise ExecutionError(
                f"parameter {param!r} needs a numpy array"
            )
        expected = param.tp.elem.np_dtype
        if value.dtype != expected:
            raise ExecutionError(
                f"parameter {param!r} needs dtype {expected}, got "
                f"{value.dtype}"
            )
        refuse_read_only_store(value, writes)
        return value
    if isinstance(param.tp, ScalarType):
        return _as_scalar(param.tp, value)
    return value


# ---------------------------------------------------------------------------
# Fast-path intrinsic semantics.
#
# The registry handlers in repro.simd.semantics are the *reference*
# implementations the tree engine always uses; the compiled engine may
# substitute a handler from this table when one exists.  Every entry
# must be bit-identical to its registry counterpart — same lane values,
# same raised exceptions, same messages — it only sheds interpretation
# overhead (per-call errstate blocks, defensive copies through
# VecValue.from_lanes, Python loops over 128-bit lanes).  The compiled
# run wraps all steps in one blanket errstate, which is what makes
# dropping the per-op errstate safe.
# ---------------------------------------------------------------------------

_fast_semantics: dict[str, Callable] = {}

_F32 = np.dtype(np.float32)
_F64 = np.dtype(np.float64)


def _vec(vt, data: np.ndarray, tv=None) -> VecValue:
    # Invariant-preserving VecValue construction without ctor validation:
    # callers guarantee `data` is a fresh uint8 array of vt.bits // 8.
    # ``tv`` optionally seeds the typed-view cache with the (dtype,
    # array) pair the producing handler already holds.
    v = VecValue.__new__(VecValue)
    v.vt = vt
    v.data = data
    v._tv = tv
    return v


_DATA_SLOT = VecValue.__dict__["data"]


class _LaneVec(VecValue):
    """A register value materialized from typed lanes.

    Lane-producing fast handlers (arithmetic, FMA, loads, broadcasts)
    naturally end with a typed lane array; building the uint8 byte
    image eagerly costs a ~200ns view per op that most consumers (which
    read lanes through :func:`_fv`) never look at.  This subclass
    shadows the parent's ``data`` slot with a property that builds the
    byte view on first access, so byte-level consumers (swizzles, the
    differential tests, ``repr``) still see a plain ``VecValue``.
    """

    __slots__ = ()

    @property
    def data(self) -> np.ndarray:
        d = _DATA_SLOT.__get__(self, VecValue)
        if d is None:
            d = self._tv[1].view(np.uint8)
            _DATA_SLOT.__set__(self, d)
        return d

    @data.setter
    def data(self, value: np.ndarray) -> None:
        _DATA_SLOT.__set__(self, value)


def _lvec(vt, dt: np.dtype, lanes: np.ndarray) -> VecValue:
    # Lazy-byte-image construction: callers guarantee ``lanes`` is a
    # fresh C-contiguous array of vt.bits // 8 bytes.  The data slot
    # holds None until a byte-level consumer materializes the view.
    v = _LaneVec.__new__(_LaneVec)
    v.vt = vt
    _DATA_SLOT.__set__(v, None)
    v._tv = (dt, lanes)
    return v


def _fv(v: VecValue, dt: np.dtype) -> np.ndarray:
    """The ``dt``-typed view of ``v``, cached on the value.

    Creating a numpy view costs ~200ns; arithmetic chains touch each
    operand's lanes once per consumer, so memoizing the view on the
    VecValue (it aliases ``data``, never stale) is a net win.  The
    dtype is compared by identity — fast paths only pass the module
    singletons ``_F32``/``_F64``.
    """
    tv = v._tv
    if tv is not None and tv[0] is dt:
        return tv[1]
    view = v.data.view(dt)
    v._tv = (dt, view)
    return view


def _fw64(v: VecValue, dt: np.dtype) -> np.ndarray:
    """``v``'s ``dt`` lanes upcast to float64, cached on the value.

    Unlike :func:`_fv` this is a *conversion* (astype copy), cached in
    the optional tail of ``_tv``; safe because handler-produced values
    are never mutated after construction.  Pays off when an FMA operand
    is loop-invariant (a ``set1`` broadcast): the upcast happens once
    per run instead of once per iteration.
    """
    tv = v._tv
    if tv is not None and len(tv) == 4 and tv[2] is dt:
        return tv[3]
    w = _fv(v, dt).astype(np.float64)
    tv = v._tv  # _fv may have just (re)set the primary entry
    v._tv = (tv[0], tv[1], dt, w)
    return w


def _fast(name: str, fn: Callable) -> None:
    # Only shadow names the registry actually implements: a fast path
    # for an unregistered intrinsic would let the compiled engine run
    # programs the reference engine rejects.
    if name in registry:
        _fast_semantics[name] = fn


# Call-site specializers: ``factory(args)`` inspects one intrinsic call's
# raw argument tuple and, when the trailing immediates are compile-time
# constants, returns a handler with the immediate pre-decoded (e.g. a
# shuffle's byte-gather index array built once); it returns ``None`` to
# decline, falling back to the generic handler with the immediate in a
# register slot.
_fast_factories: dict[str, Callable] = {}


def _fast_factory(name: str, factory: Callable) -> None:
    if name in registry:
        _fast_factories[name] = factory


def _install_fast_memory() -> None:
    for name, vt in _LOADS.items():
        nbytes = vt.bits // 8

        def load(ctx, arr, offset, _vt=vt, _n=nbytes):
            byte_off = int(offset) * arr.itemsize
            raw = arr.view(np.uint8)[byte_off: byte_off + _n]
            if raw.size != _n:
                raise IndexError(
                    f"SIMD load of {_n} bytes at element {offset} runs off "
                    f"the end of an array of {arr.nbytes} bytes"
                )
            return _vec(_vt, raw.copy())

        _fast(name, load)

        # Call-site specialization: the array operand's static element
        # type fixes the itemsize, so the load can slice in *element*
        # space (one cheap copy that doubles as the typed-view seed)
        # instead of re-viewing the whole array as bytes per call.
        def load_factory(args, _vt=vt, _n=nbytes, _generic=load):
            if not (len(args) == 2 and isinstance(args[0], Exp)
                    and isinstance(args[0].tp, ArrayType)):
                return None
            adt = args[0].tp.elem.np_dtype
            if _n % adt.itemsize:
                return None
            lanes = _n // adt.itemsize

            def fn(ctx, arr, offset, _l=lanes, _adt=adt,
                   _LV=_LaneVec, _ds=_DATA_SLOT.__set__):
                if not arr.flags.c_contiguous:
                    return _generic(ctx, arr, offset)
                o = int(offset)
                raw = arr[o: o + _l]
                if raw.size != _l:
                    raise IndexError(
                        f"SIMD load of {_n} bytes at element {offset} runs "
                        f"off the end of an array of {arr.nbytes} bytes"
                    )
                # _lvec inlined; see _pair_gather.
                v = _LV.__new__(_LV)
                v.vt = _vt
                _ds(v, None)
                v._tv = (_adt, raw.copy())
                return v

            if isinstance(args[1], Exp):
                return fn
            if not _is_imm(args[1]):
                return None
            off = int(args[1])
            return lambda ctx, arr, _f=fn, _o=off: _f(ctx, arr, _o)

        _fast_factory(name, load_factory)

    for name in _STORES:
        def store(ctx, arr, value, offset):
            data = value.data
            nbytes = data.size
            byte_off = int(offset) * arr.itemsize
            view = arr.view(np.uint8)
            if byte_off + nbytes > view.size:
                raise IndexError(
                    f"SIMD store of {nbytes} bytes at element {offset} runs "
                    f"off the end of an array of {arr.nbytes} bytes"
                )
            view[byte_off: byte_off + nbytes] = data

        _fast(name, store)

        def store_factory(args, _generic=store):
            if not (len(args) == 3 and isinstance(args[0], Exp)
                    and isinstance(args[0].tp, ArrayType)
                    and isinstance(args[1], Exp)
                    and getattr(args[1].tp, "bits", None)):
                return None
            nbytes = args[1].tp.bits // 8
            adt = args[0].tp.elem.np_dtype
            if nbytes % adt.itemsize:
                return None
            lanes = nbytes // adt.itemsize

            def fn(ctx, arr, value, offset, _l=lanes, _adt=adt,
                   _n=nbytes, _isz=adt.itemsize):
                if not arr.flags.c_contiguous:
                    return _generic(ctx, arr, value, offset)
                o = int(offset)
                if o * _isz + _n > arr.nbytes:
                    raise IndexError(
                        f"SIMD store of {_n} bytes at element {offset} runs "
                        f"off the end of an array of {arr.nbytes} bytes"
                    )
                tv = value._tv
                arr[o: o + _l] = tv[1] \
                    if tv is not None and tv[0] is _adt \
                    else _fv(value, _adt)

            if isinstance(args[2], Exp):
                return fn
            if not _is_imm(args[2]):
                return None
            off = int(args[2])
            return lambda ctx, arr, value, _f=fn, _o=off: \
                _f(ctx, arr, value, _o)

        _fast_factory(name, store_factory)

    sets = (("_mm_set1_ps", M128, _F32), ("_mm256_set1_ps", M256, _F32),
            ("_mm512_set1_ps", M512, _F32), ("_mm_set1_pd", M128D, _F64),
            ("_mm256_set1_pd", M256D, _F64))
    for name, vt, dt in sets:
        lanes = vt.bits // (dt.itemsize * 8)

        def set1(ctx, a, _vt=vt, _dt=dt, _n=lanes):
            # np.full casts the fill value with the same IEEE rounding
            # as the reference's np.array(a).astype(_dt) round-trip.
            return _lvec(_vt, _dt, np.full(_n, a, dtype=_dt))

        _fast(name, set1)

    zeros = (("_mm_setzero_ps", M128), ("_mm_setzero_pd", M128D),
             ("_mm_setzero_si128", M128I), ("_mm256_setzero_ps", M256),
             ("_mm256_setzero_pd", M256D), ("_mm256_setzero_si256", M256I),
             ("_mm512_setzero_ps", M512), ("_mm_setzero_si64", M64))
    for name, vt in zeros:
        nbytes = vt.bits // 8

        def setzero(ctx, _vt=vt, _n=nbytes):
            return _vec(_vt, np.zeros(_n, dtype=np.uint8))

        _fast(name, setzero)


def _install_fast_arith() -> None:
    binops = (("add", np.add), ("sub", np.subtract), ("mul", np.multiply),
              ("div", np.divide), ("min", np.minimum), ("max", np.maximum))
    for sfx, dt in (("ps", _F32), ("pd", _F64)):
        for prefix in ("_mm", "_mm256", "_mm512"):
            for op, ufn in binops:
                def binop(ctx, a, b, _dt=dt, _u=ufn, _LV=_LaneVec,
                          _ds=_DATA_SLOT.__set__):
                    # _fv (hit path) and _lvec inlined; see _pair_gather.
                    tv = a._tv
                    va = tv[1] if tv is not None and tv[0] is _dt \
                        else _fv(a, _dt)
                    tv = b._tv
                    vb = tv[1] if tv is not None and tv[0] is _dt \
                        else _fv(b, _dt)
                    v = _LV.__new__(_LV)
                    v.vt = a.vt
                    _ds(v, None)
                    v._tv = (_dt, _u(va, vb))
                    return v

                _fast(f"{prefix}_{op}_{sfx}", binop)

    # FMA: compute in float64 and round once, exactly as the reference
    # models the fused operation.  The product is accumulated in place
    # (``wa`` is a fresh astype copy), so each kind is the same ufunc
    # sequence as the reference expression, just without temporaries.
    kinds = {
        "fmadd": (False, np.add),
        "fmsub": (False, np.subtract),
        "fnmadd": (True, np.add),
        "fnmsub": (True, np.subtract),
    }
    for kind, (negate, combine) in kinds.items():
        for sfx, dt in (("ps", _F32), ("pd", _F64)):
            for prefix, bits in (("_mm", 128), ("_mm256", 256),
                                 ("_mm512", 512)):
                lanes = bits // (dt.itemsize * 8)
                scratch = np.empty(lanes, dtype=np.float64)

                def fma(ctx, a, b, c, _neg=negate, _fn=combine, _dt=dt,
                        _w=scratch, _LV=_LaneVec, _ds=_DATA_SLOT.__set__):
                    # Mixed-dtype ufuncs promote the float32 operand to
                    # float64 exactly like the reference's astype
                    # upcast, fused into the operation; ``b``'s upcast
                    # is cached (it is the broadcast coefficient in
                    # FMA-style kernels, loop-invariant across runs).
                    # The float64 intermediate lives in a per-handler
                    # scratch (safe: handlers never re-enter) and only
                    # the final rounded result is a fresh array.
                    # _fv (hit path) and _lvec inlined; see _pair_gather.
                    tv = a._tv
                    va = tv[1] if tv is not None and tv[0] is _dt \
                        else _fv(a, _dt)
                    np.multiply(va, _fw64(b, _dt), out=_w)
                    if _neg:
                        np.negative(_w, out=_w)
                    tv = c._tv
                    vc = tv[1] if tv is not None and tv[0] is _dt \
                        else _fv(c, _dt)
                    _fn(_w, vc, out=_w)
                    v = _LV.__new__(_LV)
                    v.vt = a.vt
                    _ds(v, None)
                    v._tv = (_dt, _w.astype(_dt))
                    return v

                _fast(f"{prefix}_{kind}_{sfx}", fma)


def _pair_gather(dt: np.dtype, nlanes: int,
                 lane_srcs: Sequence[int]) -> Callable:
    """A two-source lane shuffle: copy both registers' typed lanes into
    a scratch buffer and gather the output in one fancy index (~4-5x
    cheaper than per-lane strided assignments).  Working in lane space
    rather than byte space means the inputs hit the cached typed view
    (no byte-image materialization) and the output carries its typed
    view from birth; same-dtype numpy copies are raw memcpys, so NaN
    payloads and every other bit pattern survive exactly.  The scratch
    is private to the handler closure; a handler call never re-enters
    another handler, so reuse is safe and the gathered output is always
    a fresh array.
    """
    scratch = np.empty(2 * nlanes, dtype=dt)
    idx = np.array(lane_srcs, dtype=np.intp)

    # _fv (hit path) and _lvec are inlined below: a shuffle executes
    # tens of thousands of times per kernel run and each avoided Python
    # call is ~70ns.
    def fn(ctx, a, b, _sc=scratch, _idx=idx, _n=nlanes, _dt=dt,
           _LV=_LaneVec, _ds=_DATA_SLOT.__set__):
        tv = a._tv
        _sc[:_n] = tv[1] if tv is not None and tv[0] is _dt \
            else _fv(a, _dt)
        tv = b._tv
        _sc[_n:] = tv[1] if tv is not None and tv[0] is _dt \
            else _fv(b, _dt)
        v = _LV.__new__(_LV)
        v.vt = a.vt
        _ds(v, None)
        v._tv = (_dt, _sc[_idx])
        return v

    return fn


def _shuffle_lanes(imm: int, halves: int) -> list[int]:
    """Concat-space source lanes of ``(v)shufps`` for one immediate."""
    s = [(imm >> (2 * k)) & 3 for k in range(4)]
    lanes = halves * 4  # lanes per source register
    out = []
    for h in range(halves):
        base = 4 * h
        out += [base + s[0], base + s[1],
                lanes + base + s[2], lanes + base + s[3]]
    return out


def _is_imm(value: Any) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(
        value, bool)


def _install_fast_swizzle() -> None:
    # Unpacks take no immediate: one precomputed gather per (name, width).
    for half, o in (("lo", 0), ("hi", 2)):
        _fast(f"_mm_unpack{half}_ps", _pair_gather(
            _F32, 4, [o, 4 + o, o + 1, 4 + o + 1]))
        _fast(f"_mm256_unpack{half}_ps", _pair_gather(
            _F32, 8, [o, 8 + o, o + 1, 8 + o + 1,
                      4 + o, 12 + o, 4 + o + 1, 12 + o + 1]))
    for half, o in (("lo", 0), ("hi", 1)):
        _fast(f"_mm_unpack{half}_pd", _pair_gather(
            _F64, 2, [o, 2 + o]))
        _fast(f"_mm256_unpack{half}_pd", _pair_gather(
            _F64, 4, [o, 4 + o, 2 + o, 4 + 2 + o]))

    # Shuffles: the immediate is almost always a compile-time constant,
    # so the call-site factory pre-decodes it into a gather index array
    # built once per program.  The imm-in-a-register generic handlers
    # below remain the fallback for staged (dynamic) immediates.
    def shuffle_ps_factory(args):
        if len(args) == 3 and isinstance(args[0], Exp) \
                and isinstance(args[1], Exp) and _is_imm(args[2]):
            imm = int(args[2])
            return _pair_gather(_F32, 4, _shuffle_lanes(imm, 1))
        return None

    def shuffle_ps256_factory(args):
        if len(args) == 3 and isinstance(args[0], Exp) \
                and isinstance(args[1], Exp) and _is_imm(args[2]):
            imm = int(args[2])
            return _pair_gather(_F32, 8, _shuffle_lanes(imm, 2))
        return None

    _fast_factory("_mm_shuffle_ps", shuffle_ps_factory)
    _fast_factory("_mm256_shuffle_ps", shuffle_ps256_factory)

    def shuffle_ps(ctx, a, b, imm8):
        imm = int(imm8)
        va = a.data.view(np.float32)
        vb = b.data.view(np.float32)
        out = np.array([va[imm & 3], va[(imm >> 2) & 3],
                        vb[(imm >> 4) & 3], vb[(imm >> 6) & 3]],
                       dtype=np.float32)
        return _vec(a.vt, out.view(np.uint8))

    _fast("_mm_shuffle_ps", shuffle_ps)

    def shuffle_ps256(ctx, a, b, imm8):
        imm = int(imm8)
        va = a.data.view(np.float32).reshape(2, 4)
        vb = b.data.view(np.float32).reshape(2, 4)
        out = np.empty((2, 4), dtype=np.float32)
        out[:, 0] = va[:, imm & 3]
        out[:, 1] = va[:, (imm >> 2) & 3]
        out[:, 2] = vb[:, (imm >> 4) & 3]
        out[:, 3] = vb[:, (imm >> 6) & 3]
        return _vec(a.vt, out.reshape(-1).view(np.uint8))

    _fast("_mm256_shuffle_ps", shuffle_ps256)

    # permute2f128: each output half is a contiguous 16-byte copy (or a
    # zero fill); the factory decodes both 4-bit controls up front.
    def perm2f128_factory(args):
        if not (len(args) == 3 and isinstance(args[0], Exp)
                and isinstance(args[1], Exp) and _is_imm(args[2])):
            return None
        imm = int(args[2])
        parts = []
        for shift in (0, 4):
            ctl = (imm >> shift) & 0xF
            parts.append(None if ctl & 0x8
                         else ((ctl >> 1) & 1, (ctl & 1) * 4))
        p0, p1 = parts

        def fn(ctx, a, b, _p0=p0, _p1=p1, _dt=_F32,
               _LV=_LaneVec, _ds=_DATA_SLOT.__set__):
            # Each 128-bit half is a contiguous raw copy; moving it as
            # four float32 lanes keeps the whole op in typed-view space
            # (exact for integer vectors too — same-dtype numpy copies
            # are memcpys).  _fv (hit path) and _lvec inlined; see
            # _pair_gather.
            out = np.empty(8, dtype=_dt)
            if _p0 is None:
                out[:4] = 0
            else:
                s = b if _p0[0] else a
                tv = s._tv
                d = tv[1] if tv is not None and tv[0] is _dt \
                    else _fv(s, _dt)
                lo = _p0[1]
                out[:4] = d[lo: lo + 4]
            if _p1 is None:
                out[4:] = 0
            else:
                s = b if _p1[0] else a
                tv = s._tv
                d = tv[1] if tv is not None and tv[0] is _dt \
                    else _fv(s, _dt)
                lo = _p1[1]
                out[4:] = d[lo: lo + 4]
            v = _LV.__new__(_LV)
            v.vt = a.vt
            _ds(v, None)
            v._tv = (_dt, out)
            return v

        return fn

    def perm2f128(ctx, a, b, imm8):
        imm = int(imm8)
        out = np.empty(32, dtype=np.uint8)
        for pos, shift in ((0, 0), (1, 4)):
            ctl = (imm >> shift) & 0xF
            base = pos * 16
            if ctl & 0x8:
                out[base: base + 16] = 0
            else:
                src = a.data if (ctl & 2) == 0 else b.data
                half = (ctl & 1) * 16
                out[base: base + 16] = src[half: half + 16]
        return _vec(a.vt, out)

    for name in ("_mm256_permute2f128_ps", "_mm256_permute2f128_pd",
                 "_mm256_permute2x128_si256"):
        _fast_factory(name, perm2f128_factory)
        _fast(name, perm2f128)

    def castps256_ps128(ctx, a):
        return _lvec(M128, _F32, _fv(a, _F32)[:4].copy())

    _fast("_mm256_castps256_ps128", castps256_ps128)


_install_fast_memory()
_install_fast_arith()
_install_fast_swizzle()


# ---------------------------------------------------------------------------
# Step factories.  Each returns a closure `step(machine, regs, counts)`
# specialized for one SSA statement; the factory arguments become fast
# LOAD_DEREF cells inside the closure.
# ---------------------------------------------------------------------------

_CMP_FNS = {
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def _c_div(a: int, b: int) -> int:
    # C semantics: truncation toward zero.
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def _c_mod(a: int, b: int) -> int:
    return a - (abs(a) // abs(b)) * abs(b) * (1 if a >= 0 else -1)


def _gen_mod(a, b):
    return _c_mod(int(a), int(b))


def _gen_shl(a, b):
    return int(a) << int(b)


def _gen_shr(a, b):
    return int(a) >> int(b)


# Integer fast path: operate on two's-complement-wrapped Python ints.
_INT_FNS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "&": operator.and_, "|": operator.or_, "^": operator.xor,
    "<<": operator.lshift, ">>": operator.rshift,
    "/": _c_div, "%": _c_mod,
}

# Generic path: numpy-typed operands, mirroring SimdMachine._binop.
_GEN_FNS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "&": operator.and_, "|": operator.or_, "^": operator.xor,
    "<<": _gen_shl, ">>": _gen_shr, "/": operator.truediv, "%": _gen_mod,
}


def _raise_step(ci: int, exc: BaseException) -> Callable:
    # The tree engine bumps the op counter before it fails on an
    # unknown op / unimplemented intrinsic; preserve that on replay.
    def step(m, regs, counts):
        counts[ci] += 1
        raise exc

    return step


def _cmp_step(dst, ia, ib, ci, fn) -> Callable:
    def step(m, regs, counts):
        counts[ci] += 1
        regs[dst] = bool(fn(regs[ia], regs[ib]))

    return step


def _int_binop_step(dst, ia, ib, ci, fn, tp: ScalarType) -> Callable:
    mask = (1 << tp.bits) - 1
    wrap = 1 << tp.bits
    # For unsigned types the sign threshold is unreachable (> mask), so
    # one code path covers both signednesses.
    sbit = (1 << (tp.bits - 1)) if tp.signed else wrap
    npt = tp.np_dtype.type

    def step(m, regs, counts):
        counts[ci] += 1
        a = int(regs[ia]) & mask
        if a >= sbit:
            a -= wrap
        b = int(regs[ib]) & mask
        if b >= sbit:
            b -= wrap
        c = fn(a, b) & mask
        if c >= sbit:
            c -= wrap
        regs[dst] = npt(c)

    return step


def _np_binop_step(dst, ia, ib, ci, fn, npt, coerce_operands) -> Callable:
    if coerce_operands:
        def step(m, regs, counts):
            counts[ci] += 1
            regs[dst] = npt(fn(npt(regs[ia]), npt(regs[ib])))
    else:
        def step(m, regs, counts):
            counts[ci] += 1
            regs[dst] = npt(fn(regs[ia], regs[ib]))

    return step


def _raw_binop_step(dst, ia, ib, ci, fn) -> Callable:
    def step(m, regs, counts):
        counts[ci] += 1
        regs[dst] = fn(regs[ia], regs[ib])

    return step


def _unary_step(dst, i0, ci, fn, tp) -> Callable:
    if isinstance(tp, ScalarType) and tp.name != "Boolean":
        def step(m, regs, counts):
            counts[ci] += 1
            regs[dst] = _as_scalar(tp, fn(regs[i0]))
    else:
        def step(m, regs, counts):
            counts[ci] += 1
            regs[dst] = fn(regs[i0])

    return step


def _convert_step(dst, i0, tp) -> Callable:
    def step(m, regs, counts):
        regs[dst] = _as_scalar(tp, regs[i0])

    return step


def _select_step(dst, ic, ia, ib, tp) -> Callable:
    if isinstance(tp, ScalarType) and tp.name != "Boolean":
        def step(m, regs, counts):
            regs[dst] = _as_scalar(
                tp, regs[ia] if regs[ic] else regs[ib])
    else:
        def step(m, regs, counts):
            regs[dst] = regs[ia] if regs[ic] else regs[ib]

    return step


def _aload_step(dst, iarr, iidx) -> Callable:
    def step(m, regs, counts):
        regs[dst] = regs[iarr][int(regs[iidx])]

    return step


def _astore_step(dst, iarr, iidx, ival) -> Callable:
    def step(m, regs, counts):
        regs[iarr][int(regs[iidx])] = regs[ival]
        regs[dst] = None

    return step


def _vardecl_step(dst, ii) -> Callable:
    def step(m, regs, counts):
        regs[dst] = _Box(regs[ii])

    return step


def _varread_step(dst, ivar) -> Callable:
    def step(m, regs, counts):
        regs[dst] = regs[ivar].value

    return step


def _varassign_step(dst, ivar, ival) -> Callable:
    def step(m, regs, counts):
        regs[ivar].value = regs[ival]
        regs[dst] = None

    return step


def _copy_step(dst, isrc) -> Callable:
    def step(m, regs, counts):
        regs[dst] = regs[isrc]

    return step


def _for_step(dst, i_start, i_end, i_step, ix, body) -> Callable:
    def step(m, regs, counts):
        start = int(regs[i_start])
        end = int(regs[i_end])
        stride = int(regs[i_step])
        if stride <= 0:
            raise ExecutionError("forloop step must be positive")
        for i in range(start, end, stride):
            regs[ix] = i
            for s in body:
                s(m, regs, counts)
        regs[dst] = None

    return step


def _if_step(dst, ic, then_steps, then_res, else_steps, else_res) -> Callable:
    def step(m, regs, counts):
        if regs[ic]:
            for s in then_steps:
                s(m, regs, counts)
            regs[dst] = regs[then_res]
        else:
            for s in else_steps:
                s(m, regs, counts)
            regs[dst] = regs[else_res]

    return step


def _while_step(dst, cond_steps, cond_res, body) -> Callable:
    def step(m, regs, counts):
        while True:
            for s in cond_steps:
                s(m, regs, counts)
            if not regs[cond_res]:
                break
            for s in body:
                s(m, regs, counts)
        regs[dst] = None

    return step


def _intrin_step(dst, ci, fn, idxs: tuple[int, ...]) -> Callable:
    n = len(idxs)
    if n == 2:
        i0, i1 = idxs

        def step(m, regs, counts):
            counts[ci] += 1
            regs[dst] = fn(m, regs[i0], regs[i1])
    elif n == 3:
        i0, i1, i2 = idxs

        def step(m, regs, counts):
            counts[ci] += 1
            regs[dst] = fn(m, regs[i0], regs[i1], regs[i2])
    elif n == 1:
        i0, = idxs

        def step(m, regs, counts):
            counts[ci] += 1
            regs[dst] = fn(m, regs[i0])
    elif n == 4:
        i0, i1, i2, i3 = idxs

        def step(m, regs, counts):
            counts[ci] += 1
            regs[dst] = fn(m, regs[i0], regs[i1], regs[i2], regs[i3])
    elif n == 0:
        def step(m, regs, counts):
            counts[ci] += 1
            regs[dst] = fn(m)
    else:
        def step(m, regs, counts):
            counts[ci] += 1
            regs[dst] = fn(m, *[regs[i] for i in idxs])

    return step


# ---------------------------------------------------------------------------
# The compiler: one pass over the scheduled SSA block.
# ---------------------------------------------------------------------------

class _Compiler:
    def __init__(self, staged: StagedFunction):
        self.staged = staged
        self._slots: dict[int, int] = {}      # sym id -> register slot
        self._init: list[Any] = []            # register-file template
        self._consts: dict[tuple, int] = {}   # dedup of const/imm slots
        self._counter_ix: dict[str, int] = {}
        self._counter_names: list[str] = []

    def compile(self) -> "CompiledProgram":
        body = self.staged.scheduled()
        param_slots = tuple(self._define(p) for p in self.staged.params)
        written = self.staged.effects.writes
        param_writes = tuple(p.id in written for p in self.staged.params)
        steps = self._block_steps(body)
        result_slot = self._operand(body.result)
        tp = body.result.tp
        result_tp = tp if isinstance(tp, ScalarType) \
            and tp.name != "Boolean" else None
        return CompiledProgram(
            name=self.staged.name,
            params=tuple(self.staged.params),
            param_slots=param_slots,
            param_writes=param_writes,
            init=self._init,
            steps=steps,
            result_slot=result_slot,
            result_tp=result_tp,
            counter_names=tuple(self._counter_names),
        )

    # -- slot allocation -----------------------------------------------------

    def _new_slot(self, value: Any = None) -> int:
        self._init.append(value)
        return len(self._init) - 1

    def _define(self, sym: Sym) -> int:
        slot = self._slots.get(sym.id)
        if slot is None:
            slot = self._new_slot()
            self._slots[sym.id] = slot
        return slot

    def _operand(self, exp: Exp) -> int:
        if isinstance(exp, Sym):
            slot = self._slots.get(exp.id)
            if slot is None:
                # The tree engine diagnoses this on first evaluation;
                # the compiler diagnoses it up front, same error type.
                raise ExecutionError(f"unbound symbol {exp!r}")
            return slot
        if isinstance(exp, Const):
            key = ("c", exp.tp.name, type(exp.value).__name__,
                   repr(exp.value))
            slot = self._consts.get(key)
            if slot is None:
                if exp.value is None:
                    value = None
                elif isinstance(exp.tp, ScalarType):
                    value = _as_scalar(exp.tp, exp.value)
                else:
                    value = exp.value
                slot = self._new_slot(value)
                self._consts[key] = slot
            return slot
        raise ExecutionError(f"cannot evaluate {exp!r}")

    def _immediate(self, value: Any) -> int:
        key = ("imm", type(value).__name__, repr(value))
        slot = self._consts.get(key)
        if slot is None:
            slot = self._new_slot(value)
            self._consts[key] = slot
        return slot

    def _counter(self, name: str) -> int:
        ix = self._counter_ix.get(name)
        if ix is None:
            ix = len(self._counter_names)
            self._counter_ix[name] = ix
            self._counter_names.append(name)
        return ix

    # -- statement compilation -----------------------------------------------

    def _block_steps(self, block: Block) -> tuple[Callable, ...]:
        return tuple(self._stm_step(stm) for stm in block.stms)

    def _stm_step(self, stm: Stm) -> Callable:
        rhs = stm.rhs

        if isinstance(rhs, BinaryOp):
            return self._binop_step(stm)
        if isinstance(rhs, UnaryOp):
            i0 = self._operand(rhs.operand)
            ci = self._counter("scalar." + rhs.op)
            dst = self._define(stm.sym)
            if rhs.op == "neg":
                return _unary_step(dst, i0, ci, operator.neg, rhs.tp)
            if rhs.op == "not":
                return _unary_step(dst, i0, ci, operator.invert, rhs.tp)
            return _raise_step(
                ci, ExecutionError(f"unknown unary op {rhs.op}"))
        if isinstance(rhs, Convert):
            i0 = self._operand(rhs.operand)
            return _convert_step(self._define(stm.sym), i0, rhs.tp)
        if isinstance(rhs, Select):
            cond, then_val, else_val = rhs.exp_args
            ic = self._operand(cond)
            ia = self._operand(then_val)
            ib = self._operand(else_val)
            return _select_step(self._define(stm.sym), ic, ia, ib, rhs.tp)
        if isinstance(rhs, ArrayApply):
            iarr = self._operand(rhs.array)
            iidx = self._operand(rhs.index)
            return _aload_step(self._define(stm.sym), iarr, iidx)
        if isinstance(rhs, ArrayUpdate):
            iarr = self._operand(rhs.array)
            iidx = self._operand(rhs.index)
            ival = self._operand(rhs.value)
            return _astore_step(self._define(stm.sym), iarr, iidx, ival)
        if isinstance(rhs, VarDecl):
            ii = self._operand(rhs.init)
            return _vardecl_step(self._define(stm.sym), ii)
        if isinstance(rhs, VarRead):
            ivar = self._operand(rhs.var)
            return _varread_step(self._define(stm.sym), ivar)
        if isinstance(rhs, VarAssign):
            ivar = self._operand(rhs.var)
            ival = self._operand(rhs.value)
            return _varassign_step(self._define(stm.sym), ivar, ival)
        if isinstance(rhs, ReflectMutable):
            isrc = self._operand(rhs.source)
            return _copy_step(self._define(stm.sym), isrc)
        if isinstance(rhs, ForLoop):
            i_start = self._operand(rhs.start)
            i_end = self._operand(rhs.end)
            i_step = self._operand(rhs.step)
            ix = self._define(rhs.index)
            body = self._block_steps(rhs.body)
            return _for_step(self._define(stm.sym), i_start, i_end,
                             i_step, ix, body)
        if isinstance(rhs, IfThenElse):
            ic = self._operand(rhs.cond)
            then_steps = self._block_steps(rhs.then_block)
            then_res = self._operand(rhs.then_block.result)
            else_steps = self._block_steps(rhs.else_block)
            else_res = self._operand(rhs.else_block.result)
            return _if_step(self._define(stm.sym), ic, then_steps,
                            then_res, else_steps, else_res)
        if isinstance(rhs, WhileLoop):
            cond_steps = self._block_steps(rhs.cond_block)
            cond_res = self._operand(rhs.cond_block.result)
            body = self._block_steps(rhs.body)
            return _while_step(self._define(stm.sym), cond_steps,
                               cond_res, body)

        name = getattr(rhs, "intrinsic_name", None)
        if name is not None:
            ci = self._counter("simd." + name)
            dst = self._define(stm.sym)
            factory = _fast_factories.get(name)
            if factory is not None:
                fn = factory(rhs.args)
                if fn is not None:
                    # Immediates are pre-decoded into the handler; only
                    # the Exp operands occupy argument positions.
                    idxs = tuple(self._operand(a) for a in rhs.args
                                 if isinstance(a, Exp))
                    return _intrin_step(dst, ci, fn, idxs)
            idxs = tuple(self._operand(a) if isinstance(a, Exp)
                         else self._immediate(a) for a in rhs.args)
            try:
                fn = _fast_semantics.get(name) or lookup(name)
            except UnimplementedIntrinsic as exc:
                return _raise_step(ci, exc)
            return _intrin_step(dst, ci, fn, idxs)
        raise ExecutionError(f"cannot execute node {type(rhs).__name__}")

    def _binop_step(self, stm: Stm) -> Callable:
        rhs = stm.rhs
        op, tp = rhs.op, rhs.tp
        ia = self._operand(rhs.lhs)
        ib = self._operand(rhs.rhs)
        ci = self._counter("scalar." + op)
        dst = self._define(stm.sym)
        if op in _CMP_FNS:
            return _cmp_step(dst, ia, ib, ci, _CMP_FNS[op])
        fn = _GEN_FNS.get(op)
        if fn is None:
            return _raise_step(
                ci, ExecutionError(f"unknown binary op {op}"))
        if isinstance(tp, ScalarType) and tp.is_integer:
            return _int_binop_step(dst, ia, ib, ci, _INT_FNS[op], tp)
        if isinstance(tp, ScalarType):
            # Only float and Boolean reach here (is_integer excludes
            # Boolean), so "/" is true division as in the tree engine.
            coerce = tp.name != "Boolean"
            return _np_binop_step(dst, ia, ib, ci, fn,
                                  tp.np_dtype.type, coerce)
        return _raw_binop_step(dst, ia, ib, ci, fn)


class CompiledProgram:
    """A staged function compiled to threaded code.

    Stateless between runs: ``run`` copies the init register template,
    executes the step closures under one blanket ``np.errstate`` and
    folds the dense op-count array back into ``machine.op_counts``
    (even when a step raises, matching the tree engine's partial
    counts).
    """

    __slots__ = ("name", "params", "param_slots", "param_writes", "init",
                 "steps", "result_slot", "result_tp", "counter_names")

    def __init__(self, *, name: str, params: tuple[Sym, ...],
                 param_slots: tuple[int, ...],
                 param_writes: tuple[bool, ...], init: list,
                 steps: tuple[Callable, ...], result_slot: int,
                 result_tp: ScalarType | None,
                 counter_names: tuple[str, ...]):
        self.name = name
        self.params = params
        self.param_slots = param_slots
        self.param_writes = param_writes
        self.init = init
        self.steps = steps
        self.result_slot = result_slot
        self.result_tp = result_tp
        self.counter_names = counter_names

    @property
    def n_slots(self) -> int:
        return len(self.init)

    def run(self, machine, args: Sequence[Any]) -> Any:
        params = self.params
        if len(args) != len(params):
            raise ExecutionError(
                f"{self.name} expects {len(params)} arguments, "
                f"got {len(args)}"
            )
        regs = self.init.copy()
        for slot, param, writes, value in zip(
                self.param_slots, params, self.param_writes, args):
            regs[slot] = check_arg(param, value, writes)
        counter_names = self.counter_names
        counts = [0] * len(counter_names)
        try:
            with np.errstate(over="ignore", divide="ignore",
                             invalid="ignore"):
                for step in self.steps:
                    step(machine, regs, counts)
                result = regs[self.result_slot]
        finally:
            op_counts = machine.op_counts
            for cname, count in zip(counter_names, counts):
                if count:
                    op_counts[cname] += count
        tp = self.result_tp
        if tp is not None and result is not None:
            result = _as_scalar(tp, result)
        return result


def compile_program(staged: StagedFunction) -> CompiledProgram:
    """Compile ``staged`` to threaded code, memoized three ways.

    Instance-level (``staged._exec_program``), then the process-wide
    :data:`repro.core.cache.program_cache` keyed by structural graph
    hash (so re-staging an identical kernel reuses the program), then
    an actual compile under a ``sim.exec.compile`` span.
    """
    program = getattr(staged, "_exec_program", None)
    if program is not None:
        return program
    from repro.core.cache import program_cache
    program = program_cache.get(staged)
    if program is None:
        with obs.span("sim.exec.compile", kernel=staged.name) as span:
            program = _Compiler(staged).compile()
            span.set("steps", len(program.steps))
            span.set("slots", program.n_slots)
        program_cache.put(staged, program)
    try:
        staged._exec_program = program
    except AttributeError:  # pragma: no cover - exotic StagedFunction stand-in
        pass
    return program
