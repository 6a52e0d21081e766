"""The managed→native boundary: what crosses it and what it refuses.

DESIGN.md §10's argument contract, held on every execution path: the
tree and closure simulator engines, the simulator's whole-batch path,
native per-call and the native batch trampoline.

* A read-only array for a parameter the kernel stores to is refused up
  front with the ``ValueError`` NumPy raises for such a store — even
  when the call would store nothing (n=0), and in a batch before any
  entry runs.  A read-only array the kernel only reads is accepted.
* Out-of-range integer scalars wrap two's-complement style on every
  path, batched or not.
* Arrays the boundary cannot pass (not an ndarray, wrong dtype — a
  byte-swapped one included — not C-contiguous) raise the same
  ``TypeError`` per call and per batch, and a batch holding one runs no
  entry; everything else it takes (subclasses, equal-but-not-identical
  dtypes, empty, unaligned and temporary arrays) gives the simulator's
  results bit for bit.

The native paths cross through each kernel's generated CPython
extension glue, so the checks it owns in C are held here too: argument
references balance, relinking a library gives a fresh module, the
disk-cache key names the interpreter's ABI and NumPy's version, a host
without ``Python.h`` or NumPy's headers degrades like one without a
compiler, an unconvertible scalar is a ``TypeError``, and the glue
compiles free of warnings.  Calling a kernel enters the glue with no
Python frame of the library's between, except the tiered dispatch's
own, and a batch crosses once.
"""

from __future__ import annotations

import gc
import sys

import numpy as np
import pytest

import repro.codegen.compiler as compiler_mod
import repro.codegen.native as native_mod
import repro.core.cache as cache_mod
from repro.codegen.compiler import compile_shared_library, inspect_system
from repro.codegen.native import NativeLinkError, export_source
from repro.core import BackendKind, compile_staged
from repro.core.cache import DiskKernelCache, default_cache
from repro.core.resilience import clear_session_state
from repro.lms import const, forloop
from repro.lms.ops import Variable, array_apply, array_update
from repro.lms.staging import stage_function
from repro.lms.types import FLOAT, INT32, UINT32, array_of
from repro.simd.machine import SimdMachine
from tests.conftest import requires_compiler

pytestmark = requires_compiler

_ENV = ("REPRO_FAULTS", "REPRO_CC")


@pytest.fixture(scope="module")
def build(tmp_path_factory):
    """``build(fn, types)`` -> (native kernel, simulated kernel), built
    once per module against a private disk cache."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("kc")))
        for var in _ENV:
            mp.delenv(var, raising=False)
        default_cache.clear()
        clear_session_state()
        built: dict = {}

        def get(fn, types):
            key = fn.__name__
            if key not in built:
                native = compile_staged(fn, types, name=key,
                                        backend="native", use_cache=False)
                sim = compile_staged(fn, types, name=key,
                                     backend="simulated", use_cache=False)
                assert native._native is not None
                built[key] = (native, sim)
            return built[key]

        yield get
        default_cache.clear()
        clear_session_state()


def scale_in_place(a, s, n):
    """a[i] = a[i] * s — stores to ``a``."""
    forloop(0, n, step=1, body=lambda i: array_update(
        a, i, array_apply(a, i) * s))


def scale_into(dst, src, s, n):
    """dst[i] = src[i] * s + 1, returning the sum — only reads ``src``."""
    acc = Variable(const(0.0, FLOAT))

    def body(i):
        v = array_apply(src, i) * s + 1.0
        array_update(dst, i, v)
        acc.set(acc.get() + v)

    forloop(0, n, step=1, body=body)
    return acc.get()


def pass_int(x):
    return x


def pass_uint(x):
    return x


IN_PLACE = [array_of(FLOAT), FLOAT, INT32]
INTO = [array_of(FLOAT), array_of(FLOAT), FLOAT, INT32]

PATHS = ("tree", "closure", "sim_batch", "native", "native_batch")
BATCHED = ("sim_batch", "native_batch")


def run_path(path: str, native, sim, entries: list) -> list:
    """Run ``entries`` (argument tuples) on one execution path."""
    if path == "tree":
        machine = SimdMachine(executor="tree")
        return [machine.run(sim.staged, e) for e in entries]
    if path == "closure":
        machine = SimdMachine(executor="compiled")
        return [machine.run(sim.staged, e) for e in entries]
    if path == "sim_batch":
        return SimdMachine().run_batch(sim.staged, entries)
    if path == "native":
        return [native._native(*e) for e in entries]
    assert path == "native_batch"
    return native._native.call_batch(entries)


def _read_only(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float32)
    arr.flags.writeable = False
    return arr


class TestReadOnly:
    @pytest.mark.parametrize("n", [8, 0])
    @pytest.mark.parametrize("path", PATHS)
    def test_store_target_is_refused_before_anything_runs(
            self, build, path, n):
        native, sim = build(scale_in_place, IN_PLACE)
        start = np.arange(8, dtype=np.float32)
        ro = _read_only(start)
        ok = start.copy()
        entries = [(ro, np.float32(3.0), n)]
        if path in BATCHED:
            entries.insert(0, (ok, np.float32(3.0), n))
        with pytest.raises(ValueError,
                           match="assignment destination is read-only"):
            run_path(path, native, sim, entries)
        assert ro.tobytes() == start.tobytes()
        assert ok.tobytes() == start.tobytes()   # no entry ran

    @pytest.mark.parametrize("path", PATHS)
    def test_read_only_input_is_accepted(self, build, path):
        native, sim = build(scale_into, INTO)
        src = _read_only(np.linspace(-2, 2, 8))
        want_dst = [np.zeros(8, np.float32) for _ in range(2)]
        want = [sim(want_dst[0], src, np.float32(1.5), 8),
                sim(want_dst[1], src, np.float32(-0.5), 6)]
        dst = [np.zeros(8, np.float32) for _ in range(2)]
        got = run_path(path, native, sim,
                       [(dst[0], src, np.float32(1.5), 8),
                        (dst[1], src, np.float32(-0.5), 6)])
        assert np.array(got, np.float32).tobytes() == \
            np.array(want, np.float32).tobytes()
        for d, w in zip(dst, want_dst):
            assert d.tobytes() == w.tobytes()


class TestIntegerWrap:
    CASES = [
        (pass_int, INT32, 2**31 + 5, -2147483643),
        (pass_int, INT32, -2**31 - 3, 2**31 - 3),
        (pass_uint, UINT32, -1, 2**32 - 1),
        (pass_uint, UINT32, 2**32 + 7, 7),
    ]

    @pytest.mark.parametrize("path",
                             ["native", "native_batch", "sim", "sim_batch"])
    @pytest.mark.parametrize("fn,tp,value,wrapped", CASES)
    def test_out_of_range_scalars_wrap(self, build, fn, tp, value,
                                       wrapped, path):
        native, sim = build(fn, [tp])
        kernel = native if path.startswith("native") else sim
        if path.endswith("batch"):
            got = kernel.call_batch([(value,), (12,)])
        else:
            got = [kernel(value), kernel(12)]
        assert [int(v) for v in got] == [wrapped, 12]


def _subclass(values) -> np.ndarray:
    class Tagged(np.ndarray):
        pass
    return np.array(values, dtype=np.float32).view(Tagged)


def _unaligned(values) -> np.ndarray:
    """A writable float32 array one byte off its element alignment."""
    arr = np.zeros(4 * len(values) + 1, np.uint8)[1:].view(np.float32)
    arr[:] = values
    assert not arr.flags.aligned
    return arr


_META_F32 = np.dtype(np.float32, metadata={"unit": "m"})


class TestBoundaryEdges:
    REJECTED = [
        ("list", lambda: [1.0] * 8, "expected numpy array"),
        ("float64", lambda: np.ones(8, np.float64), "must have dtype"),
        ("strided", lambda: np.ones(16, np.float32)[::2], "C-contiguous"),
        ("fortran", lambda: np.ones((2, 4), np.float32, order="F"),
         "C-contiguous"),
        ("byteswapped", lambda: np.ones(8, ">f4"), "must have dtype"),
    ]

    @pytest.mark.parametrize("via", ["call", "call_batch"])
    @pytest.mark.parametrize("label,make,message", REJECTED,
                             ids=[r[0] for r in REJECTED])
    def test_rejected_arrays(self, build, via, label, make, message):
        native = build(scale_into, INTO)[0]._native
        dst = np.zeros(8, np.float32)
        good = (dst, np.ones(8, np.float32), np.float32(2.0), 8)
        bad = (np.zeros(8, np.float32), make(), np.float32(2.0), 8)
        with pytest.raises(TypeError, match=message):
            if via == "call":
                native(*bad)
            else:
                native.call_batch([good, bad])
        assert not dst.any()    # the batch ran no entry

    ACCEPTED = [
        ("read_only", lambda: _read_only(np.arange(8) - 3.0), 8),
        ("empty", lambda: np.empty(0, np.float32), 0),
        ("subclass", lambda: _subclass(np.arange(8) * 0.25), 8),
        ("metadata_dtype", lambda: np.arange(8).astype(_META_F32), 8),
        ("unaligned", lambda: _unaligned(np.arange(8) * 0.75 - 2), 8),
    ]

    @pytest.mark.parametrize("via", ["call", "call_batch"])
    @pytest.mark.parametrize("label,make,n", ACCEPTED,
                             ids=[a[0] for a in ACCEPTED])
    def test_accepted_arrays_match_simulator(self, build, via, label,
                                             make, n):
        native, sim = build(scale_into, INTO)
        src = make()
        if label == "metadata_dtype":
            assert src.dtype == np.float32 and \
                src.dtype is not np.dtype(np.float32)
        want_dst = np.zeros(src.size, np.float32)
        want = sim(want_dst, src, np.float32(1.25), n)
        dst = np.zeros(src.size, np.float32)
        if label == "unaligned":    # the array the kernel writes, too
            dst = _unaligned(dst)
        args = (dst, src, np.float32(1.25), n)
        got = native._native(*args) if via == "call" \
            else native._native.call_batch([args])[0]
        assert np.float32(got).tobytes() == np.float32(want).tobytes()
        assert dst.tobytes() == want_dst.tobytes()

    @pytest.mark.parametrize("via", ["call", "call_batch"])
    def test_temporary_array(self, build, via):
        native, sim = build(scale_into, INTO)
        want_dst = np.zeros(8, np.float32)
        want = sim(want_dst, np.arange(8, dtype=np.float32) * 0.5,
                   np.float32(3.0), 8)
        dst = np.zeros(8, np.float32)
        # the source exists only as an argument of this one call
        if via == "call":
            got = native._native(dst, np.arange(8, dtype=np.float32) * 0.5,
                                 np.float32(3.0), 8)
        else:
            got = native._native.call_batch(
                [(dst, np.arange(8, dtype=np.float32) * 0.5,
                  np.float32(3.0), 8)])[0]
        assert np.float32(got).tobytes() == np.float32(want).tobytes()
        assert dst.tobytes() == want_dst.tobytes()


class TestExtensionGlue:
    def test_references_balance_on_every_native_path(self, build):
        native = build(scale_into, INTO)[0]._native
        dst, src = np.zeros(8, np.float32), np.ones(8, np.float32)
        bad, scale = np.ones(8, np.float64), np.float32(0.5)
        good = (dst, src, scale, 8)
        refused = (dst, bad, scale, 8)     # refused on its last array
        watched = [dst, src, bad, scale, good, refused]
        gc.collect()
        before = [sys.getrefcount(o) for o in watched]
        for _ in range(1000):
            native(*good)
            native.call_batch([good, good])
            for call in (lambda: native(*refused),
                         lambda: native.call_batch([good, refused])):
                try:
                    call()
                except TypeError:
                    pass
                else:
                    pytest.fail("a float64 array was not refused")
        gc.collect()
        assert [sys.getrefcount(o) for o in watched] == before

    def test_relinking_a_disk_artifact_gives_a_second_handle(self, build):
        build(scale_in_place, IN_PLACE)     # the module's private cache

        def relinked(a, s, n):
            forloop(0, n, step=1, body=lambda i: array_update(
                a, i, array_apply(a, i) * s + 0.25))

        kernels = []
        for _ in range(3):
            default_cache.clear()
            clear_session_state()
            kernels.append(compile_staged(relinked, IN_PLACE,
                                          name="relinked",
                                          backend="native",
                                          use_cache=False))
        first, second, third = kernels
        assert [k.report.cache_source for k in kernels] == \
            ["compiled", "disk", "disk"]
        assert second._native.library_path == third._native.library_path
        assert second._native._module is not third._native._module
        for kernel in kernels:
            a = np.arange(8, dtype=np.float32)
            kernel(a, np.float32(2.0), 8)
            assert a.tobytes() == (np.arange(8, dtype=np.float32) * 2
                                   + np.float32(0.25)).tobytes()

    def test_artifact_key_names_the_abi(self, monkeypatch):
        args = ("ab" * 8, "gcc 12", ["-O3"], ["AVX"])
        key = DiskKernelCache.artifact_key(*args)
        monkeypatch.setattr(cache_mod, "_EXT_SUFFIX",
                            ".cpython-39-x86_64-linux-gnu.so")
        other_abi = DiskKernelCache.artifact_key(*args)
        assert other_abi != key
        monkeypatch.setattr(cache_mod, "_NUMPY_VERSION", "1.26.4")
        assert DiskKernelCache.artifact_key(*args) not in (key, other_abi)

    def test_missing_headers_degrade_like_a_missing_compiler(
            self, build, monkeypatch, tmp_path):
        def no_compiler(*args, **kwargs):
            raise AssertionError("a compiler ran without the headers")

        monkeypatch.setattr(native_mod, "compile_with_fallback",
                            no_compiler)

        def headerless(a, n):
            forloop(0, n, step=1, body=lambda i: array_update(
                a, i, array_apply(a, i) + 7.5))

        types = [array_of(FLOAT), INT32]
        for attr, header in (("_PYTHON_INCLUDE_DIR", "Python.h"),
                             ("_NUMPY_INCLUDE_DIR", "numpy/arrayobject.h")):
            with monkeypatch.context() as mp:
                empty = tmp_path / attr / "include"
                empty.mkdir(parents=True)
                mp.setattr(compiler_mod, attr, empty)
                mp.setenv("REPRO_CACHE_DIR", str(tmp_path / attr / "kc"))
                kernel = compile_staged(headerless, types, name="headerless",
                                        backend="auto", use_cache=False)
                assert kernel.backend == BackendKind.SIMULATED
                assert header in kernel.fallback_reason
                a = np.zeros(4, np.float32)
                kernel(a, 4)
                assert (a == 7.5).all()
                with pytest.raises(NativeLinkError, match=header):
                    compile_staged(headerless, types, name="headerless",
                                   backend="native", use_cache=False)

    @pytest.mark.parametrize("fn,types", [(scale_into, INTO),
                                          (pass_int, [INT32])],
                             ids=["scale_into", "scalar_only"])
    def test_glue_compiles_without_warnings(self, fn, types, tmp_path):
        cc = inspect_system().best_compiler
        flags = cc.flags_for(frozenset()) + ["-Wall", "-Wextra", "-Werror"]
        staged = stage_function(fn, types, fn.__name__)
        compile_shared_library(export_source(staged), tmp_path, cc,
                               fn.__name__, flags)

    UNCONVERTIBLE = [
        ("str_for_float", lambda d, s: (d, s, "2.0", 8)),
        ("none_for_float", lambda d, s: (d, s, None, 8)),
        ("float_for_int", lambda d, s: (d, s, np.float32(2.0), 8.0)),
    ]

    @pytest.mark.parametrize("via", ["call", "call_batch"])
    @pytest.mark.parametrize("label,make", UNCONVERTIBLE,
                             ids=[u[0] for u in UNCONVERTIBLE])
    def test_unconvertible_scalar_is_a_type_error(self, build, via, label,
                                                  make):
        native = build(scale_into, INTO)[0]._native
        dst, src = np.zeros(8, np.float32), np.ones(8, np.float32)
        good = (dst, src, np.float32(2.0), 8)
        with pytest.raises(TypeError):
            if via == "call":
                native(*make(dst, src))
            else:
                native.call_batch([good, make(dst, src)])
        assert not dst.any()    # the batch ran no entry


def _profiled(fn, *args) -> tuple[list, list]:
    """Run ``fn(*args)`` under ``sys.setprofile``: the code objects of
    the Python functions it entered, and the C functions it called.
    The cyclic GC is held off meanwhile, so no finalizer of an earlier
    test's garbage runs inside the call."""
    entered, c_called = [], []

    def profile(frame, event, arg):
        if event == "call":
            entered.append(frame.f_code)
        elif event == "c_call":
            c_called.append(arg)

    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return entered, c_called


class TestDispatch:
    def test_native_call_enters_no_python_frame(self, build):
        native = build(scale_into, INTO)[0]
        args = (np.zeros(8, np.float32), np.ones(8, np.float32),
                np.float32(2.0), 8)
        for kernel in (native, native._native):
            assert _profiled(kernel, *args)[0] == []
        assert args[0].tobytes() == np.full(8, 3, np.float32).tobytes()

    def test_tiered_call_enters_no_python_frame(self, build):
        """After its swap a tiered kernel's ``_impl`` is the glue's
        ``call`` entry, which counts the call itself."""
        build(scale_into, INTO)       # the module's private disk cache
        tiered = compile_staged(scale_into, INTO, name="scale_into",
                                tier="async", use_cache=False)
        tiered.wait_native(120)
        assert tiered.tier == "native"
        before = tiered.tier_calls["native"]
        args = (np.zeros(8, np.float32), np.ones(8, np.float32),
                np.float32(2.0), 8)
        assert _profiled(tiered, *args)[0] == []
        assert tiered.tier_calls["native"] == before + 1

    def test_compiled_batch_crosses_once_and_atomically(self, build):
        native, sim = build(scale_into, INTO)
        module = native._native._module
        crossings = (module.call, module.call_batch)
        src = np.linspace(-1, 1, 8).astype(np.float32)
        dst = [np.zeros(8, np.float32) for _ in range(3)]
        entries = [(d, src, np.float32(k + 0.5), 8)
                   for k, d in enumerate(dst)]
        got = []
        c_called = _profiled(lambda: got.extend(native.call_batch(entries)))[1]
        assert [f for f in c_called if f in crossings] == [module.call_batch]
        for (d, *rest), result in zip(entries, got):
            want_dst = np.zeros(8, np.float32)
            want = sim(want_dst, *rest)
            assert np.float32(result).tobytes() == np.float32(want).tobytes()
            assert d.tobytes() == want_dst.tobytes()

        dst = [np.zeros(8, np.float32) for _ in range(3)]
        entries = [(d, src, np.float32(1.5), 8) for d in dst]
        entries[-1] = (dst[-1], src.astype(np.float64), np.float32(1.5), 8)
        with pytest.raises(TypeError, match="must have dtype"):
            native.call_batch(entries)
        assert not any(d.any() for d in dst)    # no entry ran
