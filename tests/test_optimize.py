"""The graph ``compile_staged`` ships, with no middle-end between
staging and codegen.

What the deleted optimizer used to guard now rests on staging (builder
CSE), scheduling (DCE), the two simulator engines and gcc's flags:

* builder CSE shares identical pure nodes, never distinct trapping ones;
* float identities are never rewritten and signed arithmetic wraps —
  on both engines and in native code built at ``-O3`` with
  ``-ffp-contract=off -fwrapv``;
* memory reads are never forwarded across a write that may alias, and
  DCE never drops a store or emits a dead intrinsic;
* the raw graph of every shipped kernel gives the same bytes on both
  engines and natively;
* plumbing: ``optimize_staged`` is a pass-through that memoizes the
  schedule, and ``compile_staged`` ships the graph it probed the cache
  with.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.codegen.compiler import inspect_system
from repro.isa.registry import load_isas
from repro.kernels import (
    make_staged_mmm,
    make_staged_saxpy,
    make_staged_saxpy512_masked,
)
from repro.kernels.multi_saxpy import make_multi_saxpy
from repro.lms import forloop, stage_function
from repro.lms.defs import ArrayUpdate, BinaryOp
from repro.lms.ops import (
    Variable,
    array_apply,
    array_update,
    binary,
    convert,
    reflect_mutable,
)
from repro.lms.optimize import effective_level, optimize_staged
from repro.lms.schedule import count_statements
from repro.lms.types import FLOAT, INT32, array_of
from repro.quant import dot_ps_step, make_staged_dot
from repro.simd.machine import SimdMachine
from tests.conftest import requires_compiler
from tests.test_differential import _check_native_agrees

_CIR = load_isas("AVX", "AVX2", "FMA")
ENGINES = ("tree", "compiled")


def _walk(block):
    for stm in block.stms:
        yield stm
        for inner in stm.rhs.blocks:
            yield from _walk(inner)


def _intrinsic_stms(block, name):
    return [s for s in _walk(block)
            if getattr(s.rhs, "intrinsic_name", None) == name]


def _binops(block, op):
    return [s for s in _walk(block)
            if isinstance(s.rhs, BinaryOp) and s.rhs.op == op]


def _run(staged, args, engine):
    return SimdMachine(executor=engine).run(staged, args)


def _f32_bits(value) -> bytes:
    return np.float32(value).tobytes()


# ---------------------------------------------------------------------------
# Builder CSE: the only merging left.
# ---------------------------------------------------------------------------


class TestCse:
    def test_distinct_trapping_divisions_never_merge(self):
        """``a / (b + 0)`` and ``a / b`` are distinct staged nodes, and
        nothing after staging merges them: both stay, both trap."""

        def fn(a, b):
            q1 = binary("/", a, binary("+", b, 0))
            q2 = binary("/", a, b)
            return q1 + q2

        staged = stage_function(fn, [INT32, INT32], "div_k")
        assert len(_binops(staged.scheduled(), "/")) == 2
        for engine in ENGINES:
            got = _run(staged, [np.int32(-7), np.int32(2)], engine)
            assert int(got) == -6  # C truncation: -3 + -3
            with pytest.raises(ZeroDivisionError):
                _run(staged, [np.int32(-7), np.int32(0)], engine)

    def test_identical_divisions_share_one_node(self):
        """Every pure node goes through CSE at staging, divisions too:
        two ``a / b`` are one statement, which still traps."""

        def fn(a, b):
            return binary("/", a, b) + binary("/", a, b)

        staged = stage_function(fn, [INT32, INT32], "div2_k")
        assert len(_binops(staged.body, "/")) == 1
        for engine in ENGINES:
            assert int(_run(staged, [np.int32(-7), np.int32(2)],
                            engine)) == -6
            with pytest.raises(ZeroDivisionError):
                _run(staged, [np.int32(-7), np.int32(0)], engine)

    def test_identical_intrinsics_collapse_at_staging(self):
        def fn(a, n):
            reflect_mutable(a)
            v1 = _CIR._mm256_set1_ps(convert(n, FLOAT))
            v2 = _CIR._mm256_set1_ps(convert(n, FLOAT))
            _CIR._mm256_storeu_ps(a, _CIR._mm256_add_ps(v1, v2), 0)

        staged = stage_function(fn, [array_of(FLOAT), INT32], "cse_k")
        assert len(_intrinsic_stms(staged.body, "_mm256_set1_ps")) == 1
        for engine in ENGINES:
            a = np.zeros(8, np.float32)
            _run(staged, [a, np.int32(3)], engine)
            assert a.tolist() == [6.0] * 8


# ---------------------------------------------------------------------------
# IEEE float semantics and trapping, on both engines.
# ---------------------------------------------------------------------------


class TestFloatSafety:
    def test_plus_zero_not_rewritten(self):
        """x + 0.0 maps -0.0 to +0.0, so it must survive."""
        staged = stage_function(lambda x: x + 0.0, [FLOAT], "pz_k")
        assert _binops(staged.scheduled(), "+")
        for engine in ENGINES:
            got = _run(staged, [np.float32(-0.0)], engine)
            assert _f32_bits(got) == _f32_bits(0.0)

    def test_minus_zero_and_times_one_preserve_bits(self):
        staged = stage_function(lambda x: (x - 0.0) * 1.0, [FLOAT],
                                "mz_k")
        for v in (-0.0, float("nan"), float("inf"), 1.5):
            x = np.float32(v)
            ref = (x - np.float32(0.0)) * np.float32(1.0)
            for engine in ENGINES:
                got = _run(staged, [x], engine)
                assert _f32_bits(got) == _f32_bits(ref), (engine, v)

    def test_float_mul_zero_not_discarded(self):
        staged = stage_function(lambda x: x * 0.0, [FLOAT], "fz_k")
        for engine in ENGINES:
            assert np.isnan(_run(staged, [np.float32("inf")], engine))


class TestTrapPreservation:
    def test_dead_division_still_raises(self):
        """``q * 0`` keeps ``q = a / b`` live, so division by zero
        still raises."""

        def fn(a, b):
            q = binary("/", a, b)
            return q * 0

        staged = stage_function(fn, [INT32, INT32], "trap_k")
        for engine in ENGINES:
            with pytest.raises(ZeroDivisionError):
                _run(staged, [np.int32(7), np.int32(0)], engine)
            assert int(_run(staged, [np.int32(7), np.int32(2)],
                            engine)) == 0


# ---------------------------------------------------------------------------
# gcc -O3 optimizes the emitted C now; its flags keep the graph's meaning.
# ---------------------------------------------------------------------------


@requires_compiler
class TestNativeSemantics:
    def test_plus_zero_not_rewritten_natively(self):
        staged = stage_function(lambda x: x + 0.0, [FLOAT], "npz_k")
        _check_native_agrees(staged, [-0.0], _f32_bits)

    @pytest.mark.parametrize("v", [-0.0, float("nan"), float("inf"), 1.5])
    def test_minus_zero_and_times_one_preserve_bits_natively(self, v):
        staged = stage_function(lambda x: (x - 0.0) * 1.0, [FLOAT],
                                "nmz_k")
        _check_native_agrees(staged, [v], _f32_bits)

    def test_float_mul_zero_not_discarded_natively(self):
        from repro.core.resilience import acquire_native

        staged = stage_function(lambda x: x * 0.0, [FLOAT], "nfz_k")
        assert np.isnan(acquire_native(staged)[0](float("inf")))

    def test_multiply_add_is_not_contracted(self):
        """SAXPY's scalar tail ``a + b * s`` is built with ``-mfma``;
        contracted into one fused rounding it would give -2**-46."""
        from repro.core.resilience import acquire_native

        staged = make_staged_saxpy()
        n = 3  # the tail loop only
        b = np.full(n, 1 + 2.0 ** -23, np.float32)
        s = np.float32(1 - 2.0 ** -23)
        a_native = np.full(n, -1.0, np.float32)
        a_sim = a_native.copy()
        acquire_native(staged)[0](a_native, b, float(s), n)
        _run(staged, [a_sim, b, s, np.int32(n)], "compiled")
        assert a_sim.tolist() == [0.0] * n
        assert a_native.tobytes() == a_sim.tobytes()

    @pytest.mark.parametrize("expr", [
        lambda a, b: (a + 0) * 1 + (b - 0),
        lambda a, b: a * 0 + 7,
        lambda a, b: a * 8 + b,
    ], ids=["identities", "mul_zero", "mul_pow2"])
    def test_integer_identities_wrap_natively(self, expr):
        """The identities the deleted simplifier rewrote reach gcc
        unsimplified; at the int32 edges the sums must wrap."""
        staged = stage_function(expr, [INT32, INT32], "nid_k")
        for a, b in ((2**31 - 1, 1), (2**28 + 5, -(2**31)), (-3, 4)):
            _check_native_agrees(staged, [a, b],
                                 lambda v: np.int32(v).tobytes())


# ---------------------------------------------------------------------------
# Memory: no read moves past a write that may change it.
# ---------------------------------------------------------------------------


class TestForwarding:
    def test_store_invalidates_aliasable_load(self):
        """The two parameters may be the same numpy array at run time,
        so the read after the store to ``b`` must stay a re-load."""

        def fn(a, b, n):
            reflect_mutable(b)
            x = array_apply(a, 0)
            array_update(b, 0, x + 1)
            return array_apply(a, 0)  # must re-load: b may alias a

        staged = stage_function(
            fn, [array_of(INT32), array_of(INT32), INT32], "alias_k")
        for engine in ENGINES:
            buf = np.array([10, 20], dtype=np.int32)
            assert int(_run(staged, [buf, buf, np.int32(2)], engine)) == 11

    def test_var_read_forwarding_respects_loop(self):
        def fn(n):
            acc = Variable(0)

            def body(i):
                acc.set(acc.get() + i)

            forloop(0, n, step=1, body=body)
            return acc.get() + acc.get()

        staged = stage_function(fn, [INT32], "var_k")
        for engine in ENGINES:
            assert int(_run(staged, [np.int32(5)], engine)) == 20

    def test_loop_body_never_forwards_across_iterations(self):
        """a[i] written this iteration, a[0] read each iteration:
        iteration i must re-load a[0] (which iteration 0 overwrote)."""

        def fn(a, n):
            reflect_mutable(a)
            seed = array_apply(a, 0)

            def body(i):
                array_update(a, i, array_apply(a, 0) + i)

            forloop(0, n, step=1, body=body)
            return seed

        staged = stage_function(fn, [array_of(INT32), INT32], "iter_k")
        for engine in ENGINES:
            a = np.array([5, 0, 0], dtype=np.int32)
            _run(staged, [a, np.int32(3)], engine)
            # i=0: a[0]=5+0=5; i=1: a[1]=5+1; i=2: a[2]=5+2
            assert a.tolist() == [5, 6, 7]


class TestDce:
    def test_stores_survive_unused_results(self):
        def fn(a, n):
            reflect_mutable(a)
            array_update(a, 0, n * 2)
            dead = binary("+", n, 1)  # pure, unused
            del dead

        staged = stage_function(fn, [array_of(INT32), INT32], "dce_k")
        body = staged.scheduled()
        assert [s for s in _walk(body) if isinstance(s.rhs, ArrayUpdate)]
        assert not _binops(body, "+")

    def test_dead_intrinsic_is_not_emitted(self):
        from repro.codegen.cgen import emit_c_source

        cir = load_isas("AVX", "AVX-512")

        def fn(a):
            v = cir._mm256_loadu_ps(a, 0)
            cir._mm512_set1_ps(1.0)   # dead
            cir._mm256_storeu_ps(a, cir._mm256_add_ps(v, v), 0)

        staged = stage_function(fn, [array_of(FLOAT)], "dead_emit_k")
        assert _intrinsic_stms(staged.body, "_mm512_set1_ps")
        src = emit_c_source(staged)
        assert "_mm256_add_ps" in src
        assert "_mm512_set1_ps" not in src


# ---------------------------------------------------------------------------
# The shipped kernels' raw graphs: both engines and the native tier.
# ---------------------------------------------------------------------------


def _saxpy_args(n):
    def make():
        rng = np.random.default_rng(n)
        a = rng.normal(size=n).astype(np.float32)
        b = rng.normal(size=n).astype(np.float32)
        return [a, b, np.float32(1.75), np.int32(n)]
    return make


def _mmm_args():
    n = 8
    rng = np.random.default_rng(n)
    a = rng.normal(size=n * n).astype(np.float32)
    b = rng.normal(size=n * n).astype(np.float32)
    return [a, b, np.zeros(n * n, np.float32), np.int32(n)]


def _dot_args(bits):
    def make():
        n = dot_ps_step(bits) * 2
        rng = np.random.default_rng(bits)
        if bits == 32:
            a, b = (rng.normal(size=n).astype(np.float32)
                    for _ in range(2))
            return [a, b, np.int32(n)]
        if bits == 16:
            a, b = (rng.normal(size=n).astype(np.float16).view(np.int16)
                    for _ in range(2))
            return [a, b, np.int32(n)]
        # one value per byte at 8 bits, two packed nibbles at 4
        size = n if bits == 8 else n // 2
        a, b = (rng.integers(-127, 127, size=size, dtype=np.int8)
                for _ in range(2))
        return [a, b, np.float32(0.25), np.int32(n)]
    return make


_CORPUS = {
    "saxpy": (make_staged_saxpy, _saxpy_args(27)),
    "saxpy512_masked": (make_staged_saxpy512_masked, _saxpy_args(27)),
    "multi_saxpy": (make_multi_saxpy, _saxpy_args(27)),
    "mmm": (make_staged_mmm, _mmm_args),
    **{f"dot{bits}": (lambda bits=bits: make_staged_dot(bits),
                      _dot_args(bits)) for bits in (32, 16, 8, 4)},
}


def _outcome(result, args):
    """The bytes a run leaves: its result and every array argument."""
    arrays = [a.tobytes() for a in args if isinstance(a, np.ndarray)]
    return (None if result is None else _f32_bits(result)), arrays


class TestKernelCorpus:
    @pytest.mark.parametrize("name", list(_CORPUS))
    def test_engines_agree(self, name):
        make, make_args = _CORPUS[name]
        staged = make()
        outcomes = []
        for engine in ENGINES:
            args = make_args()
            outcomes.append(_outcome(_run(staged, args, engine), args))
        assert outcomes[0] == outcomes[1]


@requires_compiler
class TestNativeTier:
    @pytest.mark.parametrize("name", list(_CORPUS))
    def test_native_matches_unoptimized_simulator(self, name):
        """The generated C of each shipped kernel's raw graph computes
        the bytes the simulator does."""
        from repro.codegen.native import required_isas
        from repro.core.resilience import acquire_native

        make, make_args = _CORPUS[name]
        staged = make()
        missing = required_isas(staged) - inspect_system().isas
        if missing:
            pytest.skip(f"host lacks {sorted(missing)}")
        kernel = acquire_native(staged)[0]
        args = make_args()
        native = _outcome(kernel(*[a.item() if isinstance(a, np.generic)
                                   else a for a in args]), args)
        args = make_args()
        assert native == _outcome(_run(staged, args, "compiled"), args)


# ---------------------------------------------------------------------------
# Plumbing: the pass-through perfbench binds, and the pipeline.
# ---------------------------------------------------------------------------


class TestPlumbing:
    def test_effective_level(self):
        staged = stage_function(lambda n: n + 0, [INT32], "lvl_k")
        assert effective_level() == 1
        out, stats = optimize_staged(staged, effective_level())
        assert out is staged and stats is None

    def test_optimize_staged_memoizes_the_schedule(self):
        def fn(n):
            dead = n * 3
            del dead
            return n + 1

        staged = stage_function(fn, [INT32], "memo_k")
        optimize_staged(staged)
        block = staged.scheduled()
        assert count_statements(block) == 1
        assert count_statements(staged.body) == 2  # body is left as staged
        optimize_staged(staged)
        assert staged.scheduled() is block

    def test_pipeline_ships_the_staged_graph(self):
        from repro.core import compile_staged
        from repro.core.cache import default_cache, graph_hash

        def fn(n):
            return (n + 0) * 1

        default_cache.clear()
        try:
            raw = stage_function(fn, [INT32], "pipe_k")
            k = compile_staged(fn, [INT32], name="pipe_k",
                               backend="simulated")
            assert graph_hash(k.staged) == graph_hash(raw)
            assert count_statements(k.staged.scheduled()) == \
                count_statements(raw.scheduled()) == 2
            assert int(k(np.int32(7))) == 7
            assert "optimizer" not in k.explain()
            # re-staging reproduces the key the kernel was cached under
            assert compile_staged(fn, [INT32], name="pipe_k",
                                  backend="simulated") is k
        finally:
            default_cache.clear()
