"""The optimizing middle-end (repro.lms.optimize).

Three layers of assurance:

* per-pass unit tests — CSE collapses duplicate intrinsics (but never
  may-trap nodes), LICM hoists invariants but never moves a memory read
  past a write that may change it, DCE never drops stores, and
  float-unsafe identities stay un-rewritten;
* randomized differential sweeps — the pipeline ``compile_staged``
  runs vs unoptimized graphs must agree on results, mutated arrays and
  raised exception types, on both simulator engines, for the same
  generated kernels the engine-equivalence suite uses, plus the real
  paper kernels;
* plumbing — the one pipeline level, ``explain()`` and the
  ``== optimizer ==`` report section.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.obs as obs
from repro.isa.registry import load_isas
from repro.kernels import make_staged_mmm, make_staged_saxpy
from repro.lms import forloop, stage_function
from repro.lms.defs import ArrayUpdate, BinaryOp, ForLoop
from repro.lms.expr import Const
from repro.lms.ops import (
    Variable,
    array_apply,
    array_update,
    binary,
    convert,
    reflect_mutable,
)
from repro.lms.optimize import (
    OptStats,
    effective_level,
    hoist_loop_invariants,
    may_trap,
    optimize_staged,
)
from repro.lms.schedule import count_statements, schedule_block
from repro.lms.types import FLOAT, INT32, array_of
from repro.quant import dot_ps_step, make_staged_dot
from repro.simd.machine import SimdMachine
from tests.test_differential import _build_control_kernel, _build_kernel
from tests.conftest import requires_compiler

_CIR = load_isas("AVX", "AVX2", "FMA")


def _intrinsic_stms(block, name):
    return [s for s, _depth in _walk(block)
            if getattr(s.rhs, "intrinsic_name", None) == name]


def _walk(block, depth=0):
    for stm in block.stms:
        yield stm, depth
        for inner in stm.rhs.blocks:
            yield from _walk(inner, depth + 1)


def _loop_body_len(staged):
    loops = [s.rhs for s, _ in _walk(staged.body)
             if isinstance(s.rhs, ForLoop)]
    assert loops
    return len(loops[0].body.stms)


# ---------------------------------------------------------------------------
# Per-pass units.
# ---------------------------------------------------------------------------


class TestCse:
    def test_duplicate_intrinsics_collapse_after_simplify(self):
        """``set1(n + 0)`` and ``set1(n)`` are distinct staged nodes;
        simplify makes them structurally identical and the GVN mirror
        merges them."""

        def fn(a, n):
            reflect_mutable(a)
            v1 = _CIR._mm256_set1_ps(convert(n + 0, FLOAT))
            v2 = _CIR._mm256_set1_ps(convert(n, FLOAT))
            s = _CIR._mm256_add_ps(v1, v2)
            _CIR._mm256_storeu_ps(a, s, 0)

        staged = stage_function(fn, [array_of(FLOAT), INT32], "cse_k")
        assert len(_intrinsic_stms(staged.body, "_mm256_set1_ps")) == 2
        opt, _ = optimize_staged(staged)
        assert len(_intrinsic_stms(opt.body, "_mm256_set1_ps")) == 1
        a = np.zeros(8, np.float32)
        SimdMachine(executor="tree").run(opt, [a, np.int32(3)])
        assert a.tolist() == [6.0] * 8

    def test_may_trap_divisions_never_merge(self):
        """``a / (b + 0)`` and ``a / b`` are distinct staged nodes (so
        staging-time CSE leaves them apart); simplify makes them
        structurally identical, but may-trap nodes are reflected
        without CSE so the optimizer must not merge them either."""

        def fn(a, b):
            q1 = binary("/", a, binary("+", b, 0))
            q2 = binary("/", a, b)
            return q1 + q2

        staged = stage_function(fn, [INT32, INT32], "div_k")
        divs0 = [s for s, _ in _walk(staged.body)
                 if isinstance(s.rhs, BinaryOp) and s.rhs.op == "/"]
        assert len(divs0) == 2
        opt, _ = optimize_staged(staged)
        divs = [s for s, _ in _walk(opt.body)
                if isinstance(s.rhs, BinaryOp) and s.rhs.op == "/"]
        assert len(divs) == 2
        got = SimdMachine(executor="tree").run(
            opt, [np.int32(-7), np.int32(2)])
        assert int(got) == -6  # C truncation: -3 + -3
        with pytest.raises(ZeroDivisionError):
            SimdMachine(executor="tree").run(
                opt, [np.int32(-7), np.int32(0)])

    def test_licm_hoists_broadcast_out_of_loop(self):
        def fn(a, s, n):
            reflect_mutable(a)

            def body(i):
                vs = _CIR._mm256_set1_ps(s)
                va = _CIR._mm256_loadu_ps(a, i)
                _CIR._mm256_storeu_ps(a, _CIR._mm256_add_ps(va, vs), i)

            forloop(0, n, step=8, body=body)

        staged = stage_function(fn, [array_of(FLOAT), FLOAT, INT32],
                                "licm_k")
        before = _loop_body_len(staged)
        opt, stats = optimize_staged(staged)
        assert stats.hoisted >= 1
        assert _loop_body_len(opt) < before
        # The hoisted set1 sits before the loop at top level.
        assert _intrinsic_stms(opt.body, "_mm256_set1_ps")
        top = [getattr(s.rhs, "intrinsic_name", None)
               for s in opt.body.stms]
        assert "_mm256_set1_ps" in top
        a = np.arange(16, dtype=np.float32)
        SimdMachine(executor="tree").run(
            opt, [a, np.float32(2.0), np.int32(16)])
        assert a.tolist() == [float(i) + 2.0 for i in range(16)]

    def test_hoist_respects_loop_dependence(self):
        def fn(a, n):
            reflect_mutable(a)

            def body(i):
                array_update(a, i, convert(i * 2, FLOAT))

            forloop(0, n, step=1, body=body)

        staged = stage_function(fn, [array_of(FLOAT), INT32], "dep_k")
        moved = hoist_loop_invariants(staged)
        assert moved == 0


class TestFloatSafety:
    def test_plus_zero_not_rewritten(self):
        """x + 0.0 maps -0.0 to +0.0, so it must survive."""

        def fn(x):
            return x + 0.0

        staged = stage_function(fn, [FLOAT], "pz_k")
        opt, _ = optimize_staged(staged)
        got = SimdMachine(executor="tree").run(opt, [np.float32(-0.0)])
        assert np.float32(got).tobytes() == np.float32(0.0).tobytes()
        adds = [s for s, _ in _walk(opt.body)
                if isinstance(s.rhs, BinaryOp) and s.rhs.op == "+"]
        assert adds

    def test_minus_zero_and_times_one_preserve_bits(self):
        def fn(x):
            return (x - 0.0) * 1.0

        staged = stage_function(fn, [FLOAT], "mz_k")
        opt, stats = optimize_staged(staged)
        for v in (-0.0, float("nan"), float("inf"), 1.5):
            got = np.float32(SimdMachine(executor="tree").run(
                opt, [np.float32(v)]))
            ref = np.float32(SimdMachine(executor="tree").run(
                staged, [np.float32(v)]))
            assert got.tobytes() == ref.tobytes()
        # both identities fired: the body is just the parameter
        assert count_statements(opt.body) == 0

    def test_float_mul_zero_not_discarded(self):
        def fn(x):
            return x * 0.0

        staged = stage_function(fn, [FLOAT], "fz_k")
        opt, _ = optimize_staged(staged)
        got = SimdMachine(executor="tree").run(opt, [np.float32("inf")])
        assert np.isnan(got)


class TestTrapPreservation:
    def test_dead_division_still_raises(self):
        """q = a / b is unused after ``q * 0 -> 0`` would fire — but q
        is tainted, so the rewrite declines and div-by-zero still
        raises, exactly like the unoptimized graph."""

        def fn(a, b):
            q = binary("/", a, b)
            return q * 0

        staged = stage_function(fn, [INT32, INT32], "trap_k")
        for level in (0, 1):
            opt, _ = optimize_staged(staged, level)
            with pytest.raises(ZeroDivisionError):
                SimdMachine(executor="tree").run(
                    opt, [np.int32(7), np.int32(0)])
            got = SimdMachine(executor="tree").run(
                opt, [np.int32(7), np.int32(2)])
            assert int(got) == 0

    def test_may_trap_classifier(self):
        i32 = INT32
        assert may_trap(BinaryOp("/", Const(1, i32), Const(0, i32), i32))
        assert not may_trap(
            BinaryOp("/", Const(1, i32), Const(2, i32), i32))
        assert not may_trap(
            BinaryOp("+", Const(1, i32), Const(2, i32), i32))
        assert not may_trap(
            BinaryOp("/", Const(1.0, FLOAT), Const(0.0, FLOAT), FLOAT))


class TestForwarding:
    """The middle-end forwards no memory values, but GVN merging and
    LICM could still move a read past a write that changes it."""

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
        opt, _ = optimize_staged(staged)
        buf = np.array([10, 20], dtype=np.int32)
        got = SimdMachine(executor="tree").run(
            opt, [buf, buf, np.int32(2)])
        assert int(got) == 11

    def test_var_read_forwarding_respects_loop(self):
        def fn(n):
            acc = Variable(0)

            def body(i):
                acc.set(acc.get() + i)

            forloop(0, n, step=1, body=body)
            return acc.get() + acc.get()

        staged = stage_function(fn, [INT32], "var_k")
        opt, _ = optimize_staged(staged)
        got = SimdMachine(executor="tree").run(opt, [np.int32(5)])
        assert int(got) == 20

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
        for level in (0, 1):
            opt, _ = optimize_staged(staged, level)
            a = np.array([5, 0, 0], dtype=np.int32)
            SimdMachine(executor="tree").run(opt, [a, np.int32(3)])
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
        opt, _ = optimize_staged(staged)
        stores = [s for s, _ in _walk(opt.body)
                  if isinstance(s.rhs, ArrayUpdate)]
        assert stores
        adds = [s for s, _ in _walk(opt.body)
                if isinstance(s.rhs, BinaryOp) and s.rhs.op == "+"]
        assert not adds


# ---------------------------------------------------------------------------
# Differential sweeps: optimized vs unoptimized, both engines.
# ---------------------------------------------------------------------------


def _run_one(staged, arr, n, engine):
    machine = SimdMachine(executor=engine, profile=True)
    try:
        result = machine.run(staged, [arr, np.int32(n)])
        return ("ok", result, arr)
    except Exception as exc:  # noqa: BLE001 - compared by type
        return ("raise", type(exc).__name__, arr)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(choices=st.lists(st.integers(0, 10_000), min_size=8, max_size=40),
       data=st.lists(st.integers(-100, 100), min_size=1, max_size=24))
def test_control_kernels_bit_identical_both_engines(choices, data):
    staged = _build_control_kernel(choices)
    opt, _ = optimize_staged(staged)
    n = len(data)
    for engine in ("tree", "compiled"):
        a0 = np.array(data, dtype=np.int32)
        a2 = np.array(data, dtype=np.int32)
        k0, r0, _ = _run_one(staged, a0, n, engine)
        k2, r2, _ = _run_one(opt, a2, n, engine)
        assert k0 == k2
        if k0 == "ok":
            assert np.int32(r0).tobytes() == np.int32(r2).tobytes()
        else:
            assert r0 == r2
        assert np.array_equal(a0, a2)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(choices=st.lists(st.integers(0, 10_000), min_size=8, max_size=40),
       a=st.integers(-(2**31), 2**31 - 1),
       b=st.integers(-1000, 1000),
       x=st.floats(-100.0, 100.0, width=32, allow_nan=False))
def test_scalar_kernels_bit_identical(choices, a, b, x):
    for as_float in (False, True):
        staged = _build_kernel(choices, as_float)
        opt, _ = optimize_staged(staged)
        from repro.simd.machine import execute_staged
        ref = execute_staged(staged, [a, b, x])
        got = execute_staged(opt, [a, b, x])
        if as_float:
            assert np.float32(ref).tobytes() == np.float32(got).tobytes()
        else:
            assert np.int32(ref).tobytes() == np.int32(got).tobytes()


class TestKernelCorpus:
    """The real paper kernels: optimized graphs produce bit-identical
    arrays on both engines, and the middle-end pays for itself."""

    @pytest.mark.parametrize("engine", ["tree", "compiled"])
    def test_saxpy(self, engine, rng):
        n = 24
        staged = make_staged_saxpy()
        opt, _ = optimize_staged(staged)
        a0 = rng.normal(size=n).astype(np.float32)
        b = rng.normal(size=n).astype(np.float32)
        a_ref, a_opt = a0.copy(), a0.copy()
        SimdMachine(executor=engine).run(
            staged, [a_ref, b, np.float32(1.75), np.int32(n)])
        SimdMachine(executor=engine).run(
            opt, [a_opt, b, np.float32(1.75), np.int32(n)])
        assert a_ref.tobytes() == a_opt.tobytes()

    @pytest.mark.parametrize("engine", ["tree", "compiled"])
    def test_mmm(self, engine, rng):
        n = 8
        staged = make_staged_mmm()
        opt, _ = optimize_staged(staged)
        a = rng.normal(size=(n, n)).astype(np.float32).ravel()
        b = rng.normal(size=(n, n)).astype(np.float32).ravel()
        c_ref = np.zeros(n * n, dtype=np.float32)
        c_opt = np.zeros(n * n, dtype=np.float32)
        SimdMachine(executor=engine).run(staged, [a, b, c_ref, np.int32(n)])
        SimdMachine(executor=engine).run(opt, [a, b, c_opt, np.int32(n)])
        assert c_ref.tobytes() == c_opt.tobytes()

    @pytest.mark.parametrize("bits", [32, 16, 8, 4])
    def test_quant_dot(self, bits, rng):
        """Every Fig. 7 precision, on both engines."""
        n = dot_ps_step(bits) * 2
        staged = make_staged_dot(bits)
        opt, _ = optimize_staged(staged)
        if bits == 32:
            a = rng.normal(size=n).astype(np.float32)
            b = rng.normal(size=n).astype(np.float32)
            args = [a, b, np.int32(n)]
        elif bits == 16:
            a = rng.normal(size=n).astype(np.float16).view(np.int16)
            b = rng.normal(size=n).astype(np.float16).view(np.int16)
            args = [a, b, np.int32(n)]
        else:
            # one value per byte at 8 bits, two packed nibbles at 4
            size = n if bits == 8 else n // 2
            a = rng.integers(-127, 127, size=size, dtype=np.int8)
            b = rng.integers(-127, 127, size=size, dtype=np.int8)
            args = [a, b, np.float32(1.0), np.int32(n)]
        for engine in ("tree", "compiled"):
            ref = SimdMachine(executor=engine).run(staged, args)
            got = SimdMachine(executor=engine).run(opt, args)
            assert np.float32(ref).tobytes() == np.float32(got).tobytes()


@requires_compiler
class TestNativeTier:
    def test_native_matches_unoptimized_simulator(self, rng):
        """The generated C from an optimized graph computes the same
        bytes the unoptimized simulator does."""
        from repro.codegen.native import compile_to_native

        n = 24
        staged = make_staged_saxpy()
        opt, _ = optimize_staged(staged)
        kernel = compile_to_native(opt)
        a0 = rng.normal(size=n).astype(np.float32)
        b = rng.normal(size=n).astype(np.float32)
        a_native, a_sim = a0.copy(), a0.copy()
        kernel(a_native, b, 1.75, n)
        SimdMachine(executor="tree").run(
            staged, [a_sim, b, np.float32(1.75), np.int32(n)])
        assert a_native.tobytes() == a_sim.tobytes()


# ---------------------------------------------------------------------------
# Plumbing: the level, explain, report.
# ---------------------------------------------------------------------------


class TestPlumbing:
    def test_effective_level(self):
        staged = stage_function(lambda n: n + 0, [INT32], "lvl_k")
        assert effective_level() == 1
        assert optimize_staged(staged)[1].level == effective_level()
        with pytest.raises(ValueError, match="level"):
            optimize_staged(staged, 2)

    def test_level_zero_returns_input_unchanged(self):
        def fn(n):
            return n + 0

        staged = stage_function(fn, [INT32], "id_k")
        opt, stats = optimize_staged(staged, 0)
        assert opt is staged
        assert stats.level == 0 and stats.total_eliminated == 0

    def test_pipeline_always_optimizes(self):
        from repro.core import compile_staged
        from repro.core.cache import default_cache

        def fn(n):
            return (n + 0) * 1

        default_cache.clear()
        raw = stage_function(fn, [INT32], "pipe_k")
        k = compile_staged(fn, [INT32], name="pipe_k",
                           backend="simulated")
        assert k.opt_stats is not None and k.opt_stats.level == 1
        assert count_statements(k.staged.body) < \
            count_statements(raw.body)
        assert int(k(np.int32(7))) == 7
        assert "optimizer:" in k.explain()
        assert "level=1" in k.explain()
        default_cache.clear()

    def test_report_optimizer_section_prints_zeros(self):
        from repro.obs.report import render_report

        text = render_report([], {"counters": {}, "gauges": {}})
        assert "== optimizer ==" in text
        assert "opt.runs = 0" in text
        assert "opt.hoisted = 0" in text

    def test_obs_counters_emitted(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")
        obs.reset()

        def fn(n):
            return (n + 0) * 1

        staged = stage_function(fn, [INT32], "obs_k")
        optimize_staged(staged)
        counters = obs.get_registry().snapshot()["counters"]
        obs.reset()
        assert counters.get("opt.runs", 0) >= 1
        assert any(c.startswith("opt.eliminated") for c in counters)

    def test_stats_summary_lines(self):
        stats = OptStats(level=1, iterations=2, stms_before=10,
                         stms_after=4,
                         eliminated={"simplify": 4, "dce": 2})
        text = "\n".join(stats.summary_lines())
        assert "level=1" in text and "10 -> 4" in text
        assert "simplify" in text and "dce" in text
