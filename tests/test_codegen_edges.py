"""C-emission and execution edge cases: while loops, selects, branches
with results, nested control flow — on both backends."""

import numpy as np
import pytest

from repro.codegen import emit_c_source
from repro.lms import (
    const,
    forloop,
    if_then_else,
    stage_function,
    while_loop,
)
from repro.lms.ops import (
    Variable,
    array_apply,
    array_update,
    convert,
    reflect_mutable,
    select,
    staged_max,
    staged_min,
)
from repro.lms.types import DOUBLE, FLOAT, INT32, INT64, array_of
from repro.simd import execute_staged
from tests.conftest import requires_compiler


def _native_or_skip(staged):
    from repro.codegen.compiler import inspect_system
    from repro.core.resilience import acquire_native

    if inspect_system().best_compiler is None:
        pytest.skip("no C compiler")
    return acquire_native(staged)[0]


class TestWhileLoopCodegen:
    @staticmethod
    def _collatz():
        def collatz(n):
            v = Variable(n)
            steps = Variable(const(0, INT32))

            def body():
                is_even = (v.get() % 2) == 0
                nxt = if_then_else(is_even,
                                   lambda: v.get() / 2,
                                   lambda: v.get() * 3 + 1)
                v.set(nxt)
                steps.set(steps.get() + 1)

            while_loop(lambda: v.get() > 1, body)
            return steps.get()

        return stage_function(collatz, [INT32], "collatz")

    def test_simulated(self):
        sf = self._collatz()
        assert int(execute_staged(sf, [6])) == 8
        assert int(execute_staged(sf, [27])) == 111
        assert int(execute_staged(sf, [1])) == 0

    def test_c_emission_structure(self):
        src = emit_c_source(self._collatz())
        assert "while (1) {" in src
        assert "break;" in src
        assert "return x" in src

    @requires_compiler
    def test_native_matches(self):
        sf = self._collatz()
        kernel = _native_or_skip(sf)
        for n in (1, 6, 27, 97):
            assert kernel(n) == int(execute_staged(sf, [n]))


class TestSelectCodegen:
    def test_clamp_kernel(self):
        def clamp(a, lo, hi, n):
            reflect_mutable(a)

            def body(i):
                x = array_apply(a, i)
                array_update(a, i, staged_min(staged_max(x, lo), hi))

            forloop(0, n, step=1, body=body)

        sf = stage_function(
            clamp, [array_of(FLOAT), FLOAT, FLOAT, INT32], "clamp")
        a = np.array([-5, 0.5, 9, 2], dtype=np.float32)
        execute_staged(sf, [a, 0.0, 3.0, 4])
        assert a.tolist() == [0, 0.5, 3, 2]
        src = emit_c_source(sf)
        assert " ? " in src and " : " in src

    @requires_compiler
    def test_native_clamp(self):
        def clamp(a, lo, hi, n):
            reflect_mutable(a)

            def body(i):
                x = array_apply(a, i)
                array_update(a, i, staged_min(staged_max(x, lo), hi))

            forloop(0, n, step=1, body=body)

        sf = stage_function(
            clamp, [array_of(FLOAT), FLOAT, FLOAT, INT32], "clamp2")
        kernel = _native_or_skip(sf)
        rng = np.random.default_rng(1)
        a_native = (10 * rng.normal(size=64)).astype(np.float32)
        a_sim = a_native.copy()
        kernel(a_native, -1.0, 1.0, 64)
        execute_staged(sf, [a_sim, -1.0, 1.0, 64])
        assert np.array_equal(a_native, a_sim)


class TestNestedControlFlow:
    def test_branch_inside_loop_with_result(self):
        def count_positive(a, n):
            cnt = Variable(const(0, INT32))

            def body(i):
                inc = if_then_else(array_apply(a, i) > 0.0,
                                   lambda: const(1, INT32),
                                   lambda: const(0, INT32))
                cnt.set(cnt.get() + inc)

            forloop(0, n, step=1, body=body)
            return cnt.get()

        sf = stage_function(count_positive, [array_of(FLOAT), INT32],
                            "count_pos")
        a = np.array([1, -2, 3, 0, 5], dtype=np.float32)
        assert int(execute_staged(sf, [a, 5])) == 3
        src = emit_c_source(sf)
        assert "int32_t x" in src and "if (" in src

    @requires_compiler
    def test_native_branch_in_loop(self):
        def count_positive(a, n):
            cnt = Variable(const(0, INT32))

            def body(i):
                inc = if_then_else(array_apply(a, i) > 0.0,
                                   lambda: const(1, INT32),
                                   lambda: const(0, INT32))
                cnt.set(cnt.get() + inc)

            forloop(0, n, step=1, body=body)
            return cnt.get()

        sf = stage_function(count_positive, [array_of(FLOAT), INT32],
                            "count_pos2")
        kernel = _native_or_skip(sf)
        rng = np.random.default_rng(3)
        a = rng.normal(size=100).astype(np.float32)
        assert kernel(a, 100) == int(np.sum(a > 0))

    def test_nested_loops_triangular_sum(self):
        def tri(n):
            total = Variable(const(0, INT64))

            def outer(i):
                def inner(j):
                    total.set(total.get() + convert(j, INT64))

                forloop(0, i + 1, step=1, body=inner)

            forloop(0, n, step=1, body=outer)
            return total.get()

        sf = stage_function(tri, [INT32], "tri")
        got = int(execute_staged(sf, [5]))
        expected = sum(j for i in range(5) for j in range(i + 1))
        assert got == expected


class TestConversionsAcrossBackends:
    @requires_compiler
    def test_float_to_int_truncation_matches(self):
        def trunc_all(a, out, n):
            reflect_mutable(out)
            forloop(0, n, step=1, body=lambda i: array_update(
                out, i, convert(array_apply(a, i), INT32)))

        sf = stage_function(
            trunc_all, [array_of(FLOAT), array_of(INT32), INT32], "trunc")
        kernel = _native_or_skip(sf)
        a = np.array([1.9, -1.9, 0.4, -0.4, 2.5], dtype=np.float32)
        out_native = np.zeros(5, dtype=np.int32)
        out_sim = np.zeros(5, dtype=np.int32)
        kernel(a, out_native, 5)
        execute_staged(sf, [a, out_sim, 5])
        assert np.array_equal(out_native, out_sim)
        assert out_native.tolist() == [1, -1, 0, 0, 2]

    def test_double_precision_kernels(self):
        def accumulate(a, n):
            acc = Variable(const(0.0, DOUBLE))
            forloop(0, n, step=1, body=lambda i: acc.set(
                acc.get() + convert(array_apply(a, i), DOUBLE)))
            return acc.get()

        sf = stage_function(accumulate, [array_of(FLOAT), INT32], "acc64")
        a = np.full(10, 0.1, dtype=np.float32)
        got = float(execute_staged(sf, [a, 10]))
        assert got == pytest.approx(sum(float(x) for x in a), rel=1e-12)
