"""Executing staged graphs on the SIMD machine.

Each test runs on the default ``compiled`` engine; the ``*Tree``
subclasses at the bottom rerun it on the reference ``tree`` engine.
"""

import numpy as np
import pytest

from repro.lms import const, forloop, stage_function
from repro.lms.ops import Variable, array_apply, array_update, convert
from repro.lms.types import (
    FLOAT, INT16, INT32, INT8, UINT32, array_of,
)
from repro.simd.machine import ExecutionError, SimdMachine


class _OnEngine:
    executor = "compiled"

    def execute(self, staged, args):
        return SimdMachine(executor=self.executor).run(staged, args)


class TestScalarSemantics(_OnEngine):
    def test_int32_wraps(self):
        def fn(a):
            return a + 1

        sf = stage_function(fn, [INT32])
        assert int(self.execute(sf, [2**31 - 1])) == -(2**31)

    def test_c_division_truncates_toward_zero(self):
        def fn(a, b):
            return a / b

        sf = stage_function(fn, [INT32, INT32])
        assert int(self.execute(sf, [-7, 2])) == -3
        assert int(self.execute(sf, [7, -2])) == -3

    def test_c_modulo_sign(self):
        def fn(a, b):
            return a % b

        sf = stage_function(fn, [INT32, INT32])
        assert int(self.execute(sf, [-7, 2])) == -1
        assert int(self.execute(sf, [7, 2])) == 1

    def test_sub_int_promotion(self):
        def fn(a, b):
            return a * b  # int8 * int8 promotes to 32 bits

        sf = stage_function(fn, [INT8, INT8])
        assert int(self.execute(sf, [100, 100])) == 10000

    def test_float_conversion(self):
        def fn(a):
            return convert(a, INT32)

        sf = stage_function(fn, [FLOAT])
        assert int(self.execute(sf, [3.9])) == 3

    def test_unsigned_wraps(self):
        def fn(a):
            return a + 1

        sf = stage_function(fn, [UINT32])
        assert int(self.execute(sf, [2**32 - 1])) == 0


class TestArgumentChecking(_OnEngine):
    def test_wrong_arity(self):
        sf = stage_function(lambda a: a, [INT32])
        with pytest.raises(ExecutionError):
            self.execute(sf, [1, 2])

    def test_dtype_mismatch(self):
        def fn(a):
            return array_apply(a, 0)

        sf = stage_function(fn, [array_of(FLOAT)])
        with pytest.raises(ExecutionError, match="dtype"):
            self.execute(sf, [np.zeros(4, dtype=np.float64)])

    def test_array_required(self):
        def fn(a):
            return array_apply(a, 0)

        sf = stage_function(fn, [array_of(FLOAT)])
        with pytest.raises(ExecutionError, match="numpy array"):
            self.execute(sf, [3.0])


class TestOpCounting(_OnEngine):
    def test_counts_intrinsics(self, base_isas):
        cir = base_isas

        def fn(a, n):
            def body(i):
                v = cir._mm256_loadu_ps(a, i)
                cir._mm256_storeu_ps(a, cir._mm256_add_ps(v, v), i)

            forloop(0, n, step=8, body=body)

        sf = stage_function(fn, [array_of(FLOAT), INT32])
        m = SimdMachine(executor=self.executor)
        m.run(sf, [np.ones(32, dtype=np.float32), 32])
        assert m.op_counts["simd._mm256_loadu_ps"] == 4
        assert m.op_counts["simd._mm256_add_ps"] == 4
        assert m.op_counts["simd._mm256_storeu_ps"] == 4


class TestEndToEndKernels(_OnEngine):
    def test_saxpy_tail_handling(self, base_isas):
        from repro.kernels import make_staged_saxpy

        sf = make_staged_saxpy()
        for n in (0, 1, 7, 8, 9, 24, 31):
            a = np.arange(max(n, 1), dtype=np.float32)
            b = np.ones(max(n, 1), dtype=np.float32)
            ref = a + 0.5 * b
            self.execute(sf, [a, b, 0.5, n])
            assert np.allclose(a[:n], ref[:n]), n
            if n < a.size:
                assert a[n:].tolist() == \
                    np.arange(max(n, 1), dtype=np.float32)[n:].tolist()

    def test_reduction_with_variable(self, base_isas):
        cir = base_isas

        def dot(a, b, n):
            acc = Variable(cir._mm256_setzero_ps())

            def body(i):
                va = cir._mm256_loadu_ps(a, i)
                vb = cir._mm256_loadu_ps(b, i)
                acc.set(cir._mm256_fmadd_ps(va, vb, acc.get()))

            forloop(0, n, step=8, body=body)
            v = acc.get()
            hi = cir._mm256_extractf128_ps(v, 1)
            lo = cir._mm256_castps256_ps128(v)
            s = cir._mm_add_ps(hi, lo)
            s = cir._mm_hadd_ps(s, s)
            s = cir._mm_hadd_ps(s, s)
            return cir._mm_cvtss_f32(s)

        sf = stage_function(dot, [array_of(FLOAT), array_of(FLOAT), INT32])
        rng = np.random.default_rng(0)
        a = rng.normal(size=64).astype(np.float32)
        b = rng.normal(size=64).astype(np.float32)
        got = self.execute(sf, [a, b, 64])
        assert np.isclose(float(got), float(np.dot(a, b)), rtol=1e-5)

    def test_fp16_pipeline(self, base_isas):
        cir = base_isas

        def widen(src, dst, n):
            def body(i):
                h = cir._mm_loadu_si128(src, i)
                cir._mm256_storeu_ps(dst, cir._mm256_cvtph_ps(h), i)

            forloop(0, n, step=8, body=body)

        sf = stage_function(widen, [array_of(INT16), array_of(FLOAT), INT32])
        xs = np.array([0.5, 1.5, -2.25, 8, 0.125, -1, 3, 7],
                      dtype=np.float16)
        dst = np.zeros(8, dtype=np.float32)
        self.execute(sf, [xs.view(np.int16), dst, 8])
        assert np.array_equal(dst, xs.astype(np.float32))


class TestScalarSemanticsTree(TestScalarSemantics):
    executor = "tree"


class TestArgumentCheckingTree(TestArgumentChecking):
    executor = "tree"


class TestOpCountingTree(TestOpCounting):
    executor = "tree"


class TestEndToEndKernelsTree(TestEndToEndKernels):
    executor = "tree"
