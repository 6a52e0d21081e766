"""The paper kernels across all engines, and the public pipeline."""

import numpy as np
import pytest

from repro.core import (
    BackendKind,
    UnsatisfiedLinkError,
    compile_kernel,
    compile_staged,
    native_placeholder,
)
from repro.jvm import MiniVM, TieredState
from repro.kernels import (
    java_mmm_blocked_method,
    java_mmm_triple_method,
    java_saxpy_method,
    make_staged_mmm,
    make_staged_saxpy,
)
from repro.lms import forloop
from repro.lms.ops import array_apply, array_update, reflect_mutable
from repro.lms.types import FLOAT, INT32, array_of
from repro.simd import execute_staged
from tests.conftest import requires_avx2_fma, requires_compiler


class TestSaxpyAllEngines:
    @pytest.mark.parametrize("n", [8, 24, 100])
    def test_three_way_agreement(self, n, rng):
        a0 = rng.normal(size=n).astype(np.float32)
        b = rng.normal(size=n).astype(np.float32)
        s = 1.75
        expected = a0 + s * b

        a_sim = a0.copy()
        execute_staged(make_staged_saxpy(), [a_sim, b, s, n])
        assert np.allclose(a_sim, expected, rtol=1e-6)

        vm = MiniVM()
        vm.load(java_saxpy_method())
        a_java = a0.copy()
        vm.call("jsaxpy", a_java, b, s, n)
        assert np.allclose(a_java, expected, rtol=1e-6)
        # The staged main loop uses a *fused* multiply-add, so it may
        # differ from Java's mul-then-add by one rounding; the scalar
        # tail computes exactly the Java way and must agree bit-for-bit.
        n0 = (n >> 3) << 3
        assert np.array_equal(a_java[n0:n], a_sim[n0:n])
        assert np.allclose(a_java, a_sim, rtol=1e-6)


class TestMMMAllEngines:
    def test_agreement(self, rng):
        n = 16
        a = rng.normal(size=(n, n)).astype(np.float32)
        b = rng.normal(size=(n, n)).astype(np.float32)
        expected = (a.astype(np.float64) @ b.astype(np.float64))

        c_lms = np.zeros(n * n, dtype=np.float32)
        execute_staged(make_staged_mmm(),
                       [a.ravel(), b.ravel(), c_lms, n])
        vm = MiniVM()
        vm.load(java_mmm_triple_method())
        vm.load(java_mmm_blocked_method())
        c_tri = np.zeros(n * n, dtype=np.float32)
        vm.call("jmmm_triple", a.ravel(), b.ravel(), c_tri, n)
        c_blk = np.zeros(n * n, dtype=np.float32)
        vm.call("jmmm_blocked", a.ravel(), b.ravel(), c_blk, n)

        for c in (c_lms, c_tri, c_blk):
            assert np.allclose(c.reshape(n, n), expected, atol=1e-3)

    def test_accumulates_into_c(self, rng):
        n = 8
        a = rng.normal(size=(n, n)).astype(np.float32)
        b = rng.normal(size=(n, n)).astype(np.float32)
        c = np.ones(n * n, dtype=np.float32)
        execute_staged(make_staged_mmm(), [a.ravel(), b.ravel(), c, n])
        expected = 1.0 + a.astype(np.float64) @ b.astype(np.float64)
        assert np.allclose(c.reshape(n, n), expected, atol=1e-3)


class TestPipeline:
    def test_simulated_backend_forced(self):
        def double(a, n):
            forloop(0, n, step=1, body=lambda i: array_update(
                a, i, array_apply(a, i) * 2.0))

        kernel = compile_staged(double, [array_of(FLOAT), INT32],
                                backend="simulated")
        assert kernel.backend == BackendKind.SIMULATED
        a = np.arange(4, dtype=np.float32)
        kernel(a, 4)
        assert a.tolist() == [0, 2, 4, 6]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            compile_staged(lambda a: None, [FLOAT], backend="gpu")

    def test_placeholder_protocol(self):
        class Holder:
            pass

        holder = Holder()
        holder.apply = native_placeholder("apply")
        with pytest.raises(UnsatisfiedLinkError):
            holder.apply(1, 2)

        def fn(a, b):
            return a + b

        compile_kernel(fn, [FLOAT, FLOAT], holder, "apply",
                       backend="simulated")
        assert float(holder.apply(1.0, 2.0)) == 3.0

    def test_signature_isomorphism_enforced(self):
        """Resolving the paper's Section 3.5 limitation: a declared
        placeholder signature must match the staged function's."""
        from repro.core import SignatureMismatchError

        class Holder:
            pass

        holder = Holder()
        holder.apply = native_placeholder(
            "apply", arg_types=[FLOAT, FLOAT])
        with pytest.raises(SignatureMismatchError, match="declares"):
            compile_kernel(lambda a: a, [FLOAT], holder, "apply",
                           backend="simulated")
        # The matching signature compiles fine.
        compile_kernel(lambda a, b: a + b, [FLOAT, FLOAT], holder,
                       "apply", backend="simulated")
        assert float(holder.apply(2.0, 3.0)) == 5.0

    def test_validate_catches_out_of_bounds(self):
        """Resolving the other Section 3.5 limitation: validate() runs
        the simulator first so invalid SIMD code cannot segfault."""
        from repro.isa import load_isas

        cir = load_isas("AVX")

        def oob(a, n):
            reflect_mutable(a)
            # Reads 8 floats starting at n-1: off the end for any n.
            v = cir._mm256_loadu_ps(a, n - 1)
            cir._mm256_storeu_ps(a, v, 0)

        kernel = compile_staged(oob, [array_of(FLOAT), INT32],
                                backend="simulated")
        a = np.zeros(16, dtype=np.float32)
        with pytest.raises(IndexError, match="runs off the end"):
            kernel.validate(a, 16)
        # validate() must not have modified the caller's array.
        assert not a.any()

    def test_validate_passes_valid_kernel(self):
        kernel = _compiled_saxpy()
        n = 24
        a = np.ones(n, dtype=np.float32)
        b = np.ones(n, dtype=np.float32)
        kernel.validate(a, b, 1.0, n)
        assert (a == 1.0).all()  # shadow copy: caller data untouched
        kernel(a, b, 1.0, n)
        assert (a == 2.0).all()

    def test_placeholder_required(self):
        class Holder:
            apply = staticmethod(lambda: None)

        with pytest.raises(TypeError, match="placeholder"):
            compile_kernel(lambda a: a, [FLOAT], Holder(), "apply")

    def test_cost_api(self):
        kernel = compile_staged(
            lambda a, b, s, n: make_staged_saxpy() and None,
            [FLOAT], backend="simulated") if False else \
            _compiled_saxpy()
        n = 1 << 14
        cost = kernel.cost({"n": n, "scalar": 1.0},
                           footprints={"a": 4.0 * n, "b": 4.0 * n})
        assert cost.cycles > 0
        assert 0.1 < cost.flops_per_cycle(2.0 * n) < 16.0

    def test_svml_falls_back_to_simulator(self):
        from repro.isa import load_isas

        ns = load_isas("AVX", "SVML")

        def vexp(a, n):
            reflect_mutable(a)

            def body(i):
                v = ns._mm256_exp_ps(ns._mm256_loadu_ps(a, i))
                ns._mm256_storeu_ps(a, v, i)

            forloop(0, n, step=8, body=body)

        kernel = compile_staged(vexp, [array_of(FLOAT), INT32],
                                backend="auto")
        from repro.codegen import inspect_system
        if inspect_system().best_compiler and \
                inspect_system().best_compiler.name != "icc":
            assert kernel.backend == BackendKind.SIMULATED
            assert "SVML" in (kernel.fallback_reason or "")
        a = np.zeros(8, dtype=np.float32)
        kernel(a, 8)
        assert np.allclose(a, 1.0)


def _compiled_saxpy():
    from repro.isa import load_isas

    cir = load_isas("AVX", "AVX2", "FMA")

    def saxpy_staged(a, b, scalar, n):
        reflect_mutable(a)
        n0 = (n >> 3) << 3
        vec_s = cir._mm256_set1_ps(scalar)

        def body(i):
            va = cir._mm256_loadu_ps(a, i)
            vb = cir._mm256_loadu_ps(b, i)
            cir._mm256_storeu_ps(a, cir._mm256_fmadd_ps(vb, vec_s, va), i)

        forloop(0, n0, step=8, body=body)
        forloop(n0, n, step=1, body=lambda i: array_update(
            a, i, array_apply(a, i) + array_apply(b, i) * scalar))

    return compile_staged(
        saxpy_staged, [array_of(FLOAT), array_of(FLOAT), FLOAT, INT32],
        name="saxpy", backend="simulated")


@requires_compiler
@requires_avx2_fma
class TestNativeMMM:
    def test_native_mmm_matches_simulator_bitwise(self, rng):
        from repro.core.resilience import acquire_native

        staged = make_staged_mmm()
        kernel = acquire_native(staged)[0]
        n = 16
        a = rng.normal(size=n * n).astype(np.float32)
        b = rng.normal(size=n * n).astype(np.float32)
        c_native = np.zeros(n * n, dtype=np.float32)
        c_sim = np.zeros(n * n, dtype=np.float32)
        kernel(a, b, c_native, n)
        execute_staged(staged, [a, b, c_sim, n])
        assert np.array_equal(c_native, c_sim)

    def test_generated_mmm_c_structure(self):
        from repro.codegen import emit_c_source

        src = emit_c_source(make_staged_mmm())
        # The Figure 5 structure: three loops, the two 8x8 transpose
        # networks (8 unpacks, 16 shuffles, 16 lane permutes total),
        # the 8 multiplies and the 7-add tree + accumulate.
        assert src.count("for (") == 3
        assert src.count("_mm256_unpacklo_ps") == 8
        assert src.count("_mm256_shuffle_ps") == 16
        assert src.count("_mm256_permute2f128_ps") == 16
        assert src.count("_mm256_mul_ps") == 8
        assert src.count("_mm256_add_ps") == 8


@requires_compiler
@requires_avx2_fma
class TestNativePipeline:
    def test_auto_picks_native(self):
        kernel = _native_saxpy()
        assert kernel.backend == BackendKind.NATIVE

    def test_native_and_simulated_agree(self, rng):
        kernel = _native_saxpy()
        n = 50
        a_native = rng.normal(size=n).astype(np.float32)
        b = rng.normal(size=n).astype(np.float32)
        a_sim = a_native.copy()
        kernel(a_native, b, 0.5, n)
        kernel.run_simulated(a_sim, b, 0.5, n)
        assert np.array_equal(a_native, a_sim)


def _native_saxpy():
    from repro.isa import load_isas

    cir = load_isas("AVX", "AVX2", "FMA")

    def saxpy_staged(a, b, scalar, n):
        reflect_mutable(a)
        n0 = (n >> 3) << 3
        vec_s = cir._mm256_set1_ps(scalar)

        def body(i):
            va = cir._mm256_loadu_ps(a, i)
            vb = cir._mm256_loadu_ps(b, i)
            cir._mm256_storeu_ps(a, cir._mm256_fmadd_ps(vb, vec_s, va), i)

        forloop(0, n0, step=8, body=body)
        forloop(n0, n, step=1, body=lambda i: array_update(
            a, i, array_apply(a, i) + array_apply(b, i) * scalar))

    return compile_staged(
        saxpy_staged, [array_of(FLOAT), array_of(FLOAT), FLOAT, INT32],
        name="nsaxpy", backend="auto")
