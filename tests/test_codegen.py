"""C code generation, system inspection, and the native backend."""

import numpy as np
import pytest

from repro.codegen import emit_c_source, inspect_system
from repro.codegen.cgen import CGenError, c_type_of
from repro.codegen.compiler import CompilerInfo
from repro.kernels import make_staged_saxpy
from repro.lms import const, forloop, if_then_else, stage_function
from repro.lms.ops import Variable, array_apply, array_update
from repro.lms.types import (
    BOOL, DOUBLE, FLOAT, INT32, M256, UINT64, VOID, array_of,
)
from tests.conftest import requires_avx2_fma, requires_compiler


class TestCTypes:
    def test_scalars(self):
        assert c_type_of(FLOAT) == "float"
        assert c_type_of(UINT64) == "uint64_t"
        assert c_type_of(BOOL) == "bool"

    def test_vectors_and_arrays(self):
        assert c_type_of(M256) == "__m256"
        assert c_type_of(array_of(DOUBLE)) == "double*"
        assert c_type_of(VOID) == "void"


class TestEmission:
    def test_saxpy_matches_figure_4_structure(self):
        src = emit_c_source(make_staged_saxpy())
        assert "#include <immintrin.h>" in src
        assert "void repro_native_saxpy(" in src
        assert "_mm256_set1_ps(" in src
        assert "_mm256_fmadd_ps(" in src
        assert "_mm256_loadu_ps((float const*)&" in src
        assert "_mm256_storeu_ps((float*)&" in src
        # Two loops: the 8-stride vector loop and the scalar tail.
        assert src.count("for (") == 2
        assert "+= 8" in src and "+= 1" in src

    def test_scalar_return(self):
        def fn(a, b):
            return a * b + 1.0

        src = emit_c_source(stage_function(fn, [DOUBLE, DOUBLE], "mad"))
        assert "double repro_native_mad(" in src
        assert "return x" in src

    def test_conditional(self):
        def fn(a, b):
            return if_then_else(a < b, lambda: a, lambda: b)

        src = emit_c_source(stage_function(fn, [INT32, INT32], "imin"))
        assert "if (x" in src and "} else {" in src

    def test_variables_render_mutable(self):
        def fn(n):
            v = Variable(const(0, INT32))
            forloop(0, n, step=1, body=lambda i: v.set(v.get() + i))
            return v.get()

        src = emit_c_source(stage_function(fn, [INT32], "tri"))
        assert "int32_t x" in src

    def test_immediates_inline(self, base_isas):
        def fn(a):
            def body(i):
                v = base_isas._mm256_loadu_ps(a, i)
                w = base_isas._mm256_permute2f128_ps(v, v, 0x21)
                base_isas._mm256_storeu_ps(a, w, i)

            forloop(0, 8, step=8, body=body)

        src = emit_c_source(stage_function(fn, [array_of(FLOAT)], "perm"))
        assert "_mm256_permute2f128_ps(x" in src
        assert ", 33)" in src

    def test_param_names_in_comments(self):
        src = emit_c_source(make_staged_saxpy())
        for name in ("a", "b", "scalar", "n"):
            assert f"/* {name} */" in src


class TestSystemInspection:
    def test_inspection_shape(self):
        sysinfo = inspect_system()
        assert isinstance(sysinfo.cpu, str)
        # Any x86-64 host has at least SSE2; other arches may be empty.
        assert isinstance(sysinfo.isas, frozenset)

    def test_flags_for_isas(self):
        cc = CompilerInfo("gcc", "/usr/bin/gcc", "gcc 12")
        flags = cc.flags_for(frozenset({"AVX2", "FMA"}))
        assert "-mavx2" in flags and "-mfma" in flags
        assert "-O3" in flags and "-shared" in flags

    def test_icc_uses_xhost(self):
        cc = CompilerInfo("icc", "/opt/icc", "icc 17")
        assert "-xHost" in cc.flags_for(frozenset({"AVX2"}))


@requires_compiler
@requires_avx2_fma
class TestNativeBackend:
    def test_native_saxpy_matches_simulator(self):
        from repro.core.resilience import acquire_native
        from repro.simd import execute_staged

        sf = make_staged_saxpy()
        kernel = acquire_native(sf)[0]
        n = 100
        rng = np.random.default_rng(5)
        a_native = rng.normal(size=n).astype(np.float32)
        b = rng.normal(size=n).astype(np.float32)
        a_sim = a_native.copy()
        kernel(a_native, b, 1.25, n)
        execute_staged(sf, [a_sim, b, 1.25, n])
        assert np.array_equal(a_native, a_sim)

    def test_scalar_return_native(self):
        def fn(a, b):
            return a * b + 2.0

        from repro.core.resilience import acquire_native

        sf = stage_function(fn, [FLOAT, FLOAT], "fmad")
        kernel = acquire_native(sf)[0]
        assert kernel(3.0, 4.0) == pytest.approx(14.0)

    def test_dtype_checked_at_boundary(self):
        from repro.core.resilience import acquire_native

        sf = make_staged_saxpy()
        kernel = acquire_native(sf)[0]
        with pytest.raises(TypeError, match="dtype"):
            kernel(np.zeros(8, np.float64), np.zeros(8, np.float32),
                   1.0, 8)

    def test_svml_requires_icc(self):
        from repro.codegen.native import NativeLinkError
        from repro.core.resilience import acquire_native
        from repro.isa import load_isas

        svml = load_isas("SVML")

        def fn(a):
            def body(i):
                v = svml._mm256_sin_ps(
                    load_avx._mm256_loadu_ps(a, i))
                load_avx._mm256_storeu_ps(a, v, i)

            forloop(0, 8, step=8, body=body)

        load_avx = load_isas("AVX")
        sf = stage_function(fn, [array_of(FLOAT)], "vsin")
        sysinfo = inspect_system()
        if sysinfo.best_compiler and sysinfo.best_compiler.name != "icc":
            with pytest.raises(NativeLinkError, match="SVML"):
                acquire_native(sf)
