"""Loading and mixing eDSLs; staging-time type checking."""

import pytest

from repro.isa import IntrinsicsIR, load_isas
from repro.isa.base import IntrinsicsError
from repro.lms import staging_scope
from repro.lms.graph import current_builder
from repro.lms.types import FLOAT, INT32, M256, array_of
from repro.spec.catalog import all_entries


@pytest.fixture(scope="module")
def avx():
    return load_isas("AVX", "AVX2", "FMA")


class TestLoading:
    def test_single_isa(self):
        sse3 = load_isas("SSE3")
        assert "_mm_hadd_ps" in sse3
        assert "_mm256_add_pd" not in sse3

    def test_mixing(self, avx):
        assert "_mm256_add_pd" in avx       # AVX
        assert "_mm256_abs_epi8" in avx     # AVX2
        assert "_mm256_fmadd_ps" in avx     # FMA

    def test_small_extension_by_cpuid(self):
        ns = load_isas("RDRAND")
        assert "_rdrand16_step" in ns

    def test_missing_intrinsic_message(self, avx):
        with pytest.raises(AttributeError, match="not provided"):
            avx.function("_mm_hadd_ps")  # SSE3, not loaded

    def test_cache_returns_same_namespace(self):
        assert load_isas("SSE3") is load_isas("SSE3")

    def test_empty_request_rejected(self):
        with pytest.raises(ValueError):
            load_isas()

    def test_intrinsics_ir_loads_everything(self):
        cir = IntrinsicsIR()
        for name in ("_mm_add_ps", "_mm256_fmadd_ps", "_mm512_add_ps",
                     "_mm256_sin_ps", "_rdrand32_step", "_mm_add_pi8"):
            assert name in cir

    def test_namespace_metadata(self, avx):
        cls = avx.node_class("_mm256_add_pd")
        assert cls.intrinsic_name == "_mm256_add_pd"
        assert cls.category == ("Arithmetic",)
        assert cls.ret_type is not None

    def test_every_class_carries_its_catalog_cpuids(self):
        cir = IntrinsicsIR()
        cpuids = {e.name: e.cpuids for e in all_entries(cir.version)}
        assert len(cir) > 3000
        for name in cir.names():
            assert cir.node_class(name).cpuids == cpuids[name], name


class TestStagingTypeChecks:
    def test_vector_type_enforced(self, avx):
        with staging_scope():
            b = current_builder()
            x = b.fresh(FLOAT)
            with pytest.raises(IntrinsicsError, match="__m256"):
                avx._mm256_add_ps(x, x)

    def test_wrong_arity(self, avx):
        with staging_scope():
            b = current_builder()
            v = b.fresh(M256)
            # The generated constructor has named parameters, so Python
            # itself rejects the missing argument.
            with pytest.raises(TypeError):
                avx._mm256_add_ps(v)

    def test_immediate_must_be_python_int(self, avx):
        with staging_scope():
            b = current_builder()
            v = b.fresh(M256)
            idx = b.fresh(INT32)
            with pytest.raises(IntrinsicsError, match="compile-time"):
                avx._mm256_permute2f128_ps(v, v, idx)

    def test_memory_param_needs_array(self, avx):
        with staging_scope():
            b = current_builder()
            x = b.fresh(FLOAT)
            with pytest.raises(IntrinsicsError, match="memory container"):
                avx._mm256_loadu_ps(x, 0)

    def test_scalar_literals_lift(self, avx):
        with staging_scope():
            v = avx._mm256_set1_ps(1.5)
            assert v.tp is M256

    def test_memory_offset_kinds(self, avx):
        with staging_scope():
            b = current_builder()
            arr = b.fresh(array_of(FLOAT))
            v = avx._mm256_loadu_ps(arr, 8)      # python int offset
            v2 = avx._mm256_loadu_ps(arr, b.fresh(INT32))  # staged offset
            assert v.tp is M256 and v2.tp is M256
            with pytest.raises(IntrinsicsError, match="offset"):
                avx._mm256_loadu_ps(arr, 1.5)


class TestReflectedEffects:
    def test_pure_intrinsics_cse(self, avx):
        with staging_scope() as b:
            v = avx._mm256_set1_ps(1.0)
            w = avx._mm256_add_ps(v, v)
            w2 = avx._mm256_add_ps(v, v)
            assert w.same(w2)

    def test_loads_do_not_cse_across_stores(self, avx):
        with staging_scope() as b:
            arr = b.fresh(array_of(FLOAT))
            b.mark_mutable(arr)
            v1 = avx._mm256_loadu_ps(arr, 0)
            avx._mm256_storeu_ps(arr, v1, 0)
            v2 = avx._mm256_loadu_ps(arr, 0)
            assert not v1.same(v2)

    def test_rdrand_never_cses(self):
        ns = load_isas("RDRAND")
        from repro.lms.types import UINT16
        with staging_scope() as b:
            arr = b.fresh(array_of(UINT16))
            r1 = ns._rdrand16_step(arr, 0)
            r2 = ns._rdrand16_step(arr, 0)
            assert not r1.same(r2)
