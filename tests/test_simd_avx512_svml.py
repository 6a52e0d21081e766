"""AVX-512 masked families, mask registers, reductions, and SVML."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lms.types import M128, M256, M512, M512I
from repro.simd.semantics import registry
from repro.simd.vector import MaskValue, VecValue


class Ctx:
    def __init__(self):
        import random
        self.rng = random.Random(11)
        self.tsc = 0


CTX = Ctx()


def v512f(values):
    return VecValue.from_lanes(M512, np.float32, values)


def v512i(values, dtype=np.int32):
    return VecValue.from_lanes(M512I, dtype, values)


class TestMaskedFamilies:
    def test_mask_add_merges_from_src(self):
        src = v512f([100.0] * 16)
        a = v512f(list(range(16)))
        b = v512f([1.0] * 16)
        k = MaskValue(16, 0b0000000011111111)
        out = registry["_mm512_mask_add_ps"](CTX, src, k, a, b)
        lanes = out.view(np.float32)
        assert lanes[:8].tolist() == [1, 2, 3, 4, 5, 6, 7, 8]
        assert (lanes[8:] == 100.0).all()

    def test_maskz_zeroes(self):
        k = MaskValue(16, 0b101)
        a = v512i([7] * 16)
        out = registry["_mm512_maskz_add_epi32"](CTX, k, a, a)
        lanes = out.view(np.int32)
        assert lanes[0] == 14 and lanes[1] == 0 and lanes[2] == 14
        assert (lanes[3:] == 0).all()

    def test_mask_abs(self):
        src = v512i([0] * 16)
        a = v512i([-5] * 16)
        k = MaskValue(16, 0xFFFF)
        out = registry["_mm512_mask_abs_epi32"](CTX, src, k, a)
        assert (out.view(np.int32) == 5).all()

    @given(st.integers(0, 2**16 - 1))
    @settings(max_examples=25)
    def test_mask_blend_identity(self, bits):
        """mask_mov with mask k == select(k, a, src), lane by lane."""
        src = v512i(list(range(16)))
        a = v512i(list(range(100, 116)))
        k = MaskValue(16, bits)
        out = registry["_mm512_mask_mov_epi32"](CTX, src, k, a)
        lanes = out.view(np.int32)
        for i in range(16):
            expected = 100 + i if (bits >> i) & 1 else i
            assert lanes[i] == expected

    def test_cmp_mask_predicates(self):
        a = v512i(list(range(16)))
        b = v512i([8] * 16)
        lt = registry["_mm512_cmp_epi32_mask"](CTX, a, b, 1)
        assert lt.value == 0x00FF
        eq = registry["_mm512_cmp_epi32_mask"](CTX, a, b, 0)
        assert eq.value == 1 << 8

    def test_mask_register_algebra(self):
        a = MaskValue(16, 0b1100)
        b = MaskValue(16, 0b1010)
        assert registry["_kand_mask16"](CTX, a, b).value == 0b1000
        assert registry["_kor_mask16"](CTX, a, b).value == 0b1110
        assert registry["_kxor_mask16"](CTX, a, b).value == 0b0110
        assert registry["_kandn_mask16"](CTX, a, b).value == 0b0010
        assert registry["_knot_mask16"](CTX, a).value == 0xFFF3


class TestReductions:
    def test_reduce_add_ps(self):
        a = v512f([0.5] * 16)
        assert float(registry["_mm512_reduce_add_ps"](CTX, a)) == 8.0

    def test_reduce_min_max_epi32(self):
        a = v512i([5, -3, 12, 0] * 4)
        assert int(registry["_mm512_reduce_min_epi32"](CTX, a)) == -3
        assert int(registry["_mm512_reduce_max_epi32"](CTX, a)) == 12

    def test_reduce_and(self):
        a = v512i([0b1111, 0b1110] + [0xFF] * 14)
        assert int(registry["_mm512_reduce_and_epi32"](CTX, a)) == 0b1110


class TestSVML:
    @given(st.lists(st.floats(0.125, 64.0, width=32, allow_nan=False),
                    min_size=8, max_size=8))
    @settings(max_examples=25)
    def test_log_exp_roundtrip(self, xs):
        a = VecValue.from_lanes(M256, np.float32, xs)
        back = registry["_mm256_exp_ps"](CTX, registry["_mm256_log_ps"](
            CTX, a))
        assert np.allclose(back.view(np.float32), xs, rtol=1e-4)

    def test_sin_cos_identity(self):
        xs = np.linspace(-3, 3, 8, dtype=np.float32)
        a = VecValue.from_lanes(M256, np.float32, xs)
        s = registry["_mm256_sin_ps"](CTX, a).view(np.float32)
        c = registry["_mm256_cos_ps"](CTX, a).view(np.float32)
        assert np.allclose(s * s + c * c, 1.0, atol=1e-6)

    def test_cdfnorm_matches_scipy(self):
        from scipy.special import ndtr

        from repro.lms.types import M256D

        xs = np.array([-2, -1, 0, 1], dtype=np.float64)
        av = VecValue.from_lanes(M256D, np.float64, xs)
        out = registry["_mm256_cdfnorm_pd"](CTX, av)
        assert np.allclose(out.view(np.float64), ndtr(xs), rtol=1e-12)

    @pytest.mark.parametrize("svml,scipy_name", [
        ("erf", "erf"), ("erfc", "erfc"), ("erfinv", "erfinv"),
        ("cdfnorm", "ndtr"), ("cdfnorminv", "ndtri")])
    def test_scipy_backed_semantics_are_scipy(self, svml, scipy_name):
        from scipy import special

        from repro.lms.types import M256D

        xs = np.array([0.05, 0.2, 0.5, 0.9], dtype=np.float64)
        out = registry[f"_mm256_{svml}_pd"](
            CTX, VecValue.from_lanes(M256D, np.float64, xs))
        want = getattr(special, scipy_name)(xs)
        assert out.view(np.float64).tobytes() == want.tobytes()

    def test_sincos_returns_sin_stores_cos(self):
        xs = np.linspace(0, 1.5, 8, dtype=np.float32)
        a = VecValue.from_lanes(M256, np.float32, xs)
        cos_buf = np.zeros(8, dtype=np.float32)
        out = registry["_mm256_sincos_ps"](CTX, cos_buf, a, 0)
        assert np.allclose(out.view(np.float32), np.sin(xs), atol=1e-6)
        assert np.allclose(cos_buf, np.cos(xs), atol=1e-6)

    def test_div_epi32_truncates_like_c(self):
        from repro.lms.types import M256I

        av = VecValue.from_lanes(M256I, np.int32,
                                 [-7, 7, -9, 9, 5, -5, 100, -100])
        bv = VecValue.from_lanes(M256I, np.int32,
                                 [2, 2, 4, 4, -2, -2, 7, 7])
        out = registry["_mm256_div_epi32"](CTX, av, bv)
        assert out.view(np.int32).tolist() == [-3, 3, -2, 2, -2, 2,
                                               14, -14]

    def test_erfinv_inverts_erf(self):
        from repro.lms.types import M256D
        xs = np.array([-0.9, -0.3, 0.2, 0.7], dtype=np.float64)
        a = VecValue.from_lanes(M256D, np.float64, xs)
        fwd = registry["_mm256_erf_pd"](CTX, a)
        back = registry["_mm256_erfinv_pd"](CTX, fwd)
        assert np.allclose(back.view(np.float64), xs, rtol=1e-9)


class TestAVX512Memory:
    def test_loadu_storeu_512(self):
        arr = np.arange(32, dtype=np.float32)
        v = registry["_mm512_loadu_ps"](CTX, arr, 8)
        assert v.view(np.float32).tolist() == list(range(8, 24))
        out = np.zeros(32, dtype=np.float32)
        registry["_mm512_storeu_ps"](CTX, out, v, 0)
        assert out[:16].tolist() == list(range(8, 24))

    def test_set1_512(self):
        v = registry["_mm512_set1_epi32"](CTX, -9)
        assert (v.view(np.int32) == -9).all()
        assert v.view(np.int32).size == 16


class TestRotatesAndMaskedMemory:
    def test_rol_ror_inverse(self):
        a = v512i([0x12345678] * 16)
        left = registry["_mm512_rol_epi32"](CTX, a, 7)
        back = registry["_mm512_ror_epi32"](CTX, left, 7)
        assert back == a

    def test_ror_bit_pattern(self):
        a = VecValue.broadcast(M512I, np.uint32, 0x80000001)
        out = registry["_mm512_ror_epi32"](CTX, a, 1)
        assert (out.view(np.uint32) == 0xC0000000).all()

    def test_mask_loadu_merges(self):
        arr = np.arange(32, dtype=np.float32)
        src = VecValue.broadcast(M512, np.float32, -1.0)
        k = MaskValue(16, 0x00FF)
        v = registry["_mm512_mask_loadu_ps"](CTX, src, k, arr, 0)
        lanes = v.view(np.float32)
        assert lanes[:8].tolist() == list(range(8))
        assert (lanes[8:] == -1.0).all()

    def test_maskz_loadu_zeroes(self):
        arr = np.arange(16, dtype=np.float32) + 1
        k = MaskValue(16, 0b11)
        v = registry["_mm512_maskz_loadu_ps"](CTX, k, arr, 0)
        lanes = v.view(np.float32)
        assert lanes[0] == 1 and lanes[1] == 2
        assert (lanes[2:] == 0).all()

    def test_mask_storeu_preserves_unselected(self):
        arr = np.full(16, 9.0, dtype=np.float32)
        value = VecValue.broadcast(M512, np.float32, 5.0)
        k = MaskValue(16, 0b1010)
        registry["_mm512_mask_storeu_ps"](CTX, arr, k, value, 0)
        assert arr.tolist() == [9, 5, 9, 5] + [9] * 12
