"""Semantics for the widened catalog: MMX, strings, crypto, multi-ABI."""

import numpy as np
import pytest

from repro.lms.types import M64, M128, M128I
from repro.simd.semantics import registry
from repro.simd.vector import VecValue


class Ctx:
    def __init__(self):
        import random
        self.rng = random.Random(9)
        self.tsc = 0


CTX = Ctx()


def vec64(dtype, values):
    return VecValue.from_lanes(M64, dtype, values)


def s128(text: bytes) -> VecValue:
    padded = text + b"\x00" * (16 - len(text))
    return VecValue(M128I, np.frombuffer(padded, dtype=np.uint8).copy())


class TestMMX:
    def test_add_pi16_wraps(self):
        a = vec64(np.int16, [32767, 1, -2, 3])
        b = vec64(np.int16, [1, 1, 1, 1])
        out = registry["_mm_add_pi16"](CTX, a, b)
        assert out.view(np.int16).tolist() == [-32768, 2, -1, 4]

    def test_alias_matches_canonical(self):
        a = vec64(np.int8, list(range(8)))
        b = vec64(np.int8, [1] * 8)
        canonical = registry["_mm_add_pi8"](CTX, a, b)
        alias = registry["_m_paddb"](CTX, a, b)
        assert canonical == alias

    def test_unpack_pi8(self):
        a = vec64(np.int8, list(range(8)))
        b = vec64(np.int8, list(range(10, 18)))
        lo = registry["_mm_unpacklo_pi8"](CTX, a, b)
        assert lo.view(np.int8).tolist() == [0, 10, 1, 11, 2, 12, 3, 13]
        hi = registry["_mm_unpackhi_pi8"](CTX, a, b)
        assert hi.view(np.int8).tolist() == [4, 14, 5, 15, 6, 16, 7, 17]

    def test_packs_pi16_saturates(self):
        a = vec64(np.int16, [300, -300, 5, -5])
        out = registry["_mm_packs_pi16"](CTX, a, a)
        assert out.view(np.int8).tolist() == [127, -128, 5, -5] * 2

    def test_shifts(self):
        a = vec64(np.uint16, [0x8001] * 4)
        left = registry["_mm_slli_pi16"](CTX, a, 1)
        assert (left.view(np.uint16) == 0x0002).all()
        count = vec64(np.int64, [3])
        right = registry["_mm_srl_pi16"](CTX, a, count)
        assert (right.view(np.uint16) == 0x1000).all()

    def test_sad_pu8(self):
        a = vec64(np.uint8, [10, 0, 0, 0, 0, 0, 0, 0])
        b = vec64(np.uint8, [0, 3, 0, 0, 0, 0, 0, 0])
        out = registry["_mm_sad_pu8"](CTX, a, b)
        assert int(out.view(np.int64)[0]) == 13

    def test_shuffle_pi16(self):
        a = vec64(np.int16, [10, 11, 12, 13])
        out = registry["_mm_shuffle_pi16"](CTX, a, 0b00011011)  # reverse
        assert out.view(np.int16).tolist() == [13, 12, 11, 10]

    def test_extract_insert(self):
        a = vec64(np.int16, [5, 6, 7, 8])
        assert int(registry["_mm_extract_pi16"](CTX, a, 2)) == 7
        out = registry["_mm_insert_pi16"](CTX, a, 99, 0)
        assert out.view(np.int16).tolist() == [99, 6, 7, 8]

    def test_min_max_pu8(self):
        a = vec64(np.uint8, [255, 0, 128, 10, 1, 2, 3, 4])
        b = vec64(np.uint8, [0, 255, 127, 20, 1, 1, 1, 1])
        assert registry["_mm_max_pu8"](CTX, a, b).view(
            np.uint8).tolist() == [255, 255, 128, 20, 1, 2, 3, 4]

    def test_loadh_loadl_pi(self):
        base = VecValue.from_lanes(M128, np.float32, [1, 2, 3, 4])
        mem = np.array([9.0, 10.0], dtype=np.float32)
        hi = registry["_mm_loadh_pi"](CTX, base, mem, 0)
        assert hi.view(np.float32).tolist() == [1, 2, 9, 10]
        lo = registry["_mm_loadl_pi"](CTX, base, mem, 0)
        assert lo.view(np.float32).tolist() == [9, 10, 3, 4]


class TestStringCompare:
    def test_equal_any_finds_character_set(self):
        needle = s128(b"aeiou")
        hay = s128(b"xyzebra")
        # index of first vowel in "xyzebra" = 'e' at 3
        idx = registry["_mm_cmpistri"](CTX, needle, hay, 0x00)
        assert int(idx) == 3

    def test_equal_any_no_match(self):
        idx = registry["_mm_cmpistri"](CTX, s128(b"q"), s128(b"hello"),
                                       0x00)
        assert int(idx) == 16

    def test_ranges_digit_detection(self):
        ranges = s128(b"09")  # the range '0'..'9'
        idx = registry["_mm_cmpistri"](CTX, ranges, s128(b"ab3cd"), 0x04)
        assert int(idx) == 2

    def test_equal_each_strcmp_style(self):
        bits_eq = registry["_mm_cmpistri"](
            CTX, s128(b"same"), s128(b"same"), 0x08 | 0x10)
        assert int(bits_eq) == 16  # negated equal-each: no difference

    def test_equal_ordered_substring(self):
        idx = registry["_mm_cmpistri"](CTX, s128(b"lo w"),
                                       s128(b"hello world"), 0x0C)
        assert int(idx) == 3

    def test_msb_index(self):
        idx = registry["_mm_cmpistri"](CTX, s128(b"l"), s128(b"hello"),
                                       0x40)
        assert int(idx) == 3  # last 'l'

    def test_mask_output_bit_and_unit(self):
        m = registry["_mm_cmpistrm"](CTX, s128(b"l"), s128(b"hello"), 0x00)
        assert int(m.view(np.uint64)[0]) == 0b01100
        m2 = registry["_mm_cmpistrm"](CTX, s128(b"l"), s128(b"hello"),
                                      0x40)
        assert m2.view(np.uint8).tolist()[:5] == [0, 0, 0xFF, 0xFF, 0]

    def test_flags(self):
        assert int(registry["_mm_cmpistrz"](CTX, s128(b"x"),
                                            s128(b"short"), 0)) == 1
        full = VecValue(M128I, np.full(16, ord("a"), dtype=np.uint8))
        assert int(registry["_mm_cmpistrz"](CTX, s128(b"x"), full, 0)) == 0
        assert int(registry["_mm_cmpistrc"](CTX, s128(b"l"),
                                            s128(b"hello"), 0)) == 1
        assert int(registry["_mm_cmpistrc"](CTX, s128(b"q"),
                                            s128(b"hello"), 0)) == 0

    def test_explicit_length_variants(self):
        a = s128(b"lox")  # explicit length 1: only 'l' counts
        idx = registry["_mm_cmpestri"](CTX, a, 1, s128(b"hello"), 5, 0x00)
        assert int(idx) == 2

    def test_word_mode(self):
        a = VecValue.from_lanes(M128I, np.uint16,
                                [0x1234] + [0] * 7)
        b = VecValue.from_lanes(M128I, np.uint16,
                                [7, 0x1234, 9, 0, 0, 0, 0, 0])
        idx = registry["_mm_cmpistri"](CTX, a, b, 0x01)
        assert int(idx) == 1


class TestCrypto:
    def test_aes_roundtrip_structure(self):
        # Validated end-to-end against FIPS-197 in the integration test;
        # here: a round with a zero key is invertible by construction.
        state = VecValue(M128I, np.arange(16, dtype=np.uint8))
        zero = VecValue.zero(M128I)
        enc = registry["_mm_aesenc_si128"](CTX, state, zero)
        assert enc != state

    def test_aes_fips197_vector(self):
        """Full AES-128 encryption of the FIPS-197 example using
        _mm_aesenc_si128 for the middle rounds."""
        from repro.simd.semantics.string_crypto import _sbox

        sbox = _sbox()
        rcon = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B,
                0x36]
        keys = [list(range(16))]
        for r in range(10):
            prev = keys[-1]
            t = prev[12:16]
            t = [sbox[t[1]], sbox[t[2]], sbox[t[3]], sbox[t[0]]]
            t[0] ^= rcon[r]
            new = []
            for i in range(4):
                new += [prev[i * 4 + j]
                        ^ (t[j] if i == 0 else new[(i - 1) * 4 + j])
                        for j in range(4)]
            keys.append(new)
        pt = bytes([0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
                    0x88, 0x99, 0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF])
        state = VecValue(M128I, np.frombuffer(pt, dtype=np.uint8)
                         ^ np.array(keys[0], dtype=np.uint8))
        for r in range(1, 10):
            rk = VecValue(M128I, np.array(keys[r], dtype=np.uint8))
            state = registry["_mm_aesenc_si128"](CTX, state, rk)
        sub = [sbox[int(x)] for x in state.view(np.uint8)]
        shifted = [0] * 16
        for col in range(4):
            for row in range(4):
                shifted[col * 4 + row] = sub[((col + row) % 4) * 4 + row]
        ct = bytes((np.array(shifted, dtype=np.uint8)
                    ^ np.array(keys[10], dtype=np.uint8)).tolist())
        assert ct.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_clmul(self):
        a = VecValue.from_lanes(M128I, np.uint64, [0b11, 0])
        out = registry["_mm_clmulepi64_si128"](CTX, a, a, 0x00)
        assert out.view(np.uint64).tolist() == [0b101, 0]

    def test_clmul_high_selectors(self):
        a = VecValue.from_lanes(M128I, np.uint64, [3, 7])
        out = registry["_mm_clmulepi64_si128"](CTX, a, a, 0x11)
        # 7 clmul 7 = 0b111 * 0b111 carry-less = 0b10101 + shifts = 21
        assert out.view(np.uint64)[0] == 21

    def test_clmul_carryless_vs_integer(self):
        # 3 * 3 = 9 with carries, but 3 clmul 3 = 5.
        a = VecValue.from_lanes(M128I, np.uint64, [3, 0])
        out = registry["_mm_clmulepi64_si128"](CTX, a, a, 0x00)
        assert out.view(np.uint64)[0] == 5 != 9

    def test_sha256msg1(self):
        a = VecValue.from_lanes(M128I, np.uint32, [1, 2, 3, 4])
        b = VecValue.from_lanes(M128I, np.uint32, [5, 0, 0, 0])
        out = registry["_mm_sha256msg1_epu32"](CTX, a, b)

        def sigma0(x):
            ror = lambda v, r: ((v >> r) | (v << (32 - r))) & 0xFFFFFFFF
            return ror(x, 7) ^ ror(x, 18) ^ (x >> 3)

        expected = [(w + sigma0(w1)) & 0xFFFFFFFF
                    for w, w1 in ((1, 2), (2, 3), (3, 4), (4, 5))]
        assert out.view(np.uint32).tolist() == expected


class TestMultiSaxpy:
    """The artifact's architecture-independent SAXPY."""

    @pytest.mark.parametrize("isas,expected_name,width", [
        (frozenset({"SSE", "AVX", "FMA", "AVX512F"}), "avx512", 16),
        (frozenset({"SSE", "AVX", "FMA"}), "avx+fma", 8),
        (frozenset({"SSE", "AVX"}), "avx", 8),
        (frozenset({"SSE", "SSE2"}), "sse", 4),
    ])
    def test_abi_selection(self, isas, expected_name, width):
        from repro.kernels.multi_saxpy import select_abi

        abi = select_abi(isas)
        assert abi.name == expected_name
        assert abi.width == width

    @pytest.mark.parametrize("isas", [
        frozenset({"AVX", "FMA", "AVX512F"}),
        frozenset({"SSE", "AVX", "FMA"}),
        frozenset({"SSE", "AVX"}),
        frozenset({"SSE"}),
    ])
    def test_all_abis_compute_saxpy(self, isas, rng):
        from repro.kernels.multi_saxpy import make_multi_saxpy, select_abi
        from repro.simd import execute_staged

        staged = make_multi_saxpy(select_abi(isas))
        n = 23
        a = rng.normal(size=n).astype(np.float32)
        b = rng.normal(size=n).astype(np.float32)
        expected = a + 2.5 * b
        execute_staged(staged, [a, b, 2.5, n])
        assert np.allclose(a, expected, rtol=1e-6)

    def test_width_fixed_at_staging(self):
        from repro.kernels.multi_saxpy import make_multi_saxpy, select_abi
        from repro.codegen import emit_c_source

        sse = emit_c_source(make_multi_saxpy(
            select_abi(frozenset({"SSE"}))))
        assert "_mm_loadu_ps" in sse and "+= 4" in sse
        avx = emit_c_source(make_multi_saxpy(
            select_abi(frozenset({"AVX", "FMA"}))))
        assert "_mm256_fmadd_ps" in avx and "+= 8" in avx
        avx512 = emit_c_source(make_multi_saxpy(
            select_abi(frozenset({"AVX512F"}))))
        assert "_mm512_fmadd_ps" in avx512 and "+= 16" in avx512

    def test_avx512_native_matches_simulator(self):
        from repro.codegen import inspect_system
        from repro.core.resilience import acquire_native
        from repro.kernels.multi_saxpy import make_multi_saxpy, select_abi
        from repro.simd import execute_staged

        system = inspect_system()
        if not system.supports("AVX512F") or system.best_compiler is None:
            pytest.skip("host lacks AVX-512 or a C compiler")
        staged = make_multi_saxpy(select_abi(frozenset({"AVX512F"})))
        kernel = acquire_native(staged)[0]
        rng = np.random.default_rng(2)
        n = 37
        a_native = rng.normal(size=n).astype(np.float32)
        b = rng.normal(size=n).astype(np.float32)
        a_sim = a_native.copy()
        kernel(a_native, b, 1.5, n)
        execute_staged(staged, [a_sim, b, 1.5, n])
        assert np.array_equal(a_native, a_sim)


class TestMaskedTailSaxpy:
    """AVX-512's masked remainder handling (no scalar tail loop)."""

    @pytest.mark.parametrize("n", [1, 15, 16, 17, 31, 37, 48])
    def test_all_remainders(self, n, rng):
        from repro.kernels import make_staged_saxpy512_masked
        from repro.simd import execute_staged

        staged = make_staged_saxpy512_masked()
        a = rng.normal(size=n).astype(np.float32)
        b = rng.normal(size=n).astype(np.float32)
        expected = a + 1.5 * b
        execute_staged(staged, [a, b, 1.5, n])
        assert np.allclose(a, expected, rtol=1e-6)

    def test_no_scalar_tail_loop(self):
        from repro.codegen import emit_c_source
        from repro.kernels import make_staged_saxpy512_masked

        src = emit_c_source(make_staged_saxpy512_masked())
        assert src.count("for (") == 1  # the vector loop only
        assert "_cvtu32_mask16" in src
        assert "_mm512_maskz_loadu_ps" in src
        assert "_mm512_mask_storeu_ps" in src

    def test_masked_lanes_do_not_touch_memory(self):
        from repro.kernels import make_staged_saxpy512_masked
        from repro.simd import execute_staged

        staged = make_staged_saxpy512_masked()
        # Array sized exactly n: the masked tail must not fault or
        # modify anything past n (here: no padding exists at all).
        n = 19
        a = np.arange(n, dtype=np.float32)
        b = np.ones(n, dtype=np.float32)
        execute_staged(staged, [a, b, 1.0, n])
        assert np.allclose(a, np.arange(n) + 1.0)

    def test_native_matches_simulator(self):
        from repro.codegen import inspect_system
        from repro.core.resilience import acquire_native
        from repro.kernels import make_staged_saxpy512_masked
        from repro.simd import execute_staged

        system = inspect_system()
        if not system.supports("AVX512F") or system.best_compiler is None:
            pytest.skip("host lacks AVX-512 or a C compiler")
        staged = make_staged_saxpy512_masked()
        kernel = acquire_native(staged)[0]
        rng = np.random.default_rng(8)
        n = 53
        a_native = rng.normal(size=n).astype(np.float32)
        b = rng.normal(size=n).astype(np.float32)
        a_sim = a_native.copy()
        kernel(a_native, b, 0.25, n)
        execute_staged(staged, [a_sim, b, 0.25, n])
        assert np.array_equal(a_native, a_sim)
