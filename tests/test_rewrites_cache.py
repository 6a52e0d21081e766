"""Graph rewriting pass and the kernel cache."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import compile_staged
from repro.core.cache import (
    KERNEL_CACHE_ENTRIES,
    PROGRAM_CACHE_ENTRIES,
    KernelCache,
    ProgramCache,
    graph_hash,
)
from repro.lms import const, forloop, stage_function
from repro.lms.defs import BinaryOp, ForLoop
from repro.lms.ops import array_apply, array_update
from repro.lms.rewrites import simplify
from repro.lms.schedule import count_statements, schedule_block
from repro.lms.types import FLOAT, INT32, array_of
from repro.simd import execute_staged
from tests.test_differential import _build_kernel


def _count_binops(block) -> int:
    total = 0
    for stm in block.stms:
        if isinstance(stm.rhs, BinaryOp):
            total += 1
        for inner in stm.rhs.blocks:
            total += _count_binops(inner)
    return total


class TestSimplify:
    def test_identities_removed(self):
        def fn(a, b):
            return (a + 0) * 1 + (b - 0)

        sf = stage_function(fn, [INT32, INT32])
        simp, n = simplify(sf)
        assert n >= 3
        assert _count_binops(schedule_block(simp.body)) == 1

    def test_mul_zero_folds(self):
        def fn(a):
            return a * 0 + 7

        sf = stage_function(fn, [INT32])
        simp, _ = simplify(sf)
        assert _count_binops(schedule_block(simp.body)) == 0
        assert int(execute_staged(simp, [99])) == 7

    def test_strength_reduction(self):
        def fn(a):
            return a * 8

        sf = stage_function(fn, [INT32])
        simp, n = simplify(sf)
        ops = [s.rhs.op for s in schedule_block(simp.body).stms
               if isinstance(s.rhs, BinaryOp)]
        assert ops == ["<<"]
        assert int(execute_staged(simp, [5])) == 40

    def test_float_mul_zero_not_folded(self):
        """0.0 * x is not x-free under IEEE (NaN, -0.0, inf)."""

        def fn(a):
            return a * 0.0

        sf = stage_function(fn, [FLOAT])
        simp, _ = simplify(sf)
        got = execute_staged(simp, [float("inf")])
        assert np.isnan(got)

    def test_loops_and_effects_preserved(self):
        def fn(a, n):
            def body(i):
                array_update(a, i, array_apply(a, i) * 1.0 + 0.0)

            forloop(0, n * 1, step=1, body=body)

        sf = stage_function(fn, [array_of(FLOAT), INT32])
        simp, n = simplify(sf)
        assert n >= 2
        a = np.arange(6, dtype=np.float32)
        execute_staged(simp, [a, 6])
        assert a.tolist() == [0, 1, 2, 3, 4, 5]
        loops = [s for s in simp.body.stms if isinstance(s.rhs, ForLoop)]
        assert len(loops) == 1

    def test_mutability_carries_over(self):
        def fn(a, n):
            from repro.lms.ops import reflect_mutable
            reflect_mutable(a)
            forloop(0, n, step=1,
                    body=lambda i: array_update(a, i, 1.0 * 1.0))

        sf = stage_function(fn, [array_of(FLOAT), INT32])
        simp, _ = simplify(sf)
        assert simp.builder.mutable_syms == {simp.params[0].id}


class TestSimplifyProperty:
    """Simplification must preserve semantics on random kernels."""

    @given(st.lists(st.integers(0, 10_000), min_size=8, max_size=40),
           st.integers(-(2**31), 2**31 - 1),
           st.integers(-(2**31), 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_int_kernels(self, choices, a, b):
        staged = _build_kernel(choices, as_float=False)
        simp, _ = simplify(staged)
        original = execute_staged(staged, [a, b, 0.0])
        simplified = execute_staged(simp, [a, b, 0.0])
        assert original == simplified

    @given(st.lists(st.integers(0, 10_000), min_size=8, max_size=40),
           st.integers(-1000, 1000), st.integers(-1000, 1000),
           st.floats(-64.0, 64.0, width=32, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_random_float_kernels_bitwise(self, choices, a, b, x):
        staged = _build_kernel(choices, as_float=True)
        simp, _ = simplify(staged)
        original = np.float32(execute_staged(staged, [a, b, x]))
        simplified = np.float32(execute_staged(simp, [a, b, x]))
        assert original.tobytes() == simplified.tobytes()


class TestGraphHash:
    def _stage(self, scale):
        def fn(a, n):
            forloop(0, n, step=1, body=lambda i: array_update(
                a, i, array_apply(a, i) * scale))

        return stage_function(fn, [array_of(FLOAT), INT32], "k")

    def test_identical_staging_same_hash(self):
        assert graph_hash(self._stage(2.0)) == graph_hash(self._stage(2.0))

    def test_different_constant_different_hash(self):
        assert graph_hash(self._stage(2.0)) != graph_hash(self._stage(3.0))

    def test_structure_sensitivity(self):
        def fn1(a, n):
            forloop(0, n, step=1, body=lambda i: array_update(a, i, 0.0))

        def fn2(a, n):
            forloop(0, n, step=2, body=lambda i: array_update(a, i, 0.0))

        h1 = graph_hash(stage_function(fn1, [array_of(FLOAT), INT32], "k"))
        h2 = graph_hash(stage_function(fn2, [array_of(FLOAT), INT32], "k"))
        assert h1 != h2


class TestKernelCache:
    def test_cache_roundtrip(self):
        cache = KernelCache()

        def fn(a, n):
            forloop(0, n, step=1, body=lambda i: array_update(a, i, 0.0))

        sf = stage_function(fn, [array_of(FLOAT), INT32], "k")
        assert cache.get_for(sf, "simulated") is None
        cache.put_for(sf, "simulated", "the-kernel")
        assert cache.get_for(sf, "simulated") == "the-kernel"
        assert cache.get_for(sf, "native") is None
        # misses are counted where they happen: on the empty get.
        assert cache.hits == 1 and cache.misses == 2

    @staticmethod
    def _staged_k(i):
        def fn(a, n):
            forloop(0, n, step=1,
                    body=lambda j: array_update(a, j, float(i)))

        return stage_function(fn, [array_of(FLOAT), INT32], f"lru{i}")

    def test_lru_bound(self):
        cache = KernelCache(maxsize=2)
        sfs = [self._staged_k(i) for i in range(3)]
        for i, sf in enumerate(sfs):
            cache.put_for(sf, "simulated", f"k{i}")
        assert len(cache) == 2
        assert cache.get_for(sfs[0], "simulated") is None  # evicted
        assert cache.get_for(sfs[2], "simulated") == "k2"

    def test_default_kernel_bound_is_a_constant(self, monkeypatch):
        """``KERNEL_CACHE_ENTRIES`` kernels fit; the next one evicts
        the least recent.  The variable that once set the bound is not
        read."""
        monkeypatch.setenv("REPRO_CACHE_MEM_ENTRIES", "1")
        cache = KernelCache()
        sfs = [self._staged_k(i) for i in range(KERNEL_CACHE_ENTRIES + 1)]
        for i, sf in enumerate(sfs[:-1]):
            cache.put_for(sf, "simulated", f"k{i}")
        assert len(cache) == KERNEL_CACHE_ENTRIES
        cache.put_for(sfs[-1], "simulated", "last")
        assert len(cache) == KERNEL_CACHE_ENTRIES
        assert cache.get_for(sfs[0], "simulated") is None  # evicted
        assert cache.get_for(sfs[1], "simulated") == "k1"

    def test_default_program_bound_is_a_constant(self, monkeypatch):
        """The program memo keeps ``PROGRAM_CACHE_ENTRIES`` programs,
        whatever the variable that once set its bound says."""
        monkeypatch.setenv("REPRO_CACHE_PROGRAM_ENTRIES", "1")
        cache = ProgramCache()
        sfs = [self._staged_k(i) for i in range(PROGRAM_CACHE_ENTRIES + 1)]
        for i, sf in enumerate(sfs):
            cache.put(sf, f"p{i}")
        assert len(cache) == PROGRAM_CACHE_ENTRIES
        assert cache.get(sfs[0]) is None                   # evicted
        assert cache.get(sfs[1]) == "p1"
        assert cache.get(sfs[-1]) == f"p{PROGRAM_CACHE_ENTRIES}"

    def test_lru_keeps_the_most_recent(self):
        """Eviction is by recency alone: five hits do not save an entry
        once another one was read after it."""
        cache = KernelCache(maxsize=2)
        sa, sb, sc = (self._staged_k(i) for i in (10, 11, 12))
        cache.put_for(sa, "auto", "ka")
        cache.put_for(sb, "auto", "kb")
        for _ in range(5):
            assert cache.get_for(sa, "auto") == "ka"
        assert cache.get_for(sb, "auto") == "kb"   # most recent access
        cache.put_for(sc, "auto", "kc")            # forces one eviction
        assert cache.get_for(sa, "auto") is None
        assert cache.get_for(sb, "auto") == "kb"

    def test_pipeline_reuses_kernels(self):
        def fn(a, n):
            forloop(0, n, step=1, body=lambda i: array_update(
                a, i, array_apply(a, i) + 12345.0))

        k1 = compile_staged(fn, [array_of(FLOAT), INT32],
                            backend="simulated")
        k2 = compile_staged(fn, [array_of(FLOAT), INT32],
                            backend="simulated")
        assert k1 is k2

    def test_cache_bypass(self):
        def fn(a, n):
            forloop(0, n, step=1, body=lambda i: array_update(
                a, i, array_apply(a, i) + 54321.0))

        k1 = compile_staged(fn, [array_of(FLOAT), INT32],
                            backend="simulated", use_cache=False)
        k2 = compile_staged(fn, [array_of(FLOAT), INT32],
                            backend="simulated", use_cache=False)
        assert k1 is not k2
