"""The kernel cache and the structural graph hash it keys on."""

from repro.core import compile_staged
from repro.core.cache import (
    KERNEL_CACHE_ENTRIES,
    PROGRAM_CACHE_ENTRIES,
    KernelCache,
    ProgramCache,
    graph_hash,
)
from repro.lms import forloop, stage_function
from repro.lms.ops import array_apply, array_update
from repro.lms.types import FLOAT, INT32, array_of


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

    def test_scheduling_does_not_move_the_hash(self):
        """Scheduling drops a loop body's dead statements in place, so a
        kernel hashed before it ran must keep its key after."""
        def fn(a, n):
            def body(i):
                i * 3 + 1   # dead
                array_update(a, i, 0.0)

            forloop(0, n, step=1, body=body)

        fresh = stage_function(fn, [array_of(FLOAT), INT32], "k")
        ran = stage_function(fn, [array_of(FLOAT), INT32], "k")
        ran.scheduled()
        assert graph_hash(ran) == graph_hash(fresh)


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
