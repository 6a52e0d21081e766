"""The repro.obs core: spans, metrics, exporters and the report
renderer."""

from __future__ import annotations

import gc
import json
import sys
import threading
import weakref

import numpy as np
import pytest

import repro.obs as obs
from repro.core import compile_staged
from repro.core.cache import default_cache
from repro.core.resilience import clear_session_state
from repro.lms import forloop
from repro.lms.ops import array_apply, array_update
from repro.lms.types import FLOAT, INT32, array_of
from repro.obs.core import (
    RING_CAPACITY,
    MetricsRegistry,
    Span,
    Tracer,
    read_jsonl,
    write_jsonl,
)
from repro.obs.report import build_tree, render_report, report_from_file
from repro.simd.machine import SimdMachine, classify_mnemonic
from tests.conftest import requires_compiler


@pytest.fixture(autouse=True)
def fresh_obs(monkeypatch):
    monkeypatch.delenv("REPRO_OBS", raising=False)
    monkeypatch.delenv("REPRO_OBS_PROFILE", raising=False)
    obs.reset()
    yield
    obs.reset()


@pytest.fixture
def native_env(monkeypatch, tmp_path):
    """A private disk cache and no ambient compiler, tier or fault
    settings, for tests that build a native kernel."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "kcache"))
    for var in ("REPRO_CC", "REPRO_FAULTS", "REPRO_TIER"):
        monkeypatch.delenv(var, raising=False)
    default_cache.clear()
    clear_session_state()
    yield
    default_cache.clear()
    clear_session_state()


def _tiered_native_kernel(salt: float):
    """A managed kernel of its own graph, swapped to native."""
    def fn(a, n):
        forloop(0, n, step=1, body=lambda i: array_update(
            a, i, array_apply(a, i) * 0.5 + salt))

    kernel = compile_staged(fn, [array_of(FLOAT), INT32],
                            name="tally_k", tier="async",
                            use_cache=False).wait_native(120)
    assert kernel.tier == "native"
    return kernel


class TestTracer:
    def test_span_tree_parentage(self):
        tracer = Tracer()
        with tracer.span("root") as r:
            r.set("kernel", "saxpy")
            with tracer.span("child"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("sibling"):
                pass
        spans = tracer.finished_spans()
        by_name = {s.name: s for s in spans}
        assert by_name["child"].parent_id == by_name["root"].span_id
        assert by_name["grandchild"].parent_id == by_name["child"].span_id
        assert by_name["sibling"].parent_id == by_name["root"].span_id
        assert by_name["root"].parent_id is None
        # all four share the root's trace id
        assert len({s.trace_id for s in spans}) == 1
        assert by_name["root"].attrs["kernel"] == "saxpy"

    def test_start_order_and_durations(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        spans = tracer.finished_spans()
        assert [s.name for s in spans] == ["a", "b"]
        for s in spans:
            assert s.end_ns is not None and s.duration_ns >= 0

    def test_ring_buffer_bounded(self):
        tracer = Tracer(capacity=16)
        for i in range(100):
            tracer.event(f"e{i}")
        spans = tracer.finished_spans()
        assert len(spans) == 16
        assert spans[-1].name == "e99"

    def test_default_ring_holds_ring_capacity_spans(self, monkeypatch):
        """The default bound is a constant: the variable that once set
        it is not read."""
        monkeypatch.setenv("REPRO_OBS_RING", "16")
        tracer = Tracer()
        for i in range(RING_CAPACITY + 5):
            tracer.event(f"e{i}")
        spans = tracer.finished_spans()
        assert len(spans) == RING_CAPACITY
        assert spans[0].name == "e5"

    def test_exception_marks_error_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        (span,) = tracer.finished_spans()
        assert span.status == "error"
        assert span.attrs["error"] == "ValueError"

    def test_separate_roots_get_separate_traces(self):
        tracer = Tracer()
        with tracer.span("one"):
            pass
        with tracer.span("two"):
            pass
        a, b = tracer.finished_spans()
        assert a.trace_id != b.trace_id
        assert tracer.spans_for_trace(a.trace_id) == [a]
        # a nested trace among other traces' spans: the child finishes
        # (enters the ring) first, yet the parent still comes first
        with tracer.span("parent"):
            with tracer.span("child"):
                pass
        with tracer.span("three"):
            pass
        _, _, parent, child, _ = tracer.finished_spans()
        assert (parent.name, child.name) == ("parent", "child")
        assert tracer.spans_for_trace(parent.trace_id) == [parent, child]

    def test_thread_local_stacks(self):
        tracer = Tracer()
        seen = []

        def worker(tag):
            with tracer.span(f"root-{tag}"):
                with tracer.span(f"leaf-{tag}"):
                    pass
            seen.append(tag)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(seen) == 4
        spans = tracer.finished_spans()
        assert len(spans) == 8
        for i in range(4):
            root = next(s for s in spans if s.name == f"root-{i}")
            leaf = next(s for s in spans if s.name == f"leaf-{i}")
            assert leaf.parent_id == root.span_id
            assert leaf.trace_id == root.trace_id


class TestDisabled:
    def test_no_spans_or_metrics_when_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "0")
        with obs.span("invisible") as sp:
            sp.set("k", "v")
        obs.counter("nope")
        obs.observe("nope_s", 1.0)
        obs.event("nope-event")
        assert obs.get_tracer().finished_spans() == []
        assert obs.get_registry().counter_value("nope") == 0
        assert obs.get_registry().snapshot()["histograms"] == {}

    def test_enabled_by_default(self):
        assert obs.obs_enabled()
        assert not obs.profile_enabled()


class TestMetrics:
    def test_counter_labels_and_sum(self):
        reg = MetricsRegistry()
        reg.inc("compile.attempts", outcome="ok")
        reg.inc("compile.attempts", outcome="ok")
        reg.inc("compile.attempts", outcome="permanent")
        assert reg.counter_value("compile.attempts", outcome="ok") == 2
        assert reg.counter_value("compile.attempts") == 3
        assert reg.counters()["compile.attempts{outcome=ok}"] == 2

    def test_gauge_and_histogram(self):
        reg = MetricsRegistry()
        reg.set_gauge("queue.depth", 7)
        reg.observe("compile_s", 0.02, buckets=(0.01, 0.1, 1.0))
        reg.observe("compile_s", 5.0, buckets=(0.01, 0.1, 1.0))
        snap = reg.snapshot()
        assert snap["gauges"]["queue.depth"] == 7
        hist = snap["histograms"]["compile_s"]
        assert hist["count"] == 2
        assert hist["counts"] == [0, 1, 1]
        assert hist["sum"] == pytest.approx(5.02)

    def test_prometheus_exposition(self):
        reg = MetricsRegistry()
        reg.inc("cache.mem.hits", 3)
        reg.inc("compile.attempts", outcome="ok")
        reg.set_gauge("ring.size", 4)
        reg.observe("smoke_s", 0.2, buckets=(0.1, 1.0))
        text = reg.prometheus_text()
        assert "# TYPE repro_cache_mem_hits_total counter" in text
        assert "repro_cache_mem_hits_total 3" in text
        assert 'repro_compile_attempts_total{outcome="ok"} 1' in text
        assert "# TYPE repro_ring_size gauge" in text
        assert 'repro_smoke_s_bucket{le="+Inf"} 1' in text
        assert "repro_smoke_s_count 1" in text

    def test_thread_safety_under_contention(self):
        reg = MetricsRegistry()

        def spin():
            for _ in range(1000):
                reg.inc("spins")

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter_value("spins") == 8000


class TestTallies:
    """Counts a hot path keeps as plain ints, read as counter cells."""

    class Owner:
        pass

    def test_every_read_sees_the_counts(self, tmp_path):
        reg = MetricsRegistry()
        owner, counts = self.Owner(), {"native": 0, "simulated": 0}
        reg.track(owner, "tiered.calls", "tier", counts)
        reg.track(owner, "tiered.calls", "tier", counts)   # idempotent
        counts["native"] += 3
        counts["simulated"] += 1
        assert reg.counter_value("tiered.calls", tier="native") == 3
        assert reg.counter_value("tiered.calls") == 4
        assert reg.counters()["tiered.calls{tier=simulated}"] == 1
        assert reg.snapshot()["counters"]["tiered.calls{tier=native}"] == 3
        assert 'repro_tiered_calls_total{tier="native"} 3' in \
            reg.prometheus_text()
        _, metrics = read_jsonl(write_jsonl(tmp_path / "t.jsonl", [], reg))
        assert metrics["counters"]["tiered.calls{tier=native}"] == 3

    def test_reset_zeroes_and_collection_keeps(self):
        reg = MetricsRegistry()
        owner, counts = self.Owner(), {"native": 5}
        reg.track(owner, "tiered.calls", "tier", counts)
        reg.reset()
        assert reg.counters() == {}
        assert counts == {"native": 5}      # the owner's own count stays
        counts["native"] += 2
        del owner                           # queued for folding
        assert reg.counter_value("tiered.calls", tier="native") == 2
        counts["native"] += 100             # folded: no longer read
        assert reg.counter_value("tiered.calls", tier="native") == 2

    def test_collection_under_the_lock_does_not_block(self):
        """A managed kernel sits in a cycle, so the cyclic GC frees it,
        in whatever thread allocates at the time — also one holding the
        registry lock.  Its finalizer must not take that lock."""
        reg = MetricsRegistry()
        owner, counts = self.Owner(), {"native": 0}
        owner.cycle = owner                 # freed only by the cyclic GC
        reg.track(owner, "tiered.calls", "tier", counts)
        counts["native"] += 2
        del owner
        done = threading.Event()

        def collect_under_the_lock():
            with reg._lock:
                gc.collect()
            done.set()

        threading.Thread(target=collect_under_the_lock, daemon=True).start()
        assert done.wait(timeout=10)
        assert reg.counter_value("tiered.calls", tier="native") == 2
        assert reg._tallies == {}           # folded at that read

    @staticmethod
    def _hammer(call, n_threads: int, calls_each: int) -> None:
        """``call(i)`` ``calls_each`` times in each of ``n_threads``
        threads, with the interpreter switching threads as often as it
        can."""
        def run(i):
            for _ in range(calls_each):
                call(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)

    @requires_compiler
    def test_contended_dispatch_counts_every_call(self, native_env):
        """A tiered native kernel's glue loses no call when many threads
        share it and the interpreter switches often, and the registry
        reads every one, after ``obs.reset()`` too."""
        kernel = _tiered_native_kernel(0.5)
        arrays = [np.ones(4, np.float32) for _ in range(8)]
        self._hammer(lambda i: kernel(arrays[i], 4), 8, 5000)
        assert kernel.tier_calls["native"] == 8 * 5000
        assert obs.get_registry().counter_value(
            "tiered.calls", tier="native") == 8 * 5000
        obs.reset()
        self._hammer(lambda i: kernel(arrays[i], 4), 8, 500)
        kernel.call_batch([(arrays[0], 4)] * 7)
        assert kernel.tier_calls["native"] == 8 * 5500 + 7
        assert obs.get_registry().counter_value(
            "tiered.calls", tier="native") == 8 * 500 + 7

    def test_contended_simulated_bump_counts_every_call(self):
        """The simulated tier's count is one dict increment with no
        Python call between its read and its write, so it loses no
        call either."""
        from repro.core.tiered import SimulatedDispatch, TierCalls

        class Machine:
            @staticmethod
            def run(staged, args):
                return None

        kernel = self.Owner()
        kernel.tier_calls, kernel._machine, kernel.staged = \
            TierCalls(), Machine(), None
        reg = MetricsRegistry()
        reg.track(kernel, "tiered.calls", "tier", kernel.tier_calls)
        dispatch = SimulatedDispatch(kernel)
        self._hammer(lambda i: dispatch(), 8, 5000)
        assert reg.counter_value("tiered.calls", tier="simulated") == \
            8 * 5000
        assert reg.counter_value("tiered.calls", tier="native") == 0

    @requires_compiler
    def test_a_called_managed_kernel_is_collected(self, native_env):
        """The registry holds a managed kernel's counts, not the
        kernel: once dropped it is collected, and what it counted is
        kept."""
        kernel = _tiered_native_kernel(1.5)
        a = np.ones(4, np.float32)
        for _ in range(3):
            kernel(a, 4)
        kernel.call_batch([(a, 4)] * 2)
        ref = weakref.ref(kernel)
        del kernel
        gc.collect()
        assert ref() is None
        assert obs.get_registry().counter_value(
            "tiered.calls", tier="native") == 5

    def test_module_helper_is_off_when_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "0")
        owner, counts = self.Owner(), {"native": 1}
        obs.tally(owner, "tiered.calls", "tier", counts)
        assert obs.get_registry().counters() == {}


class TestExportImport:
    def test_jsonl_round_trip(self, tmp_path):
        with obs.span("root"):
            with obs.span("leaf", outcome="ok"):
                pass
        obs.counter("cache.mem.hits", 2)
        path = obs.export_trace(tmp_path / "trace.jsonl")
        spans, metrics = read_jsonl(path)
        assert [s.name for s in spans] == ["root", "leaf"]
        assert spans[1].attrs["outcome"] == "ok"
        assert metrics["counters"]["cache.mem.hits"] == 2

    def test_malformed_lines_skipped(self, tmp_path):
        good = Span("ok", 1, None, 1, 0, 5).to_dict()
        path = tmp_path / "t.jsonl"
        path.write_text("not json\n" + json.dumps(good) + "\n[1,2]\n")
        spans, metrics = read_jsonl(path)
        assert len(spans) == 1 and metrics is None

    def test_orphan_spans_promoted_to_roots(self):
        spans = [Span("orphan", 5, 99, 1, 10, 20),
                 Span("root", 6, None, 1, 0, 30)]
        roots, children = build_tree(spans)
        assert {s.name for s in roots} == {"root", "orphan"}
        assert children == {}


class TestReport:
    def _record_some_activity(self):
        with obs.span("pipeline", kernel="saxpy"):
            with obs.span("stage"):
                pass
            with obs.span("compile"):
                with obs.span("compile.attempt", compiler="gcc",
                              rung="O3", outcome="ok"):
                    pass
        obs.counter("cache.mem.hits", 3)
        obs.counter("cache.mem.misses", 1)
        obs.counter("compile.attempts", outcome="ok", compiler="gcc")
        obs.counter("compile.retries", 2)

    def test_render_report_from_file(self, tmp_path):
        self._record_some_activity()
        path = obs.export_trace(tmp_path / "trace.jsonl")
        text = report_from_file(str(path))
        assert "pipeline" in text and "compile.attempt" in text
        assert "75.0% hit rate" in text
        assert "retries=2" in text
        assert "ok=1" in text

    def test_report_cli_main(self, tmp_path, capsys):
        from repro.obs.report import main
        self._record_some_activity()
        path = obs.export_trace(tmp_path / "trace.jsonl")
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "== span tree" in out and "== cache ==" in out

    def test_report_empty_trace(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        text = report_from_file(str(path))
        assert "no spans recorded" in text

    def test_metrics_cli_main(self, capsys):
        from repro.obs.report import main
        obs.counter("cache.mem.hits")
        assert main(["metrics"]) == 0
        assert "repro_cache_mem_hits_total 1" in capsys.readouterr().out

    def test_resilience_rows_print_zeros(self):
        """Counter families that never fired still print (as zeros), so
        reports from two runs diff cleanly row-for-row."""
        self._record_some_activity()   # no resilience activity at all
        text = render_report(obs.get_tracer().finished_spans(),
                             obs.get_registry().snapshot())
        for row in ("watchdog.kills = 0", "tiered.abandoned = 0",
                    "cache.disk.recovered = 0",
                    "cache.disk.locks_broken = 0",
                    "native.workdirs_swept = 0"):
            assert row in text, row
        # and nonzero values still render
        obs.counter("tiered.abandoned", 4)
        text = render_report([], obs.get_registry().snapshot())
        assert "tiered.abandoned = 4" in text


class TestSimulatorProfile:
    def test_classify_mnemonic(self):
        assert classify_mnemonic("simd._mm256_fmadd_ps") == ("fmadd", 256)
        assert classify_mnemonic("simd._mm_add_ps") == ("add", 128)
        assert classify_mnemonic("simd._mm512_load_si512") == ("load", 512)
        assert classify_mnemonic("scalar.+") == ("+", 0)
        assert classify_mnemonic("simd._rdrand16_step") == \
            ("rdrand16", 0)

    def test_profile_flush_opt_in(self):
        from repro.kernels import make_staged_saxpy
        import numpy as np
        staged = make_staged_saxpy()
        a = np.ones(16, dtype=np.float32)
        b = np.ones(16, dtype=np.float32)

        SimdMachine(profile=False).run(staged, [a, b, 2.0, 16])
        assert obs.get_registry().counter_value("sim.ops") == 0

        SimdMachine(profile=True).run(staged, [a, b, 2.0, 16])
        reg = obs.get_registry()
        assert reg.counter_value("sim.ops") > 0
        fmadds = reg.counter_value("sim.ops", family="fmadd", width=256)
        assert fmadds > 0

    def test_profile_env_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_PROFILE", "1")
        machine = SimdMachine()
        assert machine._profile
