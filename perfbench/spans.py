"""Spans recorded from the benchmark's side of each layer boundary.

The traced run wraps the module attributes the pipeline looks up — the
program itself is not changed and adds no tracing of its own.  Spans
live in memory (name, start, end, parent, one trace id per timed op) and
are written at exit in the JSONL schema ``repro.obs.read_jsonl`` parses,
so ``python -m repro.obs report <file>`` renders them.

µs-scale calls (the warm call path) are not wrapped: one span per call
would cost as much as the call.  They are timed in blocks from
``worker.py`` instead.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable

from repro.lms.schedule import count_statements
from repro.obs.core import MetricsRegistry, Span, write_jsonl


def _note_opt(span: Span, args: tuple, result: Any) -> None:
    span.attrs["stms_in"] = count_statements(args[0].body)
    span.attrs["stms_out"] = count_statements(result[0].body)


def _note_emit(span: Span, args: tuple, result: Any) -> None:
    span.attrs["c_bytes"] = len(result.encode())


def _note_cc(span: Span, args: tuple, result: Any) -> None:
    span.attrs["so_bytes"] = result[0].stat().st_size


def _note_probe(span: Span, args: tuple, result: Any) -> None:
    span.attrs["outcome"] = "miss" if result is None else "hit"


def entry_points() -> list[tuple[Any, str, str, Callable | None]]:
    """``(owner, attribute, span name, note)`` for every wrapped entry
    point.  Names are ``<layer>.<what>``; an entry point imported into
    several modules is wrapped at each place it is looked up."""
    import repro.codegen.compiler as compiler
    import repro.codegen.native as native
    import repro.core.cache as cache
    import repro.core.pipeline as pipeline
    import repro.core.resilience as resilience
    import repro.core.tiered as tiered
    import repro.lms.optimize as optimize
    import repro.lms.schedule as schedule
    import repro.simd.machine as machine

    return [
        (pipeline, "stage_function", "lms.stage", None),
        (pipeline, "optimize_staged", "lms.opt", _note_opt),
        (schedule, "schedule_block", "lms.schedule", None),
        (optimize, "schedule_block", "lms.schedule", None),
        (pipeline, "emit_c_source", "cgen.emit", _note_emit),
        (native, "emit_c_source", "cgen.emit", _note_emit),
        (pipeline, "lower_staged", "timing.lower", None),
        (pipeline, "acquire_native", "resilience.acquire", None),
        (tiered, "acquire_native", "resilience.acquire", None),
        (resilience, "smoke_test_artifact", "resilience.smoke", None),
        (resilience, "link_native", "resilience.link", None),
        (resilience, "required_isas", "spec.required_isas", None),
        (native, "required_isas", "spec.required_isas", None),
        (resilience, "inspect_system", "compiler.detect", None),
        (native, "inspect_system", "compiler.detect", None),
        (resilience, "build_native", "native.build", None),
        (native, "compile_with_fallback", "compiler.cc", _note_cc),
        (compiler, "compile_shared_library", "compiler.invoke", None),
        (cache.DiskKernelCache, "get", "cache.probe", _note_probe),
        (cache.DiskKernelCache, "put", "cache.publish", None),
        (cache.KernelCache, "get_for", "cache.mem_probe", None),
        (cache.KernelCache, "put_for", "cache.mem_put", None),
        (machine.SimdMachine, "run", "simd.run", None),
        (machine, "compile_program", "simd.program_compile", None),
        (tiered.KernelManager, "manage", "tiered.manage", None),
        (tiered.KernelManager, "_run_job", "tiered.compile", None),
        (pipeline.CompiledKernel, "_swap_to_native", "tiered.swap", None),
    ]


class Recorder:
    """In-memory spans with a per-thread parent stack."""

    def __init__(self, id_base: int = 0) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(id_base + 1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        span = Span(name=name, span_id=span_id,
                    parent_id=parent.span_id if parent else None,
                    trace_id=parent.trace_id if parent else span_id,
                    start_ns=time.monotonic_ns(), attrs=dict(attrs))
        stack.append(span)
        try:
            yield span
        except BaseException:
            span.status = "error"
            raise
        finally:
            span.end_ns = time.monotonic_ns()
            stack.pop()
            self.spans.append(span)

    def _wrap(self, owner: Any, attr: str, name: str,
              note: Callable | None) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = original(*args, **kwargs)
                if note is not None:
                    note(span, args, result)
                return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        for owner, attr, name, note in entry_points():
            self._wrap(owner, attr, name, note)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path, counters: dict[str, float] | None = None) -> None:
        registry = MetricsRegistry()
        for name, value in (counters or {}).items():
            registry.inc(name, value)
        write_jsonl(path, sorted(self.spans, key=lambda s: s.start_ns),
                    registry)


# ---------------------------------------------------------------------------
# Analysis.

class Analysis:
    """Self times and per-op coverage of a list of spans."""

    def __init__(self, spans: list[Span]) -> None:
        self.spans = [s for s in spans if s.end_ns is not None]
        self.children: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent_id is not None:
                self.children[s.parent_id].append(s)

    def self_ns(self, span: Span) -> int:
        return span.duration_ns - sum(
            c.duration_ns for c in self.children.get(span.span_id, ()))

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def descendants(self, span: Span):
        for child in self.children.get(span.span_id, ()):
            yield child
            yield from self.descendants(child)

    def per_op(self, op: str, name: str) -> float:
        """Mean number of ``name`` spans inside each ``op`` root."""
        roots = self.named(op)
        if not roots:
            return float("nan")
        return sum(sum(1 for d in self.descendants(r) if d.name == name)
                   for r in roots) / len(roots)

    def coverage(self, op: str) -> tuple[dict[str, float], float, int]:
        """Mean share of an ``op`` root's duration spent in each span
        name's self time, and the uncovered share (the root's own self
        time), over every root of that name."""
        roots = [r for r in self.named(op) if r.duration_ns > 0]
        shares: dict[str, float] = defaultdict(float)
        uncovered = 0.0
        for root in roots:
            total = root.duration_ns
            for d in self.descendants(root):
                shares[d.name] += self.self_ns(d) / total
            uncovered += self.self_ns(root) / total
        n = max(1, len(roots))
        return ({k: v / n for k, v in shares.items()}, uncovered / n,
                len(roots))
