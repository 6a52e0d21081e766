"""Golden-trace coverage: the observability instrumentation threaded
through stage → emit → compile → smoke → link, the registry's cache
counters against ``KernelCache``'s own counts, and the report CLI."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.obs as obs
from repro.core import BackendKind, compile_staged
from repro.core.cache import default_cache
from repro.core.resilience import clear_session_state
from repro.lms import forloop
from repro.lms.ops import array_apply, array_update
from repro.lms.types import FLOAT, INT32, array_of
from tests.conftest import requires_compiler

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def clean_obs(monkeypatch, tmp_path):
    """Fresh obs buffers, kernel cache and session state."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "kcache"))
    monkeypatch.delenv("REPRO_CC", raising=False)
    monkeypatch.delenv("REPRO_OBS", raising=False)
    obs.reset()
    default_cache.clear()
    clear_session_state()
    yield
    obs.reset()
    default_cache.clear()
    clear_session_state()


def _subsequence(needles: list[str], haystack: list[str]) -> bool:
    it = iter(haystack)
    return all(n in it for n in needles)


@requires_compiler
class TestGoldenTrace:
    def test_span_tree_and_counters(self, clean_obs, tmp_path):
        compiled = compile_staged(
            lambda a, n: forloop(
                0, n, step=1, body=lambda i: array_update(
                    a, i, array_apply(a, i) * 2.0 + 0.25)),
            [array_of(FLOAT), INT32], name="golden_trace_kernel")
        assert compiled.backend == BackendKind.NATIVE

        spans = obs.get_tracer().finished_spans()
        names = [s.name for s in spans]
        # the golden order of the paper's Figure 3 runtime path
        assert _subsequence(
            ["stage", "emit", "compile", "smoke", "link"], names), names
        # spans form one tree under the pipeline root
        roots = [s for s in spans if s.parent_id is None]
        assert [r.name for r in roots] == ["pipeline"]
        assert roots[0].attrs["backend"] == "native"

        # compile-attempt spans match the report's invocation count
        attempt_spans = [s for s in spans if s.name == "compile.attempt"]
        assert compiled.report is not None
        assert len(attempt_spans) == compiled.report.compiler_invocations
        assert attempt_spans[-1].attrs["outcome"] == "ok"
        assert attempt_spans[-1].attrs["compiler"] == \
            compiled.report.compiler

        # smoke verdict recorded both as span attr and counter
        smoke_spans = [s for s in spans if s.name == "smoke"]
        assert smoke_spans and smoke_spans[0].attrs["verdict"] == "passed"
        reg = obs.get_registry()
        assert reg.counter_value("smoke.verdicts", status="passed") == 1
        assert reg.counter_value("pipeline.backend", kind="native") == 1
        assert reg.counter_value("compile.attempts", outcome="ok",
                                 compiler=compiled.report.compiler) == 1

    def test_registry_matches_kernel_cache_counts(self, clean_obs):
        def fn(a, n):
            forloop(0, n, step=1, body=lambda i: array_update(
                a, i, array_apply(a, i) + 1.5))

        types = [array_of(FLOAT), INT32]
        k1 = compile_staged(fn, types, name="cache_count_kernel")
        k2 = compile_staged(fn, types, name="cache_count_kernel")
        assert k2 is k1                      # served from the mem cache
        assert default_cache.hits == 1 and default_cache.misses == 1

        reg = obs.get_registry()
        assert reg.counter_value("cache.mem.hits") == default_cache.hits
        assert reg.counter_value("cache.mem.misses") == \
            default_cache.misses

    def test_kernel_trace_and_explain(self, clean_obs):
        def fn(a, n):
            forloop(0, n, step=1, body=lambda i: array_update(
                a, i, array_apply(a, i) * 3.0))

        kernel = compile_staged(fn, [array_of(FLOAT), INT32],
                                name="explained_kernel", use_cache=False)
        trace_names = [s.name for s in kernel.trace]
        assert "pipeline" in trace_names and "compile" in trace_names
        text = kernel.explain()
        assert "explained_kernel" in text
        assert "backend=native" in text
        assert "pipeline" in text and "compile.attempt" in text

    def test_disabled_records_nothing(self, clean_obs, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "0")

        def fn(a, n):
            forloop(0, n, step=1, body=lambda i: array_update(
                a, i, array_apply(a, i) - 1.0))

        kernel = compile_staged(fn, [array_of(FLOAT), INT32],
                                name="dark_kernel", use_cache=False)
        assert kernel.backend == BackendKind.NATIVE
        assert obs.get_tracer().finished_spans() == []
        assert obs.get_registry().snapshot()["counters"] == {}
        assert kernel.trace == []
        assert "none recorded" in kernel.explain()


@requires_compiler
class TestReportCli:
    def test_report_on_recorded_trace(self, clean_obs, tmp_path):
        def fn(a, n):
            forloop(0, n, step=1, body=lambda i: array_update(
                a, i, array_apply(a, i) * 0.5))

        compile_staged(fn, [array_of(FLOAT), INT32],
                       name="cli_report_kernel", use_cache=False)
        trace = tmp_path / "trace.jsonl"
        obs.export_trace(trace)

        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + \
            env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs", "report", str(trace)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        for needle in ("== span tree", "pipeline", "compile.attempt",
                       "== cache ==", "== compile ladder =="):
            assert needle in proc.stdout

    def test_trace_path_flushes_at_exit(self, tmp_path):
        trace = tmp_path / "exit-trace.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + \
            env.get("PYTHONPATH", "")
        env["REPRO_OBS_TRACE_PATH"] = str(trace)
        env.pop("REPRO_OBS", None)
        code = ("import repro.obs as obs\n"
                "with obs.span('standalone'):\n"
                "    pass\n"
                "obs.counter('touched')\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        spans, metrics = obs.read_jsonl(trace)
        assert [s.name for s in spans] == ["standalone"]
        assert metrics["counters"]["touched"] == 1
