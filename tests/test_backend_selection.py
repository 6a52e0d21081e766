"""The ``backend=`` argument of ``compile_staged``: valid values, the
``auto`` default, unknown-value behaviour, and the interaction with
``fallback_reason`` when native acquisition fails."""

from __future__ import annotations

import stat
from pathlib import Path

import numpy as np
import pytest

import repro.codegen.compiler as compiler
from repro.codegen.compiler import CompileError
from repro.core import BackendKind, compile_staged
from repro.core.cache import default_cache
from repro.core.resilience import clear_session_state
from repro.lms import forloop
from repro.lms.ops import array_apply, array_update
from repro.lms.types import FLOAT, INT32, array_of
from tests.conftest import requires_compiler


@pytest.fixture
def clean_state(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "kcache"))
    monkeypatch.delenv("REPRO_CC", raising=False)
    default_cache.clear()
    clear_session_state()
    yield
    default_cache.clear()
    clear_session_state()


def _make_fn(salt: float):
    def fn(a, n):
        forloop(0, n, step=1, body=lambda i: array_update(
            a, i, array_apply(a, i) * 2.0 + salt))

    return fn


def _broken_cc(tmp_path: Path) -> Path:
    """A compiler that answers --version but fails every compile."""
    script = tmp_path / "broken-cc"
    script.write_text(
        "#!/bin/sh\n"
        'if [ "$1" = "--version" ]; then echo fake-gcc 1.0; exit 0; fi\n'
        'echo "kernel.c:1:1: error: no" >&2\n'
        "exit 1\n")
    script.chmod(script.stat().st_mode | stat.S_IXUSR)
    return script


class TestRequestedValues:
    def test_simulated_argument(self, clean_state):
        kernel = compile_staged(_make_fn(0.5), [array_of(FLOAT), INT32],
                                name="arg_simulated", backend="simulated",
                                use_cache=False)
        assert kernel.backend == BackendKind.SIMULATED
        assert kernel.fallback_reason is None
        assert kernel.report is None
        a = np.ones(8, dtype=np.float32)
        kernel(a, 8)
        np.testing.assert_allclose(a, np.full(8, 2.5, dtype=np.float32))

    def test_unknown_argument_raises(self, clean_state):
        with pytest.raises(ValueError, match="unknown backend"):
            compile_staged(_make_fn(1.0), [array_of(FLOAT), INT32],
                           name="arg_bogus", backend="turbo",
                           use_cache=False)

    @requires_compiler
    def test_default_is_auto(self, clean_state):
        kernel = compile_staged(_make_fn(3.0), [array_of(FLOAT), INT32],
                                name="default_auto", use_cache=False)
        assert kernel.backend == BackendKind.NATIVE
        assert kernel.fallback_reason is None

    @requires_compiler
    def test_no_argument_is_the_auto_entry(self, clean_state):
        fn = _make_fn(8.0)
        types = [array_of(FLOAT), INT32]
        default = compile_staged(fn, types, name="unnamed", tier="sync")
        assert default.backend == BackendKind.NATIVE
        assert compile_staged(fn, types, name="unnamed", backend="auto",
                              tier="sync") is default


class TestFallbackInteraction:
    def test_auto_degrades_with_reason(self, clean_state, monkeypatch,
                                       tmp_path):
        monkeypatch.setenv("REPRO_CC", f"gcc={_broken_cc(tmp_path)}")
        monkeypatch.setattr(compiler, "COMPILE_RETRIES", 0)
        kernel = compile_staged(_make_fn(4.0), [array_of(FLOAT), INT32],
                                name="auto_degrades", backend="auto",
                                use_cache=False)
        assert kernel.backend == BackendKind.SIMULATED
        assert kernel.fallback_reason is not None
        assert "ladder exhausted" in kernel.fallback_reason
        # the report of the failed acquisition rides along
        assert kernel.report is not None
        assert kernel.report.compiler_invocations > 0
        assert all(a.outcome == "permanent"
                   for a in kernel.report.attempts)
        # the kernel still runs, on the simulator
        a = np.zeros(4, dtype=np.float32)
        kernel(a, 4)
        np.testing.assert_allclose(a, np.full(4, 4.0, dtype=np.float32))

    def test_native_propagates_failure(self, clean_state, monkeypatch,
                                       tmp_path):
        monkeypatch.setenv("REPRO_CC", f"gcc={_broken_cc(tmp_path)}")
        monkeypatch.setattr(compiler, "COMPILE_RETRIES", 0)
        with pytest.raises(CompileError):
            compile_staged(_make_fn(5.0), [array_of(FLOAT), INT32],
                           name="native_fails", backend="native",
                           use_cache=False)

    def test_simulated_never_compiles(self, clean_state, monkeypatch,
                                      tmp_path):
        # a broken toolchain is irrelevant when the simulator is forced
        monkeypatch.setenv("REPRO_CC", f"gcc={_broken_cc(tmp_path)}")
        kernel = compile_staged(_make_fn(6.0), [array_of(FLOAT), INT32],
                                name="sim_only", backend="simulated",
                                use_cache=False)
        assert kernel.backend == BackendKind.SIMULATED
        assert kernel.report is None

    def test_cache_keyed_by_requested_backend(self, clean_state):
        fn = _make_fn(7.0)
        types = [array_of(FLOAT), INT32]
        sim = compile_staged(fn, types, name="keyed", backend="simulated")
        sim2 = compile_staged(fn, types, name="keyed",
                              backend="simulated")
        assert sim2 is sim
        auto = compile_staged(fn, types, name="keyed", backend="auto")
        assert auto is not sim      # different requested key, new entry
