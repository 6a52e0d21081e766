"""The closure-compiled simulator executor.

Engine selection, program memoization, observability, and — the load-
bearing contract — exact error parity with the reference tree engine:
both engines must raise the same exception type with the same message
and leave the same partial ``op_counts`` behind.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.obs as obs
from repro.core.cache import program_cache
from repro.lms import forloop, stage_function
from repro.lms.ops import Variable
from repro.lms.types import FLOAT, INT32, array_of
from repro.simd.exec import CompiledProgram, compile_program
from repro.simd.machine import ExecutionError, SimdMachine


@pytest.fixture(autouse=True)
def fresh_state(monkeypatch):
    monkeypatch.delenv("REPRO_OBS", raising=False)
    monkeypatch.delenv("REPRO_OBS_PROFILE", raising=False)
    obs.reset()
    program_cache.clear()
    yield
    obs.reset()
    program_cache.clear()


def _stage_saxpy_like(base_isas):
    cir = base_isas

    def fn(a, b, n):
        def body(i):
            va = cir._mm256_loadu_ps(a, i)
            vb = cir._mm256_loadu_ps(b, i)
            cir._mm256_storeu_ps(a, cir._mm256_add_ps(va, vb), i)
        forloop(0, n, step=8, body=body)
        return 0

    return stage_function(fn, [array_of(FLOAT), array_of(FLOAT), INT32],
                          "exec_saxpy_like")


class TestExecutorSelection:
    def test_default_is_compiled(self):
        assert SimdMachine().executor == "compiled"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown simulator executor"):
            SimdMachine(executor="jit")


class TestMemoization:
    def test_instance_memo(self, base_isas):
        staged = _stage_saxpy_like(base_isas)
        p1 = compile_program(staged)
        p2 = compile_program(staged)
        assert isinstance(p1, CompiledProgram)
        assert p1 is p2
        assert staged._exec_program is p1

    def test_restaged_kernel_hits_program_cache(self, base_isas):
        p1 = compile_program(_stage_saxpy_like(base_isas))
        before = program_cache.hits
        p2 = compile_program(_stage_saxpy_like(base_isas))
        assert p2 is p1
        assert program_cache.hits == before + 1

    def test_machine_run_reuses_program(self, base_isas):
        staged = _stage_saxpy_like(base_isas)
        m = SimdMachine()
        a = np.zeros(16, np.float32)
        m.run(staged, [a, np.ones(16, np.float32), np.int32(16)])
        program = staged._exec_program
        m.run(staged, [a, np.ones(16, np.float32), np.int32(16)])
        assert staged._exec_program is program


class TestObservability:
    def test_exec_counter_labels_engine(self, monkeypatch, base_isas):
        monkeypatch.setenv("REPRO_OBS", "1")
        obs.reset()
        staged = _stage_saxpy_like(base_isas)
        args = [np.zeros(8, np.float32), np.ones(8, np.float32),
                np.int32(8)]
        SimdMachine(executor="compiled").run(staged, list(args))
        SimdMachine(executor="tree").run(staged, list(args))
        reg = obs.get_registry()
        assert reg.counter_value("sim.exec", engine="compiled") == 1
        assert reg.counter_value("sim.exec", engine="tree") == 1

    def test_compile_span_emitted_once(self, monkeypatch, base_isas):
        monkeypatch.setenv("REPRO_OBS", "1")
        obs.reset()
        staged = _stage_saxpy_like(base_isas)
        args = [np.zeros(8, np.float32), np.ones(8, np.float32),
                np.int32(8)]
        m = SimdMachine(executor="compiled")
        m.run(staged, list(args))
        m.run(staged, list(args))
        spans = [s for s in obs.get_tracer().finished_spans()
                 if s.name == "sim.exec.compile"]
        assert len(spans) == 1
        assert spans[0].attrs["kernel"] == "exec_saxpy_like"
        assert spans[0].attrs["steps"] > 0


def _run_both(staged, mkargs):
    """Run under both engines; return ``(tree, compiled)`` outcome pairs
    of ``(result_or_exc, op_counts)``."""
    outcomes = []
    for engine in ("tree", "compiled"):
        m = SimdMachine(executor=engine)
        try:
            result = m.run(staged, mkargs())
        except Exception as exc:  # noqa: BLE001 - parity check
            result = exc
        outcomes.append((result, dict(m.op_counts)))
    return outcomes


def _assert_same_error(staged, mkargs, exc_type, match):
    (r_tree, c_tree), (r_comp, c_comp) = _run_both(staged, mkargs)
    assert isinstance(r_tree, exc_type), r_tree
    assert isinstance(r_comp, exc_type), r_comp
    assert str(r_tree) == str(r_comp)
    assert match in str(r_comp)
    assert c_tree == c_comp


class TestErrorParity:
    def test_wrong_arg_count(self, base_isas):
        staged = _stage_saxpy_like(base_isas)
        _assert_same_error(
            staged, lambda: [np.zeros(8, np.float32)],
            ExecutionError, "expects 3 arguments, got 1")

    def test_wrong_dtype(self, base_isas):
        staged = _stage_saxpy_like(base_isas)
        _assert_same_error(
            staged,
            lambda: [np.zeros(8, np.float64), np.ones(8, np.float32),
                     np.int32(8)],
            ExecutionError, "dtype")

    def test_out_of_bounds_load(self, base_isas):
        staged = _stage_saxpy_like(base_isas)
        _assert_same_error(
            staged,
            lambda: [np.zeros(4, np.float32), np.ones(4, np.float32),
                     np.int32(8)],
            IndexError, "runs off the end")

    def test_out_of_bounds_store(self, base_isas):
        cir = base_isas

        def fn(a):
            cir._mm256_storeu_ps(a, cir._mm256_setzero_ps(), 1)
            return 0

        staged = stage_function(fn, [array_of(FLOAT)], "exec_oob_store")
        _assert_same_error(
            staged, lambda: [np.zeros(8, np.float32)],
            IndexError, "runs off the end")

    def test_nonpositive_loop_step(self):
        def fn(n):
            acc = Variable(0)
            forloop(0, n, step=0, body=lambda i: acc.set(acc.get() + i))
            return acc.get()

        staged = stage_function(fn, [INT32], "exec_bad_step")
        _assert_same_error(staged, lambda: [np.int32(4)],
                           ExecutionError, "forloop step must be positive")

    def test_partial_op_counts_on_failure(self, base_isas):
        # The failing iteration's ops (and the failing op itself) must be
        # counted identically by both engines.
        staged = _stage_saxpy_like(base_isas)
        (r_tree, c_tree), (r_comp, c_comp) = _run_both(
            staged,
            lambda: [np.zeros(12, np.float32), np.ones(12, np.float32),
                     np.int32(16)])
        assert isinstance(r_tree, IndexError)
        assert isinstance(r_comp, IndexError)
        assert c_tree == c_comp
        assert c_tree["simd._mm256_loadu_ps"] > 0


class TestExplain:
    def test_explain_names_engine(self):
        from repro.core.pipeline import compile_staged

        def fn(a, b):
            return a + b

        kernel = compile_staged(fn, [INT32, INT32], name="exec_explain",
                                backend="simulated", use_cache=False)
        assert "simulator engine: compiled" in kernel.explain()
