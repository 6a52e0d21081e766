"""Differential testing: independent executors must agree bit-for-bit.

Classic compiler validation, twice over:

* native C backend vs the SIMD machine — generate random (but
  well-defined) staged scalar kernels, optimize them as
  ``compile_staged`` does, compile the result through gcc/clang, and
  require bit-exact agreement with both the raw and the optimized graph
  on both simulator engines.  Shift counts are masked at staging time
  and division is excluded, so every generated program has one defined
  meaning; ``-fwrapv`` gives signed wraparound the same semantics in C
  as in the graph.
* closure-compiled executor vs the reference tree interpreter — random
  kernels over every control-flow node kind (for/if/while, variables,
  select, convert, array reads/writes) must produce identical results,
  identical mutated arrays, identical ``op_counts``, and identical
  ``sim.ops`` profile counters from both engines.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.obs as obs
from repro.codegen.compiler import inspect_system
from repro.codegen.native import compile_to_native
from repro.lms import forloop, stage_function
from repro.lms.expr import Exp, const
from repro.lms.ops import (
    Variable,
    array_apply,
    array_update,
    convert,
    select,
)
from repro.lms.control import if_then_else, while_loop
from repro.lms.optimize import optimize_staged
from repro.lms.types import FLOAT, INT32, array_of
from repro.simd.machine import SimdMachine
from tests.conftest import requires_compiler

_INT_BINOPS = ("+", "-", "*", "&", "|", "^")
_FLOAT_BINOPS = ("+", "-", "*")


class _ExprGen:
    """Builds a random staged expression over (int a, int b, float x)."""

    def __init__(self, choices: list[int]):
        self.choices = choices
        self.pos = 0

    def pick(self, n: int) -> int:
        value = self.choices[self.pos % len(self.choices)]
        self.pos += 1
        return value % n

    def int_expr(self, a: Exp, b: Exp, depth: int) -> Exp:
        kind = self.pick(4 if depth > 0 else 3)
        if kind == 0:
            return a
        if kind == 1:
            return b
        if kind == 2:
            return const(self.pick(201) - 100)
        op_idx = self.pick(len(_INT_BINOPS) + 2)
        lhs = self.int_expr(a, b, depth - 1)
        rhs = self.int_expr(a, b, depth - 1)
        if op_idx < len(_INT_BINOPS):
            from repro.lms.ops import binary
            return binary(_INT_BINOPS[op_idx], lhs, rhs)
        if op_idx == len(_INT_BINOPS):
            from repro.lms.ops import binary
            # Mask the shift count so it is always defined in C.
            return binary("<<", lhs, rhs & 31)
        from repro.lms.ops import binary
        return binary(">>", lhs, rhs & 31)

    def float_expr(self, a: Exp, b: Exp, x: Exp, depth: int) -> Exp:
        kind = self.pick(4 if depth > 0 else 3)
        if kind == 0:
            return x
        if kind == 1:
            return convert(self.int_expr(a, b, max(0, depth - 1)), FLOAT)
        if kind == 2:
            return const(float(self.pick(41) - 20) / 4.0, FLOAT)
        op_idx = self.pick(len(_FLOAT_BINOPS) + 1)
        lhs = self.float_expr(a, b, x, depth - 1)
        rhs = self.float_expr(a, b, x, depth - 1)
        from repro.lms.ops import binary
        if op_idx < len(_FLOAT_BINOPS):
            return binary(_FLOAT_BINOPS[op_idx], lhs, rhs)
        return select(binary("<", lhs, rhs), lhs, rhs)


_counter = [0]


def _build_kernel(choices: list[int], as_float: bool):
    gen = _ExprGen(choices)
    _counter[0] += 1
    name = f"diff_{'f' if as_float else 'i'}{_counter[0]}"

    if as_float:
        def fn(a, b, x):
            return gen.float_expr(a, b, x, depth=3)

        return stage_function(fn, [INT32, INT32, FLOAT], name)

    def fn(a, b, x):
        return gen.int_expr(a, b, depth=3)

    return stage_function(fn, [INT32, INT32, FLOAT], name)


def _check_native_agrees(staged, args, bits):
    """Native code for the graph ``compile_staged`` ships (the optimized
    one) must match the raw and the optimized graph on both engines."""
    opt, _ = optimize_staged(staged)
    kernel = compile_to_native(opt)
    native = bits(kernel(*args))
    for graph in (staged, opt):
        for engine in ("tree", "compiled"):
            simulated = bits(SimdMachine(executor=engine).run(graph, args))
            assert native == simulated, (engine, kernel.c_source)


@requires_compiler
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(choices=st.lists(st.integers(0, 10_000), min_size=8, max_size=40),
       a=st.integers(-(2**31), 2**31 - 1),
       b=st.integers(-(2**31), 2**31 - 1))
def test_integer_kernels_agree(choices, a, b):
    staged = _build_kernel(choices, as_float=False)
    _check_native_agrees(staged, [a, b, 0.0],
                         lambda v: np.int32(v).tobytes())


@requires_compiler
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(choices=st.lists(st.integers(0, 10_000), min_size=8, max_size=40),
       a=st.integers(-1000, 1000),
       b=st.integers(-1000, 1000),
       x=st.floats(-100.0, 100.0, width=32, allow_nan=False))
def test_float_kernels_agree_bitwise(choices, a, b, x):
    staged = _build_kernel(choices, as_float=True)
    _check_native_agrees(staged, [a, b, x],
                         lambda v: np.float32(v).tobytes())


# ---------------------------------------------------------------------------
# Compiled executor vs the reference tree interpreter.
#
# Random kernels exercising every control-flow node kind the compiler
# translates: ForLoop, IfThenElse, WhileLoop, VarDecl/VarRead/VarAssign,
# Select, Convert, ArrayApply and ArrayUpdate.  No native toolchain
# needed — both engines are pure Python.
# ---------------------------------------------------------------------------


def _build_control_kernel(choices: list[int]):
    """A random ``(arr: int[], n) -> int`` kernel with nested control
    flow; every choice list yields one well-defined program."""
    gen = _ExprGen(choices)
    _counter[0] += 1
    mode = gen.pick(3)
    threshold = gen.pick(50)
    stride = 1 + gen.pick(3)

    def fn(arr, n):
        acc = Variable(0)
        total = Variable(0)

        def body(i):
            v = array_apply(arr, i)
            # Select + Convert keep a float path alive inside the loop.
            scaled = convert(convert(v, FLOAT) * 0.5, INT32)
            picked = select(v < threshold, scaled, v)
            branched = if_then_else(
                (v & 1) == 0,
                lambda: picked + acc.get(),
                lambda: picked - acc.get())
            acc.set(branched)
            array_update(arr, i, branched)

        forloop(0, n, step=stride, body=body)

        if mode == 0:
            # WhileLoop: halve the accumulator until small.
            def wbody():
                acc.set(acc.get() / 2)
                total.set(total.get() + 1)

            while_loop(lambda: acc.get() > 4, wbody)
            return acc.get() + total.get()
        if mode == 1:
            return select(acc.get() < 0, -acc.get(), acc.get())
        return acc.get() + array_apply(arr, 0)

    return stage_function(
        fn, [array_of(INT32), INT32], f"diff_ctl{_counter[0]}")


def _run_engine(staged, arr: np.ndarray, n: int, engine: str):
    obs.reset()
    machine = SimdMachine(executor=engine, profile=True)
    result = machine.run(staged, [arr, np.int32(n)])
    snapshot = obs.get_registry().snapshot()
    obs.reset()
    return result, dict(machine.op_counts), snapshot["counters"]


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(choices=st.lists(st.integers(0, 10_000), min_size=8, max_size=40),
       data=st.lists(st.integers(-100, 100), min_size=1, max_size=24))
def test_compiled_and_tree_engines_agree(choices, data):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_OBS", "1")
        mp.setenv("REPRO_OBS_PROFILE", "1")
        _check_engines_agree(choices, data)


def _check_engines_agree(choices, data):
    staged = _build_control_kernel(choices)
    n = len(data)
    arr_tree = np.array(data, dtype=np.int32)
    arr_comp = np.array(data, dtype=np.int32)

    r_tree, ops_tree, sim_tree = _run_engine(staged, arr_tree, n, "tree")
    r_comp, ops_comp, sim_comp = _run_engine(
        staged, arr_comp, n, "compiled")

    assert type(r_tree) is type(r_comp)
    assert np.int32(r_tree).tobytes() == np.int32(r_comp).tobytes()
    assert arr_tree.dtype == arr_comp.dtype
    assert np.array_equal(arr_tree, arr_comp)
    assert ops_tree == ops_comp
    # The sim.ops profile (family/width classified) must match too;
    # drop the engine-labelled sim.exec counter first.
    sim_tree = {k: v for k, v in sim_tree.items()
                if k.startswith("sim.ops")}
    sim_comp = {k: v for k, v in sim_comp.items()
                if k.startswith("sim.ops")}
    assert sim_tree == sim_comp
