"""The SIMD machine: executes staged computation graphs bit-accurately.

This is the "simulated native" backend: the same computation graph that
the C backend unparses and compiles is interpreted here against the
executable intrinsic semantics, with C scalar semantics for the auxiliary
operations (fixed-width wraparound, truncating division).  Arrays are
numpy arrays, playing the role of pinned JVM primitive arrays.

Two execution engines share this front door:

* ``compiled`` (default) — the compile-once closure executor of
  :mod:`repro.simd.exec`: the scheduled block is translated once into a
  flat tuple of specialized step closures over a slot-indexed register
  file, memoized per :class:`StagedFunction` and by structural graph
  hash.
* ``tree`` — the reference tree-walking interpreter below, kept
  bit-identical to the compiled engine and selectable with
  ``SimdMachine(executor="tree")`` for differential testing and
  debugging.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Any, Sequence

import numpy as np

import repro.obs as obs
from repro.lms.defs import (
    ArrayApply,
    ArrayUpdate,
    BinaryOp,
    Block,
    Convert,
    ForLoop,
    IfThenElse,
    ReflectMutable,
    Select,
    Stm,
    UnaryOp,
    VarAssign,
    VarDecl,
    VarRead,
    WhileLoop,
)
from repro.lms.expr import Const, Exp, Sym
from repro.lms.staging import StagedFunction
from repro.lms.types import ScalarType
from repro.simd.exec import (  # noqa: F401  (re-exported for compatibility)
    ExecutionError,
    _as_scalar,
    _Box,
    check_arg,
    compile_program,
    refuse_read_only_stores,
)
from repro.simd.semantics import lookup

_EXECUTORS = ("compiled", "tree")


def scalar_binop(rhs: BinaryOp, a: Any, b: Any) -> Any:
    """One auxiliary scalar binary op with C semantics (usual arithmetic
    conversions, fixed-width wraparound, truncating integer division).

    Shared by the tree engine below and the whole-batch sweep of
    :mod:`repro.simd.batch_exec` (for its batch-uniform operands), so
    the two cannot drift apart.
    """
    op = rhs.op
    tp = rhs.tp
    # C usual arithmetic conversions happen before the operation.
    if isinstance(tp, ScalarType) and tp.name != "Boolean" and \
            op not in ("==", "!=", "<", "<=", ">", ">="):
        a = _as_scalar(tp, a)
        b = _as_scalar(tp, b)
    with np.errstate(over="ignore", divide="ignore",
                     invalid="ignore"):
        if op == "+":
            out = a + b
        elif op == "-":
            out = a - b
        elif op == "*":
            out = a * b
        elif op == "/":
            if isinstance(tp, ScalarType) and tp.is_integer:
                # C semantics: truncation toward zero.
                q = abs(int(a)) // abs(int(b))
                out = q if (int(a) < 0) == (int(b) < 0) else -q
            else:
                out = a / b
        elif op == "%":
            ia, ib = int(a), int(b)
            out = ia - (abs(ia) // abs(ib)) * abs(ib) * \
                (1 if ia >= 0 else -1)
        elif op == "&":
            out = a & b
        elif op == "|":
            out = a | b
        elif op == "^":
            out = a ^ b
        elif op == "<<":
            out = int(a) << int(b)
        elif op == ">>":
            out = int(a) >> int(b)
        elif op == "==":
            return bool(a == b)
        elif op == "!=":
            return bool(a != b)
        elif op == "<":
            return bool(a < b)
        elif op == "<=":
            return bool(a <= b)
        elif op == ">":
            return bool(a > b)
        elif op == ">=":
            return bool(a >= b)
        else:
            raise ExecutionError(f"unknown binary op {op}")
    if isinstance(tp, ScalarType):
        return _as_scalar(tp, out)
    return out


_WIDTH_PREFIXES = (("_mm512", 512), ("_mm256", 256), ("_mm", 128))


def classify_mnemonic(name: str) -> tuple[str, int]:
    """``(family, vector-width bits)`` of one op-counter key.

    ``simd._mm256_fmadd_ps`` → ``("fmadd", 256)``; scalar auxiliary ops
    (``scalar.+``) and non-``_mm`` intrinsics (``_rdrand16_step``)
    report width 0.
    """
    if name.startswith("scalar."):
        return name[len("scalar."):], 0
    if name.startswith("simd."):
        name = name[len("simd."):]
    for prefix, width in _WIDTH_PREFIXES:
        if name.startswith(prefix + "_"):
            rest = name[len(prefix) + 1:]
            return rest.split("_", 1)[0], width
    return name.lstrip("_").split("_", 1)[0], 0


class SimdMachine:
    """Interprets staged functions over numpy memory."""

    def __init__(self, seed: int = 0x5EED, profile: bool | None = None,
                 executor: str = "compiled"):
        self.rng = random.Random(seed)
        self.tsc = 0
        self.op_counts: Counter[str] = Counter()
        # Opt-in instruction-mix profiling: when on, each run() flushes
        # its op-count delta into the repro.obs metrics registry,
        # classified by mnemonic family and vector width.  Defaults to
        # the REPRO_OBS_PROFILE environment switch (off).
        self._profile = obs.profile_enabled() if profile is None \
            else profile
        if executor not in _EXECUTORS:
            raise ValueError(
                f"unknown simulator executor {executor!r}; "
                f"expected one of {_EXECUTORS}"
            )
        self.executor = executor

    # -- public API ----------------------------------------------------------

    def run(self, staged: StagedFunction, args: Sequence[Any]) -> Any:
        """Execute ``staged`` on concrete arguments.

        Array parameters must be numpy arrays with the dtype of the staged
        array type; scalars are coerced to their staged type.
        """
        if len(args) != len(staged.params):
            raise ExecutionError(
                f"{staged.name} expects {len(staged.params)} arguments, "
                f"got {len(args)}"
            )
        profiling = self._profile and obs.obs_enabled()
        before = Counter(self.op_counts) if profiling else None
        obs.counter("sim.exec", engine=self.executor)
        if self.executor == "compiled":
            result = compile_program(staged).run(self, args)
        else:
            result = self._run_tree(staged, args)
        if profiling:
            self._flush_profile(before)
        return result

    def run_batch(self, staged: StagedFunction,
                  args_list: Sequence[Sequence[Any]]) -> list:
        """Execute a batch of argument sets, amortizing interpretation.

        Batches whose entries follow the same control-flow path are
        *swept*: one whole-batch tree walk over ``(N,)`` numpy columns
        (:mod:`repro.simd.batch_exec`) instead of N engine runs.
        Anything the sweep cannot vectorize bit-exactly — intrinsics,
        batch-varying branches, aliased mutated arrays — falls back to
        a per-entry loop through the configured engine.  Results,
        mutated arrays and ``op_counts`` are bit-identical to calling
        :meth:`run` once per entry either way.
        """
        entries = [tuple(args) for args in args_list]
        for args in entries:
            if len(args) != len(staged.params):
                raise ExecutionError(
                    f"{staged.name} expects {len(staged.params)} "
                    f"arguments, got {len(args)}"
                )
        if not entries:
            return []
        profiling = self._profile and obs.obs_enabled()
        before = Counter(self.op_counts) if profiling else None
        obs.counter("sim.exec.batch", engine=self.executor)
        obs.observe("sim.exec.batch.size", float(len(entries)))
        results = None
        if len(entries) > 1:
            from repro.simd.batch_exec import BatchFallback, sweep_batch
            try:
                results = sweep_batch(self, staged, entries)
                obs.counter("sim.exec.batch.swept")
            except BatchFallback:
                obs.counter("sim.exec.batch.fallback")
            except Exception:
                # The sweep never touches caller arrays before its
                # final copy-back, so the loop below replays the batch
                # with exact per-entry error semantics (partial side
                # effects, the entry's own exception).
                obs.counter("sim.exec.batch.fallback")
        if results is None:
            # A read-only array the kernel stores to fails the batch
            # before any entry runs, as on the native tier.  (The sweep
            # refuses one in check_arg, before touching caller memory,
            # and so lands here too.)
            refuse_read_only_stores(staged, entries)
            if self.executor == "compiled":
                program = compile_program(staged)
                results = [program.run(self, args) for args in entries]
            else:
                results = [self._run_tree(staged, args)
                           for args in entries]
        if profiling:
            self._flush_profile(before)
        return results

    def _run_tree(self, staged: StagedFunction, args: Sequence[Any]) -> Any:
        env: dict[int, Any] = {}
        written = staged.effects.writes
        for param, value in zip(staged.params, args):
            env[param.id] = check_arg(param, value, param.id in written)
        body = staged.scheduled()
        self._exec_block(body, env)
        result = self._eval(body.result, env)
        tp = body.result.tp
        if result is not None and isinstance(tp, ScalarType) \
                and tp.name != "Boolean":
            result = _as_scalar(tp, result)
        return result

    def _flush_profile(self, before: Counter) -> None:
        """Export this run's op-count delta as ``sim.ops`` counters."""
        delta = Counter(self.op_counts)
        delta.subtract(before)
        for op, count in delta.items():
            if count <= 0:
                continue
            family, width = classify_mnemonic(op)
            obs.counter("sim.ops", count, family=family, width=width)

    # -- argument checking -----------------------------------------------------

    def _check_arg(self, param: Sym, value: Any) -> Any:
        return check_arg(param, value)

    # -- evaluation -------------------------------------------------------------

    def _eval(self, exp: Exp, env: dict[int, Any]) -> Any:
        if isinstance(exp, Const):
            if exp.value is None:
                return None
            if isinstance(exp.tp, ScalarType):
                return _as_scalar(exp.tp, exp.value)
            return exp.value
        if isinstance(exp, Sym):
            if exp.id not in env:
                raise ExecutionError(f"unbound symbol {exp!r}")
            return env[exp.id]
        raise ExecutionError(f"cannot evaluate {exp!r}")

    def _exec_block(self, block: Block, env: dict[int, Any]) -> Any:
        for stm in block.stms:
            env[stm.sym.id] = self._exec_stm(stm, env)
        return self._eval(block.result, env)

    def _exec_stm(self, stm: Stm, env: dict[int, Any]) -> Any:
        rhs = stm.rhs

        if isinstance(rhs, BinaryOp):
            self.op_counts["scalar." + rhs.op] += 1
            return self._binop(rhs, self._eval(rhs.lhs, env),
                               self._eval(rhs.rhs, env))
        if isinstance(rhs, UnaryOp):
            self.op_counts["scalar." + rhs.op] += 1
            operand = self._eval(rhs.operand, env)
            if rhs.op == "neg":
                with np.errstate(over="ignore"):
                    out = -operand
            elif rhs.op == "not":
                out = ~operand
            else:
                raise ExecutionError(f"unknown unary op {rhs.op}")
            tp = rhs.tp
            if isinstance(tp, ScalarType) and tp.name != "Boolean":
                return _as_scalar(tp, out)
            return out
        if isinstance(rhs, Convert):
            value = self._eval(rhs.operand, env)
            return _as_scalar(rhs.tp, value)  # type: ignore[arg-type]
        if isinstance(rhs, Select):
            cond, a, b = (self._eval(x, env) for x in rhs.exp_args)
            out = a if cond else b
            tp = rhs.tp
            if isinstance(tp, ScalarType) and tp.name != "Boolean":
                return _as_scalar(tp, out)
            return out
        if isinstance(rhs, ArrayApply):
            arr = self._eval(rhs.array, env)
            return arr[int(self._eval(rhs.index, env))]
        if isinstance(rhs, ArrayUpdate):
            arr = self._eval(rhs.array, env)
            idx = int(self._eval(rhs.index, env))
            with np.errstate(over="ignore"):
                arr[idx] = self._eval(rhs.value, env)
            return None
        if isinstance(rhs, VarDecl):
            return _Box(self._eval(rhs.init, env))
        if isinstance(rhs, VarRead):
            box = env[rhs.var.id]
            return box.value
        if isinstance(rhs, VarAssign):
            box = env[rhs.var.id]
            box.value = self._eval(rhs.value, env)
            return None
        if isinstance(rhs, ReflectMutable):
            return self._eval(rhs.source, env)
        if isinstance(rhs, ForLoop):
            start = int(self._eval(rhs.start, env))
            end = int(self._eval(rhs.end, env))
            step = int(self._eval(rhs.step, env))
            if step <= 0:
                raise ExecutionError("forloop step must be positive")
            index_id = rhs.index.id
            body = rhs.body
            # The index is a plain int (consumers coerce); allocating a
            # numpy scalar per iteration would dominate light loops.
            for i in range(start, end, step):
                env[index_id] = i
                self._exec_block(body, env)
            return None
        if isinstance(rhs, IfThenElse):
            if bool(self._eval(rhs.cond, env)):
                return self._exec_block(rhs.then_block, env)
            return self._exec_block(rhs.else_block, env)
        if isinstance(rhs, WhileLoop):
            while bool(self._exec_block(rhs.cond_block, env)):
                self._exec_block(rhs.body, env)
            return None

        name = getattr(rhs, "intrinsic_name", None)
        if name is not None:
            self.op_counts["simd." + name] += 1
            fn = lookup(name)
            values = [a if not isinstance(a, Exp) else self._eval(a, env)
                      for a in rhs.args]
            return fn(self, *values)
        raise ExecutionError(f"cannot execute node {type(rhs).__name__}")

    def _binop(self, rhs: BinaryOp, a: Any, b: Any) -> Any:
        return scalar_binop(rhs, a, b)


def execute_staged(staged: StagedFunction, args: Sequence[Any],
                   seed: int = 0x5EED) -> Any:
    """Convenience wrapper: run ``staged`` on a fresh machine."""
    return SimdMachine(seed=seed).run(staged, args)
