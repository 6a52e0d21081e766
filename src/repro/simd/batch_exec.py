"""NumPy whole-batch execution for the simulator tier (DESIGN.md §13).

A batch of N invocations of the same staged function normally costs N
interpreter runs.  When every entry follows the same control-flow path
— loop bounds, branch conditions and shift amounts agree across the
batch — the scheduled block can instead be *swept* once, with each SSA
value holding either a batch-uniform scalar (exactly the value the
per-entry engines would compute) or a ``(N,)`` numpy column of
per-entry values.  Array arguments are stacked into fresh ``(N, L)``
copies so the sweep never touches caller memory until the final
copy-back, which makes fallback safe: any condition the sweep cannot
vectorize *exactly* raises :class:`BatchFallback` and the caller
re-executes the batch entry by entry through the normal engines,
reproducing per-entry error semantics and partial side effects
bit-for-bit.

Numerical contract: a swept batch is bit-identical to the per-entry
loop — results, mutated arrays and ``op_counts`` (each sweep op counts
once per entry) all match; anything that cannot keep that promise
falls back instead of approximating.  Enforced by
``tests/test_batch.py``.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Sequence

import numpy as np

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
from repro.lms.types import ArrayType, ScalarType
from repro.simd.exec import ExecutionError, _as_scalar, _Box, check_arg

__all__ = ["BatchFallback", "sweep_batch"]

#: Stacked-copy budget: batches whose array arguments would need more
#: than this many bytes of fresh copies fall back to the loop.
_MAX_STACK_BYTES = 1 << 26  # 64 MiB

_COMPARISONS = ("==", "!=", "<", "<=", ">", ">=")


class BatchFallback(Exception):
    """The batch cannot be swept exactly (intrinsics, batch-varying
    control flow, aliasing, or a value numpy cannot vectorize with
    bit-exact C semantics); the caller runs it entry by entry."""


def _batched(value: Any) -> bool:
    """A per-entry ``(N,)`` column, as opposed to a batch-uniform
    scalar (numpy scalars and Python ints/bools are never ndarrays)."""
    return isinstance(value, np.ndarray) and value.ndim == 1


def _coerce_col(tp: ScalarType, col: np.ndarray) -> np.ndarray:
    """Columnwise :func:`~repro.simd.exec._as_scalar`: coerce a batch
    column to ``tp`` with the same two's-complement wrap and C
    truncation the scalar coercion applies, or refuse."""
    if not tp.is_float and tp.name != "Boolean":
        if col.dtype.kind == "f":
            # int(x) truncates toward zero and raises on non-finite or
            # arbitrarily large values; only vectorize the exact range.
            if not np.all(np.isfinite(col)):
                raise BatchFallback("non-finite float-to-int batch")
            if np.any(np.abs(col) >= float(1 << 63)):
                raise BatchFallback("float-to-int batch out of range")
            u = np.trunc(col).astype(np.int64).astype(np.uint64)
        elif col.dtype.kind == "u":
            u = col.astype(np.uint64)
        elif col.dtype.kind in ("i", "b"):
            u = col.astype(np.int64).astype(np.uint64)
        else:
            raise BatchFallback(f"cannot coerce {col.dtype} batch")
        if tp.bits < 64:
            u = u & np.uint64((1 << tp.bits) - 1)
            v = u.astype(np.int64)
            if tp.signed:
                half = np.int64(1 << (tp.bits - 1))
                full = np.int64(1 << tp.bits)
                v = np.where(v >= half, v - full, v)
            return v.astype(tp.np_dtype)
        signed = u.view(np.int64) if tp.signed else u
        return signed.astype(tp.np_dtype)
    if tp.name == "Boolean":
        return col.astype(np.bool_)
    with np.errstate(over="ignore"):
        return col.astype(tp.np_dtype)


class _Sweep:
    """One whole-batch tree walk over a scheduled block."""

    __slots__ = ("n", "env", "counts", "_iota")

    def __init__(self, n: int, env: dict[int, Any]):
        self.n = n
        self.env = env
        self.counts: Counter[str] = Counter()
        self._iota: np.ndarray | None = None

    def _rows(self) -> np.ndarray:
        if self._iota is None:
            self._iota = np.arange(self.n)
        return self._iota

    @staticmethod
    def _coerce(tp: ScalarType, value: Any) -> Any:
        if _batched(value):
            return _coerce_col(tp, value)
        return _as_scalar(tp, value)

    # -- evaluation ---------------------------------------------------------

    def eval(self, exp: Exp) -> Any:
        if isinstance(exp, Const):
            if exp.value is None:
                return None
            if isinstance(exp.tp, ScalarType):
                return _as_scalar(exp.tp, exp.value)
            return exp.value
        if isinstance(exp, Sym):
            env = self.env
            if exp.id not in env:
                raise ExecutionError(f"unbound symbol {exp!r}")
            return env[exp.id]
        raise ExecutionError(f"cannot evaluate {exp!r}")

    def _uniform(self, exp: Exp, what: str) -> Any:
        value = self.eval(exp)
        if _batched(value):
            raise BatchFallback(f"batch-varying {what}")
        return value

    def exec_block(self, block: Block) -> Any:
        env = self.env
        for stm in block.stms:
            env[stm.sym.id] = self.exec_stm(stm)
        return self.eval(block.result)

    def _index_col(self, idx: np.ndarray) -> np.ndarray:
        """Batched index column with ``int(x)`` truncation semantics."""
        if idx.dtype.kind == "f":
            if not np.all(np.isfinite(idx)):
                raise BatchFallback("non-finite batched index")
            return np.trunc(idx).astype(np.int64)
        if idx.dtype == np.uint64 and np.any(idx >= np.uint64(1 << 63)):
            raise BatchFallback("batched index out of int64 range")
        return idx.astype(np.int64)

    def exec_stm(self, stm: Stm) -> Any:
        rhs = stm.rhs

        if isinstance(rhs, BinaryOp):
            self.counts["scalar." + rhs.op] += 1
            return self._binop(rhs, self.eval(rhs.lhs),
                               self.eval(rhs.rhs))
        if isinstance(rhs, UnaryOp):
            self.counts["scalar." + rhs.op] += 1
            operand = self.eval(rhs.operand)
            if rhs.op == "neg":
                with np.errstate(over="ignore"):
                    out = -operand
            elif rhs.op == "not":
                out = ~operand
            else:
                raise ExecutionError(f"unknown unary op {rhs.op}")
            tp = rhs.tp
            if isinstance(tp, ScalarType) and tp.name != "Boolean":
                return self._coerce(tp, out)
            return out
        if isinstance(rhs, Convert):
            return self._coerce(rhs.tp, self.eval(rhs.operand))
        if isinstance(rhs, Select):
            cond, a, b = (self.eval(x) for x in rhs.exp_args)
            tp = rhs.tp
            scalar = isinstance(tp, ScalarType) and tp.name != "Boolean"
            if not _batched(cond):
                out = a if cond else b
                return self._coerce(tp, out) if scalar else out
            if scalar:
                # Coercion commutes with elementwise selection.
                return np.where(cond, self._coerce(tp, a),
                                self._coerce(tp, b))
            if isinstance(tp, ScalarType):  # Boolean
                return np.where(cond, a, b)
            raise BatchFallback("batch-varying non-scalar select")
        if isinstance(rhs, ArrayApply):
            arr = self.eval(rhs.array)
            if not (isinstance(arr, np.ndarray) and arr.ndim == 2):
                raise BatchFallback("array expression did not stack")
            idx = self.eval(rhs.index)
            if _batched(idx):
                return arr[self._rows(), self._index_col(idx)]
            # Copy: a later ArrayUpdate must not retro-patch this load.
            return arr[:, int(idx)].copy()
        if isinstance(rhs, ArrayUpdate):
            arr = self.eval(rhs.array)
            if not (isinstance(arr, np.ndarray) and arr.ndim == 2):
                raise BatchFallback("array expression did not stack")
            idx = self.eval(rhs.index)
            value = self.eval(rhs.value)
            with np.errstate(over="ignore"):
                if _batched(idx):
                    arr[self._rows(), self._index_col(idx)] = value
                else:
                    arr[:, int(idx)] = value
            return None
        if isinstance(rhs, VarDecl):
            return _Box(self.eval(rhs.init))
        if isinstance(rhs, VarRead):
            return self.env[rhs.var.id].value
        if isinstance(rhs, VarAssign):
            self.env[rhs.var.id].value = self.eval(rhs.value)
            return None
        if isinstance(rhs, ReflectMutable):
            return self.eval(rhs.source)
        if isinstance(rhs, ForLoop):
            start = int(self._uniform(rhs.start, "loop bound"))
            end = int(self._uniform(rhs.end, "loop bound"))
            step = int(self._uniform(rhs.step, "loop step"))
            if step <= 0:
                raise ExecutionError("forloop step must be positive")
            env = self.env
            index_id = rhs.index.id
            body = rhs.body
            for i in range(start, end, step):
                env[index_id] = i
                self.exec_block(body)
            return None
        if isinstance(rhs, IfThenElse):
            if bool(self._uniform(rhs.cond, "branch condition")):
                return self.exec_block(rhs.then_block)
            return self.exec_block(rhs.else_block)
        if isinstance(rhs, WhileLoop):
            while True:
                cond = self.exec_block(rhs.cond_block)
                if _batched(cond):
                    raise BatchFallback("batch-varying loop condition")
                if not bool(cond):
                    break
                self.exec_block(rhs.body)
            return None

        if getattr(rhs, "intrinsic_name", None) is not None:
            raise BatchFallback(
                f"intrinsic {rhs.intrinsic_name} does not sweep")
        raise ExecutionError(f"cannot execute node {type(rhs).__name__}")

    # -- binary ops ---------------------------------------------------------

    def _binop(self, rhs: BinaryOp, a: Any, b: Any) -> Any:
        if not (_batched(a) or _batched(b)):
            from repro.simd.machine import scalar_binop
            return scalar_binop(rhs, a, b)
        op = rhs.op
        tp = rhs.tp
        if op in _COMPARISONS:
            with np.errstate(invalid="ignore"):
                if op == "==":
                    out = a == b
                elif op == "!=":
                    out = a != b
                elif op == "<":
                    out = a < b
                elif op == "<=":
                    out = a <= b
                elif op == ">":
                    out = a > b
                else:
                    out = a >= b
            return np.asarray(out)
        if not isinstance(tp, ScalarType):
            raise BatchFallback(f"op {op} at {tp} does not sweep")
        if tp.name == "Boolean":
            if op == "&":
                return a & b
            if op == "|":
                return a | b
            if op == "^":
                return a ^ b
            raise BatchFallback(f"op {op} on booleans does not sweep")
        a = self._coerce(tp, a)
        b = self._coerce(tp, b)
        with np.errstate(over="ignore", divide="ignore",
                         invalid="ignore"):
            if op == "+":
                out = a + b
            elif op == "-":
                out = a - b
            elif op == "*":
                out = a * b
            elif op == "/":
                if tp.is_integer:
                    return self._int_div(tp, a, b)
                out = a / b
            elif op == "%":
                return self._int_mod(tp, a, b)
            elif op == "&":
                out = a & b
            elif op == "|":
                out = a | b
            elif op == "^":
                out = a ^ b
            elif op in ("<<", ">>"):
                return self._shift(tp, op, a, b)
            else:
                raise ExecutionError(f"unknown binary op {op}")
        return self._coerce(tp, out)

    def _int_div(self, tp: ScalarType, a: Any, b: Any) -> Any:
        # The scalar engines raise ZeroDivisionError per entry; let the
        # loop reproduce that rather than vectorizing a poison value.
        if np.any(np.asarray(b) == 0):
            raise BatchFallback("division by zero in batch")
        if tp.signed and tp.bits == 64:
            raise BatchFallback("64-bit signed division does not sweep")
        if not tp.signed:
            return self._coerce(tp, a // b)
        a64 = np.asarray(a, dtype=np.int64)
        b64 = np.asarray(b, dtype=np.int64)
        q = np.abs(a64) // np.abs(b64)  # C semantics: truncate to zero
        return self._coerce(tp, np.where((a64 < 0) == (b64 < 0), q, -q))

    def _int_mod(self, tp: ScalarType, a: Any, b: Any) -> Any:
        if not tp.is_integer:
            raise BatchFallback("non-integer modulo does not sweep")
        if np.any(np.asarray(b) == 0):
            raise BatchFallback("modulo by zero in batch")
        if tp.signed and tp.bits == 64:
            raise BatchFallback("64-bit signed modulo does not sweep")
        if not tp.signed:
            return self._coerce(tp, a % b)
        a64 = np.asarray(a, dtype=np.int64)
        b64 = np.asarray(b, dtype=np.int64)
        ab = np.abs(b64)
        out = a64 - (np.abs(a64) // ab) * ab * np.where(a64 >= 0, 1, -1)
        return self._coerce(tp, out)

    def _shift(self, tp: ScalarType, op: str, a: Any, b: Any) -> Any:
        if _batched(b):
            raise BatchFallback("batch-varying shift amount")
        shift = int(b)
        if shift < 0:
            raise BatchFallback("negative shift amount")
        col = np.asarray(a)
        if op == "<<":
            # Python-int shift then two's-complement wrap == shift in
            # the value's image mod 2**64 then wrap to tp.
            if col.dtype.kind == "u":
                u = col.astype(np.uint64)
            else:
                u = col.astype(np.int64).astype(np.uint64)
            out = np.zeros_like(u) if shift >= 64 \
                else u << np.uint64(shift)
            return self._coerce(tp, out)
        if tp.signed:
            # Arithmetic shift of the signed value, like int(a) >> s.
            return self._coerce(
                tp, col.astype(np.int64) >> np.int64(min(shift, 63)))
        u = col.astype(np.uint64)
        out = np.zeros_like(u) if shift >= 64 else u >> np.uint64(shift)
        return self._coerce(tp, out)


def sweep_batch(machine, staged: StagedFunction,
                entries: Sequence[tuple]) -> list:
    """Execute ``entries`` (argument tuples) as one whole-batch sweep.

    Returns the per-entry results and applies array mutations exactly
    as a per-entry loop would, folding ``op_counts`` (sweep counts ×
    N) into ``machine.op_counts``; raises :class:`BatchFallback` when
    the batch cannot be swept bit-exactly.  Caller memory is never
    touched before the final copy-back, so a fallback (or any error)
    leaves the arguments untouched for a clean per-entry replay.
    """
    n = len(entries)
    body = staged.scheduled()
    mutated = {p.id for p in staged.mutated_params()}
    env: dict[int, Any] = {}
    stacked: list[tuple[Sym, int, np.ndarray]] = []
    alias_keys: dict[int, list[int]] = {}
    total_bytes = 0
    for j, param in enumerate(staged.params):
        writes = param.id in mutated
        values = [check_arg(param, args[j], writes) for args in entries]
        if isinstance(param.tp, ArrayType):
            first = values[0]
            if first.ndim != 1:
                raise BatchFallback("only 1-D array arguments sweep")
            if any(v.shape != first.shape for v in values):
                raise BatchFallback("ragged array argument shapes")
            for v in values:
                base = v.base
                alias_keys.setdefault(
                    id(base) if base is not None else id(v),
                    []).append(param.id)
            total_bytes += first.nbytes * n
            if total_bytes > _MAX_STACK_BYTES:
                raise BatchFallback("batch exceeds the stacking budget")
            col = np.stack(values) if n else \
                np.empty((0,) + first.shape, dtype=first.dtype)
            env[param.id] = col
            stacked.append((param, j, col))
        else:
            first_bytes = values[0].tobytes()
            if all(v.tobytes() == first_bytes for v in values[1:]):
                env[param.id] = values[0]
            else:
                env[param.id] = np.array(values,
                                         dtype=param.tp.np_dtype)
    # Aliasing: entries sharing memory with anything a sweep mutates
    # would see the loop's cumulative writes; only distinct buffers
    # (or purely read-only sharing) sweep.
    for holders in alias_keys.values():
        if len(holders) > 1 and any(p in mutated for p in holders):
            raise BatchFallback("aliased mutated array arguments")

    sweep = _Sweep(n, env)
    result = sweep.exec_block(body)

    tp = body.result.tp
    if result is not None and isinstance(tp, ScalarType) \
            and tp.name != "Boolean":
        result = sweep._coerce(tp, result)
        results = list(result) if _batched(result) else [result] * n
    elif result is None:
        results = [None] * n
    elif _batched(result) or isinstance(result, np.ndarray):
        # Batch-varying booleans (the loop returns Python bools from
        # comparisons, np.bool_ from converts — provenance the sweep
        # does not track) and array results stay on the loop path.
        raise BatchFallback("result does not extract from a sweep")
    else:
        results = [result] * n

    # Everything from here on is infallible: copy mutations back into
    # caller arrays, then fold the op counts (sweep counts once per
    # batch, the per-entry engines once per call).
    for param, j, col in stacked:
        if param.id not in mutated:
            continue
        for i, args in enumerate(entries):
            np.copyto(args[j], col[i])
    op_counts = machine.op_counts
    for name, count in sweep.counts.items():
        op_counts[name] += count * n
    return results
