"""The machine-kernel representation both backends lower to.

A :class:`MachineKernel` is a structured description of compiled code:
scalar setup assignments (whose values parameterize loop bounds), nested
counted loops, and flat machine operations.  Loop bounds are kept as
Java-AST expressions evaluated against the runtime parameters, so one
lowering prices every problem size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.jvm.ast import Expr
else:  # bounds are duck-typed Java-AST expressions
    Expr = object


@dataclass(frozen=True)
class MachineOp:
    """One machine operation of compiled code.

    ``kind`` classes: ``load``, ``store``, ``add``, ``mul``, ``div``,
    ``fma``, ``cmp``, ``branch``, ``mov``, ``cvt``, ``logic``, ``shift``,
    ``shuffle``, ``gather``, ``reduce``, ``rng``, ``math`` (SVML-class).

    ``lanes`` > 1 marks a SIMD op (4 = SSE floats, 8 = AVX floats...).
    ``stream`` labels the array a memory op touches, with
    ``stride_elems`` the per-iteration element stride of the *innermost*
    loop (non-unit strides cost full cache lines).
    ``on_dep_chain`` marks ops on the loop-carried dependency cycle
    (accumulators): they bound the loop by latency, not throughput.
    """

    kind: str
    bits: int = 32
    lanes: int = 1
    stream: str | None = None
    stride_elems: int | None = 1
    offset_elems: int = 0
    # Enclosing loop variables the access index depends on; loops NOT
    # listed here see the same addresses every iteration (reuse), which
    # drives the cost model's cache-residency analysis.
    index_vars: tuple[str, ...] = ()
    on_dep_chain: bool = False
    is_int: bool = False
    count: int = 1

    @property
    def is_memory(self) -> bool:
        return self.kind in ("load", "store", "gather")

    @property
    def vector_bytes(self) -> int:
        return self.bits * self.lanes // 8


@dataclass(frozen=True)
class SetupAssign:
    """A scalar setup statement: binds a name used in loop bounds."""

    name: str
    expr: Expr
    ops: tuple[MachineOp, ...] = ()


@dataclass
class MachineLoop:
    """A counted loop: bounds as expressions, body of items."""

    var: str
    start: Expr
    end: Expr
    step: Expr
    body: list["KernelItem"] = field(default_factory=list)
    # Loop overhead ops per iteration (index add + cmp + branch).
    overhead: tuple[MachineOp, ...] = (
        MachineOp("add", is_int=True), MachineOp("cmp", is_int=True),
        MachineOp("branch", is_int=True),
    )


KernelItem = Union[MachineOp, MachineLoop, SetupAssign]


@dataclass
class MachineKernel:
    """Compiled code ready for pricing."""

    name: str
    params: list[str]
    body: list[KernelItem] = field(default_factory=list)
    # Per-invocation fixed overhead in cycles (JNI boundary, call cost).
    call_overhead_cycles: float = 0.0
    # Compilation tier that produced this kernel ("c1", "c2", "native").
    tier: str = "native"
    # Multiplier on compute throughput (C1 emits lazier code).
    inefficiency: float = 1.0


class BoundEvalError(RuntimeError):
    """A loop bound could not be evaluated from the parameters."""


def eval_bound(expr: Expr, env: dict[str, float]) -> float:
    """Evaluate a scalar bound expression against the runtime env."""
    from repro.jvm.ast import ArrayLoad, Bin, ConstExpr, Conv, Local

    if isinstance(expr, ConstExpr):
        return expr.value
    if isinstance(expr, Local):
        if expr.name not in env:
            raise BoundEvalError(f"unbound {expr.name!r} in loop bound")
        return env[expr.name]
    if isinstance(expr, Conv):
        value = eval_bound(expr.expr, env)
        return int(value) if not expr.target.is_float else float(value)
    if isinstance(expr, Bin):
        a = eval_bound(expr.lhs, env)
        b = eval_bound(expr.rhs, env)
        table = {
            "+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b,
            "/": lambda: a / b if isinstance(a, float) else int(a) // int(b),
            "%": lambda: a % b,
            "<<": lambda: int(a) << int(b), ">>": lambda: int(a) >> int(b),
            "&": lambda: int(a) & int(b), "|": lambda: int(a) | int(b),
            "^": lambda: int(a) ^ int(b),
            "<": lambda: a < b, "<=": lambda: a <= b,
            ">": lambda: a > b, ">=": lambda: a >= b,
            "==": lambda: a == b, "!=": lambda: a != b,
        }
        if expr.op not in table:
            raise BoundEvalError(f"operator {expr.op!r} in loop bound")
        return table[expr.op]()
    if isinstance(expr, ArrayLoad):
        raise BoundEvalError("array loads cannot appear in loop bounds")
    raise BoundEvalError(f"cannot evaluate {expr!r}")


def trip_count(loop: MachineLoop, env: dict[str, float]) -> int:
    start = eval_bound(loop.start, env)
    end = eval_bound(loop.end, env)
    step = eval_bound(loop.step, env)
    if step <= 0:
        raise BoundEvalError("loop step must be positive")
    return max(0, -(-int(end - start) // int(step)))
