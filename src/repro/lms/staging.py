"""Staging entry point: turn a Python function over staged values into a
computation graph (a ``StagedFunction``).

This is the analog of the paper's step 3 ("implement the SIMD logic as a
staged function"): the function body runs once at staging time, each
intrinsic invocation and auxiliary scalar operation is accumulated into
the graph, and the result is handed to the code generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.lms.defs import Block
from repro.lms.effects import Effects
from repro.lms.expr import Exp, Sym, lift
from repro.lms.graph import IRBuilder, finish_root_block, staging_scope
from repro.lms.types import Type, VOID


@dataclass
class StagedFunction:
    """A staged function: named parameters plus an SSA body block."""

    name: str
    params: list[Sym]
    param_names: list[str]
    body: Block
    effects: Effects
    builder: IRBuilder = field(repr=False)
    # Per-instance memos (never compared, never printed): the scheduled
    # body, the structural graph hash (repro.core.cache.graph_hash) and
    # the closure-compiled executor program (repro.simd.exec).
    _scheduled_body: Block | None = field(
        default=None, repr=False, compare=False)
    _graph_hash: str | None = field(default=None, repr=False, compare=False)
    _exec_program: object | None = field(
        default=None, repr=False, compare=False)

    @property
    def result_type(self) -> Type:
        return self.body.result.tp

    def scheduled(self) -> Block:
        """The scheduled (dead-code-eliminated) body, computed once.

        ``schedule_block`` is idempotent but O(graph); executors and
        code generators that used to re-schedule on every call go
        through here so repeated runs pay it exactly once.
        """
        if self._scheduled_body is None:
            from repro.lms.schedule import schedule_block
            self._scheduled_body = schedule_block(self.body)
        return self._scheduled_body

    @property
    def param_types(self) -> list[Type]:
        return [p.tp for p in self.params]

    def mutated_params(self) -> list[Sym]:
        """Parameters written by the body (arrays marked mutable and
        actually stored to, per the effect summary)."""
        written = self.effects.writes
        return [p for p in self.params if p.id in written]


def stage_function(fn: Callable[..., object], arg_types: Sequence[Type],
                   name: str | None = None,
                   param_names: Sequence[str] | None = None) -> StagedFunction:
    """Run ``fn`` on fresh staged symbols and capture the graph it builds.

    ``arg_types`` gives the staged type of each parameter.  The function
    may return a staged expression (the kernel's return value) or ``None``
    for a void kernel that only has store effects.
    """
    builder = IRBuilder()
    with staging_scope(builder):
        params = [builder.fresh(tp) for tp in arg_types]
        result = fn(*params)
        if result is not None and not isinstance(result, Exp):
            result = lift(result)
        body, effects = finish_root_block(builder, result)

    fn_name = name if name is not None else getattr(fn, "__name__", "staged")
    if param_names is None:
        code = getattr(fn, "__code__", None)
        if code is not None and code.co_argcount == len(params):
            param_names = list(code.co_varnames[: code.co_argcount])
        else:
            param_names = [f"arg{i}" for i in range(len(params))]
    return StagedFunction(
        name=fn_name,
        params=params,
        param_names=list(param_names),
        body=body,
        effects=effects,
        builder=builder,
    )
