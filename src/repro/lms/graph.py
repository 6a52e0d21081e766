"""SSA graph construction: the ``IRBuilder``.

The builder is the moral equivalent of the LMS trait stack's mutable
state: it allocates symbols, reflects ``Def`` nodes into statements
(performing CSE on pure nodes, the "implicit conversion from ``Exp`` to
``Def``" direction of the paper's four building blocks), tracks effects,
and manages nested blocks for staged control flow.

A thread-local stack of builders makes the generated intrinsic
constructors (e.g. ``_mm256_add_pd``) work without explicitly threading a
context, matching the paper's eDSL ergonomics.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator

from repro.lms.defs import Block, Def, Stm
from repro.lms.effects import EffectContext, Effects, PURE
from repro.lms.expr import Exp, Sym
from repro.lms.types import Type, VOID


class StagingError(RuntimeError):
    """Raised on misuse of the staging API."""


class _BlockFrame:
    __slots__ = ("stms", "cse", "ectx", "bound")

    def __init__(self, bound: tuple[Sym, ...] = ()):
        self.stms: list[Stm] = []
        self.cse: dict[tuple, Sym] = {}
        self.ectx = EffectContext()
        self.bound = bound


class IRBuilder:
    """Builds an SSA computation graph for one staged function."""

    def __init__(self) -> None:
        self._next_id = 0
        self._frames: list[_BlockFrame] = [_BlockFrame()]
        # sym id -> Stm, across all blocks (for lookups / the simulator).
        self.definitions: dict[int, Stm] = {}
        # sym ids of containers explicitly marked mutable.
        self.mutable_syms: set[int] = set()

    # -- symbols -----------------------------------------------------------

    def fresh(self, tp: Type) -> Sym:
        sym = Sym(self._next_id, tp)
        self._next_id += 1
        return sym

    # -- frames ------------------------------------------------------------

    @property
    def _frame(self) -> _BlockFrame:
        return self._frames[-1]

    @contextlib.contextmanager
    def block(self, bound: tuple[Sym, ...] = ()) -> Iterator[_BlockFrame]:
        """Open a nested block (for a loop body or branch)."""
        frame = _BlockFrame(bound)
        self._frames.append(frame)
        try:
            yield frame
        finally:
            popped = self._frames.pop()
            if popped is not frame:  # pragma: no cover - internal invariant
                raise StagingError("unbalanced block nesting")

    def close_block(self, frame: _BlockFrame, result: Exp) -> tuple[Block, Effects]:
        """Finalize a frame into a Block plus its outward effect summary."""
        local = frozenset(frame.ectx.local_containers)
        summary = PURE
        for stm in frame.stms:
            summary = summary.merge(stm.effects.without_containers(local))
        block = Block(frame.stms, result, frame.bound)
        return block, summary

    # -- reflection ---------------------------------------------------------

    def reflect_pure(self, rhs: Def) -> Sym:
        """Reflect a pure node, reusing an existing statement via CSE."""
        key = rhs.structural_key()
        for frame in reversed(self._frames):
            if key in frame.cse:
                return frame.cse[key]
        sym = self.fresh(rhs.tp)
        stm = Stm(sym, rhs, PURE)
        self._frame.stms.append(stm)
        self._frame.cse[key] = sym
        self.definitions[sym.id] = stm
        return sym

    def reflect_effect(self, rhs: Def, eff: Effects) -> Sym:
        """Reflect an effectful node, serializing it against the context."""
        if eff.pure:
            return self.reflect_pure(rhs)
        sym = self.fresh(rhs.tp)
        deps = self._frame.ectx.dependencies_for(eff)
        stm = Stm(sym, rhs, Effects(eff.reads, eff.writes, eff.is_global, deps))
        self._frame.stms.append(stm)
        self._frame.ectx.record(sym.id, eff)
        self.definitions[sym.id] = stm
        return sym

    def reflect(self, rhs: Def, eff: Effects = PURE) -> Sym:
        return self.reflect_effect(rhs, eff) if eff.effectful else self.reflect_pure(rhs)

    def reflect_var_decl(self, rhs: Def) -> Sym:
        """Reflect a mutable-variable declaration.

        The declaration writes its *own* container (its sym id is only
        known after allocation), and the container is local to the
        current block so it does not leak into the block's summary.
        """
        sym = self.fresh(rhs.tp)
        eff = Effects(writes=frozenset({sym.id}))
        stm = Stm(sym, rhs, eff)
        self._frame.stms.append(stm)
        self._frame.ectx.record(sym.id, eff)
        self._frame.ectx.local_containers.add(sym.id)
        self.definitions[sym.id] = stm
        return sym

    def mark_mutable(self, sym: Sym) -> None:
        """Mark an argument as a mutable container (``reflectMutableSym``)."""
        self.mutable_syms.add(sym.id)

    def lookup(self, exp: Exp) -> Stm | None:
        """Find the defining statement of a symbol (``Exp -> Def``)."""
        if isinstance(exp, Sym):
            return self.definitions.get(exp.id)
        return None


_tls = threading.local()


def _stack() -> list[IRBuilder]:
    if not hasattr(_tls, "stack"):
        _tls.stack = []
    return _tls.stack


def current_builder() -> IRBuilder:
    """The innermost active builder; staging outside a scope is an error."""
    stack = _stack()
    if not stack:
        raise StagingError(
            "no active staging scope; staged operations must run inside "
            "stage_function() or a staging_scope()"
        )
    return stack[-1]


@contextlib.contextmanager
def staging_scope(builder: IRBuilder | None = None) -> Iterator[IRBuilder]:
    """Install ``builder`` (or a fresh one) as the current staging context."""
    b = builder if builder is not None else IRBuilder()
    stack = _stack()
    stack.append(b)
    try:
        yield b
    finally:
        stack.pop()


def finish_root_block(builder: IRBuilder, result: Exp | None) -> tuple[Block, Effects]:
    """Close the root frame of ``builder`` into a Block."""
    if len(builder._frames) != 1:
        raise StagingError("staged control flow left an unclosed block")
    frame = builder._frames[0]
    res = result if result is not None else _unit()
    return builder.close_block(frame, res)


def _unit() -> Exp:
    from repro.lms.expr import Const
    return Const(None, VOID)
