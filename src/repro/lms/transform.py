"""Transformers and mirroring.

A ``Transformer`` rewrites a block into a fresh builder, applying a
symbol substitution.  When a statement has no substitution, its node is
*mirrored*: rebuilt from transformed operands and reflected into the new
graph — the third of the paper's four generated building blocks.  Core
node classes are mirrored here; generated intrinsics mirror themselves
generically through their uniform constructor (the analog of the
generated ``mirror`` pattern match).
"""

from __future__ import annotations

from typing import Callable

from repro.lms import effects as fx
from repro.lms.defs import (
    ArrayApply,
    ArrayUpdate,
    BinaryOp,
    Block,
    Convert,
    Def,
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
from repro.lms.graph import IRBuilder, current_builder


class Transformer:
    """A substitution-based graph rewriter."""

    def __init__(self, subst: dict[int, Exp] | None = None):
        self.subst: dict[int, Exp] = dict(subst or {})

    def __call__(self, exp: Exp) -> Exp:
        if isinstance(exp, Sym) and exp.id in self.subst:
            return self.subst[exp.id]
        return exp

    def register(self, old: Sym, new: Exp) -> None:
        self.subst[old.id] = new

    # -- mirroring ----------------------------------------------------------

    def mirror(self, rhs: Def, stm: Stm) -> Exp:
        """Rebuild ``rhs`` with transformed operands in the current builder."""
        builder = current_builder()
        f = self

        if isinstance(rhs, BinaryOp):
            from repro.lms.ops import binary
            return binary(rhs.op, f(rhs.lhs), f(rhs.rhs))
        if isinstance(rhs, UnaryOp):
            return builder.reflect_pure(UnaryOp(rhs.op, f(rhs.operand), rhs.tp))
        if isinstance(rhs, Convert):
            return builder.reflect_pure(Convert(f(rhs.operand), rhs.tp))
        if isinstance(rhs, Select):
            cond, a, b = (f(x) for x in rhs.exp_args)
            return builder.reflect_pure(Select(cond, a, b, rhs.tp))
        if isinstance(rhs, ArrayApply):
            from repro.lms.ops import array_apply
            return array_apply(f(rhs.array), f(rhs.index))
        if isinstance(rhs, ArrayUpdate):
            from repro.lms.ops import array_update
            return array_update(f(rhs.array), f(rhs.index), f(rhs.value))
        if isinstance(rhs, VarDecl):
            return builder.reflect_var_decl(VarDecl(f(rhs.init), rhs.tp))
        if isinstance(rhs, VarRead):
            var = f(rhs.var)
            return builder.reflect_effect(
                VarRead(var, rhs.tp), fx.read(var.id)
            )
        if isinstance(rhs, VarAssign):
            var = f(rhs.var)
            return builder.reflect_effect(
                VarAssign(var, f(rhs.value), rhs.tp), fx.write(var.id)
            )
        if isinstance(rhs, ReflectMutable):
            from repro.lms.ops import reflect_mutable
            return reflect_mutable(f(rhs.source))
        if isinstance(rhs, ForLoop):
            idx = builder.fresh(rhs.index.tp)
            self.register(rhs.index, idx)
            with builder.block(bound=(idx,)) as frame:
                self.transform_statements(rhs.body)
                body, summary = builder.close_block(
                    frame, self(rhs.body.result)
                )
            node = ForLoop(f(rhs.start), f(rhs.end), f(rhs.step), idx,
                           body, rhs.tp)
            return builder.reflect_effect(node, summary)
        if isinstance(rhs, IfThenElse):
            blocks = []
            effs = []
            for blk in (rhs.then_block, rhs.else_block):
                with builder.block() as frame:
                    self.transform_statements(blk)
                    newb, eff = builder.close_block(frame, self(blk.result))
                blocks.append(newb)
                effs.append(eff)
            node = IfThenElse(f(rhs.cond), blocks[0], blocks[1], rhs.tp)
            return builder.reflect_effect(node, effs[0].merge(effs[1]))
        if isinstance(rhs, WhileLoop):
            with builder.block() as frame:
                self.transform_statements(rhs.cond_block)
                condb, ceff = builder.close_block(
                    frame, self(rhs.cond_block.result)
                )
            with builder.block() as frame:
                self.transform_statements(rhs.body)
                bodyb, beff = builder.close_block(frame, self(rhs.body.result))
            node = WhileLoop(condb, bodyb, rhs.tp)
            return builder.reflect_effect(node, ceff.merge(beff))

        # Generated intrinsics (and any node exposing remirror): rebuild
        # through the uniform constructor.
        remirror = getattr(rhs, "remirror", None)
        if remirror is not None:
            return remirror(f)
        raise NotImplementedError(f"cannot mirror {type(rhs).__name__}")

    def transform_statements(self, block: Block) -> None:
        """Mirror each statement of ``block`` into the current builder."""
        for stm in block.stms:
            new_exp = self.mirror(stm.rhs, stm)
            if isinstance(new_exp, Exp):
                self.register(stm.sym, new_exp)


def mirror_block(block: Block, subst: dict[int, Exp] | None = None,
                 builder: IRBuilder | None = None) -> tuple[Block, IRBuilder]:
    """Mirror a whole block into a fresh builder, applying ``subst``."""
    from repro.lms.graph import finish_root_block, staging_scope

    t = Transformer(subst)
    b = builder if builder is not None else IRBuilder()
    with staging_scope(b):
        t.transform_statements(block)
        result = t(block.result)
        new_block, _ = finish_root_block(b, result)
    return new_block, b


def remirror_function(staged, t: Transformer):
    """Mirror a whole :class:`~repro.lms.staging.StagedFunction` through
    ``t`` into a fresh builder, carrying parameter names and mutability
    marks over.  This is the shared entry/exit boilerplate of every
    whole-function rewrite pass (simplification, the optimizer passes).
    """
    from repro.lms.graph import finish_root_block, staging_scope
    from repro.lms.staging import StagedFunction

    builder = IRBuilder()
    with staging_scope(builder):
        new_params = [builder.fresh(p.tp) for p in staged.params]
        for old, new in zip(staged.params, new_params):
            t.register(old, new)
        for sym_id in staged.builder.mutable_syms:
            # Mutability marks carry over to the mirrored params.
            for old, new in zip(staged.params, new_params):
                if old.id == sym_id:
                    builder.mark_mutable(new)
        t.transform_statements(staged.body)
        result = t(staged.body.result)
        body, effects = finish_root_block(
            builder, result if not isinstance(result, Const)
            or result.value is not None else None)
    return StagedFunction(
        name=staged.name, params=new_params,
        param_names=list(staged.param_names), body=body,
        effects=effects, builder=builder)
