"""The optimizing middle-end: a pass manager between staging and
scheduling.

LMS earns its keep through staging-time specialization, but a staged
graph still carries whatever redundancy the kernel author wrote:
re-materialized broadcast constants inside loops, index arithmetic that
simplifies to nothing.  Every such node is paid on *every* simulated
step closure and inflated into every generated C body.  This module
runs a classic middle-end over the SSA graph before
``schedule_block``/``cgen`` see it:

* **simplify** — the algebraic rules of
  :class:`repro.lms.rewrites.SimplifyTransformer` (float-safe, trap-safe).
* **cse** — global value numbering by re-mirroring (structural CSE
  across the whole function) plus loop-invariant code motion: pure,
  non-trapping, block-free statements whose operands are defined outside
  a loop body are hoisted in front of the loop.
* **dce** — dead-code elimination via :func:`repro.lms.schedule.schedule_block`
  (the effects system decides liveness: effectful statements always
  survive).

``compile_staged`` always runs this one pass list, iterated to a
(bounded) fixpoint.  ``optimize_staged(staged, 0)`` returns the staged
graph untouched: the unoptimized reference the tests compare against.

Error-path preservation: value-discarding rewrites only drop operands
whose defining subgraph cannot trap (:func:`repro.lms.rewrites.may_trap`
taint), and may-trap nodes are never CSE-merged or hoisted — so the
optimized graph raises exactly when, and what, the unoptimized graph
raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import repro.obs as obs
from repro.lms.defs import Block, ForLoop, Stm, WhileLoop
from repro.lms.expr import Sym
from repro.lms.rewrites import SafeTransformer, SimplifyTransformer, may_trap
from repro.lms.schedule import count_statements, schedule_block
from repro.lms.staging import StagedFunction
from repro.lms.transform import remirror_function

LEVEL = 1
MAX_ITERATIONS = 4

PASS_NAMES = ("simplify", "cse", "dce")


def effective_level() -> int:
    """The level ``compile_staged`` optimizes at: there is one pipeline."""
    return LEVEL


@dataclass
class OptStats:
    """What the middle-end did to one staged function."""

    level: int
    iterations: int = 0
    stms_before: int = 0
    stms_after: int = 0
    # statements eliminated, per pass (count delta across the pass).
    eliminated: dict = field(default_factory=dict)
    rewrites: int = 0
    hoisted: int = 0

    @property
    def total_eliminated(self) -> int:
        return max(0, self.stms_before - self.stms_after)

    def summary_lines(self) -> list[str]:
        lines = [
            f"level={self.level} iterations={self.iterations} "
            f"statements {self.stms_before} -> {self.stms_after} "
            f"(-{self.total_eliminated})"]
        for name in PASS_NAMES:
            if name in self.eliminated:
                lines.append(
                    f"  {name:9s} eliminated={self.eliminated[name]}")
        lines.append(
            f"  rewrites={self.rewrites} hoisted={self.hoisted}")
        return lines


# ---------------------------------------------------------------------------
# Loop-invariant code motion (part of the cse/GVN pass).
# ---------------------------------------------------------------------------


def _lift_block(block: Block, extra_bound: set[int]) -> list[Stm]:
    """Remove and return the hoistable statements of a loop block.

    A statement is hoistable when it is pure, has no nested blocks,
    cannot trap (hoisting executes it even when the loop runs zero
    times), and every operand is defined outside the block.  Iterates so
    chains of invariant statements move together, preserving their
    relative order (dependencies stay in front)."""
    defined = {stm.sym.id for stm in block.stms}
    defined.update(s.id for s in block.bound)
    defined |= extra_bound
    moved: list[Stm] = []
    changed = True
    while changed:
        changed = False
        keep: list[Stm] = []
        for stm in block.stms:
            rhs = stm.rhs
            ok = (stm.effects.pure and not rhs.blocks
                  and not may_trap(rhs)
                  and all(not (isinstance(a, Sym) and a.id in defined)
                          for a in rhs.exp_args))
            if ok:
                moved.append(stm)
                defined.discard(stm.sym.id)
                changed = True
            else:
                keep.append(stm)
        block.stms[:] = keep
    return moved


def hoist_loop_invariants(staged: StagedFunction) -> int:
    """Hoist loop-invariant pure statements out of for/while bodies, in
    place.  Returns the number of statements moved."""
    hoisted = 0

    def walk(block: Block) -> None:
        nonlocal hoisted
        for stm in block.stms:
            for inner in stm.rhs.blocks:
                walk(inner)
        new_stms: list[Stm] = []
        for stm in block.stms:
            rhs = stm.rhs
            moved: list[Stm] = []
            if isinstance(rhs, ForLoop):
                moved = _lift_block(rhs.body, set())
            elif isinstance(rhs, WhileLoop):
                moved = _lift_block(rhs.cond_block, set())
                # The body may reference condition-block symbols (the
                # engines keep a flat environment), which must not be
                # hoisted above the loop.
                cond_defs = set(rhs.cond_block.symbols())
                moved += _lift_block(rhs.body, cond_defs)
            new_stms.extend(moved)
            hoisted += len(moved)
            new_stms.append(stm)
        block.stms[:] = new_stms

    walk(staged.body)
    if hoisted:
        staged._scheduled_body = None
        staged._graph_hash = None
        staged._exec_program = None
    return hoisted


# ---------------------------------------------------------------------------
# The pass manager.
# ---------------------------------------------------------------------------


class _SimplifyPass:
    name = "simplify"

    def run(self, staged: StagedFunction, stats: OptStats):
        t = SimplifyTransformer()
        out = remirror_function(staged, t)
        stats.rewrites += t.rewrites
        return out, t.rewrites


class _GvnPass:
    """Global value numbering by re-mirroring (the builder's structural
    CSE sees the whole function), plus loop-invariant code motion."""

    name = "cse"

    def run(self, staged: StagedFunction, stats: OptStats):
        t = SafeTransformer()
        out = remirror_function(staged, t)
        hoisted = hoist_loop_invariants(out)
        stats.hoisted += hoisted
        return out, hoisted


class _DcePass:
    """Dead-code elimination; runs last so every pass's garbage is swept
    in the same iteration.  ``schedule_block`` is the single source of
    liveness truth (shared with the unoptimized path), and its output is
    memoized onto the function so downstream ``scheduled()`` is free."""

    name = "dce"

    def run(self, staged: StagedFunction, stats: OptStats):
        scheduled = schedule_block(staged.body)
        staged.body = scheduled
        staged._scheduled_body = scheduled
        staged._graph_hash = None
        staged._exec_program = None
        return staged, 0


class PassManager:
    """Runs simplify, cse and dce to a (bounded) fixpoint."""

    def __init__(self, max_iterations: int = MAX_ITERATIONS):
        self.max_iterations = max_iterations
        self.passes = (_SimplifyPass(), _GvnPass(), _DcePass())

    def run(self, staged: StagedFunction
            ) -> tuple[StagedFunction, OptStats]:
        stats = OptStats(level=LEVEL,
                         stms_before=count_statements(staged.body))
        current = staged
        for it in range(self.max_iterations):
            stats.iterations = it + 1
            changed = 0
            for p in self.passes:
                before = count_statements(current.body)
                current, activity = p.run(current, stats)
                after = count_statements(current.body)
                delta = max(0, before - after)
                stats.eliminated[p.name] = \
                    stats.eliminated.get(p.name, 0) + delta
                changed += activity + delta
            if changed == 0:
                break
        stats.stms_after = count_statements(current.body)
        return current, stats


def optimize_staged(staged: StagedFunction, level: int = LEVEL
                    ) -> tuple[StagedFunction, OptStats]:
    """Run the middle-end over ``staged``.

    Returns ``(optimized function, stats)``.  The input function is
    never mutated: the pipeline returns a fresh mirror, and ``level=0``
    returns the input itself, unoptimized.
    """
    if level == 0:
        n = count_statements(staged.body)
        return staged, OptStats(level=0, stms_before=n, stms_after=n)
    if level != LEVEL:
        raise ValueError(f"optimizer level must be 0 or {LEVEL}, "
                         f"not {level!r}")
    out, stats = PassManager().run(staged)
    obs.counter("opt.runs")
    for name, n in stats.eliminated.items():
        if n:
            obs.counter("opt.eliminated", n, **{"pass": name})
    if stats.hoisted:
        obs.counter("opt.hoisted", stats.hoisted)
    return out, stats
