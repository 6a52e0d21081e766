"""Runtime support for generated intrinsic eDSLs.

Each generated intrinsic is a subclass of :class:`IntrinsicsDef` (the
paper's ``abstract class IntrinsicsDef[T] extends Def[T]`` carrying the
category, intrinsic type, performance map and header), plus a module
level constructor function that performs the ``Exp -> Def`` SSA
conversion with inferred effects.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.lms import effects as fx
from repro.lms.defs import Def
from repro.lms.effects import Effects
from repro.lms.expr import Const, Exp, Sym
from repro.lms.graph import current_builder
from repro.lms.types import ArrayType, INT32, ScalarType, Type, VectorType


class IntrinsicsError(TypeError):
    """Raised on a mis-typed intrinsic invocation at staging time."""


class IntrinsicsDef(Def):
    """Base class of every generated intrinsic definition.

    Class attributes (set by the generator):

    * ``intrinsic_name`` — the C name, e.g. ``"_mm256_add_pd"``;
    * ``category`` / ``intrinsic_types`` / ``performance`` / ``header`` /
      ``cpuids`` — straight from the XML specification;
    * ``params_meta`` — ``(varname, c_type, kind)`` per declared
      parameter, ``kind`` in ``{"vec", "scalar", "imm", "mem", "mask"}``;
    * ``mem_effects`` — one of ``"r"``/``"w"``/``"rw"`` per memory param
      (the inferred mutability);
    * ``global_effect`` — True for intrinsics with ambient effects (RNG,
      fences, TSC);
    * ``ret_type`` — the staged result type.
    """

    intrinsic_name: str = "?"
    category: tuple[str, ...] = ()
    intrinsic_types: tuple[str, ...] = ()
    performance: dict = {}
    header: str = "immintrin.h"
    cpuids: tuple[str, ...] = ()
    params_meta: tuple[tuple[str, str, str], ...] = ()
    mem_effects: tuple[str, ...] = ()
    global_effect: bool = False
    ret_type: Type = None  # type: ignore[assignment]
    ret_c_type: str = "void"

    def __init__(self, args: Sequence[object]):
        super().__init__(self.ret_type, args)
        self.mnemonic = self.intrinsic_name

    @classmethod
    def mem_indices(cls) -> list[int]:
        return [i for i, (_, _, kind) in enumerate(cls.params_meta)
                if kind == "mem"]

    # -- mirroring (building block 3) -------------------------------------

    def remirror(self, f) -> Exp:
        new_args = [f(a) if isinstance(a, Exp) else a for a in self.args]
        return reflect_intrinsic(type(self), *new_args)

    def __repr__(self) -> str:
        return f"{self.intrinsic_name}({', '.join(map(repr, self.args))})"


def _check_arg(name: str, meta: tuple[str, str, str], arg: Any) -> object:
    varname, c_type, kind = meta
    if kind in ("vec", "mask"):
        if not isinstance(arg, Exp) or not isinstance(arg.tp, VectorType):
            raise IntrinsicsError(
                f"{name}: parameter {varname!r} needs a staged {c_type} "
                f"expression, got {arg!r}"
            )
        return arg
    if kind == "mem":
        if not isinstance(arg, Exp) or not isinstance(arg.tp, ArrayType):
            raise IntrinsicsError(
                f"{name}: parameter {varname!r} needs a staged array "
                f"(memory container), got {arg!r}"
            )
        return arg
    if kind == "imm":
        if isinstance(arg, Const):
            return int(arg.value)
        if isinstance(arg, (int, bool)):
            return int(arg)
        raise IntrinsicsError(
            f"{name}: parameter {varname!r} must be a compile-time "
            f"constant (C immediate), got {arg!r}"
        )
    # kind == "scalar"
    if isinstance(arg, Exp):
        return arg
    if isinstance(arg, (int, float)):
        from repro.lms.types import scalar_for_c_type
        tp = scalar_for_c_type(c_type.replace("const ", ""))
        value = float(arg) if tp.is_float else int(arg)
        return Const(value, tp)
    raise IntrinsicsError(
        f"{name}: parameter {varname!r} needs a staged scalar, got {arg!r}"
    )


def reflect_intrinsic(cls: type[IntrinsicsDef], *args: Any) -> Exp:
    """SSA conversion (building block 2): reflect one intrinsic call.

    Memory parameters take a trailing element-offset argument each, in
    declaration order, mirroring the paper's ``(mem_addr, offset)``
    containers: ``_mm256_storeu_ps(a, value, i)``.
    """
    name = cls.intrinsic_name
    mem_idx = cls.mem_indices()
    expected = len(cls.params_meta) + len(mem_idx)
    if len(args) != expected:
        raise IntrinsicsError(
            f"{name} takes {expected} arguments "
            f"({len(cls.params_meta)} declared + {len(mem_idx)} memory "
            f"offsets), got {len(args)}"
        )

    processed: list[object] = []
    for meta, arg in zip(cls.params_meta, args):
        processed.append(_check_arg(name, meta, arg))
    for off in args[len(cls.params_meta):]:
        if isinstance(off, Exp):
            processed.append(off)
        elif isinstance(off, int):
            processed.append(Const(off, INT32))
        else:
            raise IntrinsicsError(
                f"{name}: memory offset must be a staged Int or a Python "
                f"int, got {off!r}"
            )

    node = cls(processed)
    effects = _infer_effects(cls, processed, mem_idx)
    builder = current_builder()
    if effects.pure:
        return builder.reflect_pure(node)
    return builder.reflect_effect(node, effects)


def _infer_effects(cls: type[IntrinsicsDef], args: Sequence[object],
                   mem_idx: list[int]) -> Effects:
    """Mutability inference (the paper's conservative heuristic)."""
    reads: set[int] = set()
    writes: set[int] = set()
    for effect_kind, param_index in zip(cls.mem_effects, mem_idx):
        container = args[param_index]
        if not isinstance(container, Sym):
            raise IntrinsicsError(
                f"{cls.intrinsic_name}: memory argument must be an array "
                f"symbol"
            )
        if "r" in effect_kind:
            reads.add(container.id)
        if "w" in effect_kind:
            writes.add(container.id)
    return Effects(reads=frozenset(reads), writes=frozenset(writes),
                   is_global=cls.global_effect)
