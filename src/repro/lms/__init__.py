"""Lightweight Modular Staging (LMS), ported to Python.

This package is a faithful port of the LMS core the paper builds on
(Rompf & Odersky, GPCE'10): staged expressions (``Exp``/``Const``/``Sym``),
graph nodes (``Def``), SSA construction with common-subexpression
elimination, an effect system that serializes reads and writes per memory
container, staged control flow (``forloop``, ``if_then_else``,
``while_loop``), transformers with mirroring, and dead-code-eliminating
scheduling.

The SIMD eDSLs generated by :mod:`repro.isa` plug into this framework
exactly the way the paper's Scala eDSLs plug into LMS: one ``Def``
subclass per intrinsic, a constructor function performing the
``Exp -> Def`` SSA conversion, a mirroring case, and an unparsing case.
"""

from repro.lms.types import (
    ArrayType,
    BOOL,
    CHAR,
    DOUBLE,
    FLOAT,
    INT8,
    INT16,
    INT32,
    INT64,
    M64,
    M128,
    M128D,
    M128I,
    M256,
    M256D,
    M256I,
    M512,
    M512D,
    M512I,
    MASK8,
    MASK16,
    ScalarType,
    Type,
    UINT8,
    UINT16,
    UINT32,
    UINT64,
    VectorType,
    VOID,
)
from repro.lms.expr import Const, Exp, Sym, const
from repro.lms.defs import Def, Block, Stm
from repro.lms.effects import Effects
from repro.lms.graph import IRBuilder, current_builder, staging_scope
from repro.lms.ops import (
    array_apply,
    array_update,
    convert,
    fresh,
    select,
    staged_max,
    staged_min,
)
from repro.lms.control import forloop, if_then_else, while_loop
from repro.lms.staging import StagedFunction, stage_function
from repro.lms.transform import Transformer, mirror_block

__all__ = [
    "ArrayType",
    "BOOL",
    "Block",
    "CHAR",
    "Const",
    "DOUBLE",
    "Def",
    "Effects",
    "Exp",
    "FLOAT",
    "INT8",
    "INT16",
    "INT32",
    "INT64",
    "IRBuilder",
    "M64",
    "M128",
    "M128D",
    "M128I",
    "M256",
    "M256D",
    "M256I",
    "M512",
    "M512D",
    "M512I",
    "MASK8",
    "MASK16",
    "ScalarType",
    "StagedFunction",
    "Stm",
    "Sym",
    "Transformer",
    "Type",
    "UINT8",
    "UINT16",
    "UINT32",
    "UINT64",
    "VOID",
    "VectorType",
    "array_apply",
    "array_update",
    "const",
    "convert",
    "current_builder",
    "forloop",
    "fresh",
    "if_then_else",
    "mirror_block",
    "select",
    "stage_function",
    "staged_max",
    "staged_min",
    "staging_scope",
    "while_loop",
]
