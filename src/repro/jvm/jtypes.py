"""Java primitive types with JVM arithmetic semantics.

The crucial rule for the paper's variable-precision comparison: *Java
does not support arithmetic on types narrower than 32 bits* — ``byte``,
``short`` and ``char`` operands undergo binary numeric promotion to
``int`` before any arithmetic, and results must be cast back down
explicitly.  MiniVM enforces this in its type checker, which is what
makes the 8-bit and 4-bit Java dot products pay the promotion tax the
paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class JType:
    name: str
    bits: int
    is_float: bool
    dtype: str  # numpy dtype used by the interpreter

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype(self.dtype)

    @property
    def promoted(self) -> "JType":
        """Binary numeric promotion (JLS 5.6.2) target of this type."""
        if self.is_float:
            return self
        if self.bits < 32:
            return JINT
        return self

    def __str__(self) -> str:
        return self.name


JBOOL = JType("boolean", 8, False, "bool")
JBYTE = JType("byte", 8, False, "int8")
JSHORT = JType("short", 16, False, "int16")
JCHAR = JType("char", 16, False, "uint16")
JINT = JType("int", 32, False, "int32")
JLONG = JType("long", 64, False, "int64")
JFLOAT = JType("float", 32, True, "float32")
JDOUBLE = JType("double", 64, True, "float64")


def promote_pair(a: JType, b: JType) -> JType:
    """JLS binary numeric promotion of two operand types."""
    if a == JDOUBLE or b == JDOUBLE:
        return JDOUBLE
    if a == JFLOAT or b == JFLOAT:
        return JFLOAT
    if a == JLONG or b == JLONG:
        return JLONG
    return JINT
