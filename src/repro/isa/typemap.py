"""Mapping between vendor C type strings and staged types.

Implements Section 3.1 of the paper: SIMD vector types become abstract
staged types, primitive C types map onto the 12 JVM primitives (Table 2),
and pointer types map onto staged arrays paired with an element offset
(the container convention).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lms.types import (
    M128, M128D, M128I, M256, M256D, M256I, M512, M512D, M512I, M64,
    MASK8, MASK16, ScalarType, Type, VOID, VectorType, scalar_for_c_type,
)

_VECTOR_BY_C: dict[str, VectorType] = {
    "__m64": M64, "__m128": M128, "__m128d": M128D, "__m128i": M128I,
    "__m256": M256, "__m256d": M256D, "__m256i": M256I,
    "__m512": M512, "__m512d": M512D, "__m512i": M512I,
}

_MASK_BY_C: dict[str, VectorType] = {
    "__mmask8": MASK8, "__mmask16": MASK16,
    # Wider masks are modelled at 16 bits of staged type; the runtime
    # MaskValue keeps the true width.
    "__mmask32": MASK16, "__mmask64": MASK16,
}


@dataclass(frozen=True)
class MappedParam:
    """How one spec parameter surfaces in the eDSL."""

    varname: str
    c_type: str
    staged: Type | None      # None for memory params (any array accepted)
    is_memory: bool
    is_immediate: bool       # C requires a compile-time constant


def map_return_type(c_type: str) -> Type:
    c_type = c_type.strip()
    if c_type in ("void", ""):
        return VOID
    if c_type in _VECTOR_BY_C:
        return _VECTOR_BY_C[c_type]
    if c_type in _MASK_BY_C:
        return _MASK_BY_C[c_type]
    return scalar_for_c_type(c_type)


def map_param(varname: str, c_type: str) -> MappedParam:
    c = c_type.strip()
    if "*" in c:
        return MappedParam(varname=varname, c_type=c, staged=None,
                           is_memory=True, is_immediate=False)
    if c in _VECTOR_BY_C:
        return MappedParam(varname, c, _VECTOR_BY_C[c], False, False)
    if c in _MASK_BY_C:
        return MappedParam(varname, c, _MASK_BY_C[c], False, False)
    immediate = c.startswith("const ") or varname in (
        "imm8", "rounding", "scale", "pattern", "hint")
    scalar = scalar_for_c_type(c.replace("const ", ""))
    return MappedParam(varname, c, scalar, False, immediate)
