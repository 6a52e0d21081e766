"""C code generation and the native compile-and-link pipeline.

The runtime half of the paper's Figure 3: unparse the staged computation
graph to C (building block 4), inspect the system (CPUID-derived ISAs,
available compilers and flags), compile a shared library, and link it
back into the managed runtime — here as a generated CPython extension
per kernel, the Python analog of JNI glue, including the automatic name
binding the paper implements with Scala macros and reflection.
"""

from repro.codegen.cgen import emit_c_source
from repro.codegen.compiler import (
    CompileAttempt,
    CompileError,
    CompilerInfo,
    PermanentCompileError,
    SystemInfo,
    TransientCompileError,
    compile_with_fallback,
    compiler_chain,
    detect_compilers,
    flag_ladder,
    inspect_system,
)
from repro.codegen.native import (
    NativeArtifact,
    NativeKernel,
    build_native,
    compile_to_native,
    link_native,
)

__all__ = [
    "CompileAttempt",
    "CompileError",
    "CompilerInfo",
    "NativeArtifact",
    "NativeKernel",
    "PermanentCompileError",
    "SystemInfo",
    "TransientCompileError",
    "build_native",
    "compile_to_native",
    "compile_with_fallback",
    "compiler_chain",
    "detect_compilers",
    "emit_c_source",
    "flag_ladder",
    "inspect_system",
    "link_native",
]
