"""The public API: the paper's NGen runtime, in Python.

The paper's developer workflow (Figure 3) has four compile-time steps:

1. implement a native function placeholder (``@native`` /
   :func:`native_placeholder`);
2. create a DSL instance by mixing ISA-specific eDSLs
   (:func:`repro.isa.IntrinsicsIR` / :func:`repro.isa.load_isas`);
3. implement the SIMD logic as a staged function;
4. call :func:`compile_kernel` to generate, compile and link the code.

At runtime the pipeline inspects the system (CPUID, compilers), stages
the function, and links it back — natively through gcc/clang and a
generated CPython extension when the host supports the kernel's ISAs
(and has ``Python.h`` and NumPy's C headers), falling back to the
bit-accurate SIMD machine otherwise.  Either way the kernel also carries
its Haswell cost-model lowering, which is what the benchmarks price.
"""

from repro.core.pipeline import (
    BackendKind,
    CompiledKernel,
    NativePlaceholder,
    SignatureMismatchError,
    UnsatisfiedLinkError,
    compile_kernel,
    compile_staged,
    native_placeholder,
)
from repro.core.resilience import (
    CompileReport,
    KernelQuarantinedError,
    PermanentCompileError,
    TransientCompileError,
    acquire_native,
    quarantined_kernels,
)
from repro.core.tiered import (
    CircuitBreaker,
    KernelManager,
    compile_many,
    default_manager,
    wait_all,
)

__all__ = [
    "BackendKind",
    "CircuitBreaker",
    "CompileReport",
    "CompiledKernel",
    "KernelManager",
    "KernelQuarantinedError",
    "NativePlaceholder",
    "PermanentCompileError",
    "SignatureMismatchError",
    "TransientCompileError",
    "UnsatisfiedLinkError",
    "acquire_native",
    "compile_kernel",
    "compile_many",
    "compile_staged",
    "default_manager",
    "native_placeholder",
    "quarantined_kernels",
    "wait_all",
]
