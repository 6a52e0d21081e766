"""repro — a reproduction of "SIMD Intrinsics on Managed Language
Runtimes" (Stojanov, Toskov, Rompf, Püschel; CGO 2018).

The package rebuilds the paper's entire system in Python:

* :mod:`repro.spec` — the vendor intrinsics-specification substrate
  (schema, synthesizer for all 13 ISAs and 6 historical versions,
  version-tolerant parser, Table 1 census);
* :mod:`repro.lms` — the LMS staging framework (expressions, SSA graph,
  effects, staged control flow, transformers, scheduling);
* :mod:`repro.isa` — the eDSL generator: spec in, per-ISA eDSL modules
  out (definition classes, effect-inferring constructors, mirroring,
  unparsing);
* :mod:`repro.simd` — a bit-accurate SIMD machine executing staged
  graphs (the simulated-native backend);
* :mod:`repro.codegen` — the C backend: unparser, compiler discovery,
  CPUID inspection, and linking through a generated CPython extension
  per kernel (the JNI analog);
* :mod:`repro.jvm` — MiniVM, the managed-runtime baseline: Java-typed
  kernels, bytecode interpreter with profiling, tiered C1/C2 JIT with an
  SLP autovectorizer (and its HotSpot-documented limits);
* :mod:`repro.timing` — the Haswell cost model that prices compiled
  kernels in cycles (ports, latency chains, reuse-aware cache model,
  JNI overhead);
* :mod:`repro.quant` — the variable-precision virtual ISA (stochastic
  quantization; 32/16/8/4-bit dot products);
* :mod:`repro.kernels` — the paper's benchmark kernels (SAXPY, MMM);
* :mod:`repro.core` — the public NGen-style pipeline:
  ``compile_staged`` / ``compile_kernel``.
"""

from repro.core import CompiledKernel, compile_kernel, compile_staged

__version__ = "1.0.0"

__all__ = ["CompiledKernel", "compile_kernel", "compile_staged",
           "__version__"]
