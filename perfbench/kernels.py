"""The paper's three kernels, their seeded inputs and independent references.

The kernels are taken from the program itself — the AVX+FMA SAXPY
(``repro.kernels.saxpy``), the blocked MMM with its 8x8 transpose
(``repro.kernels.mmm``) and the 8-bit dot (``repro.quant.dot``, bits=8)
— so the pipeline stages exactly the paper's code.  References are
computed with NumPy alone:

* SAXPY and MMM against float64, within a tolerance stated below;
* dot8 exactly: int32 lane accumulation (done in int64 and checked to
  fit int32), the kernel's float32 lane reduction order, times the scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

KERNELS = ("saxpy", "mmm", "dot8")
SMALL = {"saxpy": 16, "mmm": 8, "dot8": 32}
LARGE = {"saxpy": 1 << 17, "mmm": 256, "dot8": 1 << 19}
SIM = {"saxpy": 1024, "mmm": 16, "dot8": 1024}
BATCH = 256
SCALAR_N = 16

# One eDSL namespace covers the ISAs of all three kernels.
UNION_ISAS = ("SSE", "SSE2", "SSE3", "SSSE3", "SSE4.1", "AVX", "AVX2",
              "FMA", "FP16C")

EPS32 = float(np.finfo(np.float32).eps)


def flops(kernel: str, n: int) -> float:
    """Flops per call: SAXPY 2n, MMM 2n^3, dot 2n."""
    return 2.0 * n ** 3 if kernel == "mmm" else 2.0 * n


@dataclass(frozen=True)
class KernelSpec:
    """What ``compile_staged`` needs to build one kernel."""

    name: str
    fn: Callable[..., object]
    arg_types: tuple
    staged_name: str


def _capture(module, factory, *args) -> tuple:
    """Run a kernel factory and keep the function it stages.

    The factories build their staged Python function as a closure and
    hand it straight to ``stage_function``; swapping that module
    attribute for the length of one factory call recovers it, so
    ``compile_staged`` can stage the paper's own code.
    """
    seen: dict[str, Any] = {}
    real = module.stage_function

    def record(fn, arg_types, name=None, param_names=None):
        seen.update(fn=fn, arg_types=tuple(arg_types), name=name)
        return real(fn, arg_types, name, param_names)

    module.stage_function = record
    try:
        factory(*args)
    finally:
        module.stage_function = real
    return seen["fn"], seen["arg_types"], seen["name"]


def paper_kernels() -> dict[str, KernelSpec]:
    """Load the ISA eDSL once and capture the three paper kernels."""
    import repro.kernels.mmm as mmm_mod
    import repro.kernels.saxpy as saxpy_mod
    import repro.quant.dot as dot_mod
    from repro.isa.registry import load_isas

    cir = load_isas(*UNION_ISAS)
    specs = {}
    for name, module, factory, extra in (
            ("saxpy", saxpy_mod, saxpy_mod.make_staged_saxpy, ()),
            ("mmm", mmm_mod, mmm_mod.make_staged_mmm, ()),
            ("dot8", dot_mod, dot_mod.make_staged_dot, (8,))):
        fn, types, staged_name = _capture(module, factory, *extra, cir)
        specs[name] = KernelSpec(name, fn, types, staged_name)
    return specs


def scalar_loop() -> KernelSpec:
    """``a[i] = a[i] + s*b[i]`` as a plain staged loop, no intrinsics —
    the shape the simulator's NumPy batch sweep can vectorize."""
    from repro.lms import forloop
    from repro.lms.ops import array_apply, array_update
    from repro.lms.types import FLOAT, INT32, array_of

    def scalar_saxpy(a, b, s, n):
        forloop(0, n, step=1, body=lambda i: array_update(
            a, i, array_apply(a, i) + s * array_apply(b, i)))

    return KernelSpec("scalar", scalar_saxpy,
                      (array_of(FLOAT), array_of(FLOAT), FLOAT, INT32),
                      "scalar_saxpy")


# ---------------------------------------------------------------------------
# Seeded inputs.  Values stay finite and normal: every mutated input is
# restored from a pristine copy before each call.

@dataclass
class Case:
    """One kernel invocation: arguments, what it mutates, its reference."""

    kernel: str
    n: int
    args: tuple
    pristine: dict          # arg index -> pristine copy of a mutated array
    expected: Any           # float64 array, or np.float32 scalar for dot8
    tol: Any                # per-element tolerance array; None means exact

    def reset(self) -> None:
        for j, src in self.pristine.items():
            np.copyto(self.args[j], src)

    def output(self, returned: Any) -> Any:
        """The value the reference describes: the mutated array, or the
        returned scalar."""
        if self.kernel == "dot8":
            return returned
        return self.args[0] if self.kernel == "saxpy" else self.args[2]


def _saxpy_case(rng: np.random.Generator, n: int) -> Case:
    a = rng.uniform(-2.0, 2.0, n).astype(np.float32)
    b = rng.uniform(-2.0, 2.0, n).astype(np.float32)
    s = float(np.float32(rng.uniform(0.5, 2.0)))
    a64, sb = a.astype(np.float64), s * b.astype(np.float64)
    # FMA main loop: one rounding; scalar tail: two (-ffp-contract=off)
    tol = 2.0 * EPS32 * (np.abs(a64) + np.abs(sb))
    return Case("saxpy", n, (a.copy(), b, s, n), {0: a}, a64 + sb, tol)


def _mmm_case(rng: np.random.Generator, n: int) -> Case:
    a = rng.uniform(-1.0, 1.0, n * n).astype(np.float32)
    b = rng.uniform(-1.0, 1.0, n * n).astype(np.float32)
    c = rng.uniform(-1.0, 1.0, n * n).astype(np.float32)
    A = a.astype(np.float64).reshape(n, n)
    B = b.astype(np.float64).reshape(n, n)
    ref = c.astype(np.float64) + (A @ B).ravel()
    # float32 products summed over n terms: gamma_(n+8) of the magnitudes
    tol = (n + 8) * EPS32 * (np.abs(c.astype(np.float64))
                             + (np.abs(A) @ np.abs(B)).ravel())
    return Case("mmm", n, (a, b, c.copy(), n), {2: c}, ref, tol)


def dot8_reference(a: np.ndarray, b: np.ndarray,
                   inv_scale: float) -> np.float32:
    """The 8-bit dot, exactly: each of the 8 int32 lanes sums bytes
    4j..4j+3 of every 32-byte chunk; lanes convert to float32 and reduce
    as (lo + hi), then two horizontal adds; the sum is scaled in float32."""
    prod = a.astype(np.int64) * b.astype(np.int64)
    lanes = prod.reshape(-1, 8, 4).sum(axis=(0, 2))
    if np.any(np.abs(lanes) >= 2 ** 31):
        raise ValueError("dot8 input overflows an int32 lane")
    f = lanes.astype(np.float32)
    s = f[4:] + f[:4]
    total = (s[0] + s[1]) + (s[2] + s[3])
    return np.float32(total * np.float32(inv_scale))


def _dot8_case(rng: np.random.Generator, n: int) -> Case:
    # [-127, 127]: no -128, so maddubs never saturates and sign_epi8
    # never negates -128
    a = rng.integers(-127, 128, n, dtype=np.int8)
    b = rng.integers(-127, 128, n, dtype=np.int8)
    inv_scale = float(np.float32(rng.uniform(1e-4, 1e-3)))
    return Case("dot8", n, (a, b, inv_scale, n), {},
                dot8_reference(a, b, inv_scale), None)


_MAKERS = {"saxpy": _saxpy_case, "mmm": _mmm_case, "dot8": _dot8_case}


def make_case(kernel: str, rng: np.random.Generator, n: int) -> Case:
    return _MAKERS[kernel](rng, n)


def check_case(case: Case, returned: Any) -> str | None:
    """``None`` if the output matches the reference, else what differs."""
    got = case.output(returned)
    if case.tol is None:
        if not isinstance(got, (float, np.floating)) or \
                np.float32(got).tobytes() != case.expected.tobytes():
            return f"{case.kernel}: {got!r} != {case.expected!r}"
        return None
    err = np.abs(got.astype(np.float64) - case.expected)
    bad = int(np.count_nonzero(~(err <= case.tol)))
    if bad:
        return f"{case.kernel} n={case.n}: {bad} elements out of tolerance"
    return None


@dataclass
class BatchCase:
    """``BATCH`` independent cases run through one ``call_batch``,
    checked together against the stacked references."""

    cases: list

    def __post_init__(self) -> None:
        self.entries = [c.args for c in self.cases]
        self.expected = np.stack([np.atleast_1d(c.expected)
                                  for c in self.cases])
        self.tol = None if self.cases[0].tol is None else \
            np.stack([c.tol for c in self.cases])

    def reset(self) -> None:
        for c in self.cases:
            c.reset()

    def check(self, results: list) -> str | None:
        if len(results) != len(self.cases):
            return f"batch returned {len(results)} results"
        if self.tol is None:
            got = np.asarray(results, dtype=np.float32)[:, None]
            if got.tobytes() != self.expected.tobytes():
                return "batch results differ from the exact reference"
            return None
        got = np.stack([c.output(r) for c, r in zip(self.cases, results)])
        bad = np.count_nonzero(~(np.abs(got - self.expected) <= self.tol))
        if bad:
            return f"batch: {bad} elements out of tolerance"
        return None


def make_batch(kernel: str, rng: np.random.Generator, n: int) -> BatchCase:
    return BatchCase([make_case(kernel, rng, n) for _ in range(BATCH)])


@dataclass
class ScalarBatch:
    """``BATCH`` entries for the scalar loop, one buffer per entry.  The
    float32 reference is exact: the loop rounds ``s*b`` and then the sum,
    as NumPy does."""

    entries: list
    pristine: list
    expected: np.ndarray

    def reset(self) -> None:
        for args, src in zip(self.entries, self.pristine):
            np.copyto(args[0], src)

    def check(self, results: list) -> str | None:
        if len(results) != len(self.entries):
            return f"batch returned {len(results)} results"
        got = np.stack([args[0] for args in self.entries])
        if got.view(np.uint32).tobytes() != \
                self.expected.view(np.uint32).tobytes():
            return "scalar loop batch differs from its float32 reference"
        return None


def make_scalar_batch(rng: np.random.Generator) -> ScalarBatch:
    a = rng.uniform(-2.0, 2.0, (BATCH, SCALAR_N)).astype(np.float32)
    b = rng.uniform(-2.0, 2.0, (BATCH, SCALAR_N)).astype(np.float32)
    s = rng.uniform(0.5, 2.0, BATCH).astype(np.float32)
    expected = a + s[:, None] * b
    entries = [(a[i].copy(), b[i].copy(), float(s[i]), SCALAR_N)
               for i in range(BATCH)]
    return ScalarBatch(entries, [row.copy() for row in a], expected)


def same_bits(x: Any, y: Any) -> bool:
    """Bitwise equality of two outputs (arrays or float32 scalars)."""
    if isinstance(x, np.ndarray):
        return x.dtype == y.dtype and x.tobytes() == y.tobytes()
    return np.float32(x).tobytes() == np.float32(y).tobytes()
