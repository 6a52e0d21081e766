"""Child process for the cross-process build-lock tests: compile some
of three distinct kernels against a shared disk store and check each
one ends native with the right answer.

Run as ``python -c "from tests._build_worker import main; main(tier, order)"``
with ``REPRO_CACHE_DIR`` at the shared store and ``REPRO_CC`` at the
compiler under test; ``order`` lists which kernels to compile (indices
into :data:`SALTS`), in that order.

Exit codes: 0 = every kernel reached the native tier and computes the
right answer, 2 = one stayed simulated, 3 = one computed a wrong answer.
"""

from __future__ import annotations

import sys

SALTS = (0.25, 0.5, 0.75)


def kernel_fn(salt: float):
    """``a[i] = a[i] * 2 + salt``: a scalar loop that compiles on any
    host, distinct per salt."""
    from repro.lms import forloop
    from repro.lms.ops import array_apply, array_update

    def fn(a, n):
        forloop(0, n, step=1, body=lambda i: array_update(
            a, i, array_apply(a, i) * 2.0 + salt))

    return fn


def compile_one(index: int, tier: str = "sync"):
    from repro.core import compile_staged
    from repro.lms.types import FLOAT, INT32, array_of

    return compile_staged(kernel_fn(SALTS[index]), [array_of(FLOAT), INT32],
                          name=f"build_race_{index}", backend="auto",
                          tier=tier)


def main(tier: str, order: list[int], timeout: float = 120.0) -> None:
    import numpy as np

    kernels = [(i, compile_one(i, tier)) for i in order]
    for i, kernel in kernels:
        kernel.wait_native(timeout=timeout)
        if kernel.tier != "native":
            print(f"kernel {i} stuck on tier {kernel.tier}: "
                  f"{kernel.fallback_reason}", file=sys.stderr)
            sys.exit(2)
        a = np.ones(8, np.float32)
        kernel(a, 8)
        if not np.all(a == np.float32(2.0 + SALTS[i])):
            print(f"kernel {i} computed {a!r}", file=sys.stderr)
            sys.exit(3)
    sys.exit(0)
