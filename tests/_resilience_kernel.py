"""Helper for cross-process disk-cache tests: compiles one fixed kernel
through the managed pipeline on a given tier and prints its
CompileReport as JSON.

Run as ``python -c "from tests._resilience_kernel import main;
main('sync')"`` with ``REPRO_CACHE_DIR`` pointing at the cache under
test.
"""

from __future__ import annotations

import json


def build():
    from repro.lms.ops import array_apply, array_update

    def k2proc(a, n):
        from repro.lms import forloop

        forloop(0, n, step=1, body=lambda i: array_update(
            a, i, array_apply(a, i) * 3.0 + 41.5))

    return k2proc


def main(tier: str) -> None:
    from repro.core import compile_staged
    from repro.lms.types import FLOAT, INT32, array_of

    kernel = compile_staged(build(), [array_of(FLOAT), INT32],
                            name="k2proc", backend="auto",
                            tier=tier).wait_native()
    rep = kernel.report
    print(json.dumps({
        "backend": kernel.backend.value,
        "cache_source": rep.cache_source if rep else None,
        "invocations": rep.compiler_invocations if rep else None,
        "smoke": rep.smoke if rep else None,
        "fallback_reason": kernel.fallback_reason,
    }))
