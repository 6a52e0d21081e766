"""The work a process does before its first kernel (DESIGN.md,
"Process start").

Each test starts a fresh interpreter, because what it pins is what
``import repro`` and the first kernels of a process cost: scipy is not
imported until an SVML semantics that needs it runs, the intrinsic
catalog is built once per process, and a kernel's ISAs come from the
CPUIDs stamped on its intrinsics' classes, not from the catalog.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# The paper kernels' factories stage their function as a closure;
# swapping the module's ``stage_function`` for one factory call keeps
# the function, so ``compile_staged`` can stage it again.
_PAPER_KERNELS = """
import repro.kernels.mmm as mmm_mod
import repro.kernels.saxpy as saxpy_mod
import repro.quant.dot as dot_mod


def paper_kernels(cir):
    out = []
    for module, factory, args in (
            (saxpy_mod, saxpy_mod.make_staged_saxpy, ()),
            (mmm_mod, mmm_mod.make_staged_mmm, ()),
            (dot_mod, dot_mod.make_staged_dot, (8,))):
        real, seen = module.stage_function, {}

        def record(fn, arg_types, name=None, param_names=None):
            seen.update(fn=fn, arg_types=arg_types, name=name)
            return real(fn, arg_types, name, param_names)

        module.stage_function = record
        try:
            staged = factory(*args, cir)
        finally:
            module.stage_function = real
        out.append((staged, seen))
    return out
"""

PAPER_ISAS = ("SSE", "SSE2", "SSE3", "SSSE3", "SSE4.1", "AVX", "AVX2",
              "FMA", "FP16C")


def _run(*parts: str) -> str:
    """Run the script made of ``parts`` (each dedented) in a fresh
    interpreter against this checkout's sources; returns its standard
    output."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    script = "\n".join(textwrap.dedent(part) for part in parts)
    proc = subprocess.run([sys.executable, "-c", script],
                          env=env, cwd=REPO_ROOT, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_leaves_scipy_unloaded():
    out = _run("""
        import sys
        import repro
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    assert out.strip() == "[]"


def test_the_simulator_runs_without_scipy():
    out = _run("""
        import sys


        class NoScipy:
            def find_spec(self, name, path=None, target=None):
                if name.split(".")[0] == "scipy":
                    raise ModuleNotFoundError(f"No module named {name!r}",
                                              name=name)


        sys.meta_path.insert(0, NoScipy())

        import numpy as np

        from repro.core import compile_staged
        from repro.lms.types import M256
        from repro.simd.semantics import registry
        from repro.simd.vector import VecValue
    """, _PAPER_KERNELS, f"""
        from repro.isa import load_isas

        staged, seen = paper_kernels(load_isas(*{PAPER_ISAS!r}))[0]
        saxpy = compile_staged(seen["fn"], seen["arg_types"],
                               name=seen["name"], backend="simulated")
        a = np.arange(13, dtype=np.float32)
        b = np.full(13, 2.0, dtype=np.float32)
        want = a + np.float32(0.5) * b
        saxpy(a, b, np.float32(0.5), 13)
        assert a.tobytes() == want.tobytes(), a
        x = VecValue.from_lanes(M256, np.float32, np.zeros(8, np.float32))
        try:
            registry["_mm256_erf_ps"](None, x)
        except ModuleNotFoundError as exc:
            print("erf:", exc.name)
    """)
    assert out.splitlines() == ["erf: scipy"]


def test_one_catalog_build_per_process():
    """``import repro`` (the semantics registry's name check), loading
    the paper's ISAs, two spec versions' entry lists and three kernels'
    ISA lookups and simulator compiles share one catalog build."""
    out = _run("""
        import cProfile
        import pstats

        profile = cProfile.Profile()
        profile.enable()
        import repro
        from repro.codegen.native import required_isas
        from repro.core import compile_staged
        from repro.isa import load_isas
        from repro.spec.catalog import all_entries
    """, _PAPER_KERNELS, f"""
        cir = load_isas(*{PAPER_ISAS!r})
        all_entries("3.2.2")
        all_entries("3.4")
        for staged, seen in paper_kernels(cir):
            required_isas(staged)
            compile_staged(seen["fn"], seen["arg_types"], name=seen["name"],
                           backend="simulated")
        profile.disable()
        print(sum(calls for (_, _, fn), (_, calls, *_)
                  in pstats.Stats(profile).stats.items()
                  if fn == "core_entries"))
    """)
    assert out.strip() == "1"


def test_required_isas_reads_no_catalog():
    out = _run("""
        import repro.spec.catalog as catalog
        from repro.codegen.native import required_isas
        from repro.isa import load_isas
        from repro.lms import stage_function
        from repro.lms.types import FLOAT, array_of

        cir = load_isas("AVX", "FMA")


        def fma(a):
            v = cir._mm256_loadu_ps(a, 0)
            cir._mm256_storeu_ps(a, cir._mm256_fmadd_ps(v, v, v), 0)


        staged = stage_function(fma, [array_of(FLOAT)], "fma")


        def unreachable(*args, **kwargs):
            raise AssertionError("required_isas read the spec catalog")


        catalog.all_entries = unreachable
        print(sorted(required_isas(staged)))
    """)
    assert out.strip() == "['AVX', 'FMA']"
