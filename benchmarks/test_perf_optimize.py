"""Middle-end payoff: simulator steps per call with and without it.

The paper kernels in :mod:`repro.kernels` are hand-hoisted the way the
paper's authors wrote them; a middle-end pass over those graphs finds
little.  What the optimizer is *for* is naively-staged kernels — the
ones a user writes before profiling: broadcast constants re-staged
inside the loop body, ``i * 1 + 0`` index arithmetic left over from
generic tiling helpers, offsets recomputed per iteration.  This
benchmark stages naive SAXPY / blocked-MMM / 8-bit-dot variants,
runs each at level 0 (unoptimized) and level 1 (the pipeline
``compile_staged`` runs), and counts the simulator steps (scalar ops +
intrinsic invocations) one call executes on the tree engine, plus the
generated-C line count and (when a toolchain exists) the native compile
time per level.

Persisted as ``BENCH_opt.json``.  Hard assertions: level 0 is
bit-identical to the unoptimized baseline with the same step count, both
levels produce bit-identical outputs, and level 1 cuts executed steps
by >= 15% on at least two of the three kernels.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import write_bench_json
from repro.codegen.cgen import emit_c_source
from repro.isa.registry import load_isas
from repro.lms import forloop, stage_function
from repro.lms.ops import array_apply, array_update, reflect_mutable
from repro.lms.optimize import optimize_staged
from repro.lms.types import FLOAT, INT8, INT32, array_of
from repro.quant.dot import _reduce_epi32
from repro.simd.machine import SimdMachine

LEVELS = (0, 1)
SAXPY_N = 64
MMM_N = 16
DOT_N = 64


def _naive_saxpy():
    cir = load_isas("AVX", "AVX2", "FMA")

    def saxpy_naive(a, b, scalar, n):
        reflect_mutable(a)
        n0 = (n >> 3) << 3

        def vec_body(i):
            j = i * 1 + 0
            vec_s = cir._mm256_set1_ps(scalar)   # re-staged per iteration
            vec_a = cir._mm256_loadu_ps(a, j)
            vec_b = cir._mm256_loadu_ps(b, j)
            res = cir._mm256_fmadd_ps(vec_b, vec_s, vec_a)
            cir._mm256_storeu_ps(a, res, j)

        forloop(0, n0, step=8, body=vec_body)
        forloop(n0, n, step=1, body=lambda i: array_update(
            a, i, array_apply(a, i) + array_apply(b, i) * scalar))

    return stage_function(
        saxpy_naive,
        [array_of(FLOAT), array_of(FLOAT), FLOAT, INT32],
        name="saxpy_naive")


def _naive_mmm():
    from repro.kernels.mmm import _tree_add, transpose
    cir = load_isas("AVX", "AVX2", "FMA")

    def mmm_naive(a, b, c, n):
        reflect_mutable(c)

        def kk_body(kk):
            def jj_body(jj):
                block_b = transpose(cir, [
                    cir._mm256_loadu_ps(b, (kk + u) * 1 * n + jj + 0)
                    for u in range(8)
                ])

                def i_body(i):
                    row_a = cir._mm256_loadu_ps(a, i * 1 * n + kk + 0)
                    mul_ab = transpose(
                        cir, [cir._mm256_mul_ps(row_a, bb)
                              for bb in block_b])
                    row_c = cir._mm256_loadu_ps(c, i * 1 * n + jj + 0)
                    acc_c = cir._mm256_add_ps(_tree_add(cir, mul_ab),
                                              row_c)
                    cir._mm256_storeu_ps(c, acc_c, i * 1 * n + jj + 0)

                forloop(0, n, step=1, body=i_body)

            forloop(0, n, step=8, body=jj_body)

        forloop(0, n, step=8, body=kk_body)

    return stage_function(
        mmm_naive,
        [array_of(FLOAT), array_of(FLOAT), array_of(FLOAT), INT32],
        name="mmm_naive")


def _naive_dot8():
    cir = load_isas("SSE", "SSE2", "SSE3", "SSSE3", "SSE4.1", "AVX",
                    "AVX2", "FMA")

    def dot8_naive(a, b, inv_scale, n):
        from repro.lms.ops import Variable
        iacc = Variable(cir._mm256_setzero_si256())

        def body(i):
            j = i * 1 + 0
            ones16 = cir._mm256_set1_epi16(1)    # re-staged per iteration
            va = cir._mm256_loadu_si256(a, j)
            vb = cir._mm256_loadu_si256(b, j)
            abs_a = cir._mm256_abs_epi8(va)
            sgn_b = cir._mm256_sign_epi8(vb, va)
            p16 = cir._mm256_maddubs_epi16(abs_a, sgn_b)
            p32 = cir._mm256_madd_epi16(p16, ones16)
            iacc.set(cir._mm256_add_epi32(iacc.get(), p32))

        forloop(0, n, step=32, body=body)
        return _reduce_epi32(cir, iacc.get()) * inv_scale

    return stage_function(
        dot8_naive,
        [array_of(INT8), array_of(INT8), FLOAT, INT32],
        name="dot8_naive")


def _cases():
    rng = np.random.default_rng(0x0B7)
    sa = rng.random(SAXPY_N).astype(np.float32)
    sb = rng.random(SAXPY_N).astype(np.float32)
    ma = rng.random(MMM_N * MMM_N).astype(np.float32)
    mb = rng.random(MMM_N * MMM_N).astype(np.float32)
    da = rng.integers(-127, 127, size=DOT_N, dtype=np.int8)
    db = rng.integers(-127, 127, size=DOT_N, dtype=np.int8)
    return [
        ("saxpy", _naive_saxpy(),
         lambda: [sa.copy(), sb.copy(), np.float32(2.5),
                  np.int32(SAXPY_N)]),
        ("mmm", _naive_mmm(),
         lambda: [ma.copy(), mb.copy(),
                  np.zeros(MMM_N * MMM_N, np.float32), np.int32(MMM_N)]),
        ("dot8", _naive_dot8(),
         lambda: [da.copy(), db.copy(), np.float32(1.0),
                  np.int32(DOT_N)]),
    ]


def _run_steps(staged, args):
    machine = SimdMachine(executor="tree", profile=True)
    result = machine.run(staged, args)
    return sum(machine.op_counts.values()), result, args


def _native_compile_seconds(staged):
    try:
        from repro.codegen.native import compile_to_native
        t0 = time.perf_counter()
        compile_to_native(staged)
        return time.perf_counter() - t0
    except Exception:  # noqa: BLE001 - no toolchain / unsupported host
        return None


def test_opt_levels_cut_simulator_steps():
    t0 = time.perf_counter()
    series = []
    reductions = {}
    for name, staged, args_fn in _cases():
        base_steps, base_result, base_args = _run_steps(staged, args_fn())
        per_level = {}
        for level in LEVELS:
            opt, stats = optimize_staged(staged, level)
            steps, result, args = _run_steps(opt, args_fn())
            c_lines = len(emit_c_source(opt).splitlines())
            per_level[level] = {
                "steps_per_call": steps,
                "c_lines": c_lines,
                "compile_s": _native_compile_seconds(opt),
                "eliminated": stats.total_eliminated,
            }
            # bit-identical outputs at every level
            for got, ref in zip(args, base_args):
                if isinstance(got, np.ndarray):
                    assert got.tobytes() == ref.tobytes(), (name, level)
            if base_result is not None:
                assert np.float32(result).tobytes() == \
                    np.float32(base_result).tobytes(), (name, level)
        # level 0 must be the unoptimized baseline exactly
        assert per_level[0]["steps_per_call"] == base_steps, name
        red = 1.0 - per_level[1]["steps_per_call"] / base_steps
        reductions[name] = red
        series.append({
            "kernel": name,
            "backend": "tree",
            "points": [
                {"size": f"opt{level}", **per_level[level]}
                for level in LEVELS
            ],
        })
        print(f"{name}: steps {base_steps} -> "
              f"{per_level[1]['steps_per_call']} (opt1, -{red:.1%})")

    write_bench_json(
        "opt", series, time.perf_counter() - t0,
        extra={"unit": "steps_per_call",
               "reductions_opt1": {k: round(v, 4)
                                   for k, v in reductions.items()}})
    big_wins = [k for k, v in reductions.items() if v >= 0.15]
    assert len(big_wins) >= 2, reductions
