"""Turn one measuring process's samples into metrics and printed notes."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import host
import kernels as K
from stats import percentile

ROOT = Path(__file__).resolve().parent.parent


def _p50(bench, key: str, cut) -> float:
    series = bench.blocks.get(key)
    values = series.selected(cut) if series is not None else ()
    return percentile(values, 50) if len(values) else math.nan


def _mean(values) -> float:
    values = [v for v in values if not math.isnan(v)]
    return sum(values) / len(values) if values else math.nan


def _median(values) -> float:
    values = list(values)
    return float(np.median(values)) if values else math.nan


def modelled_fpc(bench) -> dict:
    """The Haswell cost model's flops/cycle at the warm-native sizes."""
    out = {}
    for k in K.KERNELS:
        n = K.LARGE[k]
        if k == "saxpy":
            params = {"n": n, "scalar": 1.0}
            fp = {"a": 4.0 * n, "b": 4.0 * n}
        elif k == "mmm":
            params = {"n": n}
            fp = {x: 4.0 * n * n for x in ("a", "b", "c")}
        else:
            params = {"n": n, "inv_scale": 1.0}
            fp = {"a": 1.0 * n, "b": 1.0 * n}
        cost = bench.p.plain[k].cost(params, footprints=fp)
        out[k] = cost.flops_per_cycle(K.flops(k, n))
    return out


def span_layers(bench) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced cold rounds, and the coverage
    table of each cold op."""
    from spans import Analysis

    a = Analysis(bench.recorder.spans)

    def total_ms(name, keep=lambda s: True):
        return _median(s.duration_ns / 1e6 for s in a.named(name)
                       if keep(s))

    def self_ms(name):
        return _median(a.self_ns(s) / 1e6 for s in a.named(name))

    def attr_mean(name, attr):
        return _mean(float(s.attrs[attr]) for s in a.named(name)
                     if attr in s.attrs)

    def probes_per(op, outcome):
        roots = a.named(op)
        hits = sum(1 for r in roots for d in a.descendants(r)
                   if d.name == "cache.probe"
                   and d.attrs.get("outcome") == outcome)
        return hits / len(roots) if roots else math.nan

    m = {
        "spec.required_isas_ms": total_ms("spec.required_isas"),
        "spec.required_isas_calls": a.per_op("op.build",
                                             "spec.required_isas"),
        "lms.stage_ms": total_ms("lms.stage"),
        "lms.opt_ms": total_ms("lms.opt"),
        "lms.stms_in": attr_mean("lms.opt", "stms_in"),
        "lms.stms_out": attr_mean("lms.opt", "stms_out"),
        "cgen.emit_ms": total_ms("cgen.emit"),
        "cgen.c_bytes": attr_mean("cgen.emit", "c_bytes"),
        "compiler.cc_ms": total_ms("compiler.cc"),
        "compiler.invocations": a.per_op("op.build", "compiler.invoke"),
        "compiler.so_bytes": attr_mean("compiler.cc", "so_bytes"),
        "cache.probe_ms": total_ms(
            "cache.probe", lambda s: s.attrs.get("outcome") == "hit"),
        "cache.publish_ms": total_ms("cache.publish"),
        "cache.disk_hits": probes_per("op.reload", "hit"),
        "cache.disk_misses": probes_per("op.build", "miss"),
        "resilience.smoke_ms": total_ms("resilience.smoke"),
        "resilience.smoke_runs": a.per_op("op.build", "resilience.smoke"),
        "resilience.link_ms": total_ms("resilience.link"),
        "resilience.acquire_self_ms": self_ms("resilience.acquire"),
        "timing.lower_ms": total_ms("timing.lower"),
    }
    lines = []
    for op, metric in (("op.build", "build_s"), ("op.reload", "reload_s"),
                       ("op.first_result", "first_result_ms")):
        shares, uncovered, n = a.coverage(op)
        lines.append(f"coverage of {metric} ({n} traced ops): "
                     f"share of the op in each entry point's self time")
        for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {name:28s} {100 * share:6.2f}%")
        lines.append(f"  {'(uncovered remainder)':28s} "
                     f"{100 * uncovered:6.2f}%")
    return m, lines


def block_layers(bench, e2e_rows: dict, tsc: float | None
                 ) -> tuple[dict, list[str]]:
    """The warm call split into nested entry points, by differences of
    block-timed calls (µs), and the simulator's own layers."""
    cut = bench._cut()
    b = {}
    for k in K.KERNELS:
        for key in ("floor", "native", "compiled", "dispatch", "tiered",
                    "tiered_obs_off", "batch_bare", "batch_native",
                    "batch_compiled", "body"):
            b[key, k] = _p50(bench, f"{key}.{k}", cut) / 1e3
    ks = K.KERNELS
    m = {
        "native.floor_us": _mean(b["floor", k] for k in ks),
        "native.marshal_us": _mean(b["native", k] - b["floor", k]
                                   for k in ks),
        "native.batch_pack_us": _mean(
            (b["batch_native", k] - b["batch_bare", k]) / K.BATCH
            for k in ks),
        "pipeline.dispatch_us": _mean(b["compiled", k] - b["native", k]
                                      for k in ks),
        "batch.execute_us": _mean(
            (b["batch_compiled", k] - b["batch_native", k]) / K.BATCH
            for k in ks),
        "tiered.dispatch_us": _mean(b["dispatch", k] - b["native", k]
                                    for k in ks),
        "obs.call_us": _mean(b["tiered", k] - b["tiered_obs_off", k]
                             for k in ks),
    }
    for k in ks:
        m[f"native.body_us.{k}"] = b["body", k] - b["floor", k]
    boundary_us = m["native.floor_us"] + m["native.marshal_us"]
    m["timing.boundary_cycles"] = boundary_us * 1e3 * tsc \
        if tsc else math.nan
    fpc = modelled_fpc(bench)
    for k in ks:
        m[f"timing.modelled_fpc.{k}"] = fpc[k]
        gflops = e2e_rows.get(f"gflops.p50.{k}")
        # GFLOP/s over TSC GHz: flops per TSC cycle
        m[f"timing.measured_fpc.{k}"] = gflops / tsc \
            if gflops and tsc else math.nan
    # simulator layers
    layer = bench.sim_layer
    for k in ks:
        m[f"simd.run_ms.{k}"] = _p50(bench, f"simd.run.{k}", cut) / 1e6
        m[f"simd.tree_run_ms.{k}"] = _p50(bench, f"simd.tree.{k}",
                                          cut) / 1e6
        m[f"simd.steps.{k}"] = float(layer.get(f"steps.{k}", math.nan))
    m["simd.program_compile_ms"] = _p50(bench, "simd.compile", cut) / 1e6
    m["simd.sweep_us"] = _p50(bench, "simd.sweep", cut) / 1e3
    m["simd.batch_fallbacks"] = layer.get("fallbacks", 0) / \
        max(1, layer.get("sweeps", 0))

    from repro.timing.uarch import HASWELL
    call = _mean(b["compiled", k] for k in ks)
    lines = ["block samples used/taken: " + ", ".join(
        f"{key} {len(series.selected(cut))}/{len(series)}"
        for key, series in sorted(bench.blocks.items())),
        f"boundary: measured {m['timing.boundary_cycles']:.0f} TSC cycles "
        f"(floor {m['native.floor_us']:.2f} us + marshalling "
        f"{m['native.marshal_us']:.2f} us) vs the cost model's "
        f"jni_overhead_cycles = {HASWELL.jni_overhead_cycles:.0f}",
        "flops/cycle at the warm-native sizes, measured (TSC cycles) vs "
        "modelled (Haswell):",
    ]
    for k in ks:
        lines.append(f"  {k:6s} n={K.LARGE[k]:<7d} measured "
                     f"{m[f'timing.measured_fpc.{k}']:7.3f}  modelled "
                     f"{m[f'timing.modelled_fpc.{k}']:7.3f}")
    e2e_call = _mean(e2e_rows.get(f"call_us.p50.{k}", math.nan)
                     for k in ks)
    lines.append(f"coverage of call_us (block-timed, mean over kernels, "
                 f"{call:.2f} us per CompiledKernel call):")
    for name, value in (
            ("native ctypes floor", m["native.floor_us"]),
            ("native marshalling (NativeKernel.__call__)",
             m["native.marshal_us"]),
            ("pipeline dispatch (CompiledKernel.__call__)",
             m["pipeline.dispatch_us"])):
        lines.append(f"  {name:44s} {100 * value / call:6.2f}%")
    lines.append(f"  {'(uncovered: single-call timer vs block)':44s} "
                 f"{100 * (e2e_call - call) / e2e_call:6.2f}%")
    return m, lines


def tracing_overhead(bench, e2e_names: list[str]) -> list[str]:
    """One line per end-to-end metric: what tracing added to it in this
    run, traced cold rounds against the untraced ones."""
    cold = {"build_s.p50": "build", "reload_s.p50": "reload",
            "first_result_ms.p50": "first_result"}
    lines = ["tracing overhead per end-to-end figure:"]
    for metric in e2e_names:
        key = cold.get(metric)
        if key is None:
            why = "not traced: set-up ends before tracing starts" \
                if metric == "setup_s" else \
                "spans held in memory" if metric == "peak_rss_mb" else \
                "0: no spans on this call path (it is block-timed)"
            lines.append(f"  {metric:24s} {why}")
            continue
        ratios = []
        for k in K.KERNELS:
            tags = bench.cold[key][k]
            if len(tags.get("traced", ())) and len(tags.get("plain", ())):
                ratios.append(_median(tags["traced"].values)
                              / _median(tags["plain"].values))
        lines.append(f"  {metric:24s} {100 * (np.mean(ratios) - 1):+6.1f}%"
                     f"  (traced vs untraced cold rounds)" if ratios
                     else f"  {metric:24s} (no traced round)")
    return lines


def obs_build_ms(bench) -> float:
    diffs = []
    for k in K.KERNELS:
        tags = bench.cold["build"][k]
        if len(tags.get("plain", ())) and len(tags.get("obs_off", ())):
            diffs.append((_median(tags["plain"].values)
                          - _median(tags["obs_off"].values)) / 1e6)
    return _mean(diffs)


def build(bench, spans_path: str | None) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    pk = bench.per_kernel()
    e2e = bench.end_to_end(pk)
    hostm = bench.host_metrics()
    cc = bench.p.cc
    tsc = host.tsc_ghz(bench.workdir / "tsc", cc.path if cc else None)
    fp = host.fingerprint(cc.version if cc else None, tsc)
    log = bench.log
    out_lines = [json.dumps({"host": fp}),
                 f"workload {bench.workload}: seed {bench.seed}, measured "
                 f"{bench.measured_s:.1f} s ("
                 + ", ".join(f"{ph} {s:.1f} s = "
                             f"{100 * s / bench.measured_s:.0f}%"
                             for ph, s in bench.spent.items())
                 + f"), {bench.cold_rounds} complete cold rounds",
                 "host: " + ", ".join(f"{k} {v:.2f}"
                                      for k, v in hostm.items())]
    counts = pk["counts"]
    for name, value in e2e.items():
        n = [counts[c] for c in [f"{name}.{k}" for k in K.KERNELS] + [name]
             if c in counts]
        shown = ", ".join(f"{used}/{taken}" for used, taken in n)
        out_lines.append(f"  {name:24s} {value:12.4f} {units.get(name, '')}"
                         + (f"  (samples used/taken: {shown})"
                            if shown else ""))
    # the cross-kernel figures too: BENCHMARK.json lists the ones whose
    # run-to-run spread is too wide for a bound as per-layer metrics
    per_layer = {**pk["rows"], **e2e}
    per_layer.update(hostm)
    per_layer["fail_ratio"] = log.failed / max(1, log.attempted)
    if bench.traced:
        m, lines = span_layers(bench)
        per_layer.update(m)
        out_lines += lines
        m, lines = block_layers(bench, pk["rows"], tsc)
        per_layer.update(m)
        out_lines += lines
        per_layer["tiered.swap_s"] = _median(bench.swap.values) / 1e9
        per_layer["obs.build_ms"] = obs_build_ms(bench)
        out_lines += tracing_overhead(bench, ["setup_s"] + list(e2e))
        if spans_path:
            counters = {f"perfbench.ops.{k}": float(v) for k, v in
                        (("attempted", log.attempted),
                         ("failed", log.failed))}
            bench.recorder.write(spans_path, counters)
            out_lines.append(f"spans: {spans_path} (render with "
                             f"`PYTHONPATH=src python -m repro.obs report "
                             f"{spans_path}`)")
    for line in out_lines:
        print(line)
    return {
        "attempted": log.attempted,
        "failed": log.failed,
        "problems": log.problems,
        "end_to_end": e2e,
        "per_layer": per_layer,
    }
