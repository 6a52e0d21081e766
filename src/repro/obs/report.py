"""Render a recorded (or in-memory) trace as a human-readable summary.

``python -m repro.obs report trace.jsonl`` prints:

* the span tree (indented, durations in ms, interesting attributes),
* the top counters by value,
* cache hit ratios (memory and disk tiers),
* compile-ladder outcomes (ok / transient / permanent / retries /
  downgrades).

The same renderer backs :meth:`repro.core.pipeline.CompiledKernel.explain`.
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable, Mapping, Sequence

from repro.obs.core import Span, read_jsonl

# Attributes worth showing inline in the span tree.
_SHOWN_ATTRS = ("kernel", "backend", "compiler", "rung", "flags",
                "outcome", "verdict", "status", "cache_source", "error",
                "reason", "requested")


def build_tree(spans: Sequence[Span]
               ) -> tuple[list[Span], dict[int, list[Span]]]:
    """Return ``(roots, children_by_span_id)`` in start order.

    A span whose parent is missing from ``spans`` (evicted from the
    ring, or recorded by another trace) is promoted to a root so the
    tree never silently drops data.
    """
    by_id = {s.span_id: s for s in spans}
    children: dict[int, list[Span]] = {}
    roots: list[Span] = []
    for s in sorted(spans, key=lambda s: (s.start_ns, s.span_id)):
        if s.parent_id is not None and s.parent_id in by_id:
            children.setdefault(s.parent_id, []).append(s)
        else:
            roots.append(s)
    return roots, children


def _attr_suffix(span: Span) -> str:
    parts = []
    for key in _SHOWN_ATTRS:
        if key in span.attrs:
            value = span.attrs[key]
            if isinstance(value, (list, tuple)):
                value = " ".join(str(v) for v in value)
            parts.append(f"{key}={value}")
    return ("  [" + ", ".join(parts) + "]") if parts else ""


def render_span_tree(spans: Sequence[Span]) -> str:
    roots, children = build_tree(spans)
    lines: list[str] = []

    def walk(span: Span, depth: int) -> None:
        mark = "!" if span.status == "error" else ""
        lines.append(f"{'  ' * depth}{span.name}{mark} "
                     f"({span.duration_ms:.2f} ms){_attr_suffix(span)}")
        for child in children.get(span.span_id, []):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines)


def _cache_ratio(counters: Mapping[str, float], tier: str) -> str:
    hits = counters.get(f"cache.{tier}.hits", 0.0)
    misses = counters.get(f"cache.{tier}.misses", 0.0)
    total = hits + misses
    if total == 0:
        return f"{tier:4s}: no traffic"
    return (f"{tier:4s}: {int(hits)} hits / {int(misses)} misses "
            f"({100.0 * hits / total:.1f}% hit rate)")


def _ladder_summary(counters: Mapping[str, float]) -> list[str]:
    outcomes = {"ok": 0.0, "transient": 0.0, "permanent": 0.0}
    for cell, value in counters.items():
        if cell.startswith("compile.attempts{"):
            for outcome in outcomes:
                if f"outcome={outcome}" in cell:
                    outcomes[outcome] += value
    retries = counters.get("compile.retries", 0.0)
    downgrades = counters.get("compile.downgrades", 0.0)
    lines = ["  ".join(f"{k}={int(v)}" for k, v in outcomes.items())
             + f"  retries={int(retries)}  downgrades={int(downgrades)}"]
    for cell, value in sorted(counters.items()):
        if cell.startswith("smoke.verdicts"):
            lines.append(f"{cell} = {int(value)}")
    quarantines = counters.get("quarantine.events", 0.0)
    if quarantines:
        lines.append(f"quarantine.events = {int(quarantines)}")
    return lines


def _resilience_summary(counters: Mapping[str, float]) -> list[str]:
    """Fault injection, watchdog, abandoned-compile and disk-sweep
    activity."""
    lines: list[str] = []
    fault_cells = sorted((cell, value) for cell, value in counters.items()
                         if cell.startswith("faults.fired"))
    if fault_cells:
        for cell, value in fault_cells:
            lines.append(f"{cell} = {int(value)}")
    else:
        lines.append("faults.fired: none")
    watchdog = sum(value for cell, value in counters.items()
                   if cell.startswith("watchdog.kills"))
    lines.append(f"watchdog.kills = {int(watchdog)}")
    # every row prints, zero or not: dashboards diff reports
    # across runs, and a row that appears only once a counter fires
    # reads as a schema change instead of a value change
    for name in ("tiered.abandoned", "cache.disk.recovered",
                 "native.workdirs_swept"):
        lines.append(f"{name} = {int(counters.get(name, 0.0))}")
    return lines


def render_report(spans: Sequence[Span],
                  metrics: Mapping | None,
                  top: int = 15) -> str:
    """The full text summary of one trace."""
    counters: dict[str, float] = dict((metrics or {}).get("counters", {}))
    out: list[str] = []
    out.append(f"== span tree ({len(spans)} spans) ==")
    out.append(render_span_tree(spans) if spans else "(no spans recorded)")
    out.append("")
    out.append("== top counters ==")
    if counters:
        ranked = sorted(counters.items(), key=lambda kv: (-kv[1], kv[0]))
        for cell, value in ranked[:top]:
            shown = int(value) if float(value).is_integer() else value
            out.append(f"{cell:56s} {shown}")
        if len(ranked) > top:
            out.append(f"... and {len(ranked) - top} more")
    else:
        out.append("(no counters recorded)")
    out.append("")
    out.append("== cache ==")
    out.append(_cache_ratio(counters, "mem"))
    out.append(_cache_ratio(counters, "disk"))
    out.append("")
    out.append("== compile ladder ==")
    out.extend(_ladder_summary(counters))
    out.append("")
    out.append("== resilience ==")
    out.extend(_resilience_summary(counters))
    gauges = dict((metrics or {}).get("gauges", {}))
    if gauges:
        out.append("")
        out.append("== gauges ==")
        for cell, value in sorted(gauges.items()):
            out.append(f"{cell:56s} {value}")
    return "\n".join(out) + "\n"


def report_from_file(path: str) -> str:
    spans, metrics = read_jsonl(path)
    return render_report(spans, metrics)


def main(argv: Iterable[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability tooling for the repro pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser(
        "report", help="summarize a recorded JSONL trace (or the "
                       "current process's buffers when no path given)")
    rep.add_argument("trace", nargs="?", default=None,
                     help="path to a JSONL trace "
                          "(default: in-process buffers)")
    rep.add_argument("--top", type=int, default=15,
                     help="how many counters to list")

    prom = sub.add_parser(
        "metrics", help="print the current process's metrics in "
                        "Prometheus text exposition format")

    args = parser.parse_args(list(argv) if argv is not None else None)
    if args.command == "report":
        if args.trace is not None:
            spans, metrics = read_jsonl(args.trace)
        else:
            import repro.obs as obs
            spans = obs.get_tracer().finished_spans()
            metrics = obs.get_registry().snapshot()
        sys.stdout.write(render_report(spans, metrics, top=args.top))
        return 0
    if args.command == "metrics":
        del prom
        import repro.obs as obs
        sys.stdout.write(obs.prometheus_text())
        return 0
    return 2


if __name__ == "__main__":      # pragma: no cover
    raise SystemExit(main())
