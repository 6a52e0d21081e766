"""Compile-service performance: per-request latency and dedup ratio
at 1, 4 and 16 concurrent clients.

The serving-system numbers behind DESIGN.md §12: each concurrency
level fires N clients at one daemon for the *same* fresh kernel graph
(SimdBench's many-small-kernels traffic collapsed to its worst case)
and records the mean/max request latency plus how many of the N
requests were absorbed by cluster-wide single-flight instead of paying
a compile.  The only hard gates are correctness-shaped — every request
succeeds and each level costs exactly one compile; latency targets are
tracked through ``BENCH_serve.json``, not asserted, so a loaded CI box
cannot flake the suite.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from pathlib import Path

import pytest

from benchmarks.conftest import print_series, write_bench_json
from repro.serve.client import request
from repro.serve.daemon import KernelCompileDaemon
from tests.conftest import requires_compiler

CLIENT_COUNTS = (1, 4, 16)

# one trivially-compilable kernel per concurrency level; a unique ghash
# per level forces exactly one fresh compile each time
_C_TEMPLATE = """
void repro_native_bench_{tag}(float* a, int n) {{
    for (int i = 0; i < n; i++) a[i] = a[i] * 2.0f + {tag}.0f;
}}
"""


def _fire_clients(sock: Path, clients: int, tag: int) -> list[float]:
    """``clients`` threads, one compile request each, same graph hash.
    Returns per-request latencies; raises if any request failed."""
    latencies = [0.0] * clients
    failures: list[str] = []
    barrier = threading.Barrier(clients)

    def one(i: int) -> None:
        message = {
            "verb": "compile",
            "ghash": f"bench-serve-{tag:04d}" + "0" * 10,
            "name": f"bench_{tag}",
            "symbol": f"repro_native_bench_{tag}",
            "c_source": _C_TEMPLATE.format(tag=tag),
            "isas": [],
            "client": f"client-{i}",
            "timeout_s": 120,
        }
        barrier.wait()
        t0 = time.perf_counter()
        try:
            reply = request(message, socket_path=sock,
                            reply_timeout=150.0)
        except Exception as exc:  # noqa: BLE001 - collected, re-raised
            failures.append(f"client {i}: {exc}")
            return
        latencies[i] = time.perf_counter() - t0
        if not reply.get("ok"):
            failures.append(f"client {i}: {reply}")

    threads = [threading.Thread(target=one, args=(i,))
               for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=240)
    assert not failures, failures
    return latencies


@requires_compiler
@pytest.mark.benchmark(group="serve")
def test_perf_serve(monkeypatch, tmp_path):
    rundir = Path(tempfile.mkdtemp(prefix="rsb-", dir="/tmp"))
    sock = rundir / "bench.sock"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "kcache"))
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_CC", raising=False)
    daemon = KernelCompileDaemon(socket_path=sock, workers=4)
    daemon.start()
    series: list[dict] = []
    rows: list[tuple] = []
    wall = 0.0
    try:
        for tag, clients in enumerate(CLIENT_COUNTS):
            before = request({"verb": "stats"},
                             socket_path=sock)["counts"]
            t0 = time.perf_counter()
            latencies = _fire_clients(sock, clients, tag)
            wall += time.perf_counter() - t0
            after = request({"verb": "stats"},
                            socket_path=sock)["counts"]
            compiles = after["compiled"] - before["compiled"]
            deduped = after["dedup"] - before["dedup"]
            cached = after["cached"] - before["cached"]
            # the multi-tenant contract, at every concurrency level
            assert compiles == 1, (
                f"{clients} clients cost {compiles} compiles")
            dedup_ratio = (deduped + cached) / clients
            mean_s = sum(latencies) / clients
            series.append({
                "kernel": "service-compile",
                "backend": f"{clients}-clients",
                "clients": clients,
                "mean_latency_s": mean_s,
                "max_latency_s": max(latencies),
                "dedup_ratio": dedup_ratio,
                "compiles": compiles,
            })
            rows.append((f"{clients} clients", mean_s * 1e3,
                         max(latencies) * 1e3, dedup_ratio))
        print_series("Compile service",
                     ["level", "mean [ms]", "max [ms]", "dedup"],
                     rows)
        # N concurrent clients, one compile: all but one request at the
        # highest level must have been deduplicated or cache-served
        top = series[-1]
        assert top["dedup_ratio"] >= (CLIENT_COUNTS[-1] - 1) \
            / CLIENT_COUNTS[-1]
    finally:
        daemon.stop()
        try:
            rundir.rmdir()
        except OSError:
            pass
    write_bench_json("serve", series, wall,
                     extra={"unit": "seconds", "workers": 4,
                            "client_counts": list(CLIENT_COUNTS)})
