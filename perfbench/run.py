"""Benchmark of the staged-SIMD pipeline on the paper's three kernels.

    python3 perfbench/run.py --workload cold-start --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout, against ``src/`` in that checkout.
Five fresh processes set the program up (one extra process first
fills the run's disk cache), the last of them then runs the workload
for ``--seconds``.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}`` with every end-to-end
metric of ``BENCHMARK.json`` (``--trace 0``) or every per-layer metric
(``--trace 1``).  Exit status: 0 on success, 1 when an output was wrong,
2 when the benchmark could not run (no result is printed then).

Everything the run writes stays under ``.perfbench-work/`` in the
checkout; the traced run's spans are kept in ``.perfbench-work/traces``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("cold-start", "warm-native")
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 150.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env(work: Path) -> dict:
    """The program sees no inherited ``REPRO_*`` setting; its disk cache
    and temporary files live in this run's work directory, and NumPy's
    BLAS stays on the caller's thread."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env.update(REPRO_CACHE_DIR=str(work / "cache"), TMPDIR=str(work / "tmp"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def spawn(args: list[str], env: dict, forward: bool,
          timeout: float) -> float:
    """Start a worker, return the seconds from spawn to its ``READY``
    line.  With ``forward`` its later output is copied to stdout."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")] + args,
                            stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    overran = threading.Event()

    def kill() -> None:
        overran.set()
        proc.kill()

    watchdog = threading.Timer(timeout, kill)
    watchdog.start()
    ready = None
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            elif forward:
                sys.stdout.write(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if overran.is_set():
        raise BenchError(f"worker {args[1]} overran {timeout:.0f} s")
    if code != 0 or ready is None:
        raise BenchError(f"worker {args[1]} exited with status {code}")
    return ready


def finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def run(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchError(f"no program source under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".perfbench-work" / \
        f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    traces = ROOT / ".perfbench-work" / "traces"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    traces.mkdir(parents=True, exist_ok=True)
    env = child_env(work)
    try:
        spawn(["--mode", "setup"], env, False, SETUP_TIMEOUT_S)
        setup = [spawn(["--mode", "setup"], env, False, SETUP_TIMEOUT_S)
                 for _ in range(SETUP_SAMPLES - 1)]
        result_file = work / "result.json"
        measure = ["--mode", "measure", "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--workdir", str(work),
                   "--result", str(result_file)]
        if args.trace:
            measure += ["--spans", str(
                traces / f"{args.workload}-seed{args.seed}.jsonl")]
        if args.corrupt:
            measure.append("--corrupt")
        setup.append(spawn(measure, env, True,
                           SETUP_TIMEOUT_S + args.seconds + 120))
        result = json.loads(result_file.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = dict(result["end_to_end"] if not args.trace
                  else result["per_layer"])
    values["setup_s"] = statistics.median(setup)
    print(f"setup: {', '.join(f'{s:.3f}' for s in setup)} s "
          f"(median of {len(setup)} warm-cache set-ups)")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    correct = result["failed"] == 0
    missing = [m["name"] for m in wanted if not finite(values.get(m["name"]))]
    if missing and correct:
        raise BenchError(f"not measured: {', '.join(missing)}")
    # a run with wrong outputs reports what it could measure, and fails
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": float(values[m["name"]]),
                                "unit": m["unit"]}
                    for m in wanted if m["name"] not in missing},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test hook: make one probe's output "
                             "wrong, to show the checks catch it")
    args = parser.parse_args(argv)
    try:
        return run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
