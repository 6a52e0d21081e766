"""One benchmark process, started by ``run.py``.

``--mode setup``    the program's set-up, then ``READY`` (a set-up sample)
``--mode measure``  set-up, ``READY``, the workload, then the result file
``--mode reload``   the reload server: forks one fresh process per
                    reload request read from stdin (see ``ReloadServer``)
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import host  # noqa: E402
import kernels as K  # noqa: E402
from probes import OpLog, Probe, pack_batch, preconverted, time_block  # noqa: E402
from stats import MIN_SELECTED, Series, fast_cut, geomean, percentile  # noqa: E402

# Share of the run each phase gets.  Every workload runs every phase,
# so every run reports every end-to-end metric; the shares decide which
# layers do most of the work.  A share of 0 gets only its minimum rounds.
SHARES = {
    "cold-start": {"cold": 0.65, "warm": 0.15, "sim": 0.2},
    "warm-native": {"cold": 0.2, "warm": 0.6, "sim": 0.2},
}
MIN_COLD_ROUNDS = 1     # complete cold rounds, however short the run
RELOADS = 3             # fresh-process reloads per kernel per cold round
ASYNC_REPS = 8          # async first results per kernel per cold round:
                        # the most, since warm-native runs a single round
BLOCK_CALLS = 16        # calls per block in the traced run's call split
SMALL_BURST = 8         # timed calls per probe visit, µs-scale calls
LONG_BURST = 4          # timed calls per probe visit, ms-scale calls
EXTEND_S = 8.0          # longest the warm and sim phases run on past
                        # --seconds to reach MIN_SELECTED fast samples

SERIES_METRICS = {
    # metric: (series key, percentile, scale to the unit)
    "build_s.p50": ("build", 50, 1e-9),
    "reload_s.p50": ("reload", 50, 1e-9),
    "first_result_ms.p50": ("first_result", 50, 1e-6),
    "call_us.p50": ("call", 50, 1e-3),
    "call_us.p90": ("call", 90, 1e-3),
    "tiered_call_us.p50": ("tiered", 50, 1e-3),
    "batch_call_us.p50": ("batch", 50, 1e-3 / K.BATCH),
    "sim_call_ms.p50": ("sim", 50, 1e-6),
    "sim_call_ms.p90": ("sim", 90, 1e-6),
}
COLD_KEYS = ("build", "reload", "first_result")


def cold_cases(seed: int) -> dict:
    """Inputs of the cold ops; the reload child regenerates them."""
    rng = np.random.default_rng([seed, 1])
    return {k: K.make_case(k, rng, K.SMALL[k]) for k in K.KERNELS}


def native_problem(kernel, source: str) -> str | None:
    """Why a kernel that should be native from ``source`` is not."""
    if kernel.tier != "native":
        return f"served by the simulator: {kernel.fallback_reason}"
    got = kernel.report.cache_source if kernel.report else None
    if got != source:
        return f"expected a {source} artifact, got {got}"
    return None


def rotated(items: list, r: int) -> list:
    """``items`` starting at position ``r``: each round starts at another
    probe, so garbage collections and other periodic costs fall on every
    probe in turn rather than on the same one each round."""
    r %= len(items)
    return items[r:] + items[:r]


class Program:
    """The program's set-up: what ``setup_s`` times."""

    def __init__(self) -> None:
        from repro.codegen.compiler import inspect_system
        from repro.core import compile_staged

        self.compile_staged = compile_staged
        self.specs = K.paper_kernels()
        self.scalar_spec = K.scalar_loop()
        system = inspect_system()
        self.cc = system.best_compiler
        self.plain, self.tiered, self.sim = {}, {}, {}
        for k, spec in self.specs.items():
            self.plain[k] = compile_staged(spec.fn, spec.arg_types,
                                           name=spec.staged_name)
            self.tiered[k] = compile_staged(
                spec.fn, spec.arg_types, name=spec.staged_name,
                use_cache=False, tier="async")
            self.sim[k] = compile_staged(spec.fn, spec.arg_types,
                                         name=spec.staged_name,
                                         backend="simulated")
        s = self.scalar_spec
        self.scalar = compile_staged(s.fn, s.arg_types, name=s.staged_name,
                                     backend="simulated")
        for k in K.KERNELS:
            self.tiered[k].wait_native(180)
            for kern in (self.plain[k], self.tiered[k]):
                if kern.tier != "native":
                    raise SystemExit(f"perfbench: {k} did not link "
                                     f"natively: {kern.fallback_reason}")


class ReloadServer:
    """A child that has done its imports and ISA eDSL load and nothing
    else — the part of a process start ``reload_s`` excludes — kept for
    the whole run.  Each reload is a fresh process forked from it, so it
    starts with no compiler detection, no smoke trust and nothing linked
    or cached.  It is idle except while serving a reload."""

    def __init__(self, seed: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--mode", "reload",
             "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "READY":
            self.close()
            raise OSError("reload server did not start")

    def reload(self, kernel: str, cache_dir: str, obs_off: bool,
               traced: bool) -> dict:
        """One reload of ``kernel`` from ``cache_dir``; its result dict."""
        self.proc.stdin.write(json.dumps(
            {"kernel": kernel, "cache_dir": cache_dir, "obs_off": obs_off,
             "traced": traced}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise OSError(f"reload server exited with {self.proc.poll()}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Bench:
    def __init__(self, program: Program, args) -> None:
        self.p = program
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.traced = bool(args.trace)
        self.workdir = Path(args.workdir)
        self.log = OpLog()
        self.cold_rounds = 0
        self.cold = {key: {k: {} for k in K.KERNELS} for key in COLD_KEYS}
        self.swap = Series()
        self.blocks: dict = {}
        self.sim_layer: dict = {}
        self.recorder = None
        if self.traced:
            import spans
            self.recorder = spans.Recorder()
        rng = np.random.default_rng(self.seed)
        self.cold_cases = cold_cases(self.seed)
        self._build_probes(rng, args.corrupt)
        self.reloads = ReloadServer(self.seed)

    # -- probes ------------------------------------------------------------

    def _build_probes(self, rng, corrupt: bool) -> None:
        p = self.p
        self.small, self.large, self.batches, self.simcases = {}, {}, {}, {}
        self.warm: dict[str, dict[str, Probe]] = {
            key: {} for key in ("call", "tiered", "batch", "large")}
        self.simp: dict[str, Probe] = {}
        for k in K.KERNELS:
            small = K.make_case(k, rng, K.SMALL[k])
            tiered = K.make_case(k, rng, K.SMALL[k])
            large = K.make_case(k, rng, K.LARGE[k])
            batch = K.make_batch(k, rng, K.SMALL[k])
            simcase = K.make_case(k, rng, K.SIM[k])
            self.small[k], self.large[k] = small, large
            self.batches[k], self.simcases[k] = batch, simcase
            call = p.plain[k]
            if corrupt and k == "saxpy":
                def call(*args, _kern=p.plain[k]):
                    _kern(*args)
                    args[0][3] += 1.0
            self.warm["call"][k] = Probe(
                f"call.{k}", k, call, small.args, small.reset,
                lambda out, c=small: K.check_case(c, out), SMALL_BURST)
            self.warm["tiered"][k] = Probe(
                f"tiered.{k}", k, p.tiered[k], tiered.args, tiered.reset,
                lambda out, c=tiered: K.check_case(c, out), SMALL_BURST)
            self.warm["batch"][k] = Probe(
                f"batch.{k}", k, p.plain[k].call_batch, (batch.entries,),
                batch.reset, batch.check, LONG_BURST)
            self.warm["large"][k] = Probe(
                f"large.{k}", k, p.plain[k], large.args, large.reset,
                lambda out, c=large: K.check_case(c, out),
                SMALL_BURST if k != "mmm" else LONG_BURST)
            self.simp[k] = Probe(
                f"sim.{k}", k, p.sim[k], simcase.args, simcase.reset,
                lambda out, c=simcase: K.check_case(c, out), LONG_BURST)
        self.scalar_batch = K.make_scalar_batch(rng)
        sb = self.scalar_batch
        self.sim_batch = Probe("sim_batch.scalar", "scalar",
                               p.scalar.call_batch, (sb.entries,), sb.reset,
                               sb.check, LONG_BURST)
        # round-robin order: each kind of call next to every other kind
        self.warm_order = [self.warm[key][k] for k in K.KERNELS
                           for key in ("call", "tiered", "batch", "large")]
        self.sim_order = [self.simp[k] for k in K.KERNELS] + [self.sim_batch]

    # -- the paths agree: before and after the timed loop --------------------

    def check_paths(self) -> None:
        """Native, tiered, batched and simulated results must be
        bit-identical on the same seeded inputs, and match NumPy."""
        p, log = self.p, self.log
        for k in K.KERNELS:
            for case, label in ((self.small[k], "small"),
                                (self.simcases[k], "sim-size")):
                problem = self._agree(k, case, label)
                log.record(problem)
            batch = self.batches[k]
            try:
                batch.reset()
                got = p.plain[k].call_batch(batch.entries)
                problem = batch.check(got)
                if problem is None:
                    outs = [c.output(r) for c, r in zip(batch.cases, got)]
                    snap = [np.copy(o) if isinstance(o, np.ndarray) else o
                            for o in outs]
                    batch.reset()
                    per_call = [c.output(p.plain[k](*c.args))
                                for c in batch.cases]
                    if not all(K.same_bits(x, y)
                               for x, y in zip(snap, per_call)):
                        problem = "call_batch differs from per-call results"
            except Exception as exc:  # noqa: BLE001
                problem = f"{type(exc).__name__}: {exc}"
            log.record(None if problem is None else f"batch.{k}: {problem}")
        sb = self.scalar_batch
        try:
            sb.reset()
            problem = sb.check(p.scalar.call_batch(sb.entries))
            if problem is None:
                swept = [args[0].copy() for args in sb.entries]
                sb.reset()
                for args in sb.entries:
                    p.scalar(*args)
                if not all(K.same_bits(x, args[0])
                           for x, args in zip(swept, sb.entries)):
                    problem = "batch sweep differs from per-call runs"
        except Exception as exc:  # noqa: BLE001
            problem = f"{type(exc).__name__}: {exc}"
        log.record(None if problem is None else f"sim_batch: {problem}")

    def _agree(self, k: str, case, label: str) -> str | None:
        p = self.p
        try:
            outs = {}
            for name, kern in (("native", p.plain[k]),
                               ("tiered", p.tiered[k]),
                               ("simulated", p.sim[k])):
                case.reset()
                ret = kern(*case.args)
                problem = K.check_case(case, ret)
                if problem:
                    return f"{name} {label}: {problem}"
                out = case.output(ret)
                outs[name] = np.copy(out) \
                    if isinstance(out, np.ndarray) else out
            if not (K.same_bits(outs["native"], outs["simulated"])
                    and K.same_bits(outs["native"], outs["tiered"])):
                return f"{k} {label}: native and simulator differ"
        except Exception as exc:  # noqa: BLE001
            return f"{k} {label}: {type(exc).__name__}: {exc}"
        return None

    # -- the three phases ------------------------------------------------

    def warm_round(self, r: int) -> None:
        self.log.host_round()
        for probe in rotated(self.warm_order, r):
            probe.run(self.log)
        if self.traced:
            self._layer_round()

    def sim_round(self, r: int) -> None:
        self.log.host_round()
        for probe in rotated(self.sim_order, r):
            probe.run(self.log)
        if self.traced:
            self._sim_layer_round()

    def cold_steps(self):
        """The cold rounds one step at a time, so that the run interleaves
        them with warm and sim rounds from start to end.  A round builds
        all three kernels from an empty disk cache, reloads each from it
        ``RELOADS`` times, each time in a fresh process, and takes each
        ``ASYNC_REPS`` times through an async compile to its first
        result.  Every build and async compile starts with the in-memory
        cache and session state cleared.  Yields after each step:
        ``True`` when it ended a round."""
        r = 0
        while True:
            # the traced run alternates plain, traced and REPRO_OBS=0 rounds
            tag = ("plain", "traced", "obs_off")[r % 3] if self.traced \
                else "plain"
            round_dir = self.workdir / f"cold-{r}"
            env = {"REPRO_CACHE_DIR": str(round_dir / "cache")}
            if tag == "obs_off":
                env["REPRO_OBS"] = "0"
            steps = [(True, self._build, k) for k in K.KERNELS]
            steps += [(False, self._reload, k) for _ in range(RELOADS)
                      for k in K.KERNELS]
            steps += [(True, self._first_result, k)
                      for _ in range(ASYNC_REPS) for k in K.KERNELS]
            try:
                for i, (fresh, step, k) in enumerate(steps):
                    self.log.host_round()
                    with self._cold_env(env, fresh, tag == "traced"):
                        step(k, tag)
                    yield i == len(steps) - 1
            finally:
                shutil.rmtree(round_dir, ignore_errors=True)
            r += 1

    @contextlib.contextmanager
    def _cold_env(self, env: dict, fresh: bool, traced: bool):
        """``env`` set (and the spans recorded) for one cold step only."""
        from repro.core.cache import default_cache
        from repro.core.resilience import clear_session_state

        saved = {key: os.environ.get(key)
                 for key in ("REPRO_CACHE_DIR", "REPRO_OBS")}
        os.environ.update(env)
        if fresh:
            default_cache.clear()
            clear_session_state()
        if traced:
            self.recorder.install()
        try:
            yield
        finally:
            if traced:
                self.recorder.uninstall()
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value

    def _root(self, tag: str, name: str, kernel: str):
        if tag == "traced":
            return self.recorder.span(name, kernel=kernel)
        return contextlib.nullcontext()

    def _cold_series(self, key: str, k: str, tag: str) -> Series:
        return self.cold[key][k].setdefault(tag, Series())

    def _build(self, k: str, tag: str) -> None:
        spec, case, log = self.p.specs[k], self.cold_cases[k], self.log
        case.reset()
        try:
            with self._root(tag, "op.build", k):
                t0 = time.perf_counter_ns()
                kern = self.p.compile_staged(spec.fn, spec.arg_types,
                                             name=spec.staged_name)
                out = kern(*case.args)
                t1 = time.perf_counter_ns()
            problem = native_problem(kern, "compiled") or \
                K.check_case(case, out)
        except Exception as exc:  # noqa: BLE001
            problem = f"{type(exc).__name__}: {exc}"
        if log.record(None if problem is None else f"build.{k}: {problem}"):
            self._cold_series("build", k, tag).add(t1 - t0)

    def _reload(self, k: str, tag: str) -> None:
        try:
            r = self.reloads.reload(k, os.environ["REPRO_CACHE_DIR"],
                                    tag == "obs_off", tag == "traced")
        except (OSError, ValueError) as exc:
            r = {"ns": 0, "problem": f"reload server: {exc}"}
        if self.log.record(None if r["problem"] is None
                           else f"reload.{k}: {r['problem']}"):
            self._cold_series("reload", k, tag).add(r["ns"])
        if tag == "traced":
            from repro.obs.core import Span
            self.recorder.spans.extend(
                Span.from_dict(d) for d in r.get("spans", ()))

    def _first_result(self, k: str, tag: str) -> None:
        spec, case, log = self.p.specs[k], self.cold_cases[k], self.log
        case.reset()
        try:
            with self._root(tag, "op.first_result", k):
                t0 = time.perf_counter_ns()
                kern = self.p.compile_staged(spec.fn, spec.arg_types,
                                             name=spec.staged_name,
                                             tier="async")
                out = kern(*case.args)
                t1 = time.perf_counter_ns()
            kern.wait_native(180)   # one compile at a time: settle it
            t2 = time.perf_counter_ns()
            problem = K.check_case(case, out)
            if problem is None and kern.tier != "native":
                problem = "background compile did not swap: " \
                    f"{kern.fallback_reason}"
        except Exception as exc:  # noqa: BLE001
            problem = f"{type(exc).__name__}: {exc}"
        if log.record(None if problem is None
                      else f"first_result.{k}: {problem}"):
            self._cold_series("first_result", k, tag).add(t1 - t0)
            self.swap.add(t2 - t0)

    # -- the traced run's splits of µs-scale calls -----------------------

    def _block(self, key: str, fn, args, calls: int, reset=None) -> None:
        series = self.blocks.setdefault(key, Series())
        time_block(self.log, series, fn, args, calls, reset)

    def _layer_round(self) -> None:
        p = self.p
        if not hasattr(self, "_bare"):
            self._prepare_bare()
        for k in K.KERNELS:
            small, large, batch = self.small[k], self.large[k], \
                self.batches[k]
            native = p.plain[k]._native
            bare = native._fn
            n = BLOCK_CALLS
            self._block(f"floor.{k}", bare, self._bare[k]["small"], n,
                        small.reset)
            self._block(f"native.{k}", native, small.args, n, small.reset)
            self._block(f"compiled.{k}", p.plain[k], small.args, n,
                        small.reset)
            self._block(f"dispatch.{k}", p.tiered[k]._impl, small.args, n,
                        small.reset)
            self._block(f"tiered.{k}", p.tiered[k], small.args, n,
                        small.reset)
            os.environ["REPRO_OBS"] = "0"
            try:
                self._block(f"tiered_obs_off.{k}", p.tiered[k], small.args,
                            n, small.reset)
            finally:
                os.environ.pop("REPRO_OBS", None)
            batch_fn, batch_args = self._bare[k]["batch"]
            self._block(f"batch_bare.{k}", batch_fn, batch_args, 1,
                        batch.reset)
            self._block(f"batch_native.{k}", native.call_batch,
                        (batch.entries,), 1, batch.reset)
            self._block(f"batch_compiled.{k}", p.plain[k].call_batch,
                        (batch.entries,), 1, batch.reset)
            large.reset()
            bare(*self._bare[k]["large"])
            self._block(f"body.{k}", bare, self._bare[k]["large"], 1,
                        large.reset)

    def _prepare_bare(self) -> None:
        self._bare = {}
        for k in K.KERNELS:
            native = self.p.plain[k]._native
            batch_args, keep = pack_batch(native, self.batches[k].entries)
            self._bare[k] = {
                "small": preconverted(native, self.small[k].args),
                "large": preconverted(native, self.large[k].args),
                "batch": (native._batch_fn, batch_args),
                "keep": keep,
            }

    def _sim_layer_round(self) -> None:
        from repro.core.cache import program_cache
        from repro.lms.optimize import effective_level, optimize_staged
        from repro.lms.staging import stage_function
        from repro.simd.batch_exec import BatchFallback, sweep_batch
        from repro.simd.exec import compile_program
        from repro.simd.machine import SimdMachine

        p, layer = self.p, self.sim_layer
        turn = layer.setdefault("turn", 0)
        layer["turn"] = turn + 1
        for k in K.KERNELS:
            kern, case = p.sim[k], self.simcases[k]
            self._block(f"simd.run.{k}", kern._machine.run,
                        (kern.staged, case.args), 1, case.reset)
        machine = SimdMachine(executor="tree")
        for k in K.KERNELS:
            kern, case = p.sim[k], self.simcases[k]
            self._block(f"simd.tree.{k}", machine.run,
                        (kern.staged, case.args), 1, case.reset)
        for k in K.KERNELS:
            if f"steps.{k}" not in layer:
                kern, case = p.sim[k], self.simcases[k]
                machine = SimdMachine()
                case.reset()
                machine.run(kern.staged, case.args)
                layer[f"steps.{k}"] = sum(machine.op_counts.values())
        spec = p.specs[K.KERNELS[turn % len(K.KERNELS)]]
        staged, _ = optimize_staged(
            stage_function(spec.fn, spec.arg_types, spec.staged_name),
            effective_level())
        program_cache.clear()
        t0 = time.perf_counter_ns()
        compile_program(staged)
        self.blocks.setdefault("simd.compile", Series()).add(
            time.perf_counter_ns() - t0)
        sb, machine = self.scalar_batch, SimdMachine()
        sb.reset()
        t0 = time.perf_counter_ns()
        try:
            sweep_batch(machine, p.scalar.staged, sb.entries)
        except BatchFallback:
            layer["fallbacks"] = layer.get("fallbacks", 0) + 1
        self.blocks.setdefault("simd.sweep", Series()).add(
            (time.perf_counter_ns() - t0) / K.BATCH)
        layer["sweeps"] = layer.get("sweeps", 0) + 1

    # -- the run ---------------------------------------------------------

    def run(self) -> None:
        """Warm rounds, sim rounds and cold steps, each phase in
        proportion to its share of the time so far, until ``seconds``
        have passed and at least ``MIN_COLD_ROUNDS`` cold rounds (plus
        two in the traced run, for its traced and REPRO_OBS=0 rounds)
        have ended.  The warm and sim phases then run on, at most
        ``EXTEND_S``, until each of their probes (and in the traced run,
        blocks) has ``MIN_SELECTED`` fast-state samples, and in any case
        until each has had one round, so that a short run too reports
        every metric."""
        shares = SHARES[self.workload]
        min_cold = MIN_COLD_ROUNDS + (2 if self.traced else 0)
        cold = self.cold_steps()
        rounds = dict.fromkeys(shares, 0)
        spent = dict.fromkeys(shares, 0.0)
        cut = None
        start = time.perf_counter()
        try:
            while True:
                elapsed = time.perf_counter() - start
                if elapsed < self.seconds:
                    phase = max(shares, key=lambda ph:
                                shares[ph] * elapsed - spent[ph])
                elif self.cold_rounds < min_cold:
                    phase = "cold"
                else:
                    cut = cut or self._cut()
                    few = [ph for ph in ("warm", "sim") if not rounds[ph]]
                    if not few and elapsed < self.seconds + EXTEND_S:
                        few = self._few_fast(cut)
                    if not few:
                        break
                    phase = few[0]
                t0 = time.perf_counter()
                if phase == "cold":
                    self.cold_rounds += next(cold)
                elif phase == "warm":
                    self.warm_round(rounds["warm"])
                else:
                    self.sim_round(rounds["sim"])
                rounds[phase] += 1
                spent[phase] += time.perf_counter() - t0
        finally:
            cold.close()
        self.measured_s = time.perf_counter() - start
        self.spent = spent

    def _few_fast(self, cut: float) -> list[str]:
        """The warm and sim phases that have a probe, or in the traced run
        a block, with fewer than ``MIN_SELECTED`` fast-state samples so
        far."""
        series = {"warm": [p.series for p in self.warm_order],
                  "sim": [p.series for p in self.sim_order]}
        for key, s in self.blocks.items():
            series["sim" if key.startswith("simd.") else "warm"].append(s)
        return [phase for phase in ("warm", "sim")
                if any(s.fast(cut) < MIN_SELECTED
                       for s in series[phase])]

    # -- results ---------------------------------------------------------

    def _cut(self):
        return fast_cut(self.log.spins)

    def _series(self, key: str, k: str) -> Series:
        if key in COLD_KEYS:
            return self.cold[key][k].get("plain", Series())
        if key == "sim":
            return self.simp[k].series
        return self.warm[key][k].series

    def per_kernel(self) -> dict:
        """Each series metric per kernel, plus the sample counts.  A
        median is taken over the fast-state calls, the program's own cost;
        a tail over every call, slow state included, as a caller sees it
        (hundreds of calls, so at least ten beyond the percentile).  Cold
        ops are too long to classify by host state: all of them count."""
        cut = self._cut()
        rows, counts = {}, {}

        def sample(key: str, series: Series, q: float) -> np.ndarray:
            if key in COLD_KEYS or q != 50:
                return np.asarray(series.values, dtype=np.float64)
            return series.selected(cut)

        for metric, (key, q, scale) in SERIES_METRICS.items():
            for k in K.KERNELS:
                series = self._series(key, k)
                values = sample(key, series, q)
                if len(values):
                    rows[f"{metric}.{k}"] = percentile(values, q) * scale
                counts[f"{metric}.{k}"] = (len(values), len(series))
        for k in K.KERNELS:
            series = self.warm["large"][k].series
            flops = K.flops(k, K.LARGE[k])
            for metric, q in (("gflops.p50", 50), ("gflops.p10", 90)):
                values = sample("large", series, q)
                if len(values):
                    rows[f"{metric}.{k}"] = flops / percentile(values, q)
                counts[f"{metric}.{k}"] = (len(values), len(series))
        return {"rows": rows, "counts": counts}

    def end_to_end(self, per_kernel: dict) -> dict:
        rows = per_kernel["rows"]
        out = {}
        for metric in list(SERIES_METRICS) + ["gflops.p50", "gflops.p10"]:
            vals = [rows.get(f"{metric}.{k}") for k in K.KERNELS]
            if all(v is not None and v > 0 for v in vals):
                out[metric] = geomean(vals)
        sb = self.sim_batch.series
        values = sb.selected(self._cut())
        if len(values):
            out["sim_batch_call_us.p50"] = \
                percentile(values, 50) * 1e-3 / K.BATCH
        per_kernel["counts"]["sim_batch_call_us.p50"] = (len(values),
                                                         len(sb))
        out["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return out

    def host_metrics(self) -> dict:
        spins = np.asarray(self.log.spins, dtype=np.float64) / 1e3
        nps = np.asarray(self.log.np_samples, dtype=np.float64) / 1e3
        return {
            "host.spin_us.p10": percentile(spins, 10),
            "host.spin_us.p50": percentile(spins, 50),
            "host.spin_us.p90": percentile(spins, 90),
            "host.np_us.p50": percentile(nps, 50),
        }


def measure_main(args) -> int:
    program = Program()
    print("READY", flush=True)
    bench = Bench(program, args)
    try:
        bench.check_paths()
        bench.run()
        bench.check_paths()
    finally:
        bench.reloads.close()
    import report
    result = report.build(bench, args.spans)
    Path(args.result).write_text(json.dumps(result))
    return 0


def setup_main(args) -> int:
    Program()
    print("READY", flush=True)
    return 0


def reload_one(spec, case, traced: bool) -> dict:
    """Reload one kernel from the warm disk cache to its first result."""
    from repro.core import compile_staged

    recorder = None
    if traced:
        import spans
        recorder = spans.Recorder(id_base=os.getpid() << 24)
        recorder.install()
    case.reset()
    root = recorder.span("op.reload", kernel=spec.name) if recorder \
        else contextlib.nullcontext()
    t0 = t1 = 0
    try:
        with root:
            t0 = time.perf_counter_ns()
            kern = compile_staged(spec.fn, spec.arg_types,
                                  name=spec.staged_name)
            out = kern(*case.args)
            t1 = time.perf_counter_ns()
        problem = native_problem(kern, "disk") or K.check_case(case, out)
    except Exception as exc:  # noqa: BLE001
        problem = f"{type(exc).__name__}: {exc}"
    result = {"ns": t1 - t0, "problem": problem}
    if recorder is not None:
        recorder.uninstall()
        result["spans"] = [s.to_dict() for s in recorder.spans]
    return result


def reload_main(args) -> int:
    """The reload server: after its imports and ISA eDSL load, one JSON
    request per line on stdin, each answered with one JSON line by a
    fresh process forked for it.  This process runs nothing of the
    pipeline itself."""
    specs = K.paper_kernels()
    cases = cold_cases(args.seed)
    print("READY", flush=True)
    for line in sys.stdin:
        req = json.loads(line)
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            code = 1
            try:
                os.environ["REPRO_CACHE_DIR"] = req["cache_dir"]
                if req["obs_off"]:
                    os.environ["REPRO_OBS"] = "0"
                k = req["kernel"]
                payload = json.dumps(reload_one(specs[k], cases[k],
                                                req["traced"]))
                with os.fdopen(write_fd, "w") as pipe:
                    pipe.write(payload)
                code = 0
            finally:
                os._exit(code)
        os.close(write_fd)
        with os.fdopen(read_fd) as pipe:
            data = pipe.read()
        _, status = os.waitpid(pid, 0)
        result = json.loads(data) if status == 0 and data else \
            {"ns": 0, "problem": f"reload child exited with {status}"}
        print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "measure", "reload"),
                        required=True)
    parser.add_argument("--workload", choices=tuple(SHARES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir")
    parser.add_argument("--result")
    parser.add_argument("--spans")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        return setup_main(args)
    if args.mode == "reload":
        return reload_main(args)
    return measure_main(args)


if __name__ == "__main__":
    sys.exit(main())
