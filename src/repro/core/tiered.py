"""Tiered kernel execution: HotSpot's shape for native SIMD kernels.

The paper's managed-runtime baseline is HotSpot's tiered pipeline —
interpret immediately, JIT in the background, hot-swap when the
compiled method is ready.  This module gives the reproduction the same
shape: a :class:`KernelManager` serves every call instantly from the
bit-accurate simulator (tier 0, the closure-compiled executor of
DESIGN.md §9) while a bounded worker pool walks the full
emit→ladder→smoke→link path off-thread, then hot-swaps the kernel to
native (tier 1) atomically.

* **Atomic swap, lock-free read path.**  ``CompiledKernel.__call__``
  reads exactly one attribute (``_impl``) and calls it.  Promotion
  publishes a fully wired :class:`NativeDispatch` with a single
  attribute store — atomic under the GIL — so a concurrent caller sees
  either the old simulated dispatch or the new native one, never a
  torn kernel.
* **Quarantine-aware demotion.**  A background compile that exhausts
  the ladder, fails its forked smoke-run (quarantine) or cannot link
  never raises into callers: the kernel records the reason and keeps
  serving simulated results, exactly like the inline ``"auto"`` path.
* **Single-flight.**  Jobs dedup by structural graph hash through
  :class:`repro.core.cache.InflightCompiles`; N threads warming the
  same kernel cost one ladder walk, and all their handles swap
  together.
* **Hotness gating.**  ``REPRO_TIER=hot`` mirrors HotSpot's invocation
  counters: compilation is enqueued only after ``REPRO_HOT_THRESHOLD``
  calls, so throwaway kernels never pay for a compile at all.

Environment: ``REPRO_TIER`` (``sync`` | ``async`` | ``hot``, default
``sync``), ``REPRO_COMPILE_WORKERS`` (default ``min(4, cpus)``) and
``REPRO_HOT_THRESHOLD`` (default 8).  The compiler ladder and the
smoke-run already execute in subprocesses, so worker *threads* get
real parallelism — ``compile_many`` over N independent kernels costs
roughly one ladder-walk of wall clock, not N.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import repro.obs as obs
from repro.codegen.compiler import CompileError
from repro.codegen.native import NativeKernel, NativeLinkError
from repro.core.cache import CompileJob, InflightCompiles, graph_hash
from repro.core.env import env_float, env_int
from repro.core.resilience import (
    KernelQuarantinedError,
    acquire_native,
    compile_deadline,
)

__all__ = [
    "CircuitBreaker",
    "KernelManager",
    "TierEvent",
    "TIER_MODES",
    "breaker_cooldown",
    "breaker_threshold",
    "compile_deadline",
    "compile_many",
    "compile_workers",
    "default_manager",
    "environment_failure",
    "hot_threshold",
    "queue_bound",
    "tier_mode",
    "wait_all",
]

TIER_MODES = ("sync", "async", "hot")


def tier_mode() -> str:
    """The tiering policy for ``backend="auto"`` kernels
    (``REPRO_TIER``): ``sync`` compiles inline (the pre-tiered
    behaviour), ``async`` enqueues native compilation immediately,
    ``hot`` enqueues it after :func:`hot_threshold` invocations."""
    raw = os.environ.get("REPRO_TIER")
    if raw is None or not raw.strip():
        return "sync"
    mode = raw.strip().lower()
    if mode not in TIER_MODES:
        warnings.warn(
            f"ignoring unknown REPRO_TIER={raw!r}; using 'sync'",
            RuntimeWarning, stacklevel=2)
        return "sync"
    return mode


def compile_workers() -> int:
    """Background compile pool width (``REPRO_COMPILE_WORKERS``,
    default ``min(4, cpus)``)."""
    return env_int("REPRO_COMPILE_WORKERS",
                   min(4, os.cpu_count() or 1), minimum=1)


def hot_threshold() -> int:
    """Invocations before a ``hot``-tier kernel enqueues native
    compilation (``REPRO_HOT_THRESHOLD``, default 8)."""
    return env_int("REPRO_HOT_THRESHOLD", 8, minimum=1)


def breaker_threshold() -> int:
    """Consecutive environment-level compile failures before the
    circuit breaker opens (``REPRO_BREAKER_THRESHOLD``, default 3)."""
    return env_int("REPRO_BREAKER_THRESHOLD", 3, minimum=1)


def breaker_cooldown() -> float:
    """Seconds an open breaker waits before admitting one half-open
    probe compile (``REPRO_BREAKER_COOLDOWN``, default 30)."""
    return env_float("REPRO_BREAKER_COOLDOWN", 30.0, minimum=0.0)


def queue_bound() -> int:
    """Background compile admission bound (``REPRO_QUEUE_BOUND``,
    default 64): promotions past this many in-flight jobs are shed to
    the simulator instead of growing the queue unboundedly."""
    return env_int("REPRO_QUEUE_BOUND", 64, minimum=1)


_BREAKER_STATE_CODES = {"closed": 0, "half-open": 1, "open": 2}

# reason substrings that implicate the toolchain/host rather than one
# kernel's code (see CircuitBreaker and environment_failure)
_ENV_FAILURE_MARKERS = (
    "no c compiler",
    "could not be invoked",
    "deadline",
    "watchdog",
    "timed out",
)


def environment_failure(reason: str | None, report=None) -> bool:
    """Whether a failed compile implicates the environment (feeds the
    breaker) rather than the kernel's own code.

    Environment-level: every recorded ladder attempt transient
    (timeouts, watchdog kills, failed execs), or a reason carrying one
    of the toolchain-failure markers.  Kernel-level: permanent
    diagnostics, quarantines, link failures of a built artifact.
    """
    text = (reason or "").lower()
    if any(marker in text for marker in _ENV_FAILURE_MARKERS):
        return True
    attempts = getattr(report, "attempts", None) or []
    return bool(attempts) and all(
        a.outcome == "transient" for a in attempts)


class CircuitBreaker:
    """Admission control for background compiles when the *environment*
    is broken.

    A kernel whose own code fails to compile is that kernel's problem —
    it gets demoted and the pipeline moves on.  But when the toolchain
    itself is gone (compiler uninstalled, every rung hitting the
    watchdog, deadlines expiring), each doomed compile still burns a
    worker slot for its full timeout.  After ``REPRO_BREAKER_THRESHOLD``
    *consecutive* environment-level failures the breaker **opens**:
    ``auto`` kernels are shed straight to the simulator with zero
    compiles enqueued.  After ``REPRO_BREAKER_COOLDOWN`` seconds the
    breaker goes **half-open** and admits exactly one probe compile;
    its success closes the breaker, its failure re-opens it for another
    cooldown.  A *kernel-specific* failure (quarantine, diagnostics)
    counts as proof the toolchain works and resets the streak.

    State is exported as the ``tiered.breaker_state`` gauge
    (closed=0, half-open=1, open=2); transitions into open bump
    ``tiered.breaker_opens``.  ``clock`` is injectable for tests.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic
                 ) -> None:
        self._lock = threading.Lock()
        self._clock = clock
        self.state = "closed"
        self.failure_streak = 0
        self.opened_at = 0.0
        self._probe_inflight = False
        self.opens = 0

    def _gauge(self) -> None:
        obs.gauge("tiered.breaker_state",
                  _BREAKER_STATE_CODES[self.state])

    def _open(self) -> None:
        self.state = "open"
        self.opened_at = self._clock()
        self._probe_inflight = False
        self.opens += 1
        obs.counter("tiered.breaker_opens")
        obs.event("breaker", state="open",
                  failure_streak=self.failure_streak)
        self._gauge()

    def allow(self) -> tuple[bool, bool]:
        """Whether a new compile may be enqueued: ``(admit, is_probe)``.

        Closed admits everything; open admits nothing until the
        cooldown elapses, then (half-open) exactly one probe at a time.
        """
        with self._lock:
            if self.state == "closed":
                return True, False
            if self.state == "open":
                if self._clock() - self.opened_at < breaker_cooldown():
                    return False, False
                self.state = "half-open"
                self._gauge()
            # half-open: one probe in flight at a time
            if self._probe_inflight:
                return False, False
            self._probe_inflight = True
            return True, True

    def record_success(self, probe: bool = False) -> None:
        """A compile produced a linked native kernel."""
        with self._lock:
            if probe:
                self._probe_inflight = False
            self.failure_streak = 0
            if self.state != "closed":
                self.state = "closed"
                obs.event("breaker", state="closed")
                self._gauge()

    def record_env_failure(self, probe: bool = False) -> None:
        """A compile failed for environment-level reasons."""
        with self._lock:
            if probe:
                self._probe_inflight = False
            self.failure_streak += 1
            if self.state == "half-open" or (
                    self.state == "closed"
                    and self.failure_streak >= breaker_threshold()):
                self._open()

    def record_other(self, probe: bool = False) -> None:
        """A compile failed, but in a way that proves the toolchain
        works (quarantine, kernel-specific diagnostics)."""
        with self._lock:
            if probe:
                self._probe_inflight = False
            self.failure_streak = 0
            if self.state == "half-open":
                self.state = "closed"
                obs.event("breaker", state="closed")
                self._gauge()

    def record_aborted(self, probe: bool = False) -> None:
        """A compile was cancelled before running (drain).  An aborted
        probe returns the breaker to open *without* restarting the
        cooldown, so the next promotion can probe immediately."""
        with self._lock:
            if probe and self.state == "half-open":
                self._probe_inflight = False
                self.state = "open"
                self._gauge()

    def reset(self) -> None:
        with self._lock:
            self.state = "closed"
            self.failure_streak = 0
            self._probe_inflight = False
            self._gauge()


@dataclass
class TierEvent:
    """One step of a kernel's tier history (see
    ``CompiledKernel.explain``)."""

    action: str     # "start" | "enqueue" | "swap" | "demote" |
    #                 "cancel" | "shed"
    tier: str       # the tier serving calls after this event
    at: float       # time.monotonic() when it happened
    detail: str = ""


class SimulatedDispatch:
    """The simulated-tier call path of a managed kernel.

    Counts tier-at-call (one int bump of the kernel's ``tier_calls``,
    read as ``tiered.calls`` by the metrics registry), ticks the
    hotness gate, and runs the simulator.  The hot-swap replaces this
    object wholesale, so no per-call branching on "am I native yet" is
    needed.

    The gate is race-safe without a fast-path lock: ``countdown``
    holds the armed threshold (``None`` disarms it) and never changes
    per call; ``itertools.count`` hands each tick to exactly one
    caller (its ``__next__`` is atomic under the GIL), so exactly one
    thread observes the threshold tick and fires :meth:`promote` —
    concurrent callers can neither lose ticks nor double-fire.
    """

    __slots__ = ("kernel", "manager", "countdown", "_ticks")

    def __init__(self, kernel, manager: "KernelManager",
                 countdown: int | None = None) -> None:
        self.kernel = kernel
        self.manager = manager
        self.countdown = countdown   # None: no hotness gate pending
        self._ticks = itertools.count(1)

    def __call__(self, *args: Any) -> Any:
        kernel = self.kernel
        kernel.tier_calls["simulated"] += 1
        threshold = self.countdown
        if threshold is not None and \
                next(self._ticks) == (threshold if threshold > 0 else 1):
            self.countdown = None
            self.manager.promote(kernel)
        return kernel._machine.run(kernel.staged, args)

    def call_batch(self, args_seq: Sequence[Sequence[Any]]) -> list:
        """Batch entry point: every entry counts one invocation (the
        hotness gate sees batch traffic), then one whole-batch
        simulator run."""
        kernel = self.kernel
        n = len(args_seq)
        kernel.tier_calls["simulated"] += n
        threshold = self.countdown
        if threshold is not None:
            arm = threshold if threshold > 0 else 1
            ticks = self._ticks
            for _ in range(n):
                if next(ticks) == arm:
                    self.countdown = None
                    self.manager.promote(kernel)
                    break
        return kernel._machine.run_batch(kernel.staged, args_seq)


class NativeDispatch:
    """The native-tier call path: one int bump of the kernel's
    ``tier_calls`` (read as ``tiered.calls`` by the metrics registry),
    then the :class:`NativeKernel`'s generated binding."""

    __slots__ = ("kernel", "native")

    def __init__(self, kernel, native: NativeKernel) -> None:
        self.kernel = kernel
        self.native = native

    def __call__(self, *args: Any) -> Any:
        self.kernel.tier_calls["native"] += 1
        return self.native(*args)

    def call_batch(self, args_seq: Sequence[Sequence[Any]]) -> list:
        """Batch entry point: one packed native call for the whole
        slice (zero-copy arrays, one scalar pack — see
        :meth:`NativeKernel.call_batch`)."""
        n = len(args_seq)
        self.kernel.tier_calls["native"] += n
        return self.native.call_batch(args_seq)


class KernelManager:
    """Bounded background compilation with atomic hot-swap.

    One process-wide instance (:data:`default_manager`) owns a lazy
    :class:`ThreadPoolExecutor` of :func:`compile_workers` threads and
    the single-flight job table.  ``manage`` installs the tiered call
    path on a fresh simulated kernel; ``promote`` enqueues (or joins)
    its background compile; the worker swaps or demotes every handle
    attached to the job when :func:`repro.core.resilience.acquire_native`
    settles.
    """

    def __init__(self, workers: int | None = None) -> None:
        self._lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None
        self._workers = workers
        self._inflight = InflightCompiles()
        self.breaker = CircuitBreaker()
        self._counts = {key: 0 for key in (
            "submitted", "attached", "swapped", "demoted", "cancelled",
            "shed")}

    # -- introspection -------------------------------------------------

    @property
    def pending(self) -> int:
        """In-flight background compiles (the queue-depth gauge)."""
        return self._inflight.pending()

    def stats(self) -> dict[str, int]:
        with self._lock:
            snapshot = dict(self._counts)
        snapshot["pending"] = self._inflight.pending()
        return snapshot

    def _bump(self, key: str) -> None:
        with self._lock:
            self._counts[key] += 1

    def _update_gauge(self) -> None:
        obs.gauge("tiered.queue_depth", self._inflight.pending())

    # -- the management surface ----------------------------------------

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._workers or compile_workers(),
                    thread_name_prefix="repro-tier")
            return self._pool

    def manage(self, kernel, mode: str) -> None:
        """Install the tiered call path on a fresh simulated-tier
        kernel.  ``async`` promotes immediately; ``hot`` arms the
        invocation countdown."""
        kernel._record_tier_event("start", "simulated",
                                  detail=f"mode={mode}")
        countdown = None if mode == "async" else hot_threshold()
        kernel._impl = SimulatedDispatch(kernel, self, countdown)
        obs.counter("tiered.managed", mode=mode)
        obs.tally(kernel, "tiered.calls", "tier", kernel.tier_calls)
        if mode == "async":
            self.promote(kernel)

    def _shed(self, kernel, reason: str) -> None:
        """Refuse a promotion: the kernel stays (permanently, unless
        re-managed) on the simulated tier with ``reason`` recorded."""
        kernel._record_tier_event("shed", "simulated", detail=reason)
        kernel._demote(reason)
        self._bump("shed")
        obs.counter("tiered.shed")
        obs.event("shed", kernel=kernel.staged.name, reason=reason)

    def promote(self, kernel) -> CompileJob | None:
        """Enqueue background native compilation for ``kernel``
        (single-flight by graph hash); returns the in-flight job.

        Admission control: returns ``None`` — and demotes the kernel to
        simulated-with-reason — when the circuit breaker refuses new
        compiles or the background queue is at ``REPRO_QUEUE_BOUND``.
        Joining an *existing* in-flight job is always admitted (it
        costs nothing).
        """
        existing = kernel._tier_job
        if existing is not None:
            return existing
        ghash = graph_hash(kernel.staged)
        if not self._inflight.has(ghash):
            admit, is_probe = self.breaker.allow()
            if not admit:
                self._shed(kernel, "circuit breaker open: compile "
                           "environment is failing")
                return None
            if not is_probe and \
                    self._inflight.pending() >= queue_bound():
                # probes bypass the bound: they are the recovery path
                self._shed(kernel, f"compile queue at bound "
                           f"({queue_bound()})")
                return None
        else:
            is_probe = False
        job, owner = self._inflight.join_or_open(ghash, kernel)
        kernel._tier_job = job
        kernel._record_tier_event(
            "enqueue", "simulated",
            detail="owner" if owner else "joined in-flight compile")
        if owner:
            job.is_probe = is_probe
            self._bump("submitted")
            job.future = self._ensure_pool().submit(self._run_job, job)
            job.future.add_done_callback(
                lambda fut, j=job: self._future_done(j, fut))
        else:
            if is_probe:
                # lost the has()/join race; someone else owns the job
                self.breaker.record_aborted(probe=True)
            self._bump("attached")
        obs.counter("tiered.enqueued",
                    mode="owner" if owner else "attached")
        self._update_gauge()
        return job

    # -- worker side ---------------------------------------------------

    def _run_job(self, job: CompileJob) -> str:
        staged = job.kernels[0].staged
        start = time.perf_counter()
        native = report = None
        reason: str | None = None
        budget = compile_deadline()
        deadline = None if budget is None else time.monotonic() + budget
        with obs.span("tiered.compile", kernel=staged.name,
                      graph_hash=job.key) as compile_span:
            trace_id = obs.get_tracer().current_trace_id()
            try:
                native, report = acquire_native(staged, deadline=deadline)
            except KernelQuarantinedError as exc:
                reason = f"quarantined: {exc.reason}"
                report = exc.report
            except (NativeLinkError, CompileError) as exc:
                reason = str(exc)
                report = getattr(exc, "report", None)
            except Exception as exc:  # noqa: BLE001 - never unwind the pool
                reason = f"{type(exc).__name__}: {exc}"
            compile_span.set(
                "outcome", "native" if native is not None else "demoted")
        if native is not None:
            self.breaker.record_success(probe=job.is_probe)
        elif environment_failure(reason, report):
            self.breaker.record_env_failure(probe=job.is_probe)
        else:
            self.breaker.record_other(probe=job.is_probe)
        obs.observe("tiered.compile.seconds",
                    time.perf_counter() - start)
        trace = obs.get_tracer().spans_for_trace(trace_id) \
            if trace_id is not None else []
        kernels = self._inflight.settle(job.key)
        for kernel in kernels:
            if native is not None:
                with obs.span("swap", kernel=staged.name,
                              graph_hash=job.key):
                    kernel._swap_to_native(native, report, trace=trace)
                self._bump("swapped")
                obs.counter("tiered.swaps")
            else:
                with obs.span("demote", kernel=staged.name,
                              graph_hash=job.key, reason=reason):
                    kernel._demote(reason, report, trace=trace)
                self._bump("demoted")
                obs.counter("tiered.demotions")
        job.finish("native" if native is not None
                   else f"demoted: {reason}")
        self._update_gauge()
        return job.outcome or ""

    def _future_done(self, job: CompileJob, fut) -> None:
        """Settle jobs whose pool future was cancelled before it ran
        (``drain``); completed futures were settled by the worker."""
        if not fut.cancelled():
            return
        self.breaker.record_aborted(probe=job.is_probe)
        for kernel in self._inflight.settle(job.key):
            kernel._record_tier_event(
                "cancel", "simulated",
                detail="background compile cancelled")
            self._bump("cancelled")
            obs.counter("tiered.cancelled")
        job.finish("cancelled")
        self._update_gauge()

    # -- lifecycle -----------------------------------------------------

    def drain(self, cancel: bool = True) -> None:
        """Cancel queued background compiles and wait out the running
        ones.  The pool is discarded; the next ``promote`` builds a
        fresh one (re-reading ``REPRO_COMPILE_WORKERS``)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=cancel)

    def reset(self) -> None:
        """Drain pending work and zero the counters — the hermetic-test
        hook, also invoked by
        :func:`repro.core.resilience.clear_session_state`.

        Compiles abandoned by the drain (their pool future was
        cancelled before running) are *logged*, not silently dropped:
        a ``tiered.abandoned`` counter and a :class:`RuntimeWarning`
        naming the graph hashes, so a suite that throws work away
        leaves a trace.
        """
        snapshot = self._inflight.jobs()
        self.drain(cancel=True)
        abandoned = [job.key for job in snapshot
                     if job.outcome == "cancelled"]
        if abandoned:
            obs.counter("tiered.abandoned", len(abandoned))
            warnings.warn(
                f"abandoned {len(abandoned)} pending background "
                f"compile(s) on reset: {', '.join(sorted(abandoned))}",
                RuntimeWarning, stacklevel=2)
        self.breaker.reset()
        with self._lock:
            for key in self._counts:
                self._counts[key] = 0
        self._update_gauge()


default_manager = KernelManager()


# ---------------------------------------------------------------------------
# Batch compilation: warming a fleet of kernels in one ladder-walk.

def compile_many(fns: Sequence[Callable[..., object]],
                 arg_types_list: Sequence[Sequence],
                 names: Sequence[str | None] | None = None,
                 backend: str | None = None,
                 use_cache: bool = True) -> list:
    """Stage a fleet of kernels and fan their native compiles across
    the background pool.

    Returns :class:`~repro.core.pipeline.CompiledKernel` handles
    *immediately*: each serves from the simulated tier and hot-swaps
    to native as its compile lands, so warming N independent kernels
    (a benchmark suite, the variable-precision dot family) costs
    roughly one ladder-walk of wall clock instead of N.  With a warm
    disk cache the batch is a pure prewarm — workers probe the cache,
    smoke-test and link without ever invoking a compiler.  Duplicate
    graph hashes in (or across) batches collapse to one compile via
    the single-flight table.  Use :func:`wait_all` (or
    ``kernel.wait_native()``) to block until the swaps settle.
    """
    from repro.core.pipeline import compile_staged

    if names is None:
        names = [None] * len(fns)
    if not (len(fns) == len(arg_types_list) == len(names)):
        raise ValueError(
            "fns, arg_types_list and names must have equal lengths")
    return [compile_staged(fn, arg_types, name=name, backend=backend,
                           use_cache=use_cache, tier="async")
            for fn, arg_types, name in zip(fns, arg_types_list, names)]


def wait_all(kernels: Sequence, timeout: float | None = None) -> list:
    """Block until every kernel's background promotion settles (either
    tier); returns the kernels.  ``timeout`` bounds the whole batch."""
    deadline = None if timeout is None else time.monotonic() + timeout
    for kernel in kernels:
        remaining = None if deadline is None \
            else max(0.0, deadline - time.monotonic())
        kernel.wait_native(remaining)
    return list(kernels)
