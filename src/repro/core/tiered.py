"""Tiered kernel execution: HotSpot's shape for native SIMD kernels.

The paper's managed-runtime baseline is HotSpot's tiered pipeline —
interpret immediately, JIT in the background, hot-swap when the
compiled method is ready.  This module gives the reproduction the same
shape: a :class:`KernelManager` serves every call instantly from the
bit-accurate simulator (tier 0, the closure-compiled executor of
DESIGN.md §9) while a bounded worker pool walks the full
emit→ladder→smoke→link path off-thread, then hot-swaps the kernel to
native (tier 1) atomically.

* **Atomic swap, lock-free read path.**  Calling a ``CompiledKernel``
  reads exactly one attribute (``_impl``) and calls it.  Promotion
  wires the kernel, then stores the glue's own ``call`` entry in
  ``_impl`` — one store, atomic under the GIL — so a concurrent caller
  sees either the old simulated dispatch or the native entry, never a
  torn kernel, and a tiered native call enters no Python frame.
* **Counts without a frame.**  :class:`TierCalls` reads a handle's
  native calls from its glue module, which counts them in C; only the
  simulated tier bumps a count in Python.
* **Quarantine-aware demotion.**  A background compile that exhausts
  the ladder, fails its forked smoke-run (quarantine) or cannot link
  never raises into callers: the kernel records the reason and keeps
  serving simulated results, exactly like the inline ``"auto"`` path,
  and leaves the in-memory kernel cache, so the same graph staged
  after a repair compiles.
* **Single-flight.**  Each managed kernel's compile is one pool
  future, and the kernel's build lock
  (:meth:`repro.core.cache.DiskKernelCache.build_lock`) dedups them:
  N handles warming the same kernel cost one ladder walk, and the
  others load the published artifact from disk, each into a module of
  its own that counts its own calls.  Every promotion is admitted and
  no admission state is kept: a broken toolchain costs each kernel its
  retries, the watchdog and the compile deadline
  (:data:`repro.core.resilience.COMPILE_DEADLINE_S`, 300 s) before it
  demotes, and the first kernel staged after a repair compiles.  At
  process exit queued compiles are cancelled and only the running ones
  are waited out, so a hung compiler holds exit for about one deadline
  (DESIGN.md §11).

A kernel is managed when it is staged with ``tier="async"``
(``compile_staged``'s argument; ``compile_many`` always passes it).
Environment: ``REPRO_COMPILE_WORKERS`` (default ``min(4, cpus)``).
The compiler ladder and the smoke-run already execute in subprocesses,
so worker *threads* get real parallelism — ``compile_many`` over N
independent kernels costs roughly one ladder-walk of wall clock, not N.
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from collections.abc import Iterator, Mapping
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import repro.obs as obs
from repro.codegen.compiler import CompileError
from repro.codegen.native import NativeLinkError
from repro.core import resilience
from repro.core.cache import default_cache, graph_hash
# bound by name, so a wrapper patched in here sees every background compile
from repro.core.resilience import KernelQuarantinedError, acquire_native

__all__ = [
    "KernelManager",
    "TierCalls",
    "TierEvent",
    "TIER_MODES",
    "compile_many",
    "compile_workers",
    "default_manager",
    "wait_all",
]

TIER_MODES = ("sync", "async")


def compile_workers() -> int:
    """Background compile pool width (``REPRO_COMPILE_WORKERS``,
    default ``min(4, cpus)``, at least 1); a malformed value warns and
    yields the default."""
    default = min(4, os.cpu_count() or 1)
    raw = os.environ.get("REPRO_COMPILE_WORKERS")
    if raw is None or not raw.strip():
        return default
    try:
        return max(1, int(raw))
    except ValueError:
        warnings.warn(
            f"ignoring malformed REPRO_COMPILE_WORKERS={raw!r}; "
            f"using default {default}", RuntimeWarning, stacklevel=2)
        return default


@dataclass
class TierEvent:
    """One step of a kernel's tier history (see
    ``CompiledKernel.explain``)."""

    action: str     # "start" | "enqueue" | "swap" | "demote" |
    #                 "cancel"
    tier: str       # the tier serving calls after this event
    at: float       # time.monotonic() when it happened
    detail: str = ""


class TierCalls(Mapping):
    """A kernel handle's calls per tier, ``{"simulated": n, "native":
    n}``, read live.

    ``counts`` holds the simulated count, which :class:`SimulatedDispatch`
    bumps with one dict increment per call.  The native count is the
    glue's own (``native``, the linked module's ``calls`` entry), bumped
    in C with the GIL held, so a native call runs no Python to be
    counted.  Nothing here refers to the kernel: the metrics registry
    holds this mapping (``obs.tally``) only until the kernel is
    collected, and reads it through ``items()`` and ``dict(...)``.
    """

    __slots__ = ("counts", "native")

    def __init__(self) -> None:
        self.counts = {"simulated": 0}
        self.native: Callable[[], int] | None = None

    def __getitem__(self, tier: str) -> int:
        if tier == "native":
            native = self.native
            return 0 if native is None else native()
        return self.counts[tier]

    def __iter__(self) -> Iterator[str]:
        return iter(("simulated", "native"))

    def __len__(self) -> int:
        return 2

    def __repr__(self) -> str:
        return repr(dict(self))


class SimulatedDispatch:
    """The call path of every simulated kernel.

    Counts tier-at-call (one int bump of its ``tier_calls``' simulated
    count, read as ``tiered.calls`` by the metrics registry once the
    kernel is managed) and runs the simulator.  The hot-swap of a
    managed kernel replaces this object with the glue's ``call`` entry,
    so no per-call branching on "am I native yet" is needed.
    """

    __slots__ = ("kernel", "counts")

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.counts = kernel.tier_calls.counts

    def __call__(self, *args: Any) -> Any:
        self.counts["simulated"] += 1
        kernel = self.kernel
        return kernel._machine.run(kernel.staged, args)

    def call_batch(self, args_seq: Sequence[Sequence[Any]]) -> list:
        """Batch entry point: every entry counts one call, then one
        whole-batch simulator run."""
        self.counts["simulated"] += len(args_seq)
        kernel = self.kernel
        return kernel._machine.run_batch(kernel.staged, args_seq)


class KernelManager:
    """Bounded background compilation with atomic hot-swap.

    One process-wide instance (:data:`default_manager`) owns a lazy
    :class:`ThreadPoolExecutor` of :func:`compile_workers` threads and
    the graph hashes of its pending compiles.  ``manage`` registers a
    fresh simulated kernel's call tally and submits its background
    compile, one pool future per kernel; the worker swaps or demotes
    the kernel when :func:`repro.core.resilience.acquire_native`
    settles.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None
        # graph hash of each pending compile, keyed by id(kernel): kernel
        # equality recurses into Exp.__eq__, which stages a comparison
        self._pending: dict[int, str] = {}
        self._abandoned: list[str] = []
        self._counts = {key: 0 for key in (
            "submitted", "swapped", "demoted", "cancelled")}
        # Threading exit hooks run last-registered first, so this drain
        # runs before the one ``concurrent.futures.thread`` registered
        # on import, which would run every queued compile out.
        threading._register_atexit(self.drain)

    # -- introspection -------------------------------------------------

    def stats(self) -> dict[str, int]:
        with self._lock:
            snapshot = dict(self._counts)
            snapshot["pending"] = len(self._pending)
        return snapshot

    def _update_gauge(self) -> None:
        obs.gauge("tiered.queue_depth", self.stats()["pending"])

    def _settled(self, kernel, count: str) -> None:
        """Retire ``kernel``'s pending compile, counting how it ended;
        :meth:`reset` names the cancelled ones."""
        with self._lock:
            key = self._pending.pop(id(kernel))
            self._counts[count] += 1
            if count == "cancelled":
                self._abandoned.append(key)
        self._update_gauge()

    # -- the management surface ----------------------------------------

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=compile_workers(),
                    thread_name_prefix="repro-tier")
            return self._pool

    def manage(self, kernel) -> None:
        """Submit a fresh simulated-tier kernel's background compile."""
        kernel._record_tier_event("start", "simulated")
        obs.counter("tiered.managed")
        obs.tally(kernel, "tiered.calls", "tier", kernel.tier_calls)
        kernel._record_tier_event("enqueue", "simulated")
        key = graph_hash(kernel.staged)
        with self._lock:
            self._pending[id(kernel)] = key
            self._counts["submitted"] += 1
        # submitted outside the lock: a drain cancels queued futures
        # under the pool's own lock, and their callbacks take this one
        try:
            future = kernel._tier_job = self._ensure_pool().submit(
                self._run_job, kernel)
        except RuntimeError:    # a drain shut the pool down meanwhile
            self._cancelled(kernel)
            return
        future.add_done_callback(
            lambda fut, k=kernel: self._future_done(k, fut))
        obs.counter("tiered.enqueued")
        self._update_gauge()

    # -- worker side ---------------------------------------------------

    def _run_job(self, kernel) -> str:
        staged = kernel.staged
        key = graph_hash(staged)
        start = time.perf_counter()
        native = report = None
        reason: str | None = None
        deadline = time.monotonic() + resilience.COMPILE_DEADLINE_S
        with obs.span("tiered.compile", kernel=staged.name,
                      graph_hash=key) as compile_span:
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
        obs.observe("tiered.compile.seconds",
                    time.perf_counter() - start)
        trace = obs.get_tracer().spans_for_trace(trace_id) \
            if trace_id is not None else []
        if native is not None:
            with obs.span("swap", kernel=staged.name, graph_hash=key):
                kernel._swap_to_native(native, report, trace=trace)
            self._settled(kernel, "swapped")
            obs.counter("tiered.swaps")
            return "native"
        with obs.span("demote", kernel=staged.name, graph_hash=key,
                      reason=reason):
            kernel._demote(reason, report, trace=trace)
        default_cache.discard(kernel)
        self._settled(kernel, "demoted")
        obs.counter("tiered.demotions")
        return f"demoted: {reason}"

    def _future_done(self, kernel, fut: Future) -> None:
        """Settle a kernel whose pool future was cancelled before it ran
        (``drain``); a future that ran was settled by its worker."""
        if fut.cancelled():
            self._cancelled(kernel)

    def _cancelled(self, kernel) -> None:
        """Settle a kernel whose compile a drain cancelled, queued on
        the pool or submitted to it as it shut down: the kernel keeps
        serving from the simulator and leaves the memory cache, so its
        graph staged again compiles."""
        kernel._record_tier_event(
            "cancel", "simulated", detail="background compile cancelled")
        default_cache.discard(kernel)
        self._settled(kernel, "cancelled")
        obs.counter("tiered.cancelled")

    # -- lifecycle -----------------------------------------------------

    def drain(self) -> None:
        """Cancel queued background compiles and wait out the running
        ones.  The pool is discarded; the next ``manage`` builds a
        fresh one (re-reading ``REPRO_COMPILE_WORKERS``)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def reset(self) -> None:
        """Drain pending work and zero the counters — the hermetic-test
        hook, also invoked by
        :func:`repro.core.resilience.clear_session_state`.

        Compiles abandoned by a drain since the last reset (their pool
        future was cancelled before running) are *logged*, not silently
        dropped: a ``tiered.abandoned`` counter and a
        :class:`RuntimeWarning` naming the graph hashes, so a suite that
        throws work away leaves a trace.
        """
        self.drain()
        with self._lock:
            abandoned, self._abandoned = sorted(self._abandoned), []
        if abandoned:
            obs.counter("tiered.abandoned", len(abandoned))
            warnings.warn(
                f"abandoned {len(abandoned)} pending background "
                f"compile(s) on reset: {', '.join(abandoned)}",
                RuntimeWarning, stacklevel=2)
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
    graph hashes in (or across) batches collapse to one compile on the
    kernel's build lock.  Use :func:`wait_all` (or
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
