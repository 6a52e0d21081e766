"""The compile pipeline: stage, generate, compile, link, price.

``compile_staged`` is the functional entry point; ``compile_kernel``
plus ``native_placeholder`` mirror the paper's class-based workflow
(Figure 4's ``NSaxpy``), including the automatic placeholder binding the
paper implements with Scala macros and JVM reflection.
"""

from __future__ import annotations

import enum
import operator
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

import repro.obs as obs
from repro.codegen.cgen import emit_c_source
from repro.codegen.compiler import CompileError
from repro.codegen.native import NativeKernel, NativeLinkError
from repro.core.batch import execute_batch
from repro.core.cache import default_cache
from repro.core.resilience import (
    CompileReport,
    KernelQuarantinedError,
    acquire_native,
)
from repro.core.tiered import (
    TIER_MODES,
    SimulatedDispatch,
    TierCalls,
    TierEvent,
    default_manager,
    tier_mode,
)
from repro.lms.optimize import optimize_staged
from repro.lms.staging import StagedFunction, stage_function
from repro.lms.types import Type
from repro.simd.machine import SimdMachine
from repro.timing.kernelmodel import MachineKernel
from repro.timing.model import CostModel, KernelCost
from repro.timing.staged_lower import lower_staged, param_env


class BackendKind(enum.Enum):
    NATIVE = "native"  # real C -> gcc/clang -> generated CPython extension
    SIMULATED = "simulated"  # the bit-accurate SIMD machine


class UnsatisfiedLinkError(RuntimeError):
    """A ``@native`` placeholder was invoked before ``compile_kernel``."""


@dataclass
class CompiledKernel:
    """A staged kernel, linked and priceable.

    Calling the kernel calls whatever ``_impl`` holds — the one
    attribute the read path touches, so the tiered hot-swap (see
    :mod:`repro.core.tiered`) is a single atomic store and the call
    path needs no lock.  A native kernel's ``_impl``, sync or tiered
    after its swap, is its glue's ``call`` entry, so its call runs no
    Python frame, and its ``call_batch`` hands the whole batch to the
    glue's ``call_batch``.  A simulated kernel's ``_impl`` is a
    :class:`~repro.core.tiered.SimulatedDispatch`.  ``tier_calls``
    counts the calls each tier served, the native ones read from the
    glue.  ``cost`` prices the kernel on the Haswell model (in cycles)
    for given parameter values and stream footprints.
    """

    staged: StagedFunction
    backend: BackendKind
    c_source: str
    machine_kernel: MachineKernel = field(repr=False)
    _native: NativeKernel | None = field(default=None, repr=False)
    _machine: SimdMachine = field(default_factory=SimdMachine, repr=False)
    fallback_reason: str | None = None
    cost_model: CostModel = field(default_factory=CostModel, repr=False)
    report: CompileReport | None = field(default=None, repr=False)
    trace: list = field(default_factory=list, repr=False)
    tier_events: list = field(default_factory=list, repr=False)
    tier_calls: TierCalls = field(default_factory=TierCalls, repr=False)
    _impl: Any = field(default=None, repr=False, compare=False)
    _tier_job: Any = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self._impl is None:
            if self.backend == BackendKind.NATIVE and \
                    self._native is not None:
                self.tier_calls.native = self._native.calls
                self._impl = self._native._call
            else:
                self._impl = SimulatedDispatch(self)

    @property
    def name(self) -> str:
        return self.staged.name

    # ``kernel(*args)`` is ``kernel._impl(*args)``, with no frame between
    __call__ = property(operator.attrgetter("_impl"))

    def call_batch(self, args_seq: Sequence[Sequence[Any]]) -> list:
        """Execute many argument sets (the explicit batch API).

        On the native tier the sequence goes straight to the glue's
        ``call_batch``: one crossing, and all-or-nothing, since the
        glue marshals every entry before it runs any.  Otherwise
        :func:`repro.core.batch.execute_batch` runs it in chunks, so a
        hot swap can land between them.  Results, array mutations and
        simulator op accounting are bit-identical to calling the kernel
        once per entry."""
        native = self._native
        if native is not None and self._impl is native._call:
            return native._call_batch(args_seq)
        return execute_batch(self, args_seq)

    # -- tiered execution (see repro.core.tiered) ----------------------

    @property
    def tier(self) -> str:
        """The tier currently serving calls: ``native`` or
        ``simulated``."""
        return "native" if (self.backend == BackendKind.NATIVE
                            and self._native is not None) \
            else "simulated"

    def _record_tier_event(self, action: str, tier: str,
                           detail: str = "") -> None:
        self.tier_events.append(
            TierEvent(action, tier, time.monotonic(), detail))

    def _swap_to_native(self, native: NativeKernel,
                        report: CompileReport | None = None,
                        trace: list | None = None) -> None:
        """Atomic hot-swap to the native tier (runs on a manager worker
        thread).  All bookkeeping lands *before* the final ``_impl``
        store — the only attribute the call path reads — so a racing
        caller observes either the old simulated dispatch or the glue's
        ``call`` entry of a fully wired kernel, never a torn one.
        """
        self._native = native
        self.tier_calls.native = native.calls
        if report is not None:
            self.report = report
        self.fallback_reason = None
        if native.c_source:
            self.c_source = native.c_source
        if trace:
            self.trace = list(self.trace) + list(trace)
        self.backend = BackendKind.NATIVE
        self._record_tier_event(
            "swap", "native",
            detail=(report.cache_source or "")
            if report is not None else "")
        self._impl = native._call

    def _demote(self, reason: str | None,
                report: CompileReport | None = None,
                trace: list | None = None) -> None:
        """A managed kernel stays on the simulated tier — quarantine,
        ladder exhaustion and link failures demote instead of raising
        into callers (the manager also drops it from the in-memory
        kernel cache)."""
        self.fallback_reason = reason
        if report is not None:
            self.report = report
        if trace:
            self.trace = list(self.trace) + list(trace)
        self.backend = BackendKind.SIMULATED
        self._record_tier_event("demote", "simulated",
                                detail=reason or "")

    def wait_native(self, timeout: float | None = None
                    ) -> "CompiledKernel":
        """Block until this kernel's background compile settles on
        either tier; returns ``self``.  A no-op for unmanaged (sync)
        kernels, whose compile ran inline.  Raises :class:`TimeoutError`
        if the compile outlives ``timeout`` seconds.
        """
        job = self._tier_job
        if job is not None and not job.wait(timeout):
            raise TimeoutError(
                f"native compile of {self.name!r} did not settle "
                f"within {timeout}s")
        return self

    def run_simulated(self, *args: Any) -> Any:
        """Force the simulator backend (used to cross-check native)."""
        return self._machine.run(self.staged, args)

    def validate(self, *args: Any) -> Any:
        """Run the bit-accurate simulator on ``args`` first, so invalid
        SIMD code (out-of-bounds loads/stores) raises a Python
        exception instead of faulting in native code — the safety net
        the paper's Section 3.5 says LMS lacks ("it is the
        responsibility of the developer to write valid SIMD code").
        Returns the simulated result; call the kernel afterwards.
        """
        return self._machine.run(self.staged, _shadow_args(args))

    def cost(self, params: dict[str, float],
             footprints: dict[str, float] | None = None,
             calls: int = 1) -> KernelCost:
        """Cycles for one (or ``calls``) invocation at the given sizes."""
        env = param_env(self.staged, params)
        return self.cost_model.cost(self.machine_kernel, env,
                                    footprints=footprints, calls=calls)

    def flops_per_cycle(self, flops: float, params: dict[str, float],
                        footprints: dict[str, float] | None = None) -> float:
        return self.cost(params, footprints).flops_per_cycle(flops)

    def explain(self) -> str:
        """What happened when this kernel was built, and where its
        runtime goes: the build-time span tree (``self.trace``), the
        compile report, and — when the simulator backend has executed —
        the instruction mix observed so far.
        """
        from repro.obs.report import render_span_tree
        lines = [f"kernel {self.name!r}: backend={self.backend.value}"]
        lines.append(f"simulator engine: {self._machine.executor}")
        calls = self.tier_calls
        lines.append(
            f"tier: {self.tier} (calls: "
            f"simulated={calls['simulated']} native={calls['native']})")
        if self.tier_events:
            lines.append("tier history:")
            t0 = self.tier_events[0].at
            for ev in self.tier_events:
                suffix = f"  ({ev.detail})" if ev.detail else ""
                lines.append(
                    f"  +{(ev.at - t0) * 1e3:8.1f} ms  "
                    f"{ev.action:8s}-> {ev.tier}{suffix}")
        if self.fallback_reason:
            lines.append(f"fallback_reason: {self.fallback_reason}")
        if self.report is not None:
            r = self.report
            lines.append(
                f"compile report: cache_source={r.cache_source} "
                f"smoke={r.smoke} compiler={r.compiler} "
                f"invocations={r.compiler_invocations}")
            for a in r.attempts:
                lines.append(f"  attempt {a.compiler}/{a.rung}: "
                             f"{a.outcome} ({a.duration_s * 1e3:.1f} ms)")
        if self.trace:
            lines.append("build trace:")
            lines.append(render_span_tree(self.trace))
        else:
            lines.append("build trace: (none recorded; REPRO_OBS off or "
                         "served from the in-memory cache)")
        mix = self._machine.op_counts
        if mix:
            lines.append("simulated instruction mix (top 10):")
            for op, count in mix.most_common(10):
                lines.append(f"  {op:40s} {count}")
        return "\n".join(lines)


def _shadow_args(args: Sequence[Any]) -> list[Any]:
    """Deep-enough copies of ``args`` that simulator writes never leak
    into caller memory — including through non-contiguous array views,
    which are copied into fresh C-contiguous buffers."""
    shadow: list[Any] = []
    for a in args:
        if isinstance(a, np.ndarray):
            shadow.append(np.array(a, dtype=a.dtype, order="C", copy=True))
        elif hasattr(a, "copy"):
            shadow.append(a.copy())
        else:
            shadow.append(a)
    return shadow


def _pick_backend(staged: StagedFunction, requested: str) -> tuple[
        BackendKind, NativeKernel | None, str | None,
        CompileReport | None]:
    """Resolve the backend through the resilience layer.

    The exception taxonomy threads through here: a quarantined kernel
    (:class:`KernelQuarantinedError`) and a ladder-exhausted compile
    (:class:`PermanentCompileError` / :class:`TransientCompileError`,
    both :class:`CompileError`) degrade to the simulator under
    ``"auto"`` with the reason recorded, and propagate under
    ``"native"``.
    """
    if requested == "simulated":
        return BackendKind.SIMULATED, None, None, None
    try:
        native, report = acquire_native(staged)
        return BackendKind.NATIVE, native, None, report
    except KernelQuarantinedError as exc:
        if requested == "native":
            raise
        return (BackendKind.SIMULATED, None,
                f"quarantined: {exc.reason}", exc.report)
    except (NativeLinkError, CompileError) as exc:
        if requested == "native":
            raise
        return (BackendKind.SIMULATED, None, str(exc),
                getattr(exc, "report", None))


def compile_staged(fn: Callable[..., object], arg_types: Sequence[Type],
                   name: str | None = None,
                   backend: str | None = None,
                   use_cache: bool = True,
                   tier: str | None = None) -> CompiledKernel:
    """Stage ``fn`` and link it (Figure 3's runtime path).

    ``backend`` is ``"auto"`` (default), ``"native"`` or ``"simulated"``.
    ``tier`` is ``"sync"`` (compile natively inline) or ``"async"``
    (serve from the simulator now, compile in the background and
    hot-swap); it defaults to ``REPRO_TIER`` and only applies to the
    ``"auto"`` backend — explicit ``"native"`` keeps its inline,
    raise-on-failure semantics.  Identical kernels (by structural graph
    hash) are served from the kernel cache, amortizing staging and
    native compilation (the mitigation for the paper's Section 3.5
    code-generation overhead).
    """
    requested = backend or "auto"
    if requested not in ("auto", "native", "simulated"):
        raise ValueError(f"unknown backend {requested!r}")
    if tier is not None and tier not in TIER_MODES:
        raise ValueError(f"unknown tier {tier!r}")
    mode = tier if tier is not None else tier_mode()
    deferred = requested == "auto" and mode == "async"
    trace_id: int | None = None
    with obs.span("pipeline", requested=requested) as pipe_span:
        trace_id = obs.get_tracer().current_trace_id()
        with obs.span("stage"):
            staged = stage_function(fn, arg_types, name)
        pipe_span.set("kernel", staged.name)
        if use_cache:
            cached = default_cache.get_for(staged, requested)
            if cached is not None:
                pipe_span.set("cache_source", "memory")
                return cached
        # Memoizes the schedule that emit, lower and the engines read
        # (the cache probe has usually taken it already); called by
        # this name because perfbench's traced run times it.
        optimize_staged(staged)
        if deferred:
            # The HotSpot shape: the simulated tier serves immediately;
            # acquire_native runs on the manager's worker pool and the
            # kernel is hot-swapped (or demoted) when it settles.
            kind: BackendKind = BackendKind.SIMULATED
            native = None
            reason = report = None
        else:
            kind, native, reason, report = _pick_backend(staged, requested)
        c_source = native.c_source \
            if native is not None and native.c_source \
            else _try_emit_c(staged)
        with obs.span("lower"):
            machine_kernel = lower_staged(staged)
        kernel = CompiledKernel(
            staged=staged, backend=kind, c_source=c_source,
            machine_kernel=machine_kernel, _native=native,
            fallback_reason=reason, report=report,
        )
        pipe_span.set("backend", kind.value)
        obs.counter("pipeline.backend", kind=kind.value)
        if reason is not None:
            pipe_span.set("reason", reason)
            obs.counter("pipeline.fallbacks")
        if use_cache and reason is None:
            # a fallback is not cached: staged again, the graph tries
            # the toolchain again (a quarantined one is refused at once)
            default_cache.put_for(staged, requested, kernel)
        if deferred:
            pipe_span.set("tier", mode)
            default_manager.manage(kernel)
    if trace_id is not None:
        kernel.trace = obs.get_tracer().spans_for_trace(trace_id)
    return kernel


def _try_emit_c(staged: StagedFunction) -> str:
    try:
        return emit_c_source(staged)
    except Exception as exc:  # noqa: BLE001 - C source is informative only
        return f"/* C generation failed: {exc} */"


@dataclass
class NativePlaceholder:
    """The ``@native def apply(...)`` marker of the paper's step 1.

    Optionally carries the declared signature.  The paper lists the
    missing isomorphism check between placeholder and staged function as
    a limitation ("it is the responsibility of the developer to define
    this isomorphic relation"); declaring ``arg_types`` here lets
    :func:`compile_kernel` enforce it.
    """

    name: str = "apply"
    arg_types: tuple[Type, ...] | None = None

    def __call__(self, *args: Any) -> Any:
        raise UnsatisfiedLinkError(
            f"native method {self.name!r} has not been compiled yet; "
            f"call compile_kernel(...) first (the paper's step 4)"
        )


def native_placeholder(name: str = "apply",
                       arg_types: Sequence[Type] | None = None
                       ) -> NativePlaceholder:
    return NativePlaceholder(
        name, tuple(arg_types) if arg_types is not None else None)


class SignatureMismatchError(TypeError):
    """Placeholder and staged function disagree (the isomorphism check
    the paper leaves to the developer)."""


def compile_kernel(staged_fn: Callable[..., object],
                   arg_types: Sequence[Type], obj: Any,
                   method_name: str, backend: str | None = None
                   ) -> CompiledKernel:
    """The paper's ``compile(saxpy_staged _, this, nameOf(apply _))``.

    Stages and links ``staged_fn`` and rebinds ``obj.<method_name>`` —
    which must currently be a :class:`NativePlaceholder` — to the
    compiled kernel, giving the same refactoring-robust automatic
    binding the paper builds from Scala macros.
    """
    current = getattr(obj, method_name, None)
    if not isinstance(current, NativePlaceholder):
        raise TypeError(
            f"{type(obj).__name__}.{method_name} is not a native "
            f"placeholder; declare it with native_placeholder()"
        )
    if current.arg_types is not None and \
            tuple(current.arg_types) != tuple(arg_types):
        raise SignatureMismatchError(
            f"placeholder {method_name!r} declares "
            f"{[str(t) for t in current.arg_types]} but the staged "
            f"function is compiled with {[str(t) for t in arg_types]}"
        )
    kernel = compile_staged(staged_fn, arg_types, name=method_name,
                            backend=backend)
    setattr(obj, method_name, kernel)
    return kernel
