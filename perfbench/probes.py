"""Timed operations: one closed-loop call each, bracketed by host spins.

Each timed call is bracketed by two spins that classify the host state:
one right before the call and one after it.  The spin right after a call
reads slow whatever the host state (the call has just evicted the
spin's code and data from the caches: after MMM at n=256 it reads
~2-3x its fast time), so one unrecorded spin runs first and absorbs
that; the same goes for the spin after ``reset`` copies large inputs.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable

import numpy as np

from host import np_ns, spin, spin_ns
from stats import Series


class OpLog:
    """Failure accounting and host samples shared by every phase."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.spins: list[int] = []
        self.np_samples: list[int] = []

    def record(self, problem: str | None) -> bool:
        self.attempted += 1
        if problem is not None:
            self.fail(problem)
        return problem is None

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)
            print(f"perfbench: FAILED {problem}", file=sys.stderr)

    def spin(self) -> int:
        """A recorded host-state spin, after an unrecorded one that
        absorbs what the previous operation left in the caches."""
        spin()
        ns = spin_ns()
        self.spins.append(ns)
        return ns

    def host_round(self) -> None:
        """The per-round host sample: one spin and one NumPy op."""
        self.spin()
        self.np_samples.append(np_ns())


class Probe:
    """One repeatable timed call.

    Each visit makes one untimed call, so caches and predictors are warm
    however much the other probes of the round evicted, then ``burst``
    timed calls.  ``reset`` restores mutated inputs before every call
    (untimed); ``check`` returns ``None`` or what is wrong with the output.
    """

    __slots__ = ("name", "kernel", "fn", "args", "reset", "check",
                 "burst", "series")

    def __init__(self, name: str, kernel: str, fn: Callable, args: tuple,
                 reset: Callable[[], None],
                 check: Callable[[Any], str | None], burst: int) -> None:
        self.name = name
        self.kernel = kernel
        self.fn = fn
        self.args = args
        self.reset = reset
        self.check = check
        self.burst = burst
        self.series = Series()

    def run(self, log: OpLog) -> None:
        fn, args, reset, perf = self.fn, self.args, self.reset, \
            time.perf_counter_ns
        try:
            reset()
            fn(*args)
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            log.record(f"{self.name}: {type(exc).__name__}: {exc}")
            return
        for _ in range(self.burst):
            try:
                reset()
                before = log.spin()
                t0 = perf()
                out = fn(*args)
                t1 = perf()
                after = log.spin()
                problem = self.check(out)
            except Exception as exc:  # noqa: BLE001
                problem = f"{type(exc).__name__}: {exc}"
            if log.record(None if problem is None
                          else f"{self.name}: {problem}"):
                self.series.add(t1 - t0, before, after)


def time_block(log: OpLog, series: Series, fn: Callable, args: tuple,
               calls: int, reset: Callable[[], None] | None = None) -> None:
    """Per-call time of ``calls`` back-to-back calls, after one untimed
    call (the traced run's way of splitting a µs-scale call into its
    nested entry points)."""
    if reset is not None:
        reset()
    fn(*args)
    if reset is not None:
        reset()
    before = log.spin()
    t0 = time.perf_counter_ns()
    for _ in range(calls):
        fn(*args)
    t1 = time.perf_counter_ns()
    after = log.spin()
    series.add((t1 - t0) / calls, before, after)


def pack_batch(native, entries: list) -> tuple:
    """The ``void**`` table and result column ``NativeKernel.call_batch``
    builds, built once so the bare batched symbol can be timed alone."""
    import ctypes

    from repro.lms.types import ArrayType, ScalarType

    params = native.staged.params
    nargs, n = len(params), len(entries)
    argv = np.empty(n * nargs, dtype=np.uintp)
    keep = []
    for j, p in enumerate(params):
        if isinstance(p.tp, ArrayType):
            argv[j::nargs] = [args[j].ctypes.data for args in entries]
        else:
            column = np.array([args[j] for args in entries],
                              dtype=p.tp.np_dtype)
            keep.append(column)
            argv[j::nargs] = column.ctypes.data + column.itemsize * \
                np.arange(n, dtype=np.uintp)
    tp = native.staged.result_type
    out = np.empty(n, dtype=tp.np_dtype) \
        if isinstance(tp, ScalarType) else None
    keep += [argv, out]
    call_args = (n, argv.ctypes.data_as(ctypes.POINTER(ctypes.c_void_p)),
                 ctypes.c_void_p(out.ctypes.data if out is not None else 0))
    return call_args, keep


def preconverted(native, args: tuple) -> tuple:
    """Arguments already marshalled the way ``NativeKernel.__call__``
    hands them to the ctypes function."""
    from repro.codegen.native import marshalling_plan

    return tuple(value if convert is None else convert(value)
                 for convert, value in zip(marshalling_plan(native.staged),
                                           args))
