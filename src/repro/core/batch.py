"""Batched kernel execution: amortize the boundary tax over many calls.

The paper's cost model charges the managed-to-native boundary once per
invocation; at serving scale that tax dominates small kernels.
``CompiledKernel.call_batch`` runs N argument sets against one kernel
(DESIGN.md §13).  On a native kernel it hands the whole sequence to
:meth:`NativeKernel.call_batch`: one crossing of the generated
extension over a packed ``void**`` table, all-or-nothing.  Otherwise
:func:`execute_batch` runs it in chunks, re-reading the kernel's
single-attribute tiered dispatch per chunk, so a concurrent hot-swap
splits the batch on a chunk boundary (every chunk runs atomically on
exactly one tier).  Simulated chunks go through
:meth:`SimdMachine.run_batch` (one whole-batch numpy sweep when the
entries share a control-flow path); chunks after a swap go to the
glue's ``call_batch``.

Batching is explicit and bit-transparent: results, mutated arrays and
simulator op accounting match the equivalent call-by-call loop
(``tests/test_batch.py``).  Concurrent single calls are not coalesced
into batches behind the caller's back: the thread handoff that takes
costs more than the boundary crossings it saves (DESIGN.md §13).
"""

from __future__ import annotations

from typing import Any, Sequence

import repro.obs as obs

__all__ = ["BATCH_MAX", "execute_batch"]

#: Largest slice of a simulated-tier batch handed to one tier in one
#: call: a concurrent hot-swap lands on a chunk boundary.  A native
#: batch is not cut.  Read at call time, so tests may patch it.
BATCH_MAX = 1024


def execute_batch(kernel, args_seq: Sequence[Sequence[Any]]) -> list:
    """Run every argument set in ``args_seq`` against a kernel that was
    simulated when its batch started, batching per tier; returns
    per-entry results in order.

    The kernel's ``_impl`` (the one attribute the tiered hot-swap
    stores to) is re-read for every chunk, so tier promotion stays
    atomic: a batch in flight when the swap lands finishes its current
    chunk on the old tier and runs the rest on the new one.  A native
    ``_impl`` is the glue's ``call`` entry, whose batch entry is the
    same module's ``call_batch``.
    """
    entries = [tuple(args) for args in args_seq]
    if not entries:
        return []
    results: list = []
    limit = BATCH_MAX
    for i in range(0, len(entries), limit):
        chunk = entries[i:i + limit]
        impl = kernel._impl
        native = kernel._native
        if native is not None and impl is native._call:
            runner = native._call_batch
        else:
            runner = getattr(impl, "call_batch", None)
        obs.observe("batch.size", float(len(chunk)))
        if runner is not None:
            results.extend(runner(chunk))
        elif impl == getattr(kernel, "_sim_call", None):
            # Unmanaged simulated kernel: the dispatch is a bound
            # method, but the machine still sweeps whole batches.
            results.extend(
                kernel._machine.run_batch(kernel.staged, chunk))
        else:
            results.extend(impl(*args) for args in chunk)
    return results
