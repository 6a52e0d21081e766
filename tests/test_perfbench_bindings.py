"""The benchmark's by-name bindings to the library still resolve.

``perfbench/`` imports names from ``repro``, several of them inside
functions, so a broken one shows only when that path runs; its traced
run (``--trace 1``) wraps the ``(owner, attribute)`` pairs that
``perfbench/spans.py``'s ``entry_points()`` lists; its worker times a
few attributes of kernel instances directly.  A rename in ``src/`` that
misses one breaks the benchmark and no library test.  These checks read
perfbench and change none of it.
"""

from __future__ import annotations

import ast
import importlib
import runpy
from pathlib import Path

import numpy as np

from repro.core import compile_staged
from repro.core.cache import default_cache
from repro.core.resilience import clear_session_state
from repro.lms import forloop
from repro.lms.ops import array_apply, array_update
from repro.lms.types import FLOAT, INT32, array_of
from tests.conftest import requires_compiler

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _repro_imports() -> list[tuple[str, int, str, str | None]]:
    """``(file, line, module, name)`` for every import of ``repro`` in
    perfbench, function bodies included; ``name`` is ``None`` for a
    plain ``import repro.x``."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "repro":
                found += [(path.name, node.lineno, node.module, alias.name)
                          for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, node.lineno, alias.name, None)
                          for alias in node.names
                          if alias.name.split(".")[0] == "repro"]
    return found


def _resolves(module: str, name: str | None) -> bool:
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return False
    if name is None or hasattr(owner, name):
        return True
    try:                        # ``from package import submodule``
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_every_repro_import_in_perfbench_resolves():
    imports = _repro_imports()
    assert imports, f"found no imports of repro under {PERFBENCH}"
    broken = [f"{file}:{line}: {module}"
              + ("" if name is None else f" import {name}")
              for file, line, module, name in imports
              if not _resolves(module, name)]
    assert not broken, (
        "perfbench imports what the library no longer has:\n"
        + "\n".join(broken))


def test_every_traced_entry_point_exists():
    spans = runpy.run_path(str(PERFBENCH / "spans.py"),
                           run_name="perfbench_spans")
    points = spans["entry_points"]()
    assert points
    missing = [f"{getattr(owner, '__name__', owner)}.{attr} ({span})"
               for owner, attr, span, _note in points
               if not hasattr(owner, attr)]
    assert not missing, (
        "perfbench's traced run wraps attributes the library no longer "
        "has:\n" + "\n".join(missing))


@requires_compiler
def test_kernel_attributes_the_worker_times_exist(tmp_path, monkeypatch):
    """``perfbench/worker.py`` times a tiered kernel's ``_impl`` as the
    bare dispatch, a native kernel's ``_fn`` and ``_batch_fn`` as the
    floor, and a simulated kernel's ``_machine.run``."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "kcache"))
    for var in ("REPRO_CC", "REPRO_FAULTS"):
        monkeypatch.delenv(var, raising=False)
    default_cache.clear()
    clear_session_state()

    def fn(a, n):
        forloop(0, n, step=1, body=lambda i: array_update(
            a, i, array_apply(a, i) * 2.0 + 0.25))

    types = [array_of(FLOAT), INT32]
    try:
        tiered = compile_staged(fn, types, name="bind_k", use_cache=False,
                                tier="async").wait_native(60)
        plain = compile_staged(fn, types, name="bind_k")
        sim = compile_staged(fn, types, name="bind_k", backend="simulated")
        assert tiered.tier == "native" and plain.tier == "native"
        assert tiered._impl is tiered._native._call
        a = np.ones(8, np.float32)
        tiered._impl(a, 8)
        assert np.all(a == np.float32(2.25))
        native = plain._native
        assert callable(native._fn) and callable(native._batch_fn)
        assert callable(native.call_batch)
        assert callable(sim._machine.run)
    finally:
        default_cache.clear()
        clear_session_state()


def test_traced_build_records_the_layers_perfbench_reads():
    """perfbench's own recorder around one uncached build records the
    spans its traced run reads per layer, with the statement counts of
    ``lms.opt``: a build that stopped calling a wrapped name would stop
    the traced run with ``not measured``."""
    spans = runpy.run_path(str(PERFBENCH / "spans.py"),
                           run_name="perfbench_spans")
    recorder = spans["Recorder"]()

    def fn(a, n):
        forloop(0, n, step=1, body=lambda i: array_update(
            a, i, array_apply(a, i) * 2.0 + 0.75))

    recorder.install()
    try:
        compile_staged(fn, [array_of(FLOAT), INT32], name="traced_k",
                       backend="simulated", use_cache=False)
    finally:
        recorder.uninstall()
    by_name = {s.name: s for s in recorder.spans}
    assert {"lms.stage", "lms.opt", "cgen.emit",
            "timing.lower"} <= by_name.keys()
    assert {"stms_in", "stms_out"} <= by_name["lms.opt"].attrs.keys()
