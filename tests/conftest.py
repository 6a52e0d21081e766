"""Shared fixtures and skip conditions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codegen.compiler import glue_headers, inspect_system


def _system():
    return inspect_system()


# Every native kernel is a CPython extension: building one needs a C
# compiler, this interpreter's headers and NumPy's.
requires_compiler = pytest.mark.skipif(
    _system().best_compiler is None
    or not all((include / header).is_file()
               for include, header in glue_headers()),
    reason="no C compiler, Python.h or NumPy headers on this host",
)

requires_avx2_fma = pytest.mark.skipif(
    not _system().supports("AVX2", "FMA"),
    reason="host CPU lacks AVX2/FMA",
)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xC60)


@pytest.fixture
def base_isas():
    from repro.isa import load_isas
    return load_isas("SSE", "SSE2", "SSE3", "SSSE3", "SSE4.1",
                     "AVX", "AVX2", "FMA", "FP16C")
