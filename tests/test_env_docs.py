"""README's environment tables match what the library reads.

Every ``REPRO_*`` variable that ``src/`` looks up has a row in one of
README's tables, and every row names a variable that ``src/`` still
looks up, so a knob that is added or deleted cannot leave the tables
behind.  The module constants that README gives a value for hold that
value, so a changed constant cannot leave README's prose behind.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_LOOKUP = re.compile(
    r"(?:environ\.get|getenv)\(\s*\"(REPRO_[A-Z0-9_]+)\"")
_ROW = re.compile(r"^\| `(REPRO_[A-Z0-9_]+)` \|", re.MULTILINE)


def _read_by_src() -> set[str]:
    return {name for path in (ROOT / "src").rglob("*.py")
            for name in _LOOKUP.findall(path.read_text())}


def _documented() -> set[str]:
    return set(_ROW.findall((ROOT / "README.md").read_text()))


def test_every_variable_the_library_reads_has_a_row():
    read = _read_by_src()
    assert "REPRO_TIER" in read, "the lookup pattern finds nothing"
    missing = sorted(read - _documented())
    assert not missing, f"README has no row for {missing}"


def test_every_row_names_a_variable_the_library_reads():
    documented = _documented()
    assert "REPRO_TIER" in documented, "the row pattern finds nothing"
    stale = sorted(documented - _read_by_src())
    assert not stale, f"README documents variables nothing reads: {stale}"


#: The module constants README's prose gives a value for: the module,
#: the constant, its value and README's words for it.
_CONSTANTS = [
    ("repro.codegen.compiler", "COMPILE_RETRIES", 2,
     "2 retries per ladder rung"),
    ("repro.codegen.compiler", "COMPILE_TIMEOUT_S", 120.0,
     "120 s compiler timeout"),
    ("repro.core.resilience", "SMOKE_TIMEOUT_S", 30.0,
     "30 s smoke-run timeout"),
    ("repro.core.resilience", "COMPILE_DEADLINE_S", 300.0,
     "300 s per-kernel compile deadline"),
    ("repro.core.cache", "SHARD_LOCK_TIMEOUT_S", 10.0,
     "10 s shard-lock timeout"),
    ("repro.core.cache", "DISK_CACHE_ENTRIES", 128,
     "128-entry bound on the disk store"),
]


@pytest.mark.parametrize("module,name,value,words", _CONSTANTS,
                         ids=[name for _, name, _, _ in _CONSTANTS])
def test_readme_states_each_constant(module, name, value, words):
    assert getattr(importlib.import_module(module), name) == value
    prose = " ".join((ROOT / "README.md").read_text().split())
    assert words in prose, f"README does not say {words!r} for {name}"
