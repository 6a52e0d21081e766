"""README's environment tables match what the library reads.

Every ``REPRO_*`` variable that ``src/`` looks up has a row in one of
README's tables, and every row names a variable that ``src/`` still
looks up, so a knob that is added or deleted cannot leave the tables
behind.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_LOOKUP = re.compile(
    r"(?:environ\.get|getenv|env_int|env_float)\(\s*\"(REPRO_[A-Z0-9_]+)\"")
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
