"""Names perfbench's traced run binds from the deleted graph optimizer.

``compile_staged`` hands the staged graph to codegen and the engines as
is: builder CSE at staging and DCE by ``schedule_block`` are the whole
middle-end, as in the paper, and gcc ``-O3`` optimizes the emitted C.
These names go once a benchmark change stops binding them.
"""

from __future__ import annotations

from repro.lms.schedule import schedule_block
from repro.lms.staging import StagedFunction

__all__ = ["effective_level", "optimize_staged", "schedule_block"]


def effective_level() -> int:
    return 1


def optimize_staged(staged: StagedFunction, level: int = 1
                    ) -> tuple[StagedFunction, None]:
    """Memoize the scheduled body; returns ``(staged, None)``."""
    staged.scheduled()
    return staged, None
