"""The intrinsics catalog: curated core + systematic families.

``all_entries(version)`` is the single source of truth the XML synthesizer
serializes and the census counts.  The curated core (:mod:`core`) carries
hand-written, bit-accurate pseudocode and is fully executable by the SIMD
machine in :mod:`repro.simd`; the families (:mod:`families`) reconstruct
the combinatorial op x type x mask structure of the vendor set so the
eDSL generator is exercised at realistic scale (Table 1b).
"""

from functools import cache

from repro.spec.catalog.build import entry, for_lanes_pseudocode
from repro.spec.catalog.core import core_entries
from repro.spec.catalog.families import family_entries
from repro.spec.model import IntrinsicSpec


@cache
def _unique_entries() -> tuple[IntrinsicSpec, ...]:
    """Every entry of every version, first of each name, built once per
    process: the entries are frozen and the same in every version, which
    only filters them."""
    seen: set[str] = set()
    out = []
    for e in list(core_entries()) + list(family_entries()):
        if e.name not in seen:
            seen.add(e.name)
            out.append(e)
    return tuple(out)


def all_entries(version: str = "3.3.16") -> list[IntrinsicSpec]:
    """Every catalog entry visible in the given spec version."""
    from repro.spec.versions import version_filter

    flt = version_filter(version)
    return [e for e in _unique_entries() if flt(e)]


__all__ = ["all_entries", "entry", "for_lanes_pseudocode"]
