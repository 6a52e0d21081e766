"""The memory hierarchy model (warm-cache protocol, like the paper).

Each memory stream (one array) is assigned the smallest cache level that
holds its footprint — the steady state a warm-cache benchmark converges
to.  Accesses are charged bandwidth from that level: unit-stride
accesses move exactly their bytes, strided accesses move whole cache
lines (the triple-loop MMM's column walk), and L1-resident streams cost
no bandwidth beyond the load/store ports the port model already counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CacheLevel:
    name: str
    capacity_bytes: int
    bytes_per_cycle: float  # sustained bandwidth to the core
    line_bytes: int = 64


@dataclass(frozen=True)
class CacheHierarchy:
    levels: tuple[CacheLevel, ...]
    dram: CacheLevel

    def residency(self, footprint_bytes: float) -> CacheLevel:
        """The smallest level whose capacity holds the footprint."""
        for level in self.levels:
            if footprint_bytes <= level.capacity_bytes:
                return level
        return self.dram


# Haswell Xeon E3-1285L v3: 32KB L1D, 256KB L2, 8MB shared L3.
HASWELL_CACHES = CacheHierarchy(
    levels=(
        CacheLevel("L1", 32 * 1024, bytes_per_cycle=96.0),   # 2x32B ld + 32B st
        CacheLevel("L2", 256 * 1024, bytes_per_cycle=28.0),
        CacheLevel("L3", 8 * 1024 * 1024, bytes_per_cycle=14.0),
    ),
    dram=CacheLevel("DRAM", 1 << 62, bytes_per_cycle=7.0),
)


@dataclass
class StreamInfo:
    """Footprint and residency for one memory stream."""

    name: str
    footprint_bytes: float
    level: CacheLevel


def assign_streams(footprints: dict[str, float],
                   hierarchy: CacheHierarchy,
                   shared: bool = True) -> dict[str, StreamInfo]:
    """Assign each stream its residency level.

    With ``shared=True`` (default) the *combined* footprint competes for
    capacity, which is what a warm benchmark touching all arrays every
    iteration experiences.
    """
    total = sum(footprints.values()) if shared else None
    out: dict[str, StreamInfo] = {}
    for name, bytes_ in footprints.items():
        basis = total if shared else bytes_
        out[name] = StreamInfo(name=name, footprint_bytes=bytes_,
                               level=hierarchy.residency(basis))
    return out
