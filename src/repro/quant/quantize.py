"""Stochastic quantization (Section 4 of the paper).

For a vector ``v`` of size ``n`` and a precision of ``b`` bits, the
scale factor is ``s_v = (2^(b-1) - 1) / max|v_i|``; scaled values are
quantized stochastically, ``v_i -> floor(v_i * s_v + mu)`` with ``mu``
uniform in ``(0, 1)``.  A quantized array is one scale factor plus an
array of ``b``-bit values:

* 16-bit — IEEE half precision for the LMS path (FP16C hardware
  support); quantized ``short`` for the Java path (no half floats on
  the JVM);
* 8-bit — two's complement bytes (Buckwild!);
* 4-bit — sign-magnitude (sign bit then 3 base bits, per ZipML),
  stored as pairs inside the bytes of a byte array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class QuantizedArray:
    """A quantized vector: one scale factor + packed fixed-width data."""

    bits: int
    scale: float
    data: np.ndarray
    n: int


def scale_factor(values: np.ndarray, bits: int) -> float:
    """``(2^(b-1) - 1) / max|v|`` — maps values into representable range."""
    peak = float(np.max(np.abs(values))) if values.size else 0.0
    if peak == 0.0:
        return 1.0
    return ((1 << (bits - 1)) - 1) / peak


def _stochastic_round(scaled: np.ndarray, rng: np.random.Generator
                      ) -> np.ndarray:
    mu = rng.uniform(0.0, 1.0, size=scaled.shape)
    return np.floor(scaled + mu)


def pack_nibbles(values: np.ndarray) -> np.ndarray:
    """Pack sign-magnitude 4-bit codes, two per byte (low nibble first).

    Each code: bit 3 = sign, bits 0..2 = magnitude (0..7); *not* two's
    complement (the ZipML format the paper uses).
    """
    if values.size % 2 != 0:
        raise ValueError("4-bit packing needs an even number of values")
    mags = np.minimum(np.abs(values), 7).astype(np.uint8)
    signs = (values < 0).astype(np.uint8) << 3
    codes = (mags | signs).astype(np.uint8)
    return (codes[0::2] | (codes[1::2] << 4)).astype(np.int8)


def unpack_nibbles(packed: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_nibbles`: signed integer values."""
    raw = packed.view(np.uint8)
    lo = raw & 0x0F
    hi = (raw >> 4) & 0x0F
    codes = np.empty(raw.size * 2, dtype=np.uint8)
    codes[0::2] = lo
    codes[1::2] = hi
    mags = (codes & 0x7).astype(np.int32)
    signs = np.where(codes & 0x8, -1, 1)
    return (mags * signs)[:n]


def quantize_stochastic(values: np.ndarray, bits: int,
                        rng: np.random.Generator | None = None
                        ) -> QuantizedArray:
    """Quantize a float vector to the given precision."""
    values = np.asarray(values, dtype=np.float32)
    rng = rng if rng is not None else np.random.default_rng(0x51AB)
    n = values.size
    if bits == 32:
        return QuantizedArray(32, 1.0, values.copy(), n)
    if bits == 16:
        return QuantizedArray(16, 1.0, values.astype(np.float16), n)
    if bits == 8:
        s = scale_factor(values, 8)
        # Scale in float64: extreme inputs (subnormal peaks) would
        # overflow a float32 intermediate.
        scaled = values.astype(np.float64) * s
        q = np.clip(_stochastic_round(scaled, rng), -128, 127)
        return QuantizedArray(8, s, q.astype(np.int8), n)
    if bits == 4:
        s = scale_factor(values, 4)
        scaled = values.astype(np.float64) * s
        q = np.clip(_stochastic_round(scaled, rng), -7, 7)
        if n % 2 != 0:
            q = np.concatenate([q, [0.0]])
        return QuantizedArray(4, s, pack_nibbles(q.astype(np.int8)), n)
    raise ValueError(f"unsupported precision: {bits} bits")


def dequantize(qa: QuantizedArray) -> np.ndarray:
    """Recover float values (lossy inverse)."""
    if qa.bits == 32:
        return qa.data.copy()
    if qa.bits == 16:
        return qa.data.astype(np.float32)
    if qa.bits == 8:
        return qa.data.astype(np.float32) / np.float32(qa.scale)
    if qa.bits == 4:
        return (unpack_nibbles(qa.data, qa.n).astype(np.float32)
                / np.float32(qa.scale))
    raise ValueError(f"unsupported precision: {qa.bits} bits")
