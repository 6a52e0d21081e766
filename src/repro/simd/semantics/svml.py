"""SVML semantics: short vector math library functions."""

from __future__ import annotations

import numpy as np

from repro.simd.semantics import register_as
from repro.simd.semantics.util import DTYPE_BY_SUFFIX, result

_PREFIXES = ("_mm", "_mm256", "_mm512")


def _special(fn_name: str):
    """``scipy.special.<fn_name>``, imported on the first call.  scipy
    serves only the five semantics below, whose intrinsics run natively
    only under icc, so ``import repro`` neither needs nor loads it."""

    def fn(a):
        from scipy import special
        return getattr(special, fn_name)(a)

    return fn


_UNARY = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "asin": np.arcsin, "acos": np.arccos, "atan": np.arctan,
    "sinh": np.sinh, "cosh": np.cosh, "tanh": np.tanh,
    "asinh": np.arcsinh, "acosh": np.arccosh, "atanh": np.arctanh,
    "exp": np.exp, "exp2": np.exp2, "exp10": lambda a: np.power(10.0, a),
    "expm1": np.expm1,
    "log": np.log, "log2": np.log2, "log10": np.log10, "log1p": np.log1p,
    "cbrt": np.cbrt, "invsqrt": lambda a: 1.0 / np.sqrt(a),
    "erf": _special("erf"), "erfc": _special("erfc"),
    "erfinv": _special("erfinv"),
    "cdfnorm": _special("ndtr"), "cdfnorminv": _special("ndtri"),
    "trunc": np.trunc, "nearbyint": np.rint, "rint": np.rint,
    "svml_ceil": np.ceil, "svml_floor": np.floor, "svml_round": np.round,
    "svml_sqrt": np.sqrt,
    "sind": lambda a: np.sin(np.deg2rad(a)),
    "cosd": lambda a: np.cos(np.deg2rad(a)),
    "tand": lambda a: np.tan(np.deg2rad(a)),
    "logb": lambda a: np.floor(np.log2(np.abs(a))),
}

_BINARY = {
    "pow": np.power, "atan2": np.arctan2, "hypot": np.hypot,
}


def _register_float_math() -> None:
    for fn_name, fn in _UNARY.items():
        for suffix in ("ps", "pd"):
            dt = DTYPE_BY_SUFFIX[suffix]
            for prefix in _PREFIXES:
                def sem(ctx, a, _fn=fn, _dt=dt):
                    with np.errstate(all="ignore"):
                        return result(a.vt, _dt,
                                      np.asarray(_fn(a.view(_dt))).astype(_dt))

                register_as(f"{prefix}_{fn_name}_{suffix}", sem)
    for fn_name, fn in _BINARY.items():
        for suffix in ("ps", "pd"):
            dt = DTYPE_BY_SUFFIX[suffix]
            for prefix in _PREFIXES:
                def sem2(ctx, a, b, _fn=fn, _dt=dt):
                    with np.errstate(all="ignore"):
                        return result(
                            a.vt, _dt,
                            np.asarray(_fn(a.view(_dt),
                                           b.view(_dt))).astype(_dt))

                register_as(f"{prefix}_{fn_name}_{suffix}", sem2)


def _register_int_div() -> None:
    for fn_name in ("div", "rem"):
        for sfx in ("epi8", "epi16", "epi32", "epi64",
                    "epu8", "epu16", "epu32", "epu64"):
            dt = DTYPE_BY_SUFFIX[sfx]
            for prefix in _PREFIXES:
                def sem(ctx, a, b, _dt=dt, _rem=(fn_name == "rem")):
                    va = a.view(_dt).astype(np.int64)
                    vb = b.view(_dt).astype(np.int64)
                    # C-style truncated division, not Python floor division.
                    q = np.where(vb != 0,
                                 np.sign(va) * np.sign(vb)
                                 * (np.abs(va) // np.where(vb == 0, 1,
                                                           np.abs(vb))), 0)
                    out = va - q * vb if _rem else q
                    return result(a.vt, _dt, out.astype(_dt))

                register_as(f"{prefix}_{fn_name}_{sfx}", sem)


def _register_sincos() -> None:
    for suffix in ("ps", "pd"):
        dt = DTYPE_BY_SUFFIX[suffix]
        for prefix in _PREFIXES:
            def sincos(ctx, cos_arr, a, cos_offset, _dt=dt):
                va = a.view(_dt)
                cos_vals = np.cos(va).astype(_dt)
                nbytes = a.vt.bits // 8
                byte_off = int(cos_offset) * cos_arr.itemsize
                cos_arr.view(np.uint8)[byte_off: byte_off + nbytes] = \
                    cos_vals.view(np.uint8)
                return result(a.vt, _dt, np.sin(va).astype(_dt))

            register_as(f"{prefix}_sincos_{suffix}", sincos)


_register_float_math()
_register_int_div()
_register_sincos()
