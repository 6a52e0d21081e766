"""Systematic intrinsic families: the long tail of the vendor set.

Intel's 5912-intrinsic catalog is largely combinatorial — the same
operation crossed with element widths, vector lengths and (for AVX-512)
mask/maskz variants.  This module reconstructs that structure so the eDSL
generator, XML emitter and parser are exercised at realistic scale.  The
names follow Intel's real naming scheme; entries here carry templated
descriptions/pseudocode and need not have executable semantics (the
curated core in :mod:`core` does).
"""

from __future__ import annotations

from repro.spec.catalog.build import entry, for_lanes_pseudocode
from repro.spec.model import IntrinsicSpec

_FP = "Floating Point"
_INT = "Integer"

# (suffix, lane bits, element description, is_float)
_INT_SUFFIXES = (
    ("epi8", 8, "packed signed 8-bit integers", False),
    ("epi16", 16, "packed signed 16-bit integers", False),
    ("epi32", 32, "packed signed 32-bit integers", False),
    ("epi64", 64, "packed signed 64-bit integers", False),
)
_FLT_SUFFIXES = (
    ("ps", 32, "packed single-precision floating-point elements", True),
    ("pd", 64, "packed double-precision floating-point elements", True),
)

_PREFIX_BY_BITS = {128: "_mm", 256: "_mm256", 512: "_mm512"}


def _vt(bits: int, is_float: bool, lane_bits: int) -> str:
    if not is_float:
        return {128: "__m128i", 256: "__m256i", 512: "__m512i"}[bits]
    if lane_bits == 32:
        return {128: "__m128", 256: "__m256", 512: "__m512"}[bits]
    return {128: "__m128d", 256: "__m256d", 512: "__m512d"}[bits]


# ---------------------------------------------------------------------------
# AVX-512: the dominant bucket (Table 1b: 3857).
# ---------------------------------------------------------------------------

# (op name, category, arity, applies-to-int, applies-to-float)
_AVX512_OPS = (
    ("add", "Arithmetic", 2, True, True),
    ("sub", "Arithmetic", 2, True, True),
    ("mul", "Arithmetic", 2, False, True),
    ("div", "Arithmetic", 2, False, True),
    ("mullo", "Arithmetic", 2, True, False),
    ("mulhi", "Arithmetic", 2, True, False),
    ("min", "Special Math Functions", 2, True, True),
    ("max", "Special Math Functions", 2, True, True),
    ("abs", "Special Math Functions", 1, True, False),
    ("sqrt", "Elementary Math Functions", 1, False, True),
    ("rsqrt14", "Elementary Math Functions", 1, False, True),
    ("rcp14", "Elementary Math Functions", 1, False, True),
    ("and", "Logical", 2, True, False),
    ("or", "Logical", 2, True, False),
    ("xor", "Logical", 2, True, False),
    ("andnot", "Logical", 2, True, False),
    ("sll", "Shift", 2, True, False),
    ("srl", "Shift", 2, True, False),
    ("sra", "Shift", 2, True, False),
    ("slli", "Shift", 1, True, False),
    ("srli", "Shift", 1, True, False),
    ("srai", "Shift", 1, True, False),
    ("rol", "Shift", 1, True, False),
    ("ror", "Shift", 1, True, False),
    ("rolv", "Shift", 2, True, False),
    ("rorv", "Shift", 2, True, False),
    ("unpacklo", "Swizzle", 2, True, True),
    ("unpackhi", "Swizzle", 2, True, True),
    ("shuffle", "Swizzle", 2, True, True),
    ("permutex2var", "Swizzle", 3, True, True),
    ("permutexvar", "Swizzle", 2, True, True),
    ("blend", "Swizzle", 2, True, True),
    ("broadcastd" , "Swizzle", 1, True, False),
    ("compress", "Swizzle", 1, True, True),
    ("expand", "Swizzle", 1, True, True),
    ("adds", "Arithmetic", 2, True, False),
    ("subs", "Arithmetic", 2, True, False),
    ("avg", "Probability/Statistics", 2, True, False),
    ("madd", "Arithmetic", 2, True, False),
    ("fmadd", "Arithmetic", 3, False, True),
    ("fmsub", "Arithmetic", 3, False, True),
    ("fnmadd", "Arithmetic", 3, False, True),
    ("fnmsub", "Arithmetic", 3, False, True),
    ("scalef", "Arithmetic", 2, False, True),
    ("getexp", "Miscellaneous", 1, False, True),
    ("getmant", "Miscellaneous", 1, False, True),
    ("roundscale", "Special Math Functions", 1, False, True),
    ("reduce", "Special Math Functions", 1, False, True),
    ("ternarylogic", "Logical", 3, True, False),
    ("conflict", "Miscellaneous", 1, True, False),
    ("lzcnt", "Bit Manipulation", 1, True, False),
    ("popcnt", "Bit Manipulation", 1, True, False),
    ("sllv", "Shift", 2, True, False),
    ("srlv", "Shift", 2, True, False),
    ("srav", "Shift", 2, True, False),
    ("alignr", "Miscellaneous", 2, True, False),
    ("fmaddsub", "Arithmetic", 3, False, True),
    ("fmsubadd", "Arithmetic", 3, False, True),
    ("fixupimm", "Miscellaneous", 3, False, True),
    ("range", "Special Math Functions", 2, False, True),
    ("mov", "Move", 1, True, True),
    ("packs", "Miscellaneous", 2, True, False),
    ("packus", "Miscellaneous", 2, True, False),
    ("shufflehi", "Swizzle", 1, True, False),
    ("shufflelo", "Swizzle", 1, True, False),
    ("permutevar", "Swizzle", 2, False, True),
    ("movehdup", "Move", 1, False, True),
    ("moveldup", "Move", 1, False, True),
    ("movedup", "Move", 1, False, True),
)

# Ops restricted to byte/word (BW) lanes only make sense at 8/16 bits;
# these lane widths require AVX512BW.
_BW_ONLY_OPS = {"adds", "subs", "avg", "madd", "mulhi", "dbsad"}
_DQ_OPS = {"mullo"}  # mullo_epi64 needs DQ.


def _avx512_cpuids(bits: int, lane_bits: int, is_float: bool,
                   op: str) -> tuple[str, ...]:
    parts: list[str] = []
    if lane_bits in (8, 16) and not is_float:
        parts.append("AVX512BW")
    elif op == "mullo" and lane_bits == 64:
        parts.append("AVX512DQ")
    elif op == "conflict":
        parts.append("AVX512CD")
    else:
        parts.append("AVX512F")
    if bits in (128, 256):
        parts.append("AVX512VL")
    return tuple(parts)


def _op_params(op: str, arity: int, vt: str) -> list[str]:
    names = ["a", "b", "c"][:arity]
    params = [f"{vt} {n}" for n in names]
    if op in ("slli", "srli", "srai", "rol", "ror", "roundscale",
              "reduce", "shufflehi", "shufflelo"):
        params.append("const int imm8" if op not in ("roundscale", "reduce")
                      else "int imm8")
    if op == "shuffle":
        params.append("const int imm8")
    if op == "ternarylogic":
        params.append("int imm8")
    return params


def _avx512_family() -> list[IntrinsicSpec]:
    out: list[IntrinsicSpec] = []
    for op, category, arity, on_int, on_float in _AVX512_OPS:
        suffixes = []
        if on_int:
            suffixes += [s for s in _INT_SUFFIXES]
        if on_float:
            suffixes += [s for s in _FLT_SUFFIXES]
        for suffix, lane_bits, elem_desc, is_float in suffixes:
            if op in _BW_ONLY_OPS and (is_float or lane_bits > 32):
                continue
            if op == "madd" and lane_bits != 16:
                continue
            if op in ("sll", "srl", "sra", "slli", "srli", "srai", "rol",
                      "ror", "rolv", "rorv", "sllv", "srlv",
                      "srav") and lane_bits == 8:
                continue
            if op == "alignr" and lane_bits in (16,):
                continue
            if op in ("fixupimm", "range") and not is_float:
                continue
            if op in ("packs", "packus") and lane_bits not in (16, 32):
                continue
            if op in ("shufflehi", "shufflelo") and lane_bits != 16:
                continue
            if op in ("movehdup", "moveldup") and lane_bits != 32:
                continue
            if op == "movedup" and lane_bits != 64:
                continue
            if op == "broadcastd" and (is_float or lane_bits != 32):
                continue
            for bits in (128, 256, 512):
                prefix = _PREFIX_BY_BITS[bits]
                vt = _vt(bits, is_float, lane_bits)
                cpuids = _avx512_cpuids(bits, lane_bits, is_float, op)
                base_params = _op_params(op, arity, vt)
                mk = f"__mmask{max(8, bits // lane_bits)}"
                for variant in ("", "mask", "maskz"):
                    if op == "blend" and variant != "mask":
                        continue  # blend only exists in mask form
                    if variant == "":
                        name = f"{prefix}_{op}_{suffix}"
                        params = list(base_params)
                    elif variant == "mask":
                        name = f"{prefix}_mask_{op}_{suffix}"
                        params = [f"{vt} src", f"{mk} k"] + list(base_params)
                    else:
                        name = f"{prefix}_maskz_{op}_{suffix}"
                        params = [f"{mk} k"] + list(base_params)
                    mask_desc = {
                        "": "",
                        "mask": " using writemask k (elements are copied "
                                "from src when the corresponding bit is "
                                "not set)",
                        "maskz": " using zeromask k (elements are zeroed "
                                 "when the corresponding bit is not set)",
                    }[variant]
                    out.append(entry(
                        name, vt, params, cpuids, category,
                        _FP if is_float else _INT,
                        f"Perform {op} on {elem_desc} in the source "
                        f"operands and store the results in dst{mask_desc}.",
                        op=for_lanes_pseudocode(
                            bits, lane_bits,
                            "dst[i+{hi}:i] := " + op.upper()
                            + "(...)"),
                    ))
    # Compare-to-mask family.
    for suffix, lane_bits, elem_desc, is_float in _INT_SUFFIXES + _FLT_SUFFIXES:
        for bits in (128, 256, 512):
            prefix = _PREFIX_BY_BITS[bits]
            vt = _vt(bits, is_float, lane_bits)
            mk = f"__mmask{max(8, bits // lane_bits)}"
            cpuids = _avx512_cpuids(bits, lane_bits, is_float, "cmp")
            for variant in ("", "mask_"):
                kparams = [f"{mk} k1"] if variant else []
                name = f"{prefix}_{variant}cmp_{suffix}_mask"
                out.append(entry(
                    name, mk,
                    kparams + [f"{vt} a", f"{vt} b", "const int imm8"],
                    cpuids, "Compare", _FP if is_float else _INT,
                    f"Compare {elem_desc} in a and b using the predicate in "
                    f"imm8 and produce a mask.",
                ))
    # Load/store/set/convert/gather/scatter, VL-complete.
    for suffix, lane_bits, elem_desc, is_float in _INT_SUFFIXES + _FLT_SUFFIXES:
        st = {8: "char", 16: "short", 32: "int", 64: "__int64"}[lane_bits] \
            if not is_float else ("float" if lane_bits == 32 else "double")
        for bits in (128, 256, 512):
            prefix = _PREFIX_BY_BITS[bits]
            vt = _vt(bits, is_float, lane_bits)
            cpuids = _avx512_cpuids(bits, lane_bits, is_float, "load")
            mk = f"__mmask{max(8, bits // lane_bits)}"
            if bits == 512 and suffix not in ("ps",):
                out.append(entry(
                    f"_mm512_loadu_{suffix if is_float else 'si512'}", vt,
                    ["void const* mem_addr"], cpuids, "Load",
                    _FP if is_float else _INT,
                    f"Load 512 bits of {elem_desc} from unaligned memory.",
                ))
                out.append(entry(
                    f"_mm512_storeu_{suffix if is_float else 'si512'}",
                    "void", ["void* mem_addr", f"{vt} a"], cpuids, "Store",
                    _FP if is_float else _INT,
                    f"Store 512 bits of {elem_desc} to unaligned memory.",
                ))
            for variant in ("mask", "maskz"):
                if variant == "mask":
                    out.append(entry(
                        f"{prefix}_mask_loadu_{suffix}", vt,
                        [f"{vt} src", f"{mk} k", "void const* mem_addr"],
                        cpuids, "Load", _FP if is_float else _INT,
                        f"Load {elem_desc} from memory using writemask k.",
                    ))
                    out.append(entry(
                        f"{prefix}_mask_storeu_{suffix}", "void",
                        ["void* mem_addr", f"{mk} k", f"{vt} a"],
                        cpuids, "Store", _FP if is_float else _INT,
                        f"Store {elem_desc} to memory using writemask k.",
                    ))
                else:
                    out.append(entry(
                        f"{prefix}_maskz_loadu_{suffix}", vt,
                        [f"{mk} k", "void const* mem_addr"],
                        cpuids, "Load", _FP if is_float else _INT,
                        f"Load {elem_desc} from memory using zeromask k.",
                    ))
            if bits == 512 and suffix != "ps":
                out.append(entry(
                    f"_mm512_set1_{suffix}", vt, [f"{st} a"], cpuids,
                    "Set", _FP if is_float else _INT,
                    f"Broadcast element a to all lanes of dst.",
                    instr="sequence",
                ))
            if bits < 512:
                out.append(entry(
                    f"{prefix}_mask_set1_{suffix}", vt,
                    [f"{vt} src", f"{mk} k", f"{st} a"], cpuids, "Set",
                    _FP if is_float else _INT,
                    f"Broadcast element a under writemask k.",
                    instr="sequence",
                ))
            if lane_bits in (32, 64):
                idx_t = {128: "__m128i", 256: "__m256i",
                         512: "__m512i"}[bits]
                gather_cpuids = ("AVX512F",) + (("AVX512VL",)
                                                if bits < 512 else ())
                for variant in ("", "mask_"):
                    kpre = ([f"{vt} src", f"{mk} k"] if variant else [])
                    out.append(entry(
                        f"{prefix}_{variant}i{lane_bits}gather_{suffix}"
                        if bits == 512 or variant else
                        f"{prefix}_avx512_i{lane_bits}gather_{suffix}",
                        vt,
                        kpre + [f"{idx_t} vindex", "void const* base_addr",
                                "int scale"],
                        gather_cpuids, "Load", _FP if is_float else _INT,
                        f"Gather {elem_desc} from memory at base_addr + "
                        f"vindex*scale.",
                    ))
                    out.append(entry(
                        f"{prefix}_{variant}i{lane_bits}scatter_{suffix}"
                        if bits == 512 or variant else
                        f"{prefix}_avx512_i{lane_bits}scatter_{suffix}",
                        "void",
                        (["void* base_addr", f"{mk} k"] if variant else
                         ["void* base_addr"])
                        + [f"{idx_t} vindex", f"{vt} a", "int scale"],
                        gather_cpuids, "Store", _FP if is_float else _INT,
                        f"Scatter {elem_desc} to memory at base_addr + "
                        f"vindex*scale.",
                    ))
    # Reductions and conversions.
    for red in ("add", "mul", "min", "max", "and", "or"):
        for suffix, lane_bits, elem_desc, is_float in (
                ("epi32", 32, "packed 32-bit integers", False),
                ("epi64", 64, "packed 64-bit integers", False),
                ("ps", 32, "packed single-precision elements", True),
                ("pd", 64, "packed double-precision elements", True)):
            if red in ("and", "or") and is_float:
                continue
            if red == "add" and suffix == "ps":
                continue  # curated in core
            st = ("float" if lane_bits == 32 else "double") if is_float else (
                "int" if lane_bits == 32 else "__int64")
            out.append(entry(
                f"_mm512_reduce_{red}_{suffix}", st,
                [f"{_vt(512, is_float, lane_bits)} a"],
                ("AVX512F",), "Arithmetic", _FP if is_float else _INT,
                f"Reduce {elem_desc} in a by {red}.", instr="sequence",
            ))
    for src_sfx, dst_sfx in (("epi32", "ps"), ("ps", "epi32"),
                             ("epi32", "pd"), ("pd", "epi32"),
                             ("epi64", "pd"), ("pd", "epi64"),
                             ("ps", "pd"), ("pd", "ps"),
                             ("epu32", "ps"), ("ps", "epu32"),
                             ("epi8", "epi32"), ("epi16", "epi32"),
                             ("epi8", "epi16"), ("epi16", "epi8"),
                             ("epi32", "epi16"), ("epi32", "epi8"),
                             ("epi64", "epi32"), ("epi32", "epi64")):
        for bits in (128, 256, 512):
            prefix = _PREFIX_BY_BITS[bits]
            cpuids = ("AVX512F",) + (("AVX512VL",) if bits < 512 else ())
            vt = {128: "__m128i", 256: "__m256i", 512: "__m512i"}[bits]
            mk = "__mmask16" if bits == 512 else "__mmask8"
            for variant in ("", "mask_", "maskz_"):
                if variant == "":
                    params = [f"{vt} a"]
                elif variant == "mask_":
                    params = [f"{vt} src", f"{mk} k", f"{vt} a"]
                else:
                    params = [f"{mk} k", f"{vt} a"]
                out.append(entry(
                    f"{prefix}_{variant}cvt_{src_sfx}_{dst_sfx}",
                    vt, params, cpuids, "Convert", _INT,
                    f"Convert packed {src_sfx} elements to {dst_sfx} "
                    f"elements.",
                ))
    # Mask-register support ops.
    for mk_bits in (8, 16, 32, 64):
        mk = f"__mmask{mk_bits}"
        for mop in ("kand", "kor", "kxor", "kandn", "kxnor"):
            out.append(entry(
                f"_{mop}_mask{mk_bits}", mk, [f"{mk} a", f"{mk} b"],
                ("AVX512BW",) if mk_bits > 16 else ("AVX512F",),
                "Mask", "Mask",
                f"Compute the bitwise {mop[1:].upper()} of {mk_bits}-bit "
                f"masks a and b.",
            ))
        out.append(entry(
            f"_knot_mask{mk_bits}", mk, [f"{mk} a"],
            ("AVX512BW",) if mk_bits > 16 else ("AVX512F",), "Mask", "Mask",
            f"Compute the bitwise NOT of {mk_bits}-bit mask a.",
        ))
    return out


# ---------------------------------------------------------------------------
# KNC: 512-bit first-generation MIC ISA.  338 of the AVX-512 entries are
# shared (tagged with KNCNI as well); the rest are KNC-only exotics.
# ---------------------------------------------------------------------------

_KNC_SHARED_TARGET = 343


def _knc_only() -> list[IntrinsicSpec]:
    out: list[IntrinsicSpec] = []
    exotic = (
        ("addn", "Arithmetic", 2, "Add and negate the sum of"),
        ("subr", "Arithmetic", 2, "Reverse-subtract"),
        ("fmadd233", "Arithmetic", 2,
         "Multiply-add with pattern 233 applied to"),
        ("scale", "Arithmetic", 2, "Scale by powers of two"),
        ("rcp23", "Elementary Math Functions", 1,
         "Compute the 23-bit reciprocal of"),
        ("rsqrt23", "Elementary Math Functions", 1,
         "Compute the 23-bit reciprocal square root of"),
        ("log2ae23", "Elementary Math Functions", 1,
         "Compute the 23-bit base-2 logarithm of"),
        ("exp223", "Elementary Math Functions", 1,
         "Compute 2^x with 23-bit accuracy for"),
        ("round_ps" , "Special Math Functions", 1, "Round"),
        ("swizzle", "Swizzle", 1, "Swizzle"),
    )
    sfxs = (("ps", 32, True), ("pd", 64, True), ("epi32", 32, False),
            ("epi64", 64, False))
    for op, category, arity, verb in exotic:
        for suffix, lane_bits, is_float in sfxs:
            if op in ("rcp23", "rsqrt23", "log2ae23", "exp223") and \
                    (not is_float or lane_bits != 32):
                continue
            if op == "round_ps" and suffix != "ps":
                continue
            name = (f"_mm512_{op}" if op.endswith(suffix)
                    else f"_mm512_{op}_{suffix}")
            vt = _vt(512, is_float, lane_bits)
            params = [f"{vt} {n}" for n in ("a", "b", "c")[:arity]]
            if op == "swizzle":
                params.append("int pattern")
            mk = f"__mmask{512 // lane_bits}"
            for variant in ("", "mask_"):
                vname = name.replace("_mm512_", f"_mm512_{variant}")
                vparams = ([f"{vt} src", f"{mk} k"] if variant else []) + params
                out.append(entry(
                    vname, vt, vparams, "KNCNI", category,
                    _FP if is_float else _INT,
                    f"{verb} packed elements in the source operands (KNC).",
                ))
    # KNC load/store exotics.
    for op, desc in (
            ("extload", "Load and up-convert elements from memory"),
            ("extstore", "Down-convert and store elements to memory"),
            ("storenr", "Store with a no-read hint"),
            ("loadunpacklo", "Load and unpack the low elements"),
            ("loadunpackhi", "Load and unpack the high elements"),
            ("packstorelo", "Pack and store the low elements"),
            ("packstorehi", "Pack and store the high elements")):
        for suffix in ("ps", "pd", "epi32", "epi64"):
            is_float = suffix in ("ps", "pd")
            vt = _vt(512, is_float, 32 if suffix in ("ps", "epi32") else 64)
            is_store = "store" in op
            params = (["void* mt", f"{vt} v"] if is_store
                      else [f"{vt} src", "void const* mt"])
            out.append(entry(
                f"_mm512_{op}_{suffix}", "void" if is_store else vt,
                params, "KNCNI", "Store" if is_store else "Load",
                _FP if is_float else _INT, f"{desc} (KNC).",
            ))
    # KNC prefetch / conversion helpers.
    for i in range(16):
        out.append(entry(
            f"_mm512_kncgather_variant{i}_ps", "__m512",
            ["__m512i vindex", "void const* base", "int scale", "int hint"],
            "KNCNI", "Load", _FP,
            f"Gather with locality hint variant {i} (KNC)."))
        out.append(entry(
            f"_mm512_kncscatter_variant{i}_ps", "void",
            ["void* base", "__m512i vindex", "__m512 v", "int scale",
             "int hint"],
            "KNCNI", "Store", _FP,
            f"Scatter with locality hint variant {i} (KNC)."))
    return out


def _mark_knc_shared(avx512_entries: list[IntrinsicSpec]) -> list[IntrinsicSpec]:
    """Tag the first N plain-F 512-bit entries as shared with KNC."""
    shared = 0
    out: list[IntrinsicSpec] = []
    for e in avx512_entries:
        if (shared < _KNC_SHARED_TARGET and e.name.startswith("_mm512_")
                and e.cpuids == ("AVX512F",)):
            out.append(IntrinsicSpec(
                name=e.name, rettype=e.rettype, params=e.params,
                cpuids=e.cpuids + ("KNCNI",), category=e.category,
                types=e.types, description=e.description,
                operation=e.operation, instructions=e.instructions,
                header=e.header))
            shared += 1
        else:
            out.append(e)
    return out


# ---------------------------------------------------------------------------
# SVML: the short vector math library (Table 1b: 406).
# ---------------------------------------------------------------------------

_SVML_FUNCS = (
    ("acos", "Trigonometry"), ("acosh", "Trigonometry"),
    ("asin", "Trigonometry"), ("asinh", "Trigonometry"),
    ("atan", "Trigonometry"), ("atan2", "Trigonometry"),
    ("atanh", "Trigonometry"), ("cbrt", "Elementary Math Functions"),
    ("cdfnorminv", "Probability/Statistics"),
    ("cosd", "Trigonometry"), ("cosh", "Trigonometry"),
    ("erfc", "Probability/Statistics"),
    ("erfinv", "Probability/Statistics"),
    ("exp10", "Elementary Math Functions"),
    ("exp2", "Elementary Math Functions"),
    ("expm1", "Elementary Math Functions"),
    ("hypot", "Elementary Math Functions"),
    ("log10", "Elementary Math Functions"),
    ("log1p", "Elementary Math Functions"),
    ("log2", "Elementary Math Functions"),
    ("logb", "Elementary Math Functions"),
    ("sind", "Trigonometry"), ("sinh", "Trigonometry"),
    ("tand", "Trigonometry"), ("tanh", "Trigonometry"),
    ("svml_ceil", "Special Math Functions"),
    ("svml_floor", "Special Math Functions"),
    ("svml_round", "Special Math Functions"),
    ("svml_sqrt", "Elementary Math Functions"),
    ("trunc", "Special Math Functions"),
    ("nearbyint", "Special Math Functions"),
    ("rint", "Special Math Functions"),
)

_BINARY_SVML = {"atan2", "hypot"}


def _svml_family() -> list[IntrinsicSpec]:
    out: list[IntrinsicSpec] = []
    for fn, category in _SVML_FUNCS:
        for bits in (128, 256, 512):
            prefix = _PREFIX_BY_BITS[bits]
            for suffix, lane_bits in (("ps", 32), ("pd", 64)):
                vt = _vt(bits, True, lane_bits)
                arity = 2 if fn in _BINARY_SVML else 1
                params = [f"{vt} {n}" for n in ("a", "b")[:arity]]
                cpuids = ("SVML",) if bits < 512 else ("SVML", "AVX512F")
                out.append(entry(
                    f"{prefix}_{fn}_{suffix}", vt, params, cpuids, category,
                    _FP,
                    f"Compute {fn} of {suffix} elements in the source "
                    f"operand(s).", instr="sequence"))
    # Integer division / remainder families.
    for fn in ("div", "rem"):
        for sfx in ("epi8", "epi16", "epi32", "epi64",
                    "epu8", "epu16", "epu32", "epu64"):
            for bits in (128, 256, 512):
                if fn == "div" and sfx == "epi32" and bits == 256:
                    continue  # curated in core
                prefix = _PREFIX_BY_BITS[bits]
                vt = {128: "__m128i", 256: "__m256i", 512: "__m512i"}[bits]
                cpuids = ("SVML",) if bits < 512 else ("SVML", "AVX512F")
                out.append(entry(
                    f"{prefix}_{fn}_{sfx}", vt, [f"{vt} a", f"{vt} b"],
                    cpuids, "Arithmetic", _INT,
                    f"Compute the {fn} of packed {sfx} integers.",
                    instr="sequence"))
    # sincos returns sin and stores cos through a pointer.
    for bits in (128, 256, 512):
        prefix = _PREFIX_BY_BITS[bits]
        for suffix, lane_bits in (("ps", 32), ("pd", 64)):
            vt = _vt(bits, True, lane_bits)
            cpuids = ("SVML",) if bits < 512 else ("SVML", "AVX512F")
            out.append(entry(
                f"{prefix}_sincos_{suffix}", vt,
                [f"{vt}* cos_res", f"{vt} a"], cpuids, "Trigonometry", _FP,
                "Compute sine and cosine; return sine, store cosine.",
                instr="sequence"))
    return out


# ---------------------------------------------------------------------------
# Legacy ISA fill: MMX / SSE / SSE2 / SSSE3 / SSE4.1 / SSE4.2 / AVX / AVX2.
# ---------------------------------------------------------------------------


def _mmx_family() -> list[IntrinsicSpec]:
    out: list[IntrinsicSpec] = []
    for sfx, bits in (("pi8", 8), ("pi16", 16), ("pi32", 32)):
        for op, category in (("adds", "Arithmetic"), ("subs", "Arithmetic"),
                             ("cmpeq", "Compare"), ("cmpgt", "Compare"),
                             ("unpacklo", "Swizzle"), ("unpackhi", "Swizzle")):
            if op in ("adds", "subs") and bits == 32:
                continue
            out.append(entry(
                f"_mm_{op}_{sfx}", "__m64", ["__m64 a", "__m64 b"],
                "MMX", category, _INT,
                f"{op} of packed {bits}-bit integers (MMX)."))
        for op in ("sll", "srl", "slli", "srli"):
            if bits == 8:
                continue
            imm = op.endswith("i")
            out.append(entry(
                f"_mm_{op}_{sfx}", "__m64",
                ["__m64 a", "int imm8" if imm else "__m64 count"],
                "MMX", "Shift", _INT,
                f"Shift packed {bits}-bit integers (MMX)."))
    for sfx in ("pu8", "pu16"):
        for op in ("adds", "subs"):
            out.append(entry(
                f"_mm_{op}_{sfx}", "__m64", ["__m64 a", "__m64 b"],
                "MMX", "Arithmetic", _INT,
                f"Saturating {op[:-1]} of packed unsigned integers (MMX)."))
    out += [
        entry("_mm_mullo_pi16", "__m64", ["__m64 a", "__m64 b"],
              "MMX", "Arithmetic", _INT,
              "Multiply packed 16-bit integers, store low 16 bits (MMX)."),
        entry("_mm_mulhi_pi16", "__m64", ["__m64 a", "__m64 b"],
              "MMX", "Arithmetic", _INT,
              "Multiply packed signed 16-bit integers, store high 16 bits "
              "(MMX)."),
        entry("_mm_packs_pi16", "__m64", ["__m64 a", "__m64 b"],
              "MMX", "Miscellaneous", _INT,
              "Pack 16-bit to 8-bit integers with signed saturation (MMX)."),
        entry("_mm_packs_pi32", "__m64", ["__m64 a", "__m64 b"],
              "MMX", "Miscellaneous", _INT,
              "Pack 32-bit to 16-bit integers with signed saturation (MMX)."),
        entry("_mm_cvtm64_si64", "__int64", ["__m64 a"],
              "MMX", "Convert", _INT, "Copy 64 bits from a to dst (MMX)."),
        entry("_mm_cvtsi64_m64", "__m64", ["__int64 a"],
              "MMX", "Convert", _INT, "Copy 64 bits from a to dst (MMX)."),
        entry("_mm_setzero_si64", "__m64", [], "MMX", "Set", _INT,
              "Return a 64-bit vector with all bits zeroed (MMX)."),
    ]
    for sfx in ("pi16", "pi32"):
        out.append(entry(
            f"_mm_sra_{sfx}", "__m64", ["__m64 a", "__m64 count"],
            "MMX", "Shift", _INT, "Arithmetic right shift (MMX)."))
        out.append(entry(
            f"_mm_srai_{sfx}", "__m64", ["__m64 a", "int imm8"],
            "MMX", "Shift", _INT, "Arithmetic right shift by imm8 (MMX)."))
    return out


def _legacy_scalar_family() -> list[IntrinsicSpec]:
    """Scalar ss/sd operations and comparisons for SSE/SSE2."""
    out: list[IntrinsicSpec] = []
    for suffix, vt, st, cpuid in (("ss", "__m128", "float", "SSE"),
                                  ("sd", "__m128d", "double", "SSE2")):
        for op in ("sub", "mul" if suffix == "sd" else "div", "div", "min",
                   "max", "sqrt"):
            arity = 1 if op == "sqrt" else 2
            params = [f"{vt} a"] + ([f"{vt} b"] if arity == 2 else [])
            out.append(entry(
                f"_mm_{op}_{suffix}", vt, params, cpuid, "Arithmetic", _FP,
                f"{op} on the lowest element; upper elements copied from a."))
        for cmp in ("comieq", "comilt", "comile", "comigt", "comige",
                    "comineq", "ucomieq", "ucomilt"):
            out.append(entry(
                f"_mm_{cmp}_{suffix}", "int", [f"{vt} a", f"{vt} b"],
                cpuid, "Compare", _FP,
                f"Compare the lowest elements of a and b for "
                f"{cmp.lstrip('u')[4:]} and return the boolean result."))
        out.append(entry(
            f"_mm_set_{suffix}", vt, [f"{st} a"], cpuid, "Set", _FP,
            "Copy element a to the lowest lane; zero the upper lanes."))
        out.append(entry(
            f"_mm_load_{suffix}", vt, [f"{st} const* mem_addr"], cpuid,
            "Load", _FP, "Load one element into the lowest lane."))
        out.append(entry(
            f"_mm_store_{suffix}", "void", [f"{st}* mem_addr", f"{vt} a"],
            cpuid, "Store", _FP, "Store the lowest element to memory."))
        out.append(entry(
            f"_mm_cvtsi32_{suffix}", vt, [f"{vt} a", "int b"], cpuid,
            "Convert", _FP,
            "Convert a 32-bit integer to the lowest lane."))
        out.append(entry(
            f"_mm_cvt{suffix}_si32", "int", [f"{vt} a"], cpuid,
            "Convert", _FP,
            "Convert the lowest element to a 32-bit integer."))
    # Streaming / prefetch.
    out += [
        entry("_mm_stream_ps", "void", ["float* mem_addr", "__m128 a"],
              "SSE", "Store", _FP,
              "Store packed single-precision elements using a non-temporal "
              "hint."),
        entry("_mm_stream_si128", "void", ["__m128i* mem_addr", "__m128i a"],
              "SSE2", "Store", _INT,
              "Store 128 bits of integer data using a non-temporal hint."),
        entry("_mm_prefetch", "void", ["char const* p", "int i"],
              "SSE", "General Support", _INT,
              "Fetch the cache line containing p using locality hint i."),
        entry("_mm_sfence", "void", [], "SSE", "General Support", _INT,
              "Perform a store fence."),
        entry("_mm_lfence", "void", [], "SSE2", "General Support", _INT,
              "Perform a load fence."),
        entry("_mm_mfence", "void", [], "SSE2", "General Support", _INT,
              "Perform a full memory fence."),
        entry("_mm_pause", "void", [], "SSE2", "General Support", _INT,
              "Hint to the processor that the code is a spin-wait loop."),
    ]
    return out


def _legacy_fill() -> list[IntrinsicSpec]:
    """Additional systematic SSE2/SSE4.1/AVX/AVX2 members."""
    out: list[IntrinsicSpec] = []
    # SSE2 double-precision compare family.
    for cmp, sym in (("cmpeq", "=="), ("cmplt", "<"), ("cmple", "<="),
                     ("cmpgt", ">"), ("cmpge", ">="), ("cmpneq", "!=")):
        out.append(entry(
            f"_mm_{cmp}_pd", "__m128d", ["__m128d a", "__m128d b"],
            "SSE2", "Compare", _FP,
            f"Compare packed double-precision elements for {cmp[3:]}."))
    # SSE4.1 rounding.
    for fn in ("ceil", "floor", "round"):
        for suffix, vt in (("ps", "__m128"), ("pd", "__m128d"),
                           ("ss", "__m128"), ("sd", "__m128d")):
            params = [f"{vt} a"]
            if fn == "round":
                params.append("int rounding")
            if suffix in ("ss", "sd"):
                params = [f"{vt} a", f"{vt} b"] + params[1:]
            out.append(entry(
                f"_mm_{fn}_{suffix}", vt, params, "SSE4.1",
                "Special Math Functions", _FP,
                f"Round packed elements {fn if fn != 'round' else 'using the rounding parameter'}."))
    # SSE4.1 extend family completion.
    for src in ("epi8", "epi16", "epi32", "epu8", "epu16", "epu32"):
        for dst in ("epi16", "epi32", "epi64"):
            src_bits = int(src.lstrip("epiu"))
            dst_bits = int(dst.lstrip("epi"))
            if dst_bits <= src_bits:
                continue
            name = f"_mm_cvt{src}_{dst}"
            if name in ("_mm_cvtepi8_epi16", "_mm_cvtepi8_epi32",
                        "_mm_cvtepi16_epi32", "_mm_cvtepu8_epi16"):
                continue  # curated in core
            out.append(entry(
                name, "__m128i", ["__m128i a"], "SSE4.1", "Convert", _INT,
                f"{'Sign' if src.startswith('epi') else 'Zero'} extend packed "
                f"{src_bits}-bit integers to {dst_bits}-bit integers."))
    # SSE4.1 min/max completion.
    for mm in ("min", "max"):
        for sfx in ("epi8", "epu16", "epu32"):
            out.append(entry(
                f"_mm_{mm}_{sfx}", "__m128i", ["__m128i a", "__m128i b"],
                "SSE4.1", "Special Math Functions", _INT,
                f"{mm} of packed {sfx} integers."))
    out += [
        entry("_mm_minpos_epu16", "__m128i", ["__m128i a"],
              "SSE4.1", "Miscellaneous", _INT,
              "Find the minimum unsigned 16-bit element and its index."),
        entry("_mm_mpsadbw_epu8", "__m128i",
              ["__m128i a", "__m128i b", "const int imm8"],
              "SSE4.1", "Miscellaneous", _INT,
              "Eight offset sums of absolute differences."),
        entry("_mm_testc_si128", "int", ["__m128i a", "__m128i b"],
              "SSE4.1", "Logical", _INT,
              "Return the CF flag of (NOT a) AND b test."),
        entry("_mm_testnzc_si128", "int", ["__m128i a", "__m128i b"],
              "SSE4.1", "Logical", _INT,
              "Return 1 when both ZF and CF of the test are zero."),
        entry("_mm_stream_load_si128", "__m128i", ["__m128i* mem_addr"],
              "SSE4.1", "Load", _INT,
              "Load 128 bits of integer data using a non-temporal hint."),
        entry("_mm_blend_pd", "__m128d",
              ["__m128d a", "__m128d b", "const int imm8"],
              "SSE4.1", "Swizzle", _FP, "Blend packed double-precision "
              "elements using imm8."),
        entry("_mm_blendv_pd", "__m128d",
              ["__m128d a", "__m128d b", "__m128d mask"],
              "SSE4.1", "Swizzle", _FP, "Blend packed double-precision "
              "elements using the mask sign bits."),
        entry("_mm_blend_epi16", "__m128i",
              ["__m128i a", "__m128i b", "const int imm8"],
              "SSE4.1", "Swizzle", _INT, "Blend packed 16-bit integers "
              "using imm8."),
        entry("_mm_blendv_epi8", "__m128i",
              ["__m128i a", "__m128i b", "__m128i mask"],
              "SSE4.1", "Swizzle", _INT, "Blend packed 8-bit integers using "
              "the mask sign bits."),
        entry("_mm_dp_pd", "__m128d", ["__m128d a", "__m128d b", "const int imm8"],
              "SSE4.1", "Arithmetic", _FP, "Conditional dot product of "
              "double-precision elements."),
    ]
    for sfx in ("epi8", "epi32", "epi64"):
        out.append(entry(
            f"_mm_extract_{sfx}" if sfx != "epi32" else "_mm_extract_epi16",
            "int", ["__m128i a", "const int imm8"],
            "SSE4.1" if sfx != "epi32" else "SSE2", "Swizzle", _INT,
            f"Extract an integer lane selected by imm8."))
    # AVX float/double completion.
    for fn, cat in (("permute_pd", "Swizzle"), ("permutevar_ps", "Swizzle"),
                    ("hsub_ps", "Arithmetic"), ("hsub_pd", "Arithmetic"),
                    ("addsub_ps", "Arithmetic"), ("addsub_pd", "Arithmetic"),
                    ("rcp_ps", "Elementary Math Functions"),
                    ("rsqrt_ps", "Elementary Math Functions"),
                    ("ceil_ps", "Special Math Functions"),
                    ("ceil_pd", "Special Math Functions"),
                    ("floor_pd", "Special Math Functions"),
                    ("movehdup_ps", "Move"), ("moveldup_ps", "Move"),
                    ("movedup_pd", "Move"), ("movemask_pd", "Miscellaneous"),
                    ("testz_ps", "Logical"), ("testc_ps", "Logical"),
                    ("testz_pd", "Logical"), ("testc_pd", "Logical"),
                    ("testz_si256", "Logical"), ("testc_si256", "Logical")):
        base, _, sfx = fn.rpartition("_")
        vt = {"ps": "__m256", "pd": "__m256d", "si256": "__m256i"}[sfx]
        ret = "int" if base.startswith(("test", "movemask")) else vt
        arity = 1 if base in ("rcp", "rsqrt", "ceil", "floor", "movehdup",
                              "moveldup", "movedup", "movemask") else 2
        params = [f"{vt} a"] + ([f"{vt} b"] if arity == 2 else [])
        if base.startswith("permutevar"):
            params = [f"{vt} a", "__m256i b"]
        if base == "permute":
            params = [f"{vt} a", "int imm8"]
        out.append(entry(
            f"_mm256_{fn}", ret, params, "AVX", cat, _FP,
            f"AVX 256-bit {base} on {sfx} data."))
    for loader in ("load_pd", "loadu_pd", "load_si256", "lddqu_si256",
                   "store_si256", "stream_ps", "stream_pd", "stream_si256"):
        base, _, sfx = loader.partition("_")
        vt = {"pd": "__m256d", "si256": "__m256i", "ps": "__m256"}[
            sfx.split("_")[-1] if "_" in sfx else sfx]
        is_store = base in ("store", "stream")
        name = f"_mm256_{loader}"
        if name in ("_mm256_load_pd", "_mm256_loadu_pd"):
            continue  # curated
        st = {"__m256": "float", "__m256d": "double",
              "__m256i": "__m256i"}[vt]
        params = ([f"{st}* mem_addr", f"{vt} a"] if is_store
                  else [f"{st} const* mem_addr"])
        out.append(entry(
            name, "void" if is_store else vt, params, "AVX",
            "Store" if is_store else "Load", _FP if "s" != sfx else _INT,
            f"AVX 256-bit {'store' if is_store else 'load'}."))
    for setter in ("set_pd", "setr_ps", "setr_pd", "set_epi32", "setr_epi32",
                   "set_epi16", "set_epi8", "set1_pd"):
        sfx = setter.split("_")[-1]
        vt = {"ps": "__m256", "pd": "__m256d", "epi32": "__m256i",
              "epi16": "__m256i", "epi8": "__m256i"}[sfx]
        count = {"ps": 8, "pd": 4, "epi32": 8, "epi16": 16, "epi8": 32}[sfx]
        st = {"ps": "float", "pd": "double", "epi32": "int",
              "epi16": "short", "epi8": "char"}[sfx]
        if setter == "set1_pd":
            continue  # curated
        params = [f"{st} e{i}" for i in reversed(range(count))]
        out.append(entry(
            f"_mm256_{setter}", vt, params, "AVX", "Set",
            _FP if sfx in ("ps", "pd") else _INT,
            f"Set packed elements with the supplied values."))
    # AVX2 variable shifts, broadcasts and remaining gathers.
    for op in ("sllv", "srlv", "srav"):
        for sfx in ("epi32", "epi64"):
            if op == "srav" and sfx == "epi64":
                continue
            for prefix in ("_mm", "_mm256"):
                vt = "__m128i" if prefix == "_mm" else "__m256i"
                out.append(entry(
                    f"{prefix}_{op}_{sfx}", vt,
                    [f"{vt} a", f"{vt} count"], "AVX2", "Shift", _INT,
                    f"Shift packed {sfx} integers by per-lane counts."))
    for b in ("broadcastb_epi8", "broadcastw_epi16", "broadcastd_epi32",
              "broadcastq_epi64", "broadcastss_ps", "broadcastsd_pd"):
        sfx = b.split("_")[-1]
        for prefix in ("_mm", "_mm256"):
            if prefix == "_mm" and sfx == "pd":
                continue
            src_vt = {"epi8": "__m128i", "epi16": "__m128i",
                      "epi32": "__m128i", "epi64": "__m128i",
                      "ps": "__m128", "pd": "__m128d"}[sfx]
            dst_vt = {"_mm": {"ps": "__m128", "pd": "__m128d"},
                      "_mm256": {"ps": "__m256", "pd": "__m256d"}}[
                prefix].get(sfx, "__m128i" if prefix == "_mm" else "__m256i")
            out.append(entry(
                f"{prefix}_{b}", dst_vt, [f"{src_vt} a"], "AVX2",
                "Swizzle", _FP if sfx in ("ps", "pd") else _INT,
                f"Broadcast the lowest element of a to all lanes of dst."))
    for g in ("i32gather_pd", "i64gather_ps", "i64gather_pd",
              "i64gather_epi32", "i64gather_epi64", "i32gather_epi64"):
        for prefix in ("_mm", "_mm256"):
            sfx = g.split("_")[-1]
            vt = {"ps": "__m128" if prefix == "_mm" else "__m256",
                  "pd": "__m128d" if prefix == "_mm" else "__m256d",
                  "epi32": "__m128i" if prefix == "_mm" else "__m256i",
                  "epi64": "__m128i" if prefix == "_mm" else "__m256i"}[sfx]
            st = {"ps": "float", "pd": "double", "epi32": "int",
                  "epi64": "__int64"}[sfx]
            idx_vt = "__m128i" if (prefix == "_mm" or "i64" in g) else "__m256i"
            out.append(entry(
                f"{prefix}_{g}", vt,
                [f"{st} const* base_addr", f"{idx_vt} vindex",
                 "const int scale"],
                "AVX2", "Load", _FP if sfx in ("ps", "pd") else _INT,
                f"Gather elements from memory at base_addr + vindex*scale."))
    for m in ("maskload_epi32", "maskload_epi64", "maskstore_epi32",
              "maskstore_epi64"):
        for prefix in ("_mm", "_mm256"):
            vt = "__m128i" if prefix == "_mm" else "__m256i"
            is_store = "store" in m
            st = "int" if "epi32" in m else "__int64"
            params = ([f"{st}* mem_addr", f"{vt} mask", f"{vt} a"]
                      if is_store else [f"{st} const* mem_addr", f"{vt} mask"])
            out.append(entry(
                f"{prefix}_{m}", "void" if is_store else vt, params, "AVX2",
                "Store" if is_store else "Load", _INT,
                f"Masked {'store' if is_store else 'load'} of {st} elements."))
    return out


def _avx512_widening() -> list[IntrinsicSpec]:
    """Unsigned compares/min/max, IFMA52, ER and expand/compress loads."""
    out: list[IntrinsicSpec] = []
    # Unsigned integer families (min/max/avg/cmp on epu lanes).
    for op, category in (("min", "Special Math Functions"),
                         ("max", "Special Math Functions"),
                         ("avg", "Probability/Statistics")):
        for lane_bits in (8, 16, 32, 64):
            if op == "avg" and lane_bits > 16:
                continue
            suffix = f"epu{lane_bits}"
            for bits in (128, 256, 512):
                prefix = _PREFIX_BY_BITS[bits]
                vt = _vt(bits, False, lane_bits)
                cpuids = _avx512_cpuids(bits, lane_bits, False, op)
                mk = f"__mmask{max(8, bits // lane_bits)}"
                for variant in ("", "mask", "maskz"):
                    if variant == "":
                        name = f"{prefix}_{op}_{suffix}"
                        params = [f"{vt} a", f"{vt} b"]
                    elif variant == "mask":
                        name = f"{prefix}_mask_{op}_{suffix}"
                        params = [f"{vt} src", f"{mk} k", f"{vt} a",
                                  f"{vt} b"]
                    else:
                        name = f"{prefix}_maskz_{op}_{suffix}"
                        params = [f"{mk} k", f"{vt} a", f"{vt} b"]
                    out.append(entry(
                        name, vt, params, cpuids, category, _INT,
                        f"Compute {op} of packed unsigned {lane_bits}-bit "
                        f"integers."))
    # Unsigned compare-to-mask.
    for lane_bits in (8, 16, 32, 64):
        suffix = f"epu{lane_bits}"
        for bits in (128, 256, 512):
            prefix = _PREFIX_BY_BITS[bits]
            vt = _vt(bits, False, lane_bits)
            mk = f"__mmask{max(8, bits // lane_bits)}"
            cpuids = _avx512_cpuids(bits, lane_bits, False, "cmp")
            for variant in ("", "mask_"):
                kparams = [f"{mk} k1"] if variant else []
                out.append(entry(
                    f"{prefix}_{variant}cmp_{suffix}_mask", mk,
                    kparams + [f"{vt} a", f"{vt} b", "const int imm8"],
                    cpuids, "Compare", _INT,
                    f"Compare packed unsigned {lane_bits}-bit integers by "
                    f"the predicate in imm8."))
    # IFMA52 (52-bit fused integer multiply-add on epi64 lanes).
    for op in ("madd52lo", "madd52hi"):
        for bits in (128, 256, 512):
            prefix = _PREFIX_BY_BITS[bits]
            vt = _vt(bits, False, 64)
            cpuids = ("AVX512IFMA52",) + (("AVX512VL",) if bits < 512
                                          else ())
            mk = f"__mmask8"
            for variant in ("", "mask", "maskz"):
                if variant == "":
                    name = f"{prefix}_{op}_epu64"
                    params = [f"{vt} a", f"{vt} b", f"{vt} c"]
                elif variant == "mask":
                    name = f"{prefix}_mask_{op}_epu64"
                    params = [f"{vt} a", f"{mk} k", f"{vt} b", f"{vt} c"]
                else:
                    name = f"{prefix}_maskz_{op}_epu64"
                    params = [f"{mk} k", f"{vt} a", f"{vt} b", f"{vt} c"]
                out.append(entry(
                    name, vt, params, cpuids, "Arithmetic", _INT,
                    f"Multiply 52-bit unsigned integers and add the "
                    f"{'low' if op.endswith('lo') else 'high'} 52 product "
                    f"bits to the accumulator."))
    # ER approximations (512-bit only).
    for op in ("rcp28", "rsqrt28", "exp2a23"):
        for suffix in ("ps", "pd"):
            if op == "exp2a23" and suffix == "pd":
                continue
            vt = _vt(512, True, 32 if suffix == "ps" else 64)
            mk = f"__mmask{512 // (32 if suffix == 'ps' else 64)}"
            for variant in ("", "mask", "maskz"):
                if variant == "":
                    name = f"_mm512_{op}_{suffix}"
                    params = [f"{vt} a"]
                elif variant == "mask":
                    name = f"_mm512_mask_{op}_{suffix}"
                    params = [f"{vt} src", f"{mk} k", f"{vt} a"]
                else:
                    name = f"_mm512_maskz_{op}_{suffix}"
                    params = [f"{mk} k", f"{vt} a"]
                out.append(entry(
                    name, vt, params, ("AVX512ER",),
                    "Elementary Math Functions", _FP,
                    f"Compute {op} with 28-bit (2^-23) accuracy."))
    # Expand-load / compress-store (F + VL).
    for suffix, lane_bits, is_float in (("ps", 32, True), ("pd", 64, True),
                                        ("epi32", 32, False),
                                        ("epi64", 64, False)):
        for bits in (128, 256, 512):
            prefix = _PREFIX_BY_BITS[bits]
            vt = _vt(bits, is_float, lane_bits)
            mk = f"__mmask{max(8, bits // lane_bits)}"
            cpuids = _avx512_cpuids(bits, lane_bits, is_float, "expand")
            out.append(entry(
                f"{prefix}_mask_expandloadu_{suffix}", vt,
                [f"{vt} src", f"{mk} k", "void const* mem_addr"],
                cpuids, "Load", _FP if is_float else _INT,
                "Load contiguous elements and expand them into the lanes "
                "selected by k."))
            out.append(entry(
                f"{prefix}_mask_compressstoreu_{suffix}", "void",
                ["void* base_addr", f"{mk} k", f"{vt} a"],
                cpuids, "Store", _FP if is_float else _INT,
                "Compress the lanes selected by k and store them "
                "contiguously."))
    # Broadcast family.
    for src, suffix in (("b", "epi8"), ("w", "epi16"), ("d", "epi32"),
                        ("q", "epi64")):
        for bits in (128, 256, 512):
            prefix = _PREFIX_BY_BITS[bits]
            vt = _vt(bits, False, int(suffix[3:]))
            lane_bits = int(suffix[3:])
            mk = f"__mmask{max(8, bits // lane_bits)}"
            cpuids = _avx512_cpuids(bits, lane_bits, False, "broadcast")
            for variant in ("mask", "maskz"):
                kpre = ([f"{vt} src", f"{mk} k"] if variant == "mask"
                        else [f"{mk} k"])
                out.append(entry(
                    f"{prefix}_{variant}_broadcast{src}_{suffix}", vt,
                    kpre + ["__m128i a"], cpuids, "Swizzle", _INT,
                    f"Broadcast the lowest {lane_bits}-bit lane under "
                    f"writemask."))
    return out


def _knc_widening() -> list[IntrinsicSpec]:
    """KNC mask ops, reductions and remaining exotics."""
    out: list[IntrinsicSpec] = []
    for mop in ("kand", "kandn", "kor", "kxor", "kxnor", "knot", "kmov",
                "kswapb", "kortestz", "kortestc", "kandnr", "kmerge2l1h",
                "kmerge2l1l", "kmovlhb"):
        arity = 1 if mop in ("knot", "kmov") else 2
        params = [f"__mmask16 {n}" for n in ("a", "b")[:arity]]
        ret = "int" if "test" in mop else "__mmask16"
        out.append(entry(
            f"_mm512_{mop}", ret, params, "KNCNI", "Mask", "Mask",
            f"KNC mask operation {mop}."))
    for red in ("reduce_gmin", "reduce_gmax", "reduce_mul", "reduce_or",
                "reduce_and"):
        for suffix in ("ps", "pd", "epi32", "epi64"):
            is_float = suffix in ("ps", "pd")
            if red in ("reduce_or", "reduce_and") and is_float:
                continue
            st = ("float" if suffix == "ps" else "double") if is_float \
                else ("int" if suffix == "epi32" else "__int64")
            vt = _vt(512, is_float, 32 if suffix in ("ps", "epi32") else 64)
            name = f"_mm512_knc{red}_{suffix}"
            out.append(entry(
                name, st, [f"{vt} a"], "KNCNI", "Arithmetic",
                _FP if is_float else _INT,
                f"KNC {red} reduction.", instr="sequence"))
    for op in ("getmant", "roundfxpnt", "cvtfxpnt", "permutevar",
               "mulhi", "mulhi_epu", "sbb", "adc", "subsetb", "addsetc",
               "addsets", "subrsetb"):
        for suffix in ("epi32",):
            vt = "__m512i"
            params = [f"{vt} a", f"{vt} b"]
            out.append(entry(
                f"_mm512_knc_{op}_{suffix}", vt, params, "KNCNI",
                "Arithmetic", _INT, f"KNC integer operation {op}."))
            out.append(entry(
                f"_mm512_mask_knc_{op}_{suffix}", vt,
                [f"{vt} src", "__mmask16 k"] + params, "KNCNI",
                "Arithmetic", _INT, f"KNC integer operation {op} under "
                f"writemask."))
    return out


def _svml_widening() -> list[IntrinsicSpec]:
    """Complex math, pi-scaled trig and integer divrem completions."""
    out: list[IntrinsicSpec] = []
    for fn in ("cexp", "clog", "csqrt"):
        for bits in (128, 256, 512):
            prefix = _PREFIX_BY_BITS[bits]
            vt = _vt(bits, True, 32)
            out.append(entry(
                f"{prefix}_{fn}_ps", vt, [f"{vt} a"],
                ("SVML",) if bits < 512 else ("SVML", "AVX512F"),
                "Elementary Math Functions", _FP,
                f"Compute {fn} of packed interleaved complex floats.",
                instr="sequence"))
    for fn in ("sinpi", "cospi", "tanpi", "asinpi", "acospi", "atanpi",
               "atan2pi"):
        for suffix, lane_bits in (("ps", 32), ("pd", 64)):
            for bits in (128, 256, 512):
                prefix = _PREFIX_BY_BITS[bits]
                vt = _vt(bits, True, lane_bits)
                arity = 2 if fn == "atan2pi" else 1
                params = [f"{vt} {n}" for n in ("a", "b")[:arity]]
                out.append(entry(
                    f"{prefix}_{fn}_{suffix}", vt, params,
                    ("SVML",) if bits < 512 else ("SVML", "AVX512F"),
                    "Trigonometry", _FP,
                    f"Compute {fn} (x scaled by pi).", instr="sequence"))
    for fn in ("idivrem", "udivrem"):
        sfx = "epi32" if fn == "idivrem" else "epu32"
        for bits in (128, 256, 512):
            prefix = _PREFIX_BY_BITS[bits]
            vt = {128: "__m128i", 256: "__m256i", 512: "__m512i"}[bits]
            out.append(entry(
                f"{prefix}_{fn}_{sfx}", vt,
                [f"{vt}* mem_addr", f"{vt} a", f"{vt} b"],
                ("SVML",) if bits < 512 else ("SVML", "AVX512F"),
                "Arithmetic", _INT,
                "Divide packed integers, return quotients and store "
                "remainders.", instr="sequence"))
    for prefix, vt in (("_mm", "__m128"), ("_mm512", "__m512")):
        out.append(entry(
            f"{prefix}_pow_ps", vt, [f"{vt} a", f"{vt} b"],
            ("SVML",) if prefix == "_mm" else ("SVML", "AVX512F"),
            "Elementary Math Functions", _FP,
            "Compute a raised to the power b.", instr="sequence"))
    for prefix, vt in (("_mm", "__m128d"), ("_mm256", "__m256d"),
                       ("_mm512", "__m512d")):
        out.append(entry(
            f"{prefix}_pow_pd", vt, [f"{vt} a", f"{vt} b"],
            ("SVML",) if prefix != "_mm512" else ("SVML", "AVX512F"),
            "Elementary Math Functions", _FP,
            "Compute a raised to the power b.", instr="sequence"))
    return out


def _avx2_widening() -> list[IntrinsicSpec]:
    """Masked gathers, epu min/max and remaining AVX2 members."""
    out: list[IntrinsicSpec] = []
    for g in ("i32gather_ps", "i32gather_pd", "i64gather_ps",
              "i64gather_pd", "i32gather_epi32", "i32gather_epi64",
              "i64gather_epi32", "i64gather_epi64"):
        sfx = g.split("_")[-1]
        for prefix in ("_mm", "_mm256"):
            vt = {"ps": "__m128" if prefix == "_mm" else "__m256",
                  "pd": "__m128d" if prefix == "_mm" else "__m256d",
                  "epi32": "__m128i" if prefix == "_mm" else "__m256i",
                  "epi64": "__m128i" if prefix == "_mm" else "__m256i"}[sfx]
            st = {"ps": "float", "pd": "double", "epi32": "int",
                  "epi64": "__int64"}[sfx]
            idx_vt = "__m128i" if (prefix == "_mm" or "i64" in g) \
                else "__m256i"
            out.append(entry(
                f"{prefix}_mask_{g}", vt,
                [f"{vt} src", f"{st} const* base_addr", f"{idx_vt} vindex",
                 f"{vt} mask", "const int scale"],
                "AVX2", "Load", _FP if sfx in ("ps", "pd") else _INT,
                "Masked gather from memory at base_addr + vindex*scale."))
    for mm in ("min", "max"):
        for sfx in ("epu8", "epu16", "epu32", "epi8", "epi64"):
            if sfx == "epi64":
                continue  # not in AVX2
            out.append(entry(
                f"_mm256_{mm}_{sfx}", "__m256i", ["__m256i a", "__m256i b"],
                "AVX2", "Special Math Functions", _INT,
                f"{mm} of packed {sfx} integers."))
    out += [
        entry("_mm256_mul_epu32", "__m256i", ["__m256i a", "__m256i b"],
              "AVX2", "Arithmetic", _INT,
              "Multiply the low unsigned 32-bit integers of each 64-bit "
              "element."),
        entry("_mm256_mul_epi32_w", "__m256i", ["__m256i a", "__m256i b"],
              "AVX2", "Arithmetic", _INT, "placeholder"),
        entry("_mm256_abs_epi32", "__m256i", ["__m256i a"],
              "AVX2", "Special Math Functions", _INT,
              "Absolute value of packed 32-bit integers."),
        entry("_mm256_sign_epi32", "__m256i", ["__m256i a", "__m256i b"],
              "AVX2", "Arithmetic", _INT,
              "Conditionally negate 32-bit integers by the sign of b."),
        entry("_mm256_blend_epi16", "__m256i",
              ["__m256i a", "__m256i b", "const int imm8"],
              "AVX2", "Swizzle", _INT, "Blend 16-bit integers by imm8."),
        entry("_mm256_blend_epi32", "__m256i",
              ["__m256i a", "__m256i b", "const int imm8"],
              "AVX2", "Swizzle", _INT, "Blend 32-bit integers by imm8."),
        entry("_mm_blend_epi32", "__m128i",
              ["__m128i a", "__m128i b", "const int imm8"],
              "AVX2", "Swizzle", _INT, "Blend 32-bit integers by imm8."),
        entry("_mm256_broadcastsi128_si256", "__m256i", ["__m128i a"],
              "AVX2", "Swizzle", _INT,
              "Broadcast 128 bits of integer data to both lanes."),
        entry("_mm256_stream_load_si256", "__m256i",
              ["__m256i* mem_addr"], "AVX2", "Load", _INT,
              "Load 256 bits with a non-temporal hint."),
        entry("_mm256_alignr_epi8", "__m256i",
              ["__m256i a", "__m256i b", "const int imm8"],
              "AVX2", "Miscellaneous", _INT,
              "Concatenate and shift right by imm8 bytes, per lane."),
        entry("_mm256_avg_epu16", "__m256i", ["__m256i a", "__m256i b"],
              "AVX2", "Probability/Statistics", _INT,
              "Average packed unsigned 16-bit integers with rounding."),
        entry("_mm256_hsub_epi16", "__m256i", ["__m256i a", "__m256i b"],
              "AVX2", "Arithmetic", _INT,
              "Horizontally subtract adjacent 16-bit pairs."),
        entry("_mm256_hsub_epi32", "__m256i", ["__m256i a", "__m256i b"],
              "AVX2", "Arithmetic", _INT,
              "Horizontally subtract adjacent 32-bit pairs."),
        entry("_mm256_hadds_epi16", "__m256i", ["__m256i a", "__m256i b"],
              "AVX2", "Arithmetic", _INT,
              "Horizontally add adjacent 16-bit pairs with saturation."),
        entry("_mm256_hsubs_epi16", "__m256i", ["__m256i a", "__m256i b"],
              "AVX2", "Arithmetic", _INT,
              "Horizontally subtract adjacent 16-bit pairs with "
              "saturation."),
        entry("_mm256_mpsadbw_epu8", "__m256i",
              ["__m256i a", "__m256i b", "const int imm8"],
              "AVX2", "Miscellaneous", _INT,
              "Eight offset sums of absolute differences, per lane."),
        entry("_mm256_mulhrs_epi16", "__m256i", ["__m256i a", "__m256i b"],
              "AVX2", "Arithmetic", _INT,
              "Multiply 16-bit integers, round and scale."),
        entry("_mm256_cmpgt_epi16", "__m256i", ["__m256i a", "__m256i b"],
              "AVX2", "Compare", _INT,
              "Compare packed 16-bit integers for greater-than."),
        entry("_mm256_cmpgt_epi64", "__m256i", ["__m256i a", "__m256i b"],
              "AVX2", "Compare", _INT,
              "Compare packed 64-bit integers for greater-than."),
        entry("_mm256_cmpeq_epi16", "__m256i", ["__m256i a", "__m256i b"],
              "AVX2", "Compare", _INT,
              "Compare packed 16-bit integers for equality."),
        entry("_mm256_cmpeq_epi64", "__m256i", ["__m256i a", "__m256i b"],
              "AVX2", "Compare", _INT,
              "Compare packed 64-bit integers for equality."),
        entry("_mm256_sll_epi32", "__m256i", ["__m256i a", "__m128i count"],
              "AVX2", "Shift", _INT, "Shift 32-bit integers left."),
        entry("_mm256_srl_epi32", "__m256i", ["__m256i a", "__m128i count"],
              "AVX2", "Shift", _INT, "Shift 32-bit integers right."),
        entry("_mm256_sra_epi32", "__m256i", ["__m256i a", "__m128i count"],
              "AVX2", "Shift", _INT,
              "Arithmetic right shift of 32-bit integers."),
        entry("_mm256_sll_epi16", "__m256i", ["__m256i a", "__m128i count"],
              "AVX2", "Shift", _INT, "Shift 16-bit integers left."),
        entry("_mm256_srl_epi16", "__m256i", ["__m256i a", "__m128i count"],
              "AVX2", "Shift", _INT, "Shift 16-bit integers right."),
        entry("_mm256_sll_epi64", "__m256i", ["__m256i a", "__m128i count"],
              "AVX2", "Shift", _INT, "Shift 64-bit integers left."),
        entry("_mm256_srl_epi64", "__m256i", ["__m256i a", "__m128i count"],
              "AVX2", "Shift", _INT, "Shift 64-bit integers right."),
        entry("_mm256_cvtepi8_epi32", "__m256i", ["__m128i a"],
              "AVX2", "Convert", _INT,
              "Sign extend packed 8-bit integers to 32 bits."),
        entry("_mm256_cvtepi8_epi64", "__m256i", ["__m128i a"],
              "AVX2", "Convert", _INT,
              "Sign extend packed 8-bit integers to 64 bits."),
        entry("_mm256_cvtepi16_epi64", "__m256i", ["__m128i a"],
              "AVX2", "Convert", _INT,
              "Sign extend packed 16-bit integers to 64 bits."),
        entry("_mm256_cvtepi32_epi64", "__m256i", ["__m128i a"],
              "AVX2", "Convert", _INT,
              "Sign extend packed 32-bit integers to 64 bits."),
        entry("_mm256_cvtepu16_epi32", "__m256i", ["__m128i a"],
              "AVX2", "Convert", _INT,
              "Zero extend packed 16-bit integers to 32 bits."),
        entry("_mm256_cvtepu32_epi64", "__m256i", ["__m128i a"],
              "AVX2", "Convert", _INT,
              "Zero extend packed 32-bit integers to 64 bits."),
    ]
    out = [e for e in out if e.description != "placeholder"]
    return out


def family_entries() -> list[IntrinsicSpec]:
    """All systematically generated entries (deterministic order)."""
    avx512 = _mark_knc_shared(_avx512_family() + _avx512_widening())
    from repro.spec.catalog.extra import extra_entries

    out: list[IntrinsicSpec] = []
    out += _mmx_family()
    out += _legacy_scalar_family()
    out += _legacy_fill()
    out += extra_entries()
    out += _avx2_widening()
    out += avx512
    out += _knc_only()
    out += _knc_widening()
    out += _svml_family()
    out += _svml_widening()
    return out
