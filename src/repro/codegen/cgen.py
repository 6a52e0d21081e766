"""Unparsing: staged computation graphs to C source.

The fourth generated building block.  Every intrinsic node unparses to
its own C invocation (memory containers render as ``(T*)&arr[offset]``),
auxiliary scalar operations render as C expressions, and staged control
flow renders as C loops and conditionals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.base import IntrinsicsDef
from repro.lms.defs import (
    ArrayApply,
    ArrayUpdate,
    BinaryOp,
    Block,
    Convert,
    Def,
    ForLoop,
    IfThenElse,
    ReflectMutable,
    Select,
    Stm,
    UnaryOp,
    VarAssign,
    VarDecl,
    VarRead,
    WhileLoop,
)
from repro.lms.expr import Const, Exp, Sym
from repro.lms.staging import StagedFunction
from repro.lms.types import (
    ArrayType,
    BOOL,
    ScalarType,
    Type,
    VectorType,
    VoidType,
)


class CGenError(RuntimeError):
    """Raised when a graph cannot be unparsed to C."""


def c_type_of(tp: Type) -> str:
    if isinstance(tp, VectorType):
        if tp.kind == "mask":
            return tp.name
        return tp.name
    if isinstance(tp, ScalarType):
        return tp.c_type
    if isinstance(tp, ArrayType):
        return f"{tp.elem.c_type}*"
    if isinstance(tp, VoidType):
        return "void"
    raise CGenError(f"no C type for {tp}")


def _const_c(const: Const) -> str:
    v = const.value
    tp = const.tp
    if isinstance(tp, ScalarType):
        if tp.name == "Boolean":
            return "true" if v else "false"
        if tp.is_float:
            if tp.bits == 32:
                return f"{float(v)!r}f"
            return repr(float(v))
        suffix = ""
        if tp.bits == 64:
            suffix = "ULL" if not tp.signed else "LL"
        elif not tp.signed:
            suffix = "U"
        return f"{int(v)}{suffix}"
    raise CGenError(f"cannot render constant {const!r}")


@dataclass
class _Emitter:
    lines: list[str] = field(default_factory=list)
    indent: int = 1
    headers: set[str] = field(default_factory=lambda: {"stdint.h",
                                                       "stdbool.h"})

    def emit(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def ref(self, exp: Exp) -> str:
        if isinstance(exp, Const):
            if exp.value is None:
                raise CGenError("unit constant has no C rendering")
            return _const_c(exp)
        if isinstance(exp, Sym):
            return f"x{exp.id}"
        raise CGenError(f"cannot reference {exp!r}")

    # -- statements ----------------------------------------------------------

    def stm(self, stm: Stm) -> None:
        rhs = stm.rhs
        sym = stm.sym
        if isinstance(rhs, BinaryOp):
            self._assign(sym, f"{self.ref(rhs.lhs)} {rhs.op} "
                              f"{self.ref(rhs.rhs)}")
        elif isinstance(rhs, UnaryOp):
            op = {"neg": "-", "not": "~"}.get(rhs.op)
            if op is None:
                raise CGenError(f"unknown unary op {rhs.op}")
            self._assign(sym, f"{op}({self.ref(rhs.operand)})")
        elif isinstance(rhs, Convert):
            self._assign(sym, f"({c_type_of(rhs.tp)})"
                              f"({self.ref(rhs.operand)})")
        elif isinstance(rhs, Select):
            cond, a, b = rhs.exp_args
            self._assign(sym, f"{self.ref(cond)} ? {self.ref(a)} : "
                              f"{self.ref(b)}")
        elif isinstance(rhs, ArrayApply):
            self._assign(sym, f"{self.ref(rhs.array)}"
                              f"[{self.ref(rhs.index)}]")
        elif isinstance(rhs, ArrayUpdate):
            self.emit(f"{self.ref(rhs.array)}[{self.ref(rhs.index)}] = "
                      f"{self.ref(rhs.value)};")
        elif isinstance(rhs, VarDecl):
            self.emit(f"{c_type_of(rhs.tp)} x{sym.id} = "
                      f"{self.ref(rhs.init)};")
        elif isinstance(rhs, VarRead):
            self._assign(sym, f"x{rhs.var.id}")
        elif isinstance(rhs, VarAssign):
            self.emit(f"x{rhs.var.id} = {self.ref(rhs.value)};")
        elif isinstance(rhs, ReflectMutable):
            self._assign(sym, self.ref(rhs.source))
        elif isinstance(rhs, ForLoop):
            idx = f"x{rhs.index.id}"
            self.emit(f"for (int32_t {idx} = {self.ref(rhs.start)}; "
                      f"{idx} < {self.ref(rhs.end)}; "
                      f"{idx} += {self.ref(rhs.step)}) {{")
            self._block_body(rhs.body)
            self.emit("}")
        elif isinstance(rhs, IfThenElse):
            has_result = not isinstance(rhs.tp, VoidType)
            if has_result:
                self.emit(f"{c_type_of(rhs.tp)} x{sym.id};")
            self.emit(f"if ({self.ref(rhs.cond)}) {{")
            self._branch(rhs.then_block, sym if has_result else None)
            self.emit("} else {")
            self._branch(rhs.else_block, sym if has_result else None)
            self.emit("}")
        elif isinstance(rhs, WhileLoop):
            self.emit("while (1) {")
            self.indent += 1
            for inner in rhs.cond_block.stms:
                self.stm(inner)
            self.emit(f"if (!({self.ref(rhs.cond_block.result)})) break;")
            self.indent -= 1
            self._block_body(rhs.body)
            self.emit("}")
        elif isinstance(rhs, IntrinsicsDef):
            self._intrinsic(sym, rhs)
        else:
            raise CGenError(f"cannot unparse node {type(rhs).__name__}")

    def _assign(self, sym: Sym, expr: str) -> None:
        self.emit(f"{c_type_of(sym.tp)} x{sym.id} = {expr};")

    def _block_body(self, block: Block) -> None:
        self.indent += 1
        for stm in block.stms:
            self.stm(stm)
        self.indent -= 1

    def _branch(self, block: Block, result_sym: Sym | None) -> None:
        self.indent += 1
        for stm in block.stms:
            self.stm(stm)
        if result_sym is not None:
            self.emit(f"x{result_sym.id} = {self.ref(block.result)};")
        self.indent -= 1

    def _intrinsic(self, sym: Sym, rhs: IntrinsicsDef) -> None:
        self.headers.add(rhs.header)
        mem_idx = rhs.mem_indices()
        n_regular = len(rhs.params_meta)
        offsets = rhs.args[n_regular:]
        rendered: list[str] = []
        mem_seen = 0
        for i, arg in enumerate(rhs.args[:n_regular]):
            varname, c_type, kind = rhs.params_meta[i]
            if kind == "mem":
                offset = offsets[mem_seen]
                mem_seen += 1
                arr = self.ref(arg)  # the array symbol
                off = self.ref(offset)
                self.headers.add(rhs.header)
                rendered.append(f"({c_type})&{arr}[{off}]")
            elif isinstance(arg, Exp):
                rendered.append(self.ref(arg))
            else:
                rendered.append(str(int(arg)))
        call = f"{rhs.intrinsic_name}({', '.join(rendered)})"
        if isinstance(rhs.tp, VoidType):
            self.emit(f"{call};")
        else:
            self._assign(sym, call)


EXPORT_PREFIX = "repro_native_"

#: Suffix of the batched entry point emitted next to every export.
BATCH_SUFFIX = "__batch"


def _row_call(staged: StagedFunction, fn_name: str, row: str) -> str:
    """``fn_name`` applied to one argument row: ``row[j]`` holds an
    array's data pointer, or points at a scalar's value."""
    casts = []
    for j, sym in enumerate(staged.params):
        cell = f"{row}[{j}]"
        if isinstance(sym.tp, ArrayType):
            casts.append(f"({c_type_of(sym.tp)}){cell}")
        else:
            casts.append(f"*({c_type_of(sym.tp)}*){cell}")
    return f"{fn_name}({', '.join(casts)})"


def emit_batch_wrapper(staged: StagedFunction, fn_name: str) -> str:
    """The batched entry point: one native call executing ``n`` packed
    argument sets (DESIGN.md §13).

    ``argv`` is a flat ``void*[n * nargs]`` table — array arguments
    contribute their data pointers directly (zero-copy), scalars point
    into cells the extension glue packs — and non-void results land in
    ``out`` (an ``n``-element array of the result type).  The wrapper
    is what lets the managed side amortize the Python→native boundary
    tax across a whole batch: N invocations cost one crossing of the
    generated CPython extension (see :func:`emit_extension_glue`).
    """
    nargs = len(staged.params)
    call = _row_call(staged, fn_name, "repro_a")
    ret_c = c_type_of(staged.result_type)
    if isinstance(staged.result_type, VoidType):
        store = f"{call};"
        out_use = "    (void)repro_out;\n"
    else:
        store = f"(({ret_c}*)repro_out)[repro_i] = {call};"
        out_use = ""
    argv_use = "    (void)repro_argv;\n" if nargs == 0 else ""
    return (
        f"void {fn_name}{BATCH_SUFFIX}(int64_t repro_n, "
        f"void** repro_argv, void* repro_out) {{\n"
        f"{out_use}{argv_use}"
        f"    for (int64_t repro_i = 0; repro_i < repro_n; "
        f"++repro_i) {{\n"
        f"        void** repro_a = repro_argv + repro_i * {nargs};\n"
        f"        {store}\n"
        f"    }}\n"
        f"}}\n"
    )


_GLUE_HELPERS = r"""
/* ---- CPython extension glue (DESIGN.md §10): the generated JNI analog */

/* The glue is calls into the C API: at the kernel's -O3 and ISA flags
   it cost each gcc run ~50 ms more than at -O1, for no measurable
   call-time gain.  The kernel above keeps its flags. */
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize ("O1")
#endif

typedef struct {
    PyObject *plan;      /* marshalling_plan(staged): the slow path */
    /* each array parameter's dtype, set when the module executes */
    PyArray_Descr *descr[REPRO_NDESCR];
} repro_state;

/* One scalar argument, packed by value. */
typedef union {
    double d;
    int64_t q;
    void *p;
} repro_cell;

static repro_state *
repro_bound(PyObject *module)
{
    repro_state *st = PyModule_GetState(module);
    if (st == NULL || st->plan == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "kernel glue used before bind()");
        return NULL;
    }
    return st;
}

static PyObject *
repro_arity(Py_ssize_t got)
{
    PyErr_Format(PyExc_TypeError, "%s expects %d arguments, got %zd",
                 REPRO_NAME, REPRO_NARGS, got);
    return NULL;
}

static PyObject *
repro_bind(PyObject *self, PyObject *plan)
{
    repro_state *st = PyModule_GetState(self);
    PyObject *old;
    if (st == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "kernel glue has no state");
        return NULL;
    }
    if (!PyTuple_Check(plan) || PyTuple_GET_SIZE(plan) != REPRO_NARGS) {
        PyErr_SetString(PyExc_TypeError,
                        "bind(plan) takes one plan entry per parameter");
        return NULL;
    }
    old = st->plan;
    Py_INCREF(plan);
    st->plan = plan;
    Py_XDECREF(old);
    Py_RETURN_NONE;
}
"""

#: Emitted only for a kernel with array parameters.
_GLUE_ARRAY = r"""
/* One array argument.  The fast path takes an exact ndarray of the
   parameter's own dtype object that is C-contiguous, writable and
   non-empty; anything else goes to plan[j], which raises the
   boundary's error or returns the address to use.  The caller keeps
   the array alive until the kernel returns. */
static int
repro_array(repro_state *st, Py_ssize_t j, PyObject *v,
            PyArray_Descr *descr, void **addr)
{
    PyObject *address;
    if (PyArray_CheckExact(v)) {
        PyArrayObject *a = (PyArrayObject *)v;
        if (PyArray_DESCR(a) == descr && PyArray_IS_C_CONTIGUOUS(a)
                && PyArray_ISWRITEABLE(a) && PyArray_SIZE(a) > 0) {
            *addr = PyArray_DATA(a);
            return 0;
        }
    }
    address = PyObject_CallOneArg(PyTuple_GET_ITEM(st->plan, j), v);
    if (address == NULL)
        return -1;
    *addr = PyLong_AsVoidPtr(address);
    Py_DECREF(address);
    return *addr == NULL && PyErr_Occurred() ? -1 : 0;
}
"""

_GLUE_MODULE = r"""
static int
repro_traverse(PyObject *m, visitproc visit, void *arg)
{
    repro_state *st = PyModule_GetState(m);
    int k;
    if (st != NULL) {
        Py_VISIT(st->plan);
        for (k = 0; k < REPRO_NDESCR; ++k)
            Py_VISIT(st->descr[k]);
    }
    return 0;
}

static int
repro_clear(PyObject *m)
{
    repro_state *st = PyModule_GetState(m);
    int k;
    if (st != NULL) {
        Py_CLEAR(st->plan);
        for (k = 0; k < REPRO_NDESCR; ++k)
            Py_CLEAR(st->descr[k]);
    }
    return 0;
}

static void
repro_free(void *m)
{
    repro_clear((PyObject *)m);
}

static PyMethodDef repro_methods[] = {
    {"call", (PyCFunction)(void (*)(void))repro_call, METH_FASTCALL,
     "Call the kernel once."},
    {"call_batch", repro_call_batch, METH_O,
     "Call the kernel on each argument tuple of a sequence, in one "
     "crossing; nothing runs if any entry is refused."},
    {"bind", repro_bind, METH_O,
     "bind(plan): the slow path, one entry per parameter."},
    {NULL, NULL, 0, NULL},
};

static PyModuleDef_Slot repro_slots[] = {
    {Py_mod_exec, repro_exec},
    {0, NULL},
};

static struct PyModuleDef repro_module = {
    PyModuleDef_HEAD_INIT, REPRO_NAME, NULL, sizeof(repro_state),
    repro_methods, repro_slots, repro_traverse, repro_clear, repro_free,
};

PyMODINIT_FUNC
PyInit_REPRO_SYMBOL(void)
{
    return PyModuleDef_Init(&repro_module);
}
"""


def _to_python(tp: ScalarType, value: str) -> str:
    """The C expression converting a kernel result to a Python object,
    the value ``ctypes`` would have returned for it."""
    if tp.is_float:
        return f"PyFloat_FromDouble((double)({value}))"
    if tp.name == "Boolean":
        return f"PyBool_FromLong((long)({value}))"
    if tp.signed:
        return f"PyLong_FromLongLong((long long)(int{tp.bits}_t)({value}))"
    return (f"PyLong_FromUnsignedLongLong("
            f"(unsigned long long)(uint{tp.bits}_t)({value}))")


def _marshal_param(j: int, sym: Sym, cell: int) -> list[str]:
    """The glue lines marshalling argument ``j`` into ``row[j]``."""
    tp = sym.tp
    if isinstance(tp, ArrayType):
        return [f"if (repro_array(st, {j}, args[{j}], st->descr[{cell}], "
                f"&row[{j}]) < 0)",
                "    return -1;"]
    c = c_type_of(tp)
    if tp.is_float:
        lines = [f"d = PyFloat_AsDouble(args[{j}]);",
                 "if (d == -1.0 && PyErr_Occurred())",
                 "    return -1;",
                 f"*({c} *)&cells[{cell}] = ({c})d;"]
    elif tp.name == "Boolean":
        lines = [f"t = PyObject_IsTrue(args[{j}]);",
                 "if (t < 0)",
                 "    return -1;",
                 f"*({c} *)&cells[{cell}] = t != 0;"]
    else:
        # masked to the low bits: wraps two's-complement, as
        # simd.exec._as_scalar does
        lines = [f"u = PyLong_AsUnsignedLongLongMask(args[{j}]);",
                 "if (u == (unsigned long long)-1 && PyErr_Occurred())",
                 "    return -1;",
                 f"*({c} *)&cells[{cell}] = ({c})u;"]
    return lines + [f"row[{j}] = &cells[{cell}];"]


def emit_extension_glue(staged: StagedFunction, fn_name: str) -> str:
    """The CPython extension module ``fn_name`` that serves the
    export's calls (DESIGN.md §10) — what the paper's Scala macros
    generate as JNI glue.

    Two entries: ``call(*args)`` (``METH_FASTCALL``) marshals one
    argument set and calls ``fn_name`` itself; ``call_batch(entries)``
    marshals every entry into the ``void**`` table of
    :func:`emit_batch_wrapper` and makes one call, so nothing runs if
    any entry is refused.  Both release the GIL around the kernel, as
    ``ctypes`` does.  Arrays are read through NumPy's C API, whose
    table the module imports when it executes; an argument the fast
    path refuses goes to its ``marshalling_plan`` entry, bound in at
    link time by ``bind(plan)``.
    """
    params = staged.params
    nargs = len(params)
    arrays = [j for j, p in enumerate(params)
              if isinstance(p.tp, ArrayType)]
    scalars = [j for j in range(nargs) if j not in arrays]
    kinds = {("d" if params[j].tp.is_float else
              "t" if params[j].tp.name == "Boolean" else "u")
             for j in scalars}
    body = ["double d;"] * ("d" in kinds) + ["int t;"] * ("t" in kinds) \
        + ["unsigned long long u;"] * ("u" in kinds)
    if not arrays:
        body.append("(void)st;")
    for j, p in enumerate(params):
        cell = arrays.index(j) if j in arrays else scalars.index(j)
        body += _marshal_param(j, p, cell)
    marshal = "\n".join(f"    {line}" for line in body + ["return 0;"])
    # each array parameter's dtype by its sized type-number macro
    # (NPY_FLOAT32, NPY_INT64, ...), the one NumPy gives that dtype
    descrs = "".join(
        f"    if ((st->descr[{k}] = PyArray_DescrFromType(NPY_"
        f"{params[j].tp.elem.np_dtype.name.upper()})) == NULL)\n"
        f"        return -1;\n"
        for k, j in enumerate(arrays))

    rtp = staged.result_type
    call = _row_call(staged, fn_name, "row")
    if isinstance(rtp, VoidType):
        run, r_decl, out_c = f"{call};", "", "char"
        single = item = "Py_NewRef(Py_None)"
    else:
        out_c = c_type_of(rtp)
        run, r_decl = f"r = {call};", f"    {out_c} r;\n"
        single, item = _to_python(rtp, "r"), _to_python(rtp, "out[i]")
    na, ns = max(nargs, 1), max(len(scalars), 1)
    name_def = (f"\n#define REPRO_NAME \"{fn_name}\"\n"
                f"#define REPRO_NARGS {nargs}\n"
                f"#define REPRO_NDESCR {max(len(arrays), 1)}\n")
    return (
        name_def + _GLUE_HELPERS + (_GLUE_ARRAY if arrays else "")
        + f"""
/* Marshal one argument set: row[j] is an array's address or points at
   a scalar's cell. */
static int
repro_marshal(repro_state *st, PyObject *const *args, void **row,
              repro_cell *cells)
{{
{marshal}
}}

static PyObject *
repro_call(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{{
    repro_state *st;
    void *row[{na}];
    repro_cell cells[{ns}];
{r_decl}    if (nargs != REPRO_NARGS)
        return repro_arity(nargs);
    if ((st = repro_bound(self)) == NULL
            || repro_marshal(st, args, row, cells) < 0)
        return NULL;
    Py_BEGIN_ALLOW_THREADS
    {run}
    Py_END_ALLOW_THREADS
    return {single};
}}

static PyObject *
repro_call_batch(PyObject *self, PyObject *arg)
{{
    repro_state *st = repro_bound(self);
    PyObject *entries, *result = NULL;
    PyObject **held;
    void **argv;
    repro_cell *cells;
    {out_c} *out;
    Py_ssize_t n, i;
    if (st == NULL || (entries = PySequence_Tuple(arg)) == NULL)
        return NULL;
    n = PyTuple_GET_SIZE(entries);
    /* one zeroed block, carved into held[n], argv[n * {nargs}],
       cells[n * {len(scalars)}] and out[n]; unheld entries are NULL */
    held = PyMem_Calloc(n + 1, sizeof(PyObject *)
                        + {nargs} * sizeof(void *)
                        + {len(scalars)} * sizeof(repro_cell)
                        + sizeof({out_c}));
    if (held == NULL) {{
        PyErr_NoMemory();
        goto done;
    }}
    argv = (void **)(held + n);
    cells = (repro_cell *)(argv + n * {nargs});
    out = ({out_c} *)(cells + n * {len(scalars)});
    for (i = 0; i < n; ++i) {{
        PyObject *entry = PySequence_Tuple(PyTuple_GET_ITEM(entries, i));
        if ((held[i] = entry) == NULL)
            goto done;
        if (PyTuple_GET_SIZE(entry) != REPRO_NARGS) {{
            repro_arity(PyTuple_GET_SIZE(entry));
            goto done;
        }}
        if (repro_marshal(st, &PyTuple_GET_ITEM(entry, 0),
                          argv + i * {nargs},
                          cells + i * {len(scalars)}) < 0)
            goto done;
    }}
    Py_BEGIN_ALLOW_THREADS
    {fn_name}{BATCH_SUFFIX}(n, argv, out);
    Py_END_ALLOW_THREADS
    if ((result = PyList_New(n)) == NULL)
        goto done;
    for (i = 0; i < n; ++i) {{
        PyObject *value = {item};
        if (value == NULL) {{
            Py_CLEAR(result);
            goto done;
        }}
        PyList_SET_ITEM(result, i, value);
    }}
done:
    if (held != NULL)
        for (i = 0; i < n; ++i)
            Py_XDECREF(held[i]);
    PyMem_Free(held);
    Py_DECREF(entries);
    return result;
}}

/* Runs once per module: NumPy's C API table (which checks the running
   NumPy's ABI against the headers this was built with) and the dtype
   of each array parameter. */
static int
repro_exec(PyObject *module)
{{
    repro_state *st = PyModule_GetState(module);
    if (st == NULL)
        return -1;
    import_array1(-1);
{descrs}    return 0;
}}
"""
        + _GLUE_MODULE.replace("REPRO_SYMBOL", fn_name)
    )


def emit_c_source(staged: StagedFunction,
                  export_name: str | None = None) -> str:
    """Unparse a staged function into a complete C translation unit.

    The exported symbol is ``repro_native_<name>`` — the analog of JNI's
    ``Java_<package>_<class>_<method>`` naming convention, which the
    paper automates with Scala macros and we automate here.  When an
    ``export_name`` is given (the compile-and-link path), the unit also
    carries a ``<export_name>__batch`` symbol that executes ``n``
    packed argument sets in one call (see :func:`emit_batch_wrapper`)
    and the CPython extension glue that serves both (see
    :func:`emit_extension_glue`); display-only emission (no export
    name) is the kernel alone.
    """
    body = staged.scheduled()
    em = _Emitter()
    for stm in body.stms:
        em.stm(stm)

    params = []
    for sym, name in zip(staged.params, staged.param_names):
        params.append(f"{c_type_of(sym.tp)} x{sym.id} /* {name} */")
    ret_c = c_type_of(staged.result_type)
    if not isinstance(staged.result_type, VoidType):
        em.emit(f"return {em.ref(body.result)};")

    fn_name = export_name or (EXPORT_PREFIX + staged.name)
    includes = "\n".join(f"#include <{h}>"
                         for h in sorted(em.headers))
    sig = ", ".join(params) if params else "void"
    glue = ""
    if export_name is not None:
        # Python.h goes first: it sets feature macros the system
        # headers read
        includes = ("#define PY_SSIZE_T_CLEAN\n#include <Python.h>\n"
                    "#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION\n"
                    "#include <numpy/arrayobject.h>\n") + includes
        glue = "\n" + emit_batch_wrapper(staged, fn_name) \
            + emit_extension_glue(staged, fn_name)
    return (
        f"{includes}\n\n"
        f"{ret_c} {fn_name}({sig}) {{\n"
        + "\n".join(em.lines)
        + "\n}\n"
        + glue
    )
