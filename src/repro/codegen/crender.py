"""Render :class:`~repro.codegen.region.RegionIR` programs to C.

Elementwise programs render as a single nested loop over the output
elements — one pass, zero temporaries — with per-input strides derived at
runtime from the output shape and the compile-time broadcast pattern, so
the same kernel serves every concrete size of the region structure
(batch-size changes hit the cache; dtype/rank changes miss it).

Structured programs (reduction tails, ``linear`` heads) are decomposed by
:func:`stage_plan` into a pipeline of *stages*:

- a ``linear`` op runs its GEMM through the host BLAS (generated C cannot
  be bit-equal to it) and its bias add joins the first elementwise loop —
  the epilogue folds into the kernel, the GEMM does not;
- a ``map`` stage is the classic elementwise loop;
- a ``reduce`` stage computes its elementwise body into a scratch row and
  collapses it with **numpy's pairwise summation** — the exact scalar
  algorithm (8 independent accumulators over 8..128-element blocks, a
  fixed combine tree, recursive halving above 128 rounded to multiples of
  8) that ``np.sum``/``np.mean`` use for contiguous trailing-axes
  reductions, so the C arm stays bit-equal to the numpy arm.

Bit-equality with the numpy interpreter arm is the design constraint:

- ``add``/``sub``/``mul``/``div``/``neg`` are plain IEEE-754 scalar ops,
  identical to the numpy ufuncs (compiled with ``-ffp-contract=off`` so
  the compiler cannot contract ``a*b+c`` into an FMA, which would change
  the last bits).
- ``relu`` is rendered as ``(x > 0 || isnan(x)) ? x : 0`` — exactly
  ``np.maximum(x, 0.0)``: NaN propagates, ``-0.0`` maps to ``+0.0``.
- ``mean`` divides the pairwise sum by the reduced extent — exactly
  ``np.mean``'s sum-then-divide.

Any signature may be *specialized* on concrete shapes: loop bounds and
strides render as integer literals, so ``-O3`` can fully unroll and
vectorize the small fixed-size loops the serving planner compiles per
bucket.  Specialized and dynamic kernels share the ABI (the runtime shape
vector is still passed; specialized kernels ignore it).

Inputs must be C-contiguous (the JIT wrapper guarantees it); the output is
written densely through a running index.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["render_kernel", "kernel_name", "kernel_arity", "stage_plan"]

_CTYPE = {"float32": "float", "float64": "double"}


def kernel_name(signature: tuple) -> str:
    """Stable function/file name for one kernel signature."""
    digest = hashlib.sha256(repr(signature).encode()).hexdigest()[:16]
    return f"repro_region_{digest}"


def kernel_arity(signature: tuple) -> int:
    """Number of data-pointer arguments between the shape vector and ``out``.

    Elementwise signatures pass one pointer per input; reduce signatures
    add one trailing scratch pointer (the pairwise row buffer).
    """
    if signature[0] == "reduce":
        return len(signature[4]) + 1
    if signature[0] == "spec":
        return len(signature[4])
    return len(signature[3])


# --------------------------------------------------------------------------- #
# Stride/bounds helpers
# --------------------------------------------------------------------------- #
def _strides(pattern: Tuple[int, ...]) -> List[str]:
    """C expressions for the element strides of one input.

    For a C-contiguous operand whose effective shape has size 1 (or is
    absent) wherever ``pattern`` is 0, the stride over output dim ``d`` is
    0 if broadcast, else the product of the *input's* trailing real dims.
    """
    exprs = []
    for d in range(len(pattern)):
        if pattern[d] == 0:
            exprs.append("0")
            continue
        terms = [f"shape[{k}]" for k in range(d + 1, len(pattern)) if pattern[k] == 1]
        exprs.append(" * ".join(terms) if terms else "1")
    return exprs


def _literal_strides(pattern: Tuple[int, ...], shape: Tuple[int, ...]) -> List[int]:
    """Concrete element strides for a specialized kernel."""
    strides = []
    for d in range(len(pattern)):
        if pattern[d] == 0:
            strides.append(0)
            continue
        n = 1
        for k in range(d + 1, len(pattern)):
            if pattern[k] == 1:
                n *= shape[k]
        strides.append(n)
    return strides


def _pattern(shape: Tuple[int, ...], against: Tuple[int, ...]) -> Tuple[int, ...]:
    """Broadcast pattern of ``shape`` right-aligned against ``against``."""
    ndim = len(against)
    padded = (1,) * (ndim - len(shape)) + tuple(shape)
    return tuple(0 if s == 1 else 1 for s in padded)


# --------------------------------------------------------------------------- #
# Shared rendering pieces
# --------------------------------------------------------------------------- #
def _op_expr(op: str, srcs, val, zero: str) -> str:
    a = val[srcs[0]]
    if op == "neg":
        return f"-{a}"
    if op == "relu":
        return f"({a} > {zero} || isnan({a})) ? {a} : {zero}"
    if op == "pos":  # relu's gradient mask, ``np.greater(x, 0)`` (stages only)
        return f"{a} > {zero}"
    b = val[srcs[1]]
    sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[op]
    return f"{a} {sym} {b}"


def _body_lines(ops, n_in: int, indent: str, ctype: str, zero: str, bases) -> Tuple[list, str]:
    """Loads + the op program as scalar temporaries; returns the last temp."""
    lines = [f"{indent}const {ctype} v{k} = {bases[k]}[0];" for k in range(n_in)]
    op_lines, last = _op_lines(ops, n_in, indent, ctype, zero)
    return lines + op_lines, last


def _op_lines(ops, n_in: int, indent: str, ctype: str, zero: str) -> Tuple[list, str]:
    """The op program over already-loaded ``v0..v{n_in-1}``."""
    lines = []
    slot = n_in
    val = {k: f"v{k}" for k in range(n_in)}
    for op, srcs in ops:
        expr = _op_expr(op, srcs, val, zero)
        lines.append(f"{indent}const {ctype} t{slot} = {expr};")
        val[slot] = f"t{slot}"
        slot += 1
    return lines, f"t{slot - 1}" if ops else "v0"


_PAIRWISE_C = """
static {ctype} repro_pw_{suffix}(const {ctype} *a, i64 n)
{{
    if (n < 8) {{
        {ctype} res = {zero};
        for (i64 i = 0; i < n; i++) res += a[i];
        return res;
    }} else if (n <= 128) {{
        {ctype} r0 = a[0], r1 = a[1], r2 = a[2], r3 = a[3];
        {ctype} r4 = a[4], r5 = a[5], r6 = a[6], r7 = a[7];
        i64 i;
        for (i = 8; i < n - (n % 8); i += 8) {{
            r0 += a[i + 0]; r1 += a[i + 1]; r2 += a[i + 2]; r3 += a[i + 3];
            r4 += a[i + 4]; r5 += a[i + 5]; r6 += a[i + 6]; r7 += a[i + 7];
        }}
        {ctype} res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
        for (; i < n; i++) res += a[i];
        return res;
    }} else {{
        i64 n2 = n / 2;
        n2 -= n2 % 8;
        return repro_pw_{suffix}(a, n2) + repro_pw_{suffix}(a + n2, n - n2);
    }}
}}
"""


# --------------------------------------------------------------------------- #
# Kernel renderers
# --------------------------------------------------------------------------- #
def render_kernel(signature: tuple) -> Tuple[str, str]:
    """Return ``(name, c_source)`` for one kernel signature.

    Signature forms:

    - ``(ops, dtype, ndim, patterns)`` — the classic dynamic elementwise
      kernel (kept byte-stable so pre-existing cache entries stay valid).
    - ``("spec", ops, dtype, out_shape, in_shapes)`` — elementwise,
      specialized on concrete shapes (literal bounds and strides).
    - ``("reduce", ops, dtype, (kept_ndim, red_ndim), patterns, is_mean,
      spec_shapes_or_None)`` — elementwise body collapsed over the trailing
      ``red_ndim`` axes with pairwise summation.
    """
    if signature[0] == "spec":
        return _render_spec_map(signature)
    if signature[0] == "reduce":
        return _render_reduce(signature)
    return _render_map(signature)


def _render_map(signature: tuple) -> Tuple[str, str]:
    ops, dtype, ndim, patterns = signature
    ctype = _CTYPE[dtype]
    name = kernel_name(signature)
    n_in = len(patterns)
    zero = "0.0f" if ctype == "float" else "0.0"

    lines = [
        "#include <math.h>",
        "typedef long long i64;",
        "",
        f"void {name}(const i64 *shape, "
        + "".join(f"const {ctype} *in{k}, " for k in range(n_in))
        + f"{ctype} *out)",
        "{",
    ]
    # Per-input stride constants (from the output shape at runtime).
    for k, pattern in enumerate(patterns):
        for d, expr in enumerate(_strides(pattern)):
            lines.append(f"    const i64 s{k}_{d} = {expr};")
    lines.append("    i64 o = 0;")

    indent = "    "
    # Nested loops with per-level base pointers: each level hoists its
    # index*stride add out of the inner loops.
    bases = {k: f"in{k}" for k in range(n_in)}
    for d in range(ndim):
        lines.append(f"{indent}for (i64 i{d} = 0; i{d} < shape[{d}]; ++i{d}) {{")
        indent += "    "
        for k in range(n_in):
            lines.append(
                f"{indent}const {ctype} *b{k}_{d} = {bases[k]} + i{d} * s{k}_{d};"
            )
            bases[k] = f"b{k}_{d}"

    body, last = _body_lines(ops, n_in, indent, ctype, zero, bases)
    lines.extend(body)
    lines.append(f"{indent}out[o++] = {last};")

    for d in range(ndim - 1, -1, -1):
        indent = indent[:-4]
        lines.append(f"{indent}}}")
    lines.append("}")
    lines.append("")
    return name, "\n".join(lines)


def _render_spec_map(signature: tuple) -> Tuple[str, str]:
    """Elementwise kernel with every bound and stride a compile-time literal."""
    _, ops, dtype, out_shape, in_shapes = signature
    ctype = _CTYPE[dtype]
    name = kernel_name(signature)
    n_in = len(in_shapes)
    ndim = len(out_shape)
    zero = "0.0f" if ctype == "float" else "0.0"
    patterns = [_pattern(s, out_shape) for s in in_shapes]
    strides = [_literal_strides(p, out_shape) for p in patterns]

    lines = [
        "#include <math.h>",
        "typedef long long i64;",
        "",
        f"void {name}(const i64 *shape, "
        + "".join(f"const {ctype} *in{k}, " for k in range(n_in))
        + f"{ctype} *out)",
        "{",
        "    (void)shape;",
        "    i64 o = 0;",
    ]
    indent = "    "
    bases = {k: f"in{k}" for k in range(n_in)}
    for d in range(ndim):
        lines.append(f"{indent}for (i64 i{d} = 0; i{d} < {out_shape[d]}; ++i{d}) {{")
        indent += "    "
        for k in range(n_in):
            lines.append(
                f"{indent}const {ctype} *b{k}_{d} = {bases[k]} + i{d} * {strides[k][d]};"
            )
            bases[k] = f"b{k}_{d}"
    body, last = _body_lines(ops, n_in, indent, ctype, zero, bases)
    lines.extend(body)
    lines.append(f"{indent}out[o++] = {last};")
    for d in range(ndim - 1, -1, -1):
        indent = indent[:-4]
        lines.append(f"{indent}}}")
    lines.append("}")
    lines.append("")
    return name, "\n".join(lines)


def _render_reduce(signature: tuple) -> Tuple[str, str]:
    """Map-reduce kernel: elementwise body into a scratch row, pairwise sum.

    ABI: ``name(const i64 *dims, ins..., scratch, out)`` where ``dims`` is
    the *core* shape (kept dims then reduced dims) and ``scratch`` holds at
    least the reduced extent.  The scratch row is filled in C order —
    exactly the memory order ``np.sum`` would see on the materialized
    elementwise result — so the pairwise collapse is bit-equal to numpy's.
    """
    _, ops, dtype, (kept, red), patterns, is_mean, spec = signature
    ctype = _CTYPE[dtype]
    name = kernel_name(signature)
    n_in = len(patterns)
    ndim = kept + red
    zero = "0.0f" if ctype == "float" else "0.0"
    suffix = "f32" if ctype == "float" else "f64"

    def bound(d: int) -> str:
        return str(spec[d]) if spec is not None else f"shape[{d}]"

    lines = [
        "#include <math.h>",
        "typedef long long i64;",
        _PAIRWISE_C.format(ctype=ctype, suffix=suffix, zero=zero),
        f"void {name}(const i64 *shape, "
        + "".join(f"const {ctype} *in{k}, " for k in range(n_in))
        + f"{ctype} *scratch, {ctype} *out)",
        "{",
    ]
    if spec is not None:
        lines.append("    (void)shape;")
        strides = [_literal_strides(p, tuple(spec)) for p in patterns]
        for k in range(n_in):
            for d in range(ndim):
                lines.append(f"    const i64 s{k}_{d} = {strides[k][d]};")
        r_extent = 1
        for d in range(kept, ndim):
            r_extent *= spec[d]
        lines.append(f"    const i64 R = {r_extent};")
    else:
        for k, pattern in enumerate(patterns):
            for d, expr in enumerate(_strides(pattern)):
                lines.append(f"    const i64 s{k}_{d} = {expr};")
        r_terms = " * ".join(f"shape[{d}]" for d in range(kept, ndim)) or "1"
        lines.append(f"    const i64 R = {r_terms};")
    lines.append("    i64 o = 0;")

    indent = "    "
    bases = {k: f"in{k}" for k in range(n_in)}
    for d in range(kept):
        lines.append(f"{indent}for (i64 i{d} = 0; i{d} < {bound(d)}; ++i{d}) {{")
        indent += "    "
        for k in range(n_in):
            lines.append(
                f"{indent}const {ctype} *b{k}_{d} = {bases[k]} + i{d} * s{k}_{d};"
            )
            bases[k] = f"b{k}_{d}"

    lines.append(f"{indent}i64 q = 0;")
    inner_bases = dict(bases)
    for d in range(kept, ndim):
        lines.append(f"{indent}for (i64 i{d} = 0; i{d} < {bound(d)}; ++i{d}) {{")
        indent += "    "
        for k in range(n_in):
            lines.append(
                f"{indent}const {ctype} *b{k}_{d} = {inner_bases[k]} + i{d} * s{k}_{d};"
            )
            inner_bases[k] = f"b{k}_{d}"
    body, last = _body_lines(ops, n_in, indent, ctype, zero, inner_bases)
    lines.extend(body)
    lines.append(f"{indent}scratch[q++] = {last};")
    for d in range(ndim - 1, kept - 1, -1):
        indent = indent[:-4]
        lines.append(f"{indent}}}")

    acc = f"repro_pw_{suffix}(scratch, R)"
    if is_mean:
        acc = f"({acc}) / ({ctype})R"
    lines.append(f"{indent}out[o++] = {acc};")

    for d in range(kept - 1, -1, -1):
        indent = indent[:-4]
        lines.append(f"{indent}}}")
    lines.append("}")
    lines.append("")
    return name, "\n".join(lines)


# --------------------------------------------------------------------------- #
# Stage planning for structured regions
# --------------------------------------------------------------------------- #
class Stage:
    """One kernel of a structured region's pipeline.

    ``inputs`` are value refs: ``("ext", i)`` a region input, ``("mm", m)``
    the m-th host matmul workspace, ``("stage", s)`` a prior stage's
    output.  ``reduce`` is ``None`` for a map stage or ``(red_ndim,
    is_mean)``; a reduce stage's output shape is its *metadata* shape
    (keepdims 1s included — the dense element order is identical).
    """

    __slots__ = ("ops", "inputs", "in_shapes", "core_shape", "out_shape", "reduce")

    def __init__(self, ops, inputs, in_shapes, core_shape, out_shape, reduce):
        self.ops = tuple(ops)
        self.inputs = tuple(inputs)
        self.in_shapes = tuple(tuple(s) for s in in_shapes)
        self.core_shape = tuple(core_shape)
        self.out_shape = tuple(out_shape)
        self.reduce = reduce

    def signature(self, dtype: str, specialize: bool) -> tuple:
        patterns = tuple(_pattern(s, self.core_shape) for s in self.in_shapes)
        if self.reduce is not None:
            red, is_mean = self.reduce
            kept = len(self.core_shape) - red
            spec = tuple(self.core_shape) if specialize else None
            return ("reduce", self.ops, dtype, (kept, red), patterns, is_mean, spec)
        if specialize:
            return ("spec", self.ops, dtype, tuple(self.core_shape),
                    tuple(self.in_shapes))
        return (self.ops, dtype, len(self.core_shape), patterns)


class StagePlan:
    """Host matmuls + kernel stages for one structured region."""

    __slots__ = ("matmuls", "stages")

    def __init__(self, matmuls, stages):
        self.matmuls = tuple(matmuls)  # (x_slot, w_slot, b_slot|None, out_shape)
        self.stages = tuple(stages)


def stage_plan(region) -> Optional[StagePlan]:
    """Decompose a structured region into host GEMMs + kernel stages.

    Returns ``None`` when the program is not renderable as a stage
    pipeline — a value produced inside one stage and consumed in a later
    one (other than through a stage output), or a reduction of a value
    that is not the running tail — in which case the caller falls back to
    the (bit-equal) interpreter arm.
    """
    n_in = len(region.inputs)
    slot_shapes = region.slot_shapes

    # value ref per slot: ("ext", i) | ("mm", m) | ("stage", s) | ("op", stage, j)
    refs: List[tuple] = [("ext", i) for i in range(n_in)]
    matmuls: List[tuple] = []
    stages: List[Stage] = []

    cur_ops: List[tuple] = []        # (op, local_srcs)
    cur_inputs: List[tuple] = []     # value refs
    cur_in_shapes: List[tuple] = []
    cur_slotmap: dict = {}           # value ref -> local slot

    def local_input(ref: tuple, shape) -> int:
        s = cur_slotmap.get(ref)
        if s is None:
            s = len(cur_inputs)
            cur_slotmap[ref] = s
            cur_inputs.append(ref)
            cur_in_shapes.append(tuple(shape))
        return s

    def ref_shape(ref: tuple) -> tuple:
        kind, idx = ref[0], ref[1]
        if kind == "ext":
            return region.inputs[idx].shape
        if kind == "mm":
            return matmuls[idx][3]
        return stages[idx].out_shape

    def close_stage(reduce_meta, out_shape) -> tuple:
        nonlocal cur_ops, cur_inputs, cur_in_shapes, cur_slotmap
        n_loc = len(cur_inputs)
        # Stage-local srcs: input slots stay, ("loc", j) interior refs shift
        # past the inputs — the same slot convention RegionIR uses.
        ops_local = [
            (op, tuple(s if isinstance(s, int) else n_loc + s[1] for s in srcs))
            for op, srcs in cur_ops
        ]
        core = ()
        for s in cur_in_shapes:
            core = tuple(np.broadcast_shapes(core, s))
        stage = Stage(ops_local, cur_inputs, cur_in_shapes, core, out_shape,
                      reduce_meta)
        stages.append(stage)
        cur_ops, cur_inputs, cur_in_shapes, cur_slotmap = [], [], [], {}
        return ("stage", len(stages) - 1)

    for j, entry in enumerate(region.ops):
        op, srcs = entry[0], entry[1]
        slot = n_in + j
        if op == "linear":
            if cur_ops:
                return None  # GEMM heads only: a mid-stream linear is not planned
            x, w = refs[srcs[0]], refs[srcs[1]]
            if x[0] != "ext" or w[0] != "ext":
                return None
            mm_shape = slot_shapes[srcs[0]][:-1] + (slot_shapes[srcs[1]][1],)
            m = len(matmuls)
            matmuls.append((x[1], w[1], None, mm_shape))
            if len(srcs) == 3:
                # Bias joins the first elementwise loop: mm + b.
                a = local_input(("mm", m), mm_shape)
                b = local_input(refs[srcs[2]], ref_shape(refs[srcs[2]]))
                cur_ops.append(("add", (a, b)))
                refs.append(("op", len(stages), len(cur_ops) - 1))
            else:
                refs.append(("mm", m))
            continue
        if op in ("sum", "mean"):
            k, _keepdims = entry[2]
            src_ref = refs[srcs[0]]
            if src_ref[0] == "op":
                if src_ref[1] != len(stages) or src_ref[2] != len(cur_ops) - 1:
                    return None  # reduce of a non-tail interior value
            else:
                if cur_ops:
                    return None
                local_input(src_ref, ref_shape(src_ref))
            src_shape = slot_shapes[srcs[0]]
            if len(src_shape) < k:
                return None
            # The stage core must be the reduced value's own shape: an
            # interior broadcast smaller than a sibling's would misalign
            # the reduction axes.
            refs.append(close_stage((k, op == "mean"), slot_shapes[slot]))
            stage = stages[-1]
            if stage.core_shape != tuple(src_shape):
                return None
            continue
        # elementwise
        local = []
        for s in srcs:
            ref = refs[s]
            if ref[0] == "op":
                if ref[1] != len(stages):
                    return None  # produced in a closed stage, not its output
                local.append(("loc", ref[2]))
            else:
                local.append(local_input(ref, ref_shape(ref)))
        cur_ops.append((op, tuple(local)))
        refs.append(("op", len(stages), len(cur_ops) - 1))

    last_ref = refs[-1]
    if last_ref[0] == "op":
        close_stage(None, region.out_shape)
    elif last_ref[0] == "mm":
        # Bias-free linear with no epilogue: a pure copy stage moves the
        # workspace into the caller's output buffer (a load/store copy is
        # trivially bit-equal).
        stages.append(Stage([], [last_ref], [ref_shape(last_ref)],
                            region.out_shape, region.out_shape, None))
    elif last_ref[0] != "stage" or last_ref[1] != len(stages) - 1:
        return None
    return StagePlan(matmuls, stages)
