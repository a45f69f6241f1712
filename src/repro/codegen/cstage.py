"""Render compiled loop stages to one C translation unit.

:mod:`repro.serve.stages` plans the work that surrounds a session's GEMMs
into *stages*, :mod:`repro.autograd.kernels` does so for the tape's
image-sized kernels, forward and backward — both from the ops' stage
descriptions (:class:`repro.autograd.ir.Stage`), whose ``map`` program
pieces they share — and :meth:`repro.codegen.region.RegionIR.lower` for a
fused region; each describes them as one hashable signature::

    ("stages", (stage, stage, ...))

Every stage renders as ``void <name>_<k>(void **tab, i64 n)``: ``tab`` is
the caller's pointer table (one entry per buffer, parameter or operand, or
a BLAS function's address, or null) and
``n`` the leading extent of the stage's arrays — the batch.  ``n`` is the
only runtime bound; every other extent and stride is a literal, so one
translation unit serves every bucket of a ``SessionPool`` and every batch
of a training run, and ``-O3`` still sees fixed-size inner loops (the same
loops with runtime extents measured *slower* than numpy's).

The stage kinds (``scatter``, ``update``, ``call``, ``tail`` and
``transpose`` are the train step's, ``reduce`` a region's, ``clock`` and
``gemv`` a serving session's; a replayed step's conv block
(:class:`repro.autograd.kernels.Block`) is two ``passes`` and a ``map``,
which its two one-call stages ``call`` between a ``gather``, ``gemm``
pieces, batch-norm's ``tail``, a ``transpose`` and a ``scatter``; a
serving session's run of groups (:mod:`repro.serve.stages`) is one
``passes`` of each group's ``gather``, its product — a ``gemm`` or a
``gemv`` piece behind a ``when`` on its BLAS function's row — its ``map``
and a ``clock``):

``("gather", dtype, src, dst, c, h, w, kh, kw, sh, sw, ph, pw)``
    ``conv2d``'s zero padding + footprint-slice copy in one pass: reads the
    NCHW image at ``tab[src]`` and writes the channel-major patch matrix
    ``(c*kh*kw, n*oh*ow)`` at ``tab[dst]`` — row order of
    ``weight.reshape(O, -1)``, exactly what
    ``functional._patch_matrix`` fills.  A copy: bit-equal trivially.

``("map", dtype, dims, inputs, ops, pool, dst, dst_stride, dst_off[, sums])``
    An elementwise program over a logical ``(n,) + dims`` array, optionally
    reduced by a max-pool over its last two dims, written as one dense
    block per sample at ``tab[dst] + i*dst_stride + dst_off``.  ``inputs``
    are ``(tab_index, strides)`` pairs with one element stride per logical
    dim — ``0`` broadcasts, ``("n", k)`` means ``n*k`` (how the
    ``(O, n*OH*OW)`` output of a conv GEMM is read in NCHW order) — and
    ``ops`` is a :class:`~repro.codegen.region.RegionIR` program over them.
    This is the GEMM epilogue (bias, eval batch-norm, relu, pool, written
    in the layout the next consumer reads) and, with no GEMM in front, an
    elementwise chain.  For the train step an input may carry a third
    element, its C type (``unsigned char``: a bool mask), and ``dst`` may
    be a tuple of ``(tab_index, value slot, C type or None)`` — several
    destinations written in one pass (a conv block's ``xhat`` and relu
    output; relu's value and its mask, the ``pos`` op), whose innermost
    loop vectorises without alias checks (``#pragma GCC ivdep``: they
    alias no operand).  With a
    pool as well, the destinations are dense full-resolution blocks
    (``prod(dims)`` a sample) but the one whose value slot is ``None``: it
    gets the pool of the program's last value, which must be written too,
    over each ``(sample, channel)`` plane just written, at ``dst_stride`` a
    sample (a conv block's ``xhat``, relu output and pooled output).  A
    ``dst_stride`` pair ``(sample, channel)`` places each ``(sample,
    channel)`` block on its own — ``(size, ("n", size))`` writes the
    ``(O, n*OH*OW)`` layout of a conv GEMM's output.  An input's
    ``tab_index`` may be ``("route", x, out, g, h, w, kh, kw, sh, sw)``: the
    max-pool gradient ``tab[g]`` of the input ``tab[x]`` and output
    ``tab[out]``, routed over windows that neither overlap nor pad into a
    stack plane per ``(sample, channel)`` read with strides ``(0, 0, 1)``
    (a conv block's backward: route, relu mask and batch-norm's sums in one
    pass).  The route is ``functional.max_pool2d_backward``'s two rounds in
    numpy's order: a window's gradient goes to its first element equal to
    the output, then — only if some output anywhere is NaN, which is when
    numpy runs its second round, over every window — to the first NaN of
    each window still unclaimed.  Each element of the plane is written
    once with exactly numpy's additions onto its zero, ``(T)0 + g * hit1``
    then, when round two runs, ``+ g * hit2`` (``g * 0`` where nothing is
    claimed: NaN for an infinite ``g``); an element in no window is
    ``+0.0``.  The select is arithmetic (a ternary compiles to branches).
    ``sums`` (the train step's) are
    ``(tab_index, value slot, mean)`` per-channel reductions of a program
    value over the batch and ``dims[1:]`` — ``v.sum(axis=(0, 2, ...))``
    byte for byte, in **numpy's order** for ``dims[0] > 1`` channels: the
    result starts at ``+0.0`` and each ``(sample, channel)`` block's
    pairwise sum (below) is added onto it in sample order.  The block is
    read where it lies (a dense input, a block just written) or from a stack
    row the loop fills; ``mean`` divides as ``np.mean`` does, by the count in
    double, then rounds to the dtype (batch-norm's statistics and its
    backward's sums, ``dxhat`` written beside them).

``("reduce", dtype, dims, inputs, ops, red, mean, scratch, dst)``
    The ``map`` program over ``(n,) + dims``, summed over its last ``red``
    logical dims (the leading ``n`` among them when ``red`` covers every
    dim) into a dense ``tab[dst]``, divided by the reduced extent when
    ``mean``.  Each reduced block is written in C order to the scratch row
    ``tab[scratch]`` and collapsed with **numpy's pairwise summation** —
    8 accumulators over 8..128-element blocks, a fixed combine tree,
    halving above 128 at multiples of 8 — the order ``np.sum`` /
    ``np.mean`` add a contiguous trailing-axes block in.  One such function
    per plan and dtype serves every stage that sums.

``("passes", dtype, (stage, stage, ...))``
    Stages run one after another in one call, each in its own dtype and
    seeing what the one before wrote: a conv block's epilogue with
    batch-norm's mean summed from it, then the variance; its backward's
    sums, then the adjoint they feed; a serving session's groups.

``("scatter", dtype, src, dst, c, h, w, kh, kw, sh, sw, ph, pw)``
    The gather's adjoint, ``functional._patch_matrix_adjoint`` +
    ``_unpad_hw``: per ``(sample, channel)`` a plane of the padded image is
    zeroed and the patch matrix's rows are added onto it in footprint order
    — per element the additions numpy's offset-outer loop makes, in its
    order, from ``+0.0`` — and the interior lands in the unpadded ``dx``.

``("update", dtype, rule, decay, momentum, nesterov)``
    The optimizer's ``sgd_update`` / ``adam_update`` (``rule``), element by
    element over flat arrays of ``n`` elements: parameters, gradients and
    the rule's state at ``tab[0]``, ``tab[1]``, ``tab[2...]``, then a row of
    the rule's scalars, rounded to the dtype by the caller as numpy rounds a
    Python float operand.  ``decay`` / ``momentum`` (nonzero) and
    ``nesterov`` are the branches the numpy rule takes, literals here; each
    operation is one IEEE operation in the rule's order, ``sqrt``
    included (correctly rounded, unlike the transcendentals regions leave
    out).

``("gemm", dtype, fn, trans_a, trans_b, m, n, k, a, lda, b, ldb, c, ldc)``
    ``tab[c] = op(tab[a]) @ op(tab[b])`` by the CBLAS GEMM whose address is
    the table row ``tab[fn]`` — the one numpy's ``matmul`` calls
    (:func:`repro.codegen.jit.blas_gemm`): row-major, ``alpha`` 1, ``beta``
    0, and the transposes, extents and leading dimensions ``matmul`` passes
    for the same operands (an extent ``("n", s)`` is ``n*s``), so the
    product is numpy's, bit for bit.  No stage library links a BLAS.

``("gemv", dtype, fn, order, trans, m, n, a, lda, x, incx, y, incy)``
    ``tab[y] = op(tab[a]) @ tab[x]`` by the CBLAS GEMV at ``tab[fn]``
    (``order`` ``"row"`` or ``"col"``, ``alpha`` 1, ``beta`` 0), with the
    arguments numpy's ``matmul`` passes for a row @ matrix or a matrix @
    column (:func:`matmul_call`): a batch-1 linear's ``(1, d) @ (d, k)`` is
    ``cblas_?gemv(RowMajor, Trans, d, k, 1, w, k, x, 1, 0, out, 1)``.

``("clock", dtype, row, index)``
    Unless ``tab[row]`` is a null pointer, the ``CLOCK_MONOTONIC`` time in
    seconds (the clock of Python's ``time.perf_counter``) as the double
    ``tab[row][index]``: a profiled serving run's group boundaries.

``("call", dtype, k, rows)``
    Stage ``k`` of the same plan over a table of ``tab``'s ``rows``.

``("when", dtype, row, (stage, stage, ...))``
    ``passes`` that run only when ``tab[row]`` is not a null pointer: the
    gradients of a block's filter and input, where they take one.

``("tail", dtype, c, size, var, mean, inv_std, running_mean, running_var, scalars)``
    Batch-norm's per-channel tail over ``c`` channels of ``n*size``
    elements: ``inv_std = 1 / sqrt(var + eps)``, then — unless
    ``tab[running_mean]`` is null — the running statistics moved as
    ``functional._bn_running`` moves them, from the doubles ``eps`` and
    ``momentum`` at ``tab[scalars]``, each rounded to the dtype as numpy
    rounds a Python float operand (``1 - momentum`` and ``m / (m - 1)`` in
    double first, as Python computes them).

``("transpose", dtype, src, dst, rows, cols)``
    The ``(cols, rows)`` copy of the ``(rows, cols)`` array at ``tab[src]``
    transposed: the weight gradient's ``dw.T`` copy.

Bit-equality with the numpy steps rests on a few rules: each op is one
IEEE-754 scalar operation rounded to the stage dtype, as numpy's ufunc
loops compute it (``-ffp-contract=off``: no ``a*b+c`` contracted into an
FMA), ``relu`` is ``(x > 0 || isnan(x)) ? x : 0`` — ``np.maximum(x, 0)``:
NaN propagates, ``-0.0`` becomes ``+0.0`` — a mean divides the pairwise
sum by the extent as ``np.mean`` does, and the pool is
``functional._max_over``'s running maximum ``(v > m || isnan(v)) ? v : m``
over the footprint in row-major order with ``-inf`` padding: NaN
propagates and the running value wins ties, as ``np.maximum(window, out,
out=out)`` does.  Overlapping pool windows re-evaluate the program per
window; it is a pure function of its operands, so the values repeat.
"""

from __future__ import annotations

import hashlib
from typing import List, Tuple

__all__ = ["render_stages", "kernel_name", "operand_strides", "matmul_call", "blas_piece"]

_CTYPE = {"float32": "float", "float64": "double"}
_ZERO = {"float": "0.0f", "double": "0.0"}


def kernel_name(signature: tuple) -> str:
    """Stable symbol/file name for one stage plan."""
    digest = hashlib.sha256(repr(signature).encode()).hexdigest()[:16]
    return f"repro_region_{digest}"


def operand_strides(shape, against, activation: bool) -> tuple:
    """Element strides of a C-contiguous operand of effective ``shape``
    broadcast (right-aligned) against the logical ``against`` shape.  An
    ``activation`` whose leading extent *is* the batch strides over it even
    when the batch is 1 — so every batch size renders the same stage; any
    other extent of 1 (a per-batch row next to an ``(n, d)`` activation
    included) broadcasts with stride 0."""
    nd = len(against)
    lead = nd - len(shape)
    strides, run = [0] * nd, 1
    for d in range(nd - 1, lead - 1, -1):
        size = shape[d - lead]
        if size != 1 or (activation and d == 0 and against[0] == 1):
            strides[d] = run
        run *= size
    return tuple(strides)


#: numpy's ``BLAS_MAXSIZE`` over its ILP64 BLAS: a longer extent or row
#: stride takes numpy's own loop.
_BLAS_MAX = 2**63 - 2
_NONE = ("none",)


def matmul_call(a, b, c, itemsize: int, same: bool = False, n: int = 1) -> tuple:
    """The BLAS call numpy's ``matmul`` makes for ``a @ b`` into ``c`` — as
    numpy 2.4's ``matmul.c.src`` picks it — so that a stage makes it too:

    - ``("gemm", trans_a, trans_b, m, p, k, lda, ldb, ldc)``: ``cblas_?gemm``,
      row-major;
    - ``("gemv", order, trans, m, n, matrix, lda, incx, incy)``:
      ``cblas_?gemv`` of the operand ``matrix`` names (``"a"`` or ``"b"``)
      and the other, a vector: a row @ matrix (numpy swaps the operands) or
      a matrix @ column;
    - ``("none",)``: anything else — numpy's own loop (a column @ row, a zero
      extent, an operand BLAS cannot stride), the ``dot`` of a row @ column,
      or the ``syrk`` of ``A @ A.T``.

    ``a``, ``b`` and ``c`` are the ``(shape, strides)`` of the 2-D operands,
    strides in bytes; ``same``: ``a`` and ``b`` start at one address.  An
    extent or a stride may be ``("n", s)``, ``n * s`` for the batch ``n``
    given, and so are the call's extents and leading dimensions."""
    (m, k), (s1m, s1n) = a
    p, (s2n, s2p) = b[0][1], b[1]
    som, sop = c[1]

    def at(v):
        return n * v[1] if isinstance(v, tuple) else v

    def unit(v):  # a byte stride in elements
        return ("n", v[1] // itemsize) if isinstance(v, tuple) else v // itemsize

    def blasable(s1, s2, d1, d2) -> bool:  # numpy's is_blasable2d
        s1, s2, d1, d2 = at(s1), at(s2), at(d1), at(d2)
        return s2 == itemsize and s1 % itemsize == 0 and d2 <= s1 // itemsize <= _BLAS_MAX

    def gemv(matrix, sm, sn, rows, cols, incx, incy) -> tuple:  # numpy's @TYPE@_gemv
        order, lda = ("col", unit(sm)) if blasable(sm, sn, rows, cols) else ("row", unit(sn))
        return ("gemv", order, True, cols, rows, matrix, lda, unit(incx), unit(incy))

    dm, dn, dp = at(m), at(k), at(p)
    if 0 in (dm, dn, dp) or max(dm, dn, dp) > _BLAS_MAX:
        return _NONE
    a_ok = blasable(s1m, s1n, m, k) or blasable(s1n, s1m, k, m)
    b_ok = blasable(s2n, s2p, k, p) or blasable(s2p, s2n, p, k)
    if 1 in (dm, dn, dp):
        if dn == 1 or (dm == 1 and dp == 1):
            return _NONE
        if dm == 1 and b_ok and blasable(s1n, itemsize, k, 1):
            return gemv("b", s2p, s2n, p, k, s1n, sop)
        if dp == 1 and a_ok and blasable(s2n, itemsize, k, 1):
            return gemv("a", s1m, s1n, m, k, s2n, som)
        return _NONE
    if not (a_ok and b_ok and blasable(som, sop, m, p)):
        return _NONE
    trans_a, trans_b = not blasable(s1m, s1n, m, k), not blasable(s2n, s2p, k, p)
    if same and dm == dp and at(s1m) == at(s2p) and at(s1n) == at(s2n) and trans_a != trans_b:
        return _NONE  # syrk
    lda, ldb = unit(s1n if trans_a else s1m), unit(s2p if trans_b else s2n)
    return ("gemm", trans_a, trans_b, m, p, k, lda, ldb, unit(som))


def blas_piece(call: tuple, dtype: str, fn: int, a: int, b: int, c: int) -> tuple:
    """The ``gemm`` / ``gemv`` piece that makes :func:`matmul_call`'s
    ``call`` through the BLAS function at table row ``fn``, over the
    operands at rows ``a`` and ``b`` into row ``c``."""
    if call[0] == "gemm":
        _, trans_a, trans_b, m, p, k, lda, ldb, ldc = call
        return ("gemm", dtype, fn, trans_a, trans_b, m, p, k, a, lda, b, ldb, c, ldc)
    _, order, trans, rows, cols, matrix, lda, incx, incy = call
    mat, vec = (a, b) if matrix == "a" else (b, a)
    return ("gemv", dtype, fn, order, trans, rows, cols, mat, lda, vec, incx, c, incy)


def render_stages(signature: tuple) -> Tuple[str, str]:
    """Return ``(name, c_source)``; stage ``k`` is the symbol ``<name>_<k>``
    (and the pairwise sum its summing stages share, ``<name>_<ctype>_sum``,
    so the sources of several plans concatenate into one translation unit)."""
    name = kernel_name(signature)
    lines = ["#include <math.h>", "typedef long long i64;", ""]
    summed = set()
    for k, stage in enumerate(signature[1]):
        body = _RENDER[stage[0]](stage[2:], _CTYPE[stage[1]], name)
        for ctype in _CTYPE.values():
            pairwise = _pairwise(name, ctype)
            if pairwise not in summed and any(pairwise + "(" in line for line in body):
                summed.add(pairwise)
                lines.append(_PAIRWISE_C.format(name=pairwise, ctype=ctype, zero=_ZERO[ctype]))
        if any("clock_gettime(" in line for line in body) and "#include <time.h>" not in lines:
            lines.insert(1, "#include <time.h>")
        lines.append(f"void {name}_{k}(void **tab, i64 n)")
        lines.append("{")
        lines.extend(body)
        lines.append("}")
        lines.append("")
    return name, "\n".join(lines)


def _pairwise(name: str, ctype: str) -> str:
    """The pairwise sum the summing stages of plan ``name`` share."""
    return f"{name}_{ctype}_sum"


def _op_expr(op: str, srcs, val, zero: str) -> str:
    a = val[srcs[0]]
    if op == "neg":
        return f"-{a}"
    if op == "relu":
        return f"({a} > {zero} || isnan({a})) ? {a} : {zero}"
    if op == "pos":  # relu's gradient mask, ``np.greater(x, 0)``; quiet, so it vectorises
        return f"isgreater({a}, {zero})"
    b = val[srcs[1]]
    sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[op]
    return f"{a} {sym} {b}"


def _op_lines(ops, n_in: int, indent: str, ctype: str, zero: str) -> Tuple[list, str]:
    """The op program over already-loaded ``v0..v{n_in-1}`` as scalar
    temporaries; returns them and the last one's name."""
    lines = []
    slot = n_in
    val = {k: f"v{k}" for k in range(n_in)}
    for op, srcs in ops:
        expr = _op_expr(op, srcs, val, zero)
        lines.append(f"{indent}const {ctype} t{slot} = {expr};")
        val[slot] = f"t{slot}"
        slot += 1
    return lines, f"t{slot - 1}" if ops else "v0"


def _windows(size: int, k: int, stride: int, pad: int) -> int:
    """How many windows of extent ``k`` fit along a padded axis."""
    return (size + 2 * pad - k) // stride + 1


def _render_gather(stage: tuple, ctype: str, name: str) -> List[str]:
    src, dst, c, h, w, kh, kw, sh, sw, ph, pw = stage
    oh, ow = _windows(h, kh, sh, ph), _windows(w, kw, sw, pw)
    pixel = f"(x >= 0 && x < {w}) ? img[y * {w} + x] : 0" if pw else f"img[y * {w} + x]"
    lines = [
        f"    const {ctype} *src = tab[{src}];",
        f"    {ctype} *cols = tab[{dst}];",
        f"    const i64 m = n * {oh * ow};",
        f"    for (i64 c = 0; c < {c}; ++c)",
        f"    for (i64 fi = 0; fi < {kh}; ++fi)",
        f"    for (i64 fj = 0; fj < {kw}; ++fj) {{",
        f"        {ctype} *row = cols + ((c * {kh} + fi) * {kw} + fj) * m;",
        "        for (i64 b = 0; b < n; ++b) {",
        f"            const {ctype} *img = src + (b * {c} + c) * {h * w};",
        f"            for (i64 oy = 0; oy < {oh}; ++oy) {{",
        f"                const i64 y = oy * {sh} + fi - {ph};",
        f"                {ctype} *r = row + (b * {oh} + oy) * {ow};",
    ]
    if ph:
        lines += [
            f"                if (y < 0 || y >= {h}) {{",
            f"                    for (i64 ox = 0; ox < {ow}; ++ox) r[ox] = 0;",
            "                    continue;",
            "                }",
        ]
    lines += [
        f"                for (i64 ox = 0; ox < {ow}; ++ox) {{",
        f"                    const i64 x = ox * {sw} + fj - {pw};",
        f"                    r[ox] = {pixel};",
        "                }",
        "            }",
        "        }",
        "    }",
    ]
    return lines


def _stride(stride) -> str:
    return f"(n * {stride[1]})" if isinstance(stride, tuple) else str(stride)


def _render_map(stage: tuple, ctype: str, name: str) -> List[str]:
    dims, inputs, ops, pool, dst, dst_stride, dst_off, *sums = stage
    sums = sums[0] if sums else ()
    zero = _ZERO[ctype]
    bounds = ["n"] + [str(d) for d in dims]
    several = isinstance(dst, tuple)
    # With several destinations a pool reduces the program's last value,
    # written at full resolution, plane by plane; with one it is folded into
    # the loop nest, whose last two logical dims the footprint loops walk.
    planes = bool(pool) and several
    outer = len(bounds) - (2 if pool and not planes else 0)
    types = [operand[2] if len(operand) == 3 else ctype for operand in inputs]
    inputs = [operand[:2] for operand in inputs]
    routed = {k: idx for k, (idx, _) in enumerate(inputs) if isinstance(idx, tuple)}
    # One destination — a table row, written with the program's last value —
    # or several ``(row, value slot, C type or None)``.  The operands of
    # those never alias, and saying so keeps three output streams vectorised.
    outs = [(j, *out) for j, out in enumerate(dst)] if several else [("", dst, None, None)]
    keyword = "restrict " if several else ""
    lines = [
        f"    const {types[k]} *{keyword}in{k} = tab[{idx}];" for k, (idx, _) in enumerate(inputs)
        if k not in routed
    ]
    for k, (_, x, out, g, h, w, kh, kw, sh, sw) in routed.items():
        pooled = dims[0] * _windows(h, kh, sh, 0) * _windows(w, kw, sw, 0)
        lines += [
            f"    const {ctype} *restrict rx{k} = tab[{x}], *restrict ro{k} = tab[{out}], "
            f"*restrict rg{k} = tab[{g}];",
            f"    {ctype} u{k}[{h * w}];",
            # numpy runs round two over the whole array or not at all.
            f"    int second{k} = 0;",
            f"    for (i64 i = 0; i < n * {pooled}; ++i) second{k} |= ro{k}[i] != ro{k}[i];",
        ]
    for j, row, _, kind in outs:
        lines.append(f"    {kind or ctype} *{keyword}dst{j} = tab[{row}];")
    # Where each summed slot's block is read: an input laid out densely (its
    # pointer at the channel loop), an output block just written, else a
    # stack row the loop fills.
    dense, block = [], 1
    for d in reversed(dims[1:]):
        dense.insert(0, block)
        block *= d
    written = {slot: f"o{j} - {block}" for j, _, slot, kind in outs
               if slot is not None and kind is None}
    source = {}
    for _, slot, _ in sums:
        dense_input = slot < len(inputs) and list(inputs[slot][1][2:]) == dense
        source[slot] = None if dense_input else written.get(slot, f"r{slot}")
    rows = [slot for slot, name in source.items() if name == f"r{slot}"]
    lines += [f"    {ctype} r{slot}[{block}];" for slot in rows]
    for j, (row, _, _) in enumerate(sums):
        lines.append(f"    {ctype} *restrict s{j} = tab[{row}];")
    if sums:
        zeroed = " ".join(f"s{j}[c] = {zero};" for j in range(len(sums)))
        lines.append(f"    for (i64 c = 0; c < {dims[0]}; ++c) {{ {zeroed} }}")
    bases = [f"u{k}" if k in routed else f"in{k}" for k in range(len(inputs))]
    # An operand is loaded at the deepest loop level it strides over (a
    # per-channel vector once per channel), so the inner loops carry no
    # load the compiler would have to prove invariant; operands that stride
    # over pooled dims are read per footprint element instead.
    windowed = [bool(pool) and not planes and any(strides[outer:]) for _, strides in inputs]
    level = [
        max((d for d in range(outer) if strides[d] != 0), default=-1)
        for _, strides in inputs
    ]
    # A destination's pointer: per sample, or — a ``(sample, channel)``
    # stride pair, the channel's maybe ``("n", k)`` — per channel block.
    per_block = isinstance(dst_stride, tuple)
    sample = [block * dims[0] if planes and slot is not None else dst_stride
              for _, _, slot, _ in outs]

    def load(depth: int, indent: str) -> None:
        for k in range(len(inputs)):
            if level[k] == depth and not windowed[k]:
                lines.append(f"{indent}const {ctype} v{k} = {bases[k]}[0];")

    def value(slot) -> str:
        return f"{'v' if slot < len(inputs) else 't'}{slot}"

    load(-1, "    ")
    indent = "    "
    for d in range(outer):
        if several and d == outer - 1:
            # No destination aliases an operand: vectorise without checks
            # (a loop with many summed rows exceeds the checks GCC versions for).
            lines.append(f"{indent}#pragma GCC ivdep")
        lines.append(f"{indent}for (i64 i{d} = 0; i{d} < {bounds[d]}; ++i{d}) {{")
        indent += "    "
        for k, (_, strides) in enumerate(inputs):
            if strides[d] != 0:
                lines.append(
                    f"{indent}const {types[k]} *b{k}_{d} = {bases[k]} + i{d} * {_stride(strides[d])};"
                )
                bases[k] = f"b{k}_{d}"
        if d == 0 and not per_block:
            for (j, _, _, kind), stride in zip(outs, sample):
                lines.append(f"{indent}{kind or ctype} *o{j} = dst{j} + i0 * {stride} + {dst_off};")
        if d == 1:
            if per_block:
                for j, _, _, kind in outs:
                    lines.append(f"{indent}{kind or ctype} *o{j} = dst{j} + i0 * {dst_stride[0]} + "
                                 f"i1 * {_stride(dst_stride[1])} + {dst_off};")
            for slot in source:
                if source[slot] is None:
                    source[slot] = bases[slot]
            if rows:
                lines.append(f"{indent}i64 q = 0;")
            for k, route in routed.items():
                lines += _routed_plane(k, route, dims[0], ctype, indent)
        load(d, indent)
    if not pool or planes:
        program, last = _op_lines(ops, len(inputs), indent, ctype, zero)
        lines += program
        for j, _, slot, _ in outs:
            if not (planes and slot is None):
                lines.append(f"{indent}*o{j}++ = {last if slot is None else value(slot)};")
        lines += [f"{indent}r{slot}[q] = {value(slot)};" for slot in rows]
        if rows:
            lines.append(f"{indent}++q;")
    else:
        lines += _pool_body(dims, inputs, ops, pool, windowed, bases, indent, ctype, zero)
    for d in reversed(range(outer)):
        if d == 1:  # a (sample, channel) block is done: numpy adds its pairwise sum
            if planes:
                last = len(inputs) + len(ops) - 1
                pooled = next(j for j, _, slot, _ in outs if slot is None)
                lines += _plane_pool(written[last], f"o{pooled}", dims, pool, indent, ctype, zero)
            for j, (_, slot, _) in enumerate(sums):
                lines.append(f"{indent}s{j}[i1] += {_pairwise(name, ctype)}({source[slot]}, {block});")
        indent = indent[:-4]
        lines.append(f"{indent}}}")
    for j, (_, _, mean) in enumerate(sums):
        if mean:  # np.mean's true_divide by an intp count: in double, then rounded
            lines.append(f"    for (i64 c = 0; c < {dims[0]}; ++c) "
                         f"s{j}[c] = ({ctype})((double)s{j}[c] / (double)(n * {block}));")
    return lines


def _plane_pool(src: str, dst: str, dims, pool, indent: str, ctype: str, zero: str) -> List[str]:
    """The max-pool of one just-written ``(sample, channel)`` plane at
    ``src`` into the pooled plane at ``dst``: ``functional._max_over``'s
    running maximum, as in :func:`_pool_body`."""
    kh, kw, sh, sw, ph, pw = pool
    h, w = dims[-2], dims[-1]
    oh, ow = _windows(h, kh, sh, ph), _windows(w, kw, sw, pw)
    inside = [f"y >= 0 && y < {h}"] * bool(ph) + [f"x >= 0 && x < {w}"] * bool(pw)
    pixel = f"plane[y * {w} + x]"
    if inside:
        pixel = f"({' && '.join(inside)}) ? {pixel} : -INFINITY"
    return [
        f"{indent}{{",
        f"{indent}    const {ctype} *plane = {src};",
        f"{indent}    for (i64 py = 0; py < {oh}; ++py)",
        f"{indent}    for (i64 px = 0; px < {ow}; ++px) {{",
        f"{indent}        {ctype} m = {zero};",
        f"{indent}        for (i64 fi = 0; fi < {kh}; ++fi)",
        f"{indent}        for (i64 fj = 0; fj < {kw}; ++fj) {{",
        f"{indent}            const i64 y = py * {sh} + fi - {ph}, x = px * {sw} + fj - {pw};",
        f"{indent}            const {ctype} t = {pixel};",
        f"{indent}            m = (fi + fj == 0 || t > m || isnan(t)) ? t : m;",
        f"{indent}        }}",
        f"{indent}        *{dst}++ = m;",
        f"{indent}    }}",
        f"{indent}}}",
    ]


def _routed_plane(k: int, route: tuple, c: int, ctype: str, indent: str) -> List[str]:
    """Fill the stack plane ``u<k>`` with one ``(sample, channel)`` plane of
    a max-pool's routed gradient (see ``map``'s routed input)."""
    _, _, _, _, h, w, kh, kw, sh, sw = route
    oh, ow = _windows(h, kh, sh, 0), _windows(w, kw, sw, 0)
    lines = [
        f"{indent}{{",
        f"{indent}    const {ctype} *img = rx{k} + (i0 * {c} + i1) * {h * w};",
        f"{indent}    {ctype} *plane = u{k};",
        f"{indent}    const {ctype} *mo = ro{k} + (i0 * {c} + i1) * {oh * ow}, "
        f"*go = rg{k} + (i0 * {c} + i1) * {oh * ow};",
    ]
    for second in (True, False):
        lines.append(f"{indent}    if (second{k}) {{" if second else f"{indent}    }} else {{")
        lines += [indent + "    " + line[4:] for line in _route_plane(ctype, h, w, kh, kw, sh, sw, second)]
    return lines + [f"{indent}    }}", f"{indent}}}"]


def _pool_body(dims, inputs, ops, pool, windowed, bases, indent, ctype, zero) -> List[str]:
    """Running max of the program over each window (``functional._max_over``)."""
    kh, kw, sh, sw, ph, pw = pool
    h, w = dims[-2], dims[-1]
    oh, ow = _windows(h, kh, sh, ph), _windows(w, kw, sw, pw)
    inside = [f"y >= 0 && y < {h}"] * bool(ph) + [f"x >= 0 && x < {w}"] * bool(pw)
    lines = [
        f"{indent}for (i64 py = 0; py < {oh}; ++py)",
        f"{indent}for (i64 px = 0; px < {ow}; ++px) {{",
        f"{indent}    {ctype} m = {zero};",
        f"{indent}    for (i64 fi = 0; fi < {kh}; ++fi)",
        f"{indent}    for (i64 fj = 0; fj < {kw}; ++fj) {{",
        f"{indent}        const i64 y = py * {sh} + fi - {ph}, x = px * {sw} + fj - {pw};",
        f"{indent}        {ctype} t = -INFINITY;",
        f"{indent}        if ({' && '.join(inside) or '1'}) {{",
    ]
    deep = indent + "            "
    for k, (_, strides) in enumerate(inputs):
        if windowed[k]:
            sy, sx = (_stride(s) for s in strides[-2:])
            lines.append(f"{deep}const {ctype} v{k} = {bases[k]}[y * {sy} + x * {sx}];")
    program, last = _op_lines(ops, len(inputs), deep, ctype, zero)
    lines += program
    lines += [
        f"{deep}t = {last};",
        f"{indent}        }}",
        f"{indent}        m = (fi + fj == 0 || t > m || isnan(t)) ? t : m;",
        f"{indent}    }}",
        f"{indent}    *o++ = m;",
        f"{indent}}}",
    ]
    return lines


# Not inlined: call sites with literal extents would each get a clone of
# their own, which costs the compiler more than the calls cost the stages.
_PAIRWISE_C = """
__attribute__((noinline)) static {ctype} {name}(const {ctype} *a, i64 n)
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
        return {name}(a, n2) + {name}(a + n2, n - n2);
    }}
}}
"""


def _render_reduce(stage: tuple, ctype: str, name: str) -> List[str]:
    dims, inputs, ops, red, mean, scratch, dst = stage
    zero = _ZERO[ctype]
    bounds = ["n"] + [str(d) for d in dims]
    kept = len(bounds) - red
    lines = [f"    const {ctype} *in{k} = tab[{idx}];" for k, (idx, _) in enumerate(inputs)]
    lines += [
        f"    {ctype} *row = tab[{scratch}], *o = tab[{dst}];",
        f"    const i64 extent = {' * '.join(bounds[kept:])};",
    ]
    bases = [f"in{k}" for k in range(len(inputs))]
    indent = "    "
    for d, bound in enumerate(bounds):
        if d == kept:  # the reduced block of one output element starts here
            lines.append(f"{indent}i64 q = 0;")
        lines.append(f"{indent}for (i64 i{d} = 0; i{d} < {bound}; ++i{d}) {{")
        indent += "    "
        for k, (_, strides) in enumerate(inputs):
            if strides[d] != 0:
                lines.append(f"{indent}const {ctype} *b{k}_{d} = {bases[k]} + i{d} * {_stride(strides[d])};")
                bases[k] = f"b{k}_{d}"
    lines += [f"{indent}const {ctype} v{k} = {bases[k]}[0];" for k in range(len(inputs))]
    program, last = _op_lines(ops, len(inputs), indent, ctype, zero)
    lines += program
    lines.append(f"{indent}row[q++] = {last};")
    for _ in range(kept, len(bounds)):
        indent = indent[:-4]
        lines.append(f"{indent}}}")
    total = f"{_pairwise(name, ctype)}(row, extent)"
    lines.append(f"{indent}*o++ = {f'({total}) / ({ctype})extent' if mean else total};")
    for _ in range(kept):
        indent = indent[:-4]
        lines.append(f"{indent}}}")
    return lines


def _render_passes(stage: tuple, ctype: str, name: str) -> List[str]:
    lines = []
    for sub in stage[0]:  # each in its own dtype: a serving run mixes them
        body = _RENDER[sub[0]](sub[2:], _CTYPE[sub[1]], name)
        lines += ["    {"] + ["    " + line for line in body] + ["    }"]
    return lines


def _render_when(stage: tuple, ctype: str, name: str) -> List[str]:
    row, stages = stage
    return [f"    if (tab[{row}]) {{"] + [
        "    " + line for line in _render_passes((stages,), ctype, name)] + ["    }"]


def _render_call(stage: tuple, ctype: str, name: str) -> List[str]:
    k, rows = stage
    return [
        f"    void *sub[{len(rows)}] = {{{', '.join(f'tab[{row}]' for row in rows)}}};",
        f"    {name}_{k}(sub, n);",
    ]


#: ``CblasRowMajor``, ``CblasNoTrans`` / ``CblasTrans`` and the orders by name.
_ROW_MAJOR, _TRANS = 101, (111, 112)
_ORDER = {"row": 101, "col": 102}


def _render_gemm(stage: tuple, ctype: str, name: str) -> List[str]:
    fn, trans_a, trans_b, m, n, k, a, lda, b, ldb, c, ldc = stage
    m, n, k, lda, ldb, ldc = (_stride(v) for v in (m, n, k, lda, ldb, ldc))
    return [
        f"    typedef void (*gemm_t)(int, int, int, i64, i64, i64, {ctype}, const {ctype} *, i64, "
        f"const {ctype} *, i64, {ctype}, {ctype} *, i64);",
        f"    ((gemm_t)tab[{fn}])({_ROW_MAJOR}, {_TRANS[trans_a]}, {_TRANS[trans_b]}, {m}, {n}, {k}, "
        f"({ctype})1, tab[{a}], {lda}, tab[{b}], {ldb}, ({ctype})0, tab[{c}], {ldc});",
    ]


def _render_gemv(stage: tuple, ctype: str, name: str) -> List[str]:
    fn, order, trans, m, n, a, lda, x, incx, y, incy = stage
    m, n, lda, incx, incy = (_stride(v) for v in (m, n, lda, incx, incy))
    return [
        f"    typedef void (*gemv_t)(int, int, i64, i64, {ctype}, const {ctype} *, i64, "
        f"const {ctype} *, i64, {ctype}, {ctype} *, i64);",
        f"    ((gemv_t)tab[{fn}])({_ORDER[order]}, {_TRANS[trans]}, {m}, {n}, ({ctype})1, "
        f"tab[{a}], {lda}, tab[{x}], {incx}, ({ctype})0, tab[{y}], {incy});",
    ]


def _render_clock(stage: tuple, ctype: str, name: str) -> List[str]:
    row, index = stage
    return [
        f"    if (tab[{row}]) {{",
        "        struct timespec ts;",
        "        clock_gettime(CLOCK_MONOTONIC, &ts);",
        f"        ((double *)tab[{row}])[{index}] = (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;",
        "    }",
    ]


def _render_tail(stage: tuple, ctype: str, name: str) -> List[str]:
    c, size, var, mean, inv_std, running_mean, running_var, scalars = stage
    sqrt = "sqrtf" if ctype == "float" else "sqrt"
    return [
        f"    const {ctype} *restrict var = tab[{var}], *restrict mean = tab[{mean}];",
        f"    {ctype} *restrict inv = tab[{inv_std}];",
        f"    const double *s = tab[{scalars}];",
        f"    const {ctype} eps = ({ctype})s[0];",
        f"    for (i64 c = 0; c < {c}; ++c) inv[c] = ({ctype})1 / {sqrt}(var[c] + eps);",
        f"    if (tab[{running_mean}]) {{",
        f"        {ctype} *restrict rm = tab[{running_mean}], *restrict rv = tab[{running_var}];",
        f"        const {ctype} keep = ({ctype})(1.0 - s[1]), move = ({ctype})s[1];",
        f"        const {ctype} unbias = ({ctype})((double)(n * {size}) / (double)(n * {size} - 1));",
        f"        for (i64 c = 0; c < {c}; ++c) {{",
        f"            const {ctype} u = var[c] * unbias;",
        "            rm[c] = rm[c] * keep;",
        "            rm[c] = rm[c] + move * mean[c];",
        "            rv[c] = rv[c] * keep;",
        "            rv[c] = rv[c] + move * u;",
        "        }",
        "    }",
    ]


def _render_transpose(stage: tuple, ctype: str, name: str) -> List[str]:
    src, dst, rows, cols = stage
    return [
        f"    const {ctype} *restrict src = tab[{src}];",
        f"    {ctype} *restrict dst = tab[{dst}];",
        f"    for (i64 j = 0; j < {cols}; ++j)",
        f"    for (i64 i = 0; i < {rows}; ++i) dst[j * {rows} + i] = src[i * {cols} + j];",
    ]


def _planes(body: List[str], c: int, h: int, w: int, ph: int, pw: int, ctype: str) -> List[str]:
    """``body`` once per ``(sample b, channel c)``, accumulating into a zeroed
    ``tile`` of the padded plane, row length ``w + 2*pw``: the plane of
    ``dx`` itself without padding, else a stack array whose interior is
    copied out — numpy's zero-filled padded buffer and its ``_unpad_hw``."""
    hp, wp = h + 2 * ph, w + 2 * pw
    lines = [
        "    for (i64 b = 0; b < n; ++b)",
        f"    for (i64 c = 0; c < {c}; ++c) {{",
        f"        {ctype} *plane = dx + (b * {c} + c) * {h * w};",
        f"        {ctype} tile[{hp * wp}];" if ph or pw else f"        {ctype} *tile = plane;",
        f"        for (i64 i = 0; i < {hp * wp}; ++i) tile[i] = 0;",
    ]
    lines += body
    if ph or pw:
        lines += [
            f"        for (i64 y = 0; y < {h}; ++y)",
            f"        for (i64 x = 0; x < {w}; ++x)",
            f"            plane[y * {w} + x] = tile[(y + {ph}) * {wp} + x + {pw}];",
        ]
    return lines + ["    }"]


def _render_scatter(stage: tuple, ctype: str, name: str) -> List[str]:
    src, dst, c, h, w, kh, kw, sh, sw, ph, pw = stage
    oh, ow = _windows(h, kh, sh, ph), _windows(w, kw, sw, pw)
    body = [
        f"        for (i64 fi = 0; fi < {kh}; ++fi)",
        f"        for (i64 fj = 0; fj < {kw}; ++fj) {{",
        f"            const {ctype} *row = cols + ((c * {kh} + fi) * {kw} + fj) * m + b * {oh * ow};",
        f"            for (i64 oy = 0; oy < {oh}; ++oy)",
        f"            for (i64 ox = 0; ox < {ow}; ++ox)",
        f"                tile[(oy * {sh} + fi) * {w + 2 * pw} + ox * {sw} + fj] += row[oy * {ow} + ox];",
        "        }",
    ]
    return [
        f"    const {ctype} *restrict cols = tab[{src}];",
        f"    {ctype} *restrict dx = tab[{dst}];",
        f"    const i64 m = n * {oh * ow};",
    ] + _planes(body, c, h, w, ph, pw, ctype)


def _route_plane(ctype: str, h: int, w: int, kh: int, kw: int, sh: int, sw: int, second: bool) -> List[str]:
    """One ``(sample, channel)`` plane of the route over windows that
    neither overlap nor pad, from ``img`` / ``mo`` / ``go`` into ``plane``:
    each element is written once, with the additions numpy makes onto it —
    ``+0.0 + g * hit`` and, when round two runs (``second``), ``+ g * hit``
    again — as arithmetic (a select compiles to branches); an element in no
    window is ``+0.0``."""
    oh, ow = _windows(h, kh, sh, 0), _windows(w, kw, sw, 0)
    # Gaps between windows and rows / columns past the last one.
    gaps = kh < sh or h > oh * sh or kw < sw or w > ow * sw
    pend = " int p2 = o != o;" if second else ""
    claim = ["                const int h2 = p2 & (v != v);", "                p2 ^= h2;"] if second else []
    add = f" + gi * ({ctype})h2" if second else ""
    lines = [
        f"        for (i64 oy = 0; oy < {oh}; ++oy)",
        f"        for (i64 ox = 0; ox < {ow}; ++ox) {{",
        f"            const {ctype} o = mo[oy * {ow} + ox], gi = go[oy * {ow} + ox];",
        f"            int p1 = 1;{pend}",
        f"            for (i64 fi = 0; fi < {kh}; ++fi)",
        f"            for (i64 fj = 0; fj < {kw}; ++fj) {{",
        f"                const i64 at = (oy * {sh} + fi) * {w} + ox * {sw} + fj;",
        f"                const {ctype} v = img[at];",
        "                const int h1 = p1 & (v == o);",
        "                p1 ^= h1;",
        *claim,
        f"                plane[at] = ({ctype})0 + gi * ({ctype})h1{add};",
        "            }",
        "        }",
    ]
    if gaps:
        covered = f"y / {sh} < {oh} && y % {sh} < {kh} && x / {sw} < {ow} && x % {sw} < {kw}"
        lines += [
            f"        for (i64 y = 0; y < {h}; ++y)",
            f"        for (i64 x = 0; x < {w}; ++x)",
            f"            if (!({covered})) plane[y * {w} + x] = 0;",
        ]
    return lines


def _render_update(stage: tuple, ctype: str, name: str) -> List[str]:
    rule, decay, momentum, nesterov = stage
    sqrt = "sqrtf" if ctype == "float" else "sqrt"
    states = ("m", "v") if rule == "adam" else ("v",) * momentum
    lines = [
        f"    {ctype} *restrict p = tab[0];",
        f"    const {ctype} *restrict g = tab[1];",
        *(f"    {ctype} *restrict {name} = tab[{2 + k}];" for k, name in enumerate(states)),
        f"    const {ctype} *s = tab[{2 + len(states)}];",
    ]
    if rule == "adam":
        names = ("beta1", "rest1", "beta2", "rest2", "bc2", "eps", "lr", "wd")  # rest: 1 - beta
    else:
        names = ("lr", "momentum", "wd")
    lines += [f"    const {ctype} {name} = s[{k}];" for k, name in enumerate(names)]
    lines += ["    for (i64 i = 0; i < n; ++i) {", f"        {ctype} gi = g[i];"]
    if decay:
        lines.append("        gi = gi + p[i] * wd;")
    if rule == "adam":
        lines += [
            f"        const {ctype} mi = m[i] * beta1 + gi * rest1;",
            f"        const {ctype} vi = v[i] * beta2 + gi * gi * rest2;",
            "        m[i] = mi;",
            "        v[i] = vi;",
            f"        p[i] = p[i] - mi * lr / ({sqrt}(vi / bc2) + eps);",
        ]
    else:
        if momentum:
            lines += [f"        const {ctype} vi = v[i] * momentum + gi;", "        v[i] = vi;"]
            lines.append("        gi = gi + vi * momentum;" if nesterov else "        gi = vi;")
        lines.append("        p[i] = p[i] - gi * lr;")
    return lines + ["    }"]


_RENDER = {
    "call": _render_call,
    "clock": _render_clock,
    "gather": _render_gather,
    "gemm": _render_gemm,
    "gemv": _render_gemv,
    "map": _render_map,
    "passes": _render_passes,
    "reduce": _render_reduce,
    "scatter": _render_scatter,
    "tail": _render_tail,
    "transpose": _render_transpose,
    "update": _render_update,
    "when": _render_when,
}
