"""Render a session's compiled loop stages to one C translation unit.

:mod:`repro.serve.session` plans the work that surrounds a trace's GEMMs
into *stages* and describes them as one hashable signature::

    ("stages", (stage, stage, ...))

Every stage renders as ``void <name>_<k>(void **tab, i64 n)``: ``tab`` is
the session's pointer table (one entry per buffer, parameter or operand,
bound by the session) and ``n`` the leading extent of the stage's arrays —
the batch.  ``n`` is the only runtime bound; every other extent and stride
is a literal, so one translation unit serves every bucket of a
``SessionPool`` and ``-O3`` still sees fixed-size inner loops.

Two stage kinds:

``("gather", dtype, src, dst, c, h, w, kh, kw, sh, sw, ph, pw)``
    ``conv2d``'s zero padding + footprint-slice copy in one pass: reads the
    NCHW image at ``tab[src]`` and writes the channel-major patch matrix
    ``(c*kh*kw, n*oh*ow)`` at ``tab[dst]`` — row order of
    ``weight.reshape(O, -1)``, exactly what
    ``functional._patch_matrix`` fills.  A copy: bit-equal trivially.

``("map", dtype, dims, inputs, ops, pool, dst, dst_stride, dst_off)``
    An elementwise program over a logical ``(n,) + dims`` array, optionally
    reduced by a max-pool over its last two dims, written as one dense
    block per sample at ``tab[dst] + i*dst_stride + dst_off``.  ``inputs``
    are ``(tab_index, strides)`` pairs with one element stride per logical
    dim — ``0`` broadcasts, ``("n", k)`` means ``n*k`` (how the
    ``(O, n*OH*OW)`` output of a conv GEMM is read in NCHW order) — and
    ``ops`` is a :class:`~repro.codegen.region.RegionIR` program over them.
    This is the GEMM epilogue (bias, eval batch-norm, relu, pool, written
    in the layout the next consumer reads) and, with no GEMM in front, an
    elementwise region.

Bit-equality with the numpy steps rests on the rules
:mod:`repro.codegen.crender` already enforces: each op is one IEEE-754
scalar operation rounded to the stage dtype (``-ffp-contract=off``),
``relu`` is ``(x > 0 || isnan(x)) ? x : 0`` and the pool is
``functional._max_over``'s running maximum ``(v > m || isnan(v)) ? v : m``
over the footprint in row-major order with ``-inf`` padding: NaN
propagates and the running value wins ties, as ``np.maximum(window, out,
out=out)`` does.  Overlapping pool windows re-evaluate the program per
window; it is a pure function of its operands, so the values repeat.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.codegen.crender import _CTYPE, _op_lines, kernel_name

__all__ = ["render_stages"]


def render_stages(signature: tuple) -> Tuple[str, str]:
    """Return ``(name, c_source)``; stage ``k`` is the symbol ``<name>_<k>``."""
    name = kernel_name(signature)
    lines = ["#include <math.h>", "typedef long long i64;", ""]
    for k, stage in enumerate(signature[1]):
        render = _render_gather if stage[0] == "gather" else _render_map
        lines.append(f"void {name}_{k}(void **tab, i64 n)")
        lines.append("{")
        lines.extend(render(stage[2:], _CTYPE[stage[1]]))
        lines.append("}")
        lines.append("")
    return name, "\n".join(lines)


def _windows(size: int, k: int, stride: int, pad: int) -> int:
    """How many windows of extent ``k`` fit along a padded axis."""
    return (size + 2 * pad - k) // stride + 1


def _render_gather(stage: tuple, ctype: str) -> List[str]:
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


def _render_map(stage: tuple, ctype: str) -> List[str]:
    dims, inputs, ops, pool, dst, dst_stride, dst_off = stage
    zero = "0.0f" if ctype == "float" else "0.0"
    bounds = ["n"] + [str(d) for d in dims]
    # With a pool the last two logical dims are walked by the footprint
    # loops of the body; the loop nest covers the dims in front of them.
    outer = len(bounds) - (2 if pool else 0)
    lines = [f"    const {ctype} *in{k} = tab[{idx}];" for k, (idx, _) in enumerate(inputs)]
    lines.append(f"    {ctype} *dst = tab[{dst}];")
    bases = [f"in{k}" for k in range(len(inputs))]
    # An operand is loaded at the deepest loop level it strides over (a
    # per-channel vector once per channel), so the inner loops carry no
    # load the compiler would have to prove invariant; operands that stride
    # over pooled dims are read per footprint element instead.
    windowed = [bool(pool) and any(strides[outer:]) for _, strides in inputs]
    level = [
        max((d for d in range(outer) if strides[d] != 0), default=-1)
        for _, strides in inputs
    ]

    def load(depth: int, indent: str) -> None:
        for k in range(len(inputs)):
            if level[k] == depth and not windowed[k]:
                lines.append(f"{indent}const {ctype} v{k} = {bases[k]}[0];")

    load(-1, "    ")
    indent = "    "
    for d in range(outer):
        lines.append(f"{indent}for (i64 i{d} = 0; i{d} < {bounds[d]}; ++i{d}) {{")
        indent += "    "
        for k, (_, strides) in enumerate(inputs):
            if strides[d] != 0:
                lines.append(
                    f"{indent}const {ctype} *b{k}_{d} = {bases[k]} + i{d} * {_stride(strides[d])};"
                )
                bases[k] = f"b{k}_{d}"
        if d == 0:
            lines.append(f"{indent}{ctype} *o = dst + i0 * {dst_stride} + {dst_off};")
        load(d, indent)
    if not pool:
        program, last = _op_lines(ops, len(inputs), indent, ctype, zero)
        lines += program
        lines.append(f"{indent}*o++ = {last};")
    else:
        lines += _pool_body(dims, inputs, ops, pool, windowed, bases, indent, ctype, zero)
    for d in range(outer):
        indent = indent[:-4]
        lines.append(f"{indent}}}")
    return lines


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
