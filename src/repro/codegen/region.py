"""Region IR: a straight-line program over broadcastable arrays.

A *region* is the unit the fusion pass extracts and codegen compiles: a
DAG of elementwise operations (``add``/``sub``/``mul``/``div``/
``neg``/``relu``) plus trailing-axes ``sum``/``mean`` reduction tails,
whose interior values run without temporaries: a single pass over the
output elements for elementwise programs and a pairwise-summing loop per
reduction tail.  (Elementwise chains of a serving session are composed by
its stage planner, :class:`repro.serve.stages.SessionPlan`; the fusion
pass makes regions of reduction tails only.)

The program form is linear SSA: slots ``[0, len(inputs))`` name the region
inputs, and each op appends one more slot; the region's output is the last
op's slot.  Ops are ``(op, src_slots)`` pairs; the reduction kinds carry a
third *meta* element:

- ``("sum", (s,), (k, keepdims))`` — reduce slot ``s`` over its last ``k``
  axes (numpy ``sum(axis=tuple(range(nd-k, nd)))``); ``keepdims`` keeps
  the reduced axes as size-1 dims.
- ``("mean", (s,), (k, keepdims))`` — same axes, arithmetic mean.

Inputs carry their dtype and shape; every input is an array the caller
passes.

Two execution arms share this IR:

- :meth:`RegionIR.interpret` — the numpy arm: the exact ufunc-by-ufunc
  sequence the eager tape would have executed, so its results are
  bit-identical to unfused eager execution by construction.  Reduction
  accumulators are pinned to the region dtype (explicit ``dtype=`` on
  ``np.sum``/``np.mean``) so the interpreter can never accumulate a
  float32 region in float64 precision the C arm doesn't have.
- the C arm — :meth:`RegionIR.lower` plans the program as ``map`` and
  ``reduce`` stages of :mod:`repro.codegen.cstage`, and
  :func:`repro.codegen.jit.compile_region` runs them.  Every elementwise
  op maps to an IEEE-754 scalar operation that numpy also implements as a
  plain IEEE op, and the reduction tails replay numpy's own
  pairwise-summation order, so the two arms are **bit-equal**; that
  equality is the contract the test suite enforces.

The stage plan's signature is the kernel-cache key.  Only the leading
extent of each stage is a runtime argument, so one structure at any batch
size shares one kernel; a dtype, rank or broadcast change, or any other
extent, makes another.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.codegen.cstage import operand_strides

__all__ = ["REGION_OPS", "REGION_STRUCTURED_OPS", "RegionInput", "RegionIR"]

#: Elementwise ops a region may contain.  Deliberately restricted to
#: operations whose C scalar form is bit-equal to the numpy ufunc (IEEE
#: add/sub/mul/div/neg plus the relu max-with-zero): transcendentals
#: (exp, tanh, ...) use numpy's own SIMD polynomials and would break the
#: two-arm equality.
REGION_OPS = ("add", "sub", "mul", "div", "neg", "relu")

#: Structured node kinds: trailing-axes reductions.
REGION_STRUCTURED_OPS = ("sum", "mean")

_ARITY = {"add": 2, "sub": 2, "mul": 2, "div": 2, "neg": 1, "relu": 1,
          "sum": 1, "mean": 1}

_UFUNC = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
}


class _Unstageable(Exception):
    """A program :meth:`RegionIR.lower` cannot express as stages."""


class RegionInput:
    """One region operand: the dtype and shape of the array a caller
    passes, which broadcasts against the program's other values."""

    __slots__ = ("dtype", "shape")

    def __init__(self, dtype, shape: Tuple[int, ...]) -> None:
        self.dtype = np.dtype(dtype)
        self.shape = tuple(int(s) for s in shape)


def _normalize_op(entry) -> tuple:
    """``(op, srcs)`` or ``(op, srcs, meta)`` → stored form.

    Elementwise ops stay 2-tuples — the form a stage program takes —
    and ``sum``/``mean`` keep their ``(k, keepdims)`` meta as a plain tuple.
    """
    if len(entry) == 2:
        op, srcs = entry
        if op in ("sum", "mean"):
            raise ValueError(f"op {op!r} needs (k, keepdims) meta")
        return (op, tuple(srcs))
    op, srcs, meta = entry
    if meta is None:
        return (op, tuple(srcs))
    if op not in ("sum", "mean"):
        raise ValueError(f"op {op!r} takes no meta, got {meta!r}")
    k, keepdims = meta
    return (op, tuple(srcs), (int(k), bool(keepdims)))


def _op_meta(entry) -> Optional[tuple]:
    return entry[2] if len(entry) > 2 else None


def _infer_slot_shapes(input_shapes: Sequence[Tuple[int, ...]], ops) -> List[tuple]:
    """Shape of every slot, in slot order.  Raises on malformed programs."""
    shapes = list(input_shapes)
    for i, entry in enumerate(ops):
        op, srcs = entry[0], entry[1]
        meta = _op_meta(entry)
        if op in ("sum", "mean"):
            k, keepdims = meta
            src = shapes[srcs[0]]
            if not 1 <= k <= len(src):
                raise ValueError(
                    f"op {i} ({op}): cannot reduce last {k} axes of {src}"
                )
            kept = src[: len(src) - k]
            shapes.append(kept + (1,) * k if keepdims else kept)
        elif op in ("neg", "relu"):
            shapes.append(shapes[srcs[0]])
        else:
            shapes.append(
                tuple(np.broadcast_shapes(shapes[srcs[0]], shapes[srcs[1]]))
            )
    return shapes


class RegionIR:
    """A fused region: inputs + linear op program.

    Parameters
    ----------
    inputs:
        The region operands, in the order their arrays are passed.
    ops:
        ``(op, src_slots)`` pairs — or ``(op, src_slots, meta)`` triples
        for the reduction kinds; ``src_slots`` index inputs
        (``< len(inputs)``) or earlier op results (``len(inputs) + i``).
    out_shape, out_dtype:
        Shape/dtype of the final op's result (the region output).
    """

    __slots__ = ("inputs", "ops", "out_shape", "out_dtype", "slot_shapes")

    def __init__(
        self,
        inputs: Sequence[RegionInput],
        ops: Sequence[tuple],
        out_shape: Tuple[int, ...],
        out_dtype,
    ) -> None:
        self.inputs = tuple(inputs)
        self.ops = tuple(_normalize_op(entry) for entry in ops)
        self.out_shape = tuple(out_shape)
        self.out_dtype = np.dtype(out_dtype)
        if not self.ops:
            raise ValueError("a region needs at least one op")
        if self.out_dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError(f"regions are float32/float64 only, got {self.out_dtype}")
        n_in = len(self.inputs)
        for i, entry in enumerate(self.ops):
            op, srcs = entry[0], entry[1]
            if op in _ARITY:
                if len(srcs) != _ARITY[op]:
                    raise ValueError(
                        f"op {op!r} takes {_ARITY[op]} operands, got {len(srcs)}"
                    )
            else:
                raise ValueError(f"unknown region op {op!r}")
            for s in srcs:
                if not 0 <= s < n_in + i:
                    raise ValueError(f"op {i} ({op}) references undefined slot {s}")
        for inp in self.inputs:
            if inp.dtype != self.out_dtype:
                raise ValueError(
                    f"region inputs must share the output dtype {self.out_dtype}, "
                    f"got {inp.dtype}"
                )
        self.slot_shapes = _infer_slot_shapes(
            [inp.shape for inp in self.inputs], self.ops
        )
        if self.slot_shapes[-1] != self.out_shape:
            raise ValueError(
                f"program produces shape {self.slot_shapes[-1]}, "
                f"declared out_shape is {self.out_shape}"
            )

    # ------------------------------------------------------------------ #
    # The C arm's stage plan
    # ------------------------------------------------------------------ #
    def lower(self) -> Optional[tuple]:
        """The program as ``(signature, extents, work)``: a ``("stages", …)``
        plan of ``map`` and ``reduce`` stages (:mod:`repro.codegen.cstage`),
        or ``None`` when it has none — a value used past the stage that
        computes it, a reduction of anything but the stage's last value, an
        operand broader than the stage's value — and the interpreter serves.

        The plan's table holds the bound inputs in rows ``0 .. len(inputs)
        - 1``, the output in the next, then one row per ``work`` entry: the
        element count of a buffer (a reduction's scratch row or an
        intermediate result).  ``extents[k]`` is stage ``k``'s leading
        extent, its runtime ``n``.
        """
        n_in, shapes, dtype = len(self.inputs), self.slot_shapes, str(self.out_dtype)
        final = n_in + len(self.ops) - 1
        work: list = []
        stages: list = []
        extents: list = []
        #: value (a slot) -> (row, shape) of the buffer holding it
        held = {s: (s, shapes[s]) for s in range(n_in)}
        program: list = []  # the open stage: (op, srcs); src ("in", k) | ("op", i)
        operands: list = []  # its (row, shape) inputs
        local: dict = {}  # value -> its src in the open stage

        def buffer(size: int) -> int:
            work.append(size)
            return n_in + len(work)

        def src(value):
            if value not in local:
                if value not in held:
                    raise _Unstageable  # an interior value of a closed stage
                local[value] = ("in", len(operands))
                operands.append(held[value])
            return local[value]

        def close(core, slot, reduce=None) -> None:
            for _, shape in operands:
                if len(shape) > len(core) or any(
                        s not in (1, c) for s, c in zip(shape[::-1], core[::-1])):
                    raise _Unstageable
            logical = core or (1,)
            count = len(operands)
            inputs = tuple((row, operand_strides(shape, logical, len(shape) == len(logical)))
                           for row, shape in operands)
            ops = tuple((op, tuple(i if kind == "in" else count + i for kind, i in srcs))
                        for op, srcs in program)
            size = int(np.prod(shapes[slot], dtype=np.int64))
            dst = n_in if slot == final else buffer(size)
            dims = logical[1:]
            if reduce is None:
                stage = ("map", dtype, dims, inputs, ops, None, dst, int(np.prod(dims)), 0)
            else:
                red, mean = reduce
                scratch = buffer(int(np.prod(core[len(core) - red:])))
                stage = ("reduce", dtype, dims, inputs, ops, red, mean, scratch, dst)
            stages.append(stage)
            extents.append(logical[0])
            held[slot] = (dst, shapes[slot])
            program.clear()
            operands.clear()
            local.clear()

        try:
            for j, entry in enumerate(self.ops):
                op, srcs, slot = entry[0], entry[1], n_in + j
                if op in ("sum", "mean"):
                    if not program:
                        src(srcs[0])
                    elif local.get(srcs[0]) != ("op", len(program) - 1):
                        raise _Unstageable
                    close(shapes[srcs[0]], slot, (entry[2][0], op == "mean"))
                    continue
                else:
                    program.append((op, tuple(src(s) for s in srcs)))
                local[slot] = ("op", len(program) - 1)
            if final in local:
                close(shapes[final], final)
        except _Unstageable:
            return None
        return ("stages", tuple(stages)), tuple(extents), tuple(work)

    # ------------------------------------------------------------------ #
    # Binding + the numpy interpreter arm
    # ------------------------------------------------------------------ #
    def bind(self, arrays: Sequence[np.ndarray]) -> list:
        """The operand list, validated against the recorded inputs — a
        mismatch would make the compiled kernel's stride arithmetic read out
        of bounds, so it is a hard error, not a silent best-effort."""
        if len(arrays) != len(self.inputs):
            raise ValueError(f"region takes {len(self.inputs)} arrays, got {len(arrays)}")
        for i, (a, inp) in enumerate(zip(arrays, self.inputs)):
            if a.shape != inp.shape:
                raise ValueError(
                    f"region input {i} has shape {a.shape}, expected {inp.shape}"
                )
            if a.dtype != inp.dtype:
                raise ValueError(
                    f"region input {i} has dtype {a.dtype}, expected {inp.dtype}"
                )
        return list(arrays)

    def interpret(
        self, arrays: Sequence[np.ndarray], out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """The numpy-interpreter arm: run the program ufunc by ufunc.

        This is exactly the op sequence the eager (unfused) tape executed,
        so results are bit-identical to no-fusion by construction; it is
        also the reference the C arm must match.  ``out``, when given, is
        used as the final op's ``out=`` buffer (same values, zero-alloc).

        Reduction accumulators are **pinned to the region dtype** (explicit
        ``dtype=``): numpy would otherwise be free to accumulate a float32
        reduction at float64 precision on some paths, and the f32 C kernel
        has no such widening — the pin keeps the two arms bit-equal.
        """
        vals = self.bind(arrays)
        last = len(self.ops) - 1
        dtype = self.out_dtype
        for i, entry in enumerate(self.ops):
            op, srcs = entry[0], entry[1]
            dst = out if (i == last and out is not None) else None
            if op == "neg":
                r = np.negative(vals[srcs[0]], out=dst)
            elif op == "relu":
                r = np.maximum(vals[srcs[0]], 0.0, out=dst)
            elif op in ("sum", "mean"):
                k, keepdims = entry[2]
                v = vals[srcs[0]]
                axes = tuple(range(v.ndim - k, v.ndim))
                fn = np.sum if op == "sum" else np.mean
                r = fn(v, axis=axes, keepdims=keepdims, dtype=dtype, out=dst)
            else:
                r = _UFUNC[op](vals[srcs[0]], vals[srcs[1]], out=dst)
            vals.append(r)
        return vals[-1]
