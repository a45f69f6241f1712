"""Generated regions: every compiled kernel byte-equal to ``RegionIR.interpret``.

A seeded generator draws region programs over the whole region language —
``REGION_OPS`` chains and ``sum`` / ``mean`` tails — with output ranks 0 to
4, operands broadcast on every axis (including a ``(1, d)`` row against an
``(n, d)`` activation at n = 1 and n > 1), reduced extents on both sides of
8 and 128, and float32 / float64 data poisoned with NaN, ±inf, ±0.0 and
subnormals.  The
number of structures is bounded: each one is one compile.

Every byte is compared but the sign bit of a NaN.  IEEE-754 leaves open
which NaN an operation returns when both operands are NaN, and ``neg`` and
``inf - inf`` make NaNs of both signs; the C compiler commutes ``a + b``
as it allocates registers, and so does the one that built numpy's loops.
Drawn over 240 such regions, 12 differ only there, on both C renderers.
"""

import numpy as np
import pytest

from repro.codegen import (
    REGION_OPS,
    RegionInput,
    RegionIR,
    clear_kernel_memo,
    compile_region,
    have_compiler,
    using_codegen,
    wait_for_compiles,
)
from repro.codegen import jit

needs_cc = pytest.mark.skipif(not have_compiler(), reason="no C compiler available")

SEED = 27
CASES = 24

#: Reduced extents (the reduced axes' shapes) straddling the pairwise
#: summation's 8-element blocks and its 128-element halving threshold.
_REDUCED = {
    1: [(3,), (7,), (8,), (9,), (127,), (128,), (129,), (1000,)],
    2: [(2, 4), (3, 43), (4, 32), (8, 17)],
    3: [(2, 2, 2), (2, 4, 16), (3, 3, 15)],
}


def _poisoned(rng, shape, dtype, density):
    """Normal values with a ``density`` share of them replaced by a
    special."""
    tiny = np.finfo(dtype).smallest_subnormal
    specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, tiny, -3 * tiny], dtype)
    values = rng.standard_normal(shape).astype(dtype)
    flat = values.reshape(-1)
    hit = rng.random(flat.size) < density
    flat[hit] = specials[rng.integers(0, len(specials), int(hit.sum()))]
    return values


class _Builder:
    """Symbolic region program: refs are ``("in", i)`` or ``("op", j)``.
    A third of the programs take clean data (a reduction's rounding shows),
    a third a special in 256 values, a third one in eight."""

    def __init__(self, rng, dtype):
        self.rng, self.dtype = rng, dtype
        self.density = rng.choice([0.0, 1 / 256, 1 / 8])
        self.inputs, self.arrays, self.ops = [], [], []

    def input(self, shape):
        self.inputs.append(RegionInput(self.dtype, shape))
        self.arrays.append(_poisoned(self.rng, shape, self.dtype, self.density))
        return ("in", len(self.inputs) - 1)

    def emit(self, op, *srcs, meta=None):
        self.ops.append((op, srcs, meta))
        return ("op", len(self.ops) - 1)

    def operand_shape(self, core):
        """A shape that broadcasts into ``core``: leading axes may be missing
        and any axis may be 1."""
        rng = self.rng
        drop = int(rng.integers(0, len(core) + 1)) if rng.random() < 0.3 else 0
        return tuple(d if rng.random() < 0.6 else 1 for d in core[drop:])

    def chain(self, running, core, length):
        """``length`` elementwise ops on the running value of shape ``core``."""
        rng = self.rng
        for _ in range(length):
            op = str(rng.choice(REGION_OPS))
            if op in ("neg", "relu"):
                running = self.emit(op, running)
                continue
            pick = rng.random()
            if pick < 0.15:
                other = running  # x * x, x - x
            elif pick < 0.35:  # a side value from two broadcast operands
                side = str(rng.choice(["add", "sub", "mul", "div"]))
                other = self.emit(side, self.input(self.operand_shape(core)),
                                  self.input(self.operand_shape(core)))
            else:
                other = self.input(self.operand_shape(core))
            pair = (running, other) if rng.random() < 0.7 else (other, running)
            running = self.emit(op, *pair)
        return running

    def region(self, out_shape):
        n_in = len(self.inputs)
        slot = {("in", i): i for i in range(n_in)}
        slot.update({("op", j): n_in + j for j in range(len(self.ops))})
        ops = [(op, tuple(slot[s] for s in srcs), meta) for op, srcs, meta in self.ops]
        return RegionIR(self.inputs, ops, out_shape, self.dtype)


def _generate(rng, dtype, kind):
    """One random region of ``kind`` (``map`` or ``reduce``) and the arrays
    it takes."""
    b = _Builder(rng, dtype)
    n = int(rng.choice([1, 1, 2, 5]))
    tail = kind == "reduce"
    if tail:
        k = int(rng.integers(1, 4))
        kept = (n,) + tuple(int(s) for s in rng.choice([1, 3, 4], int(rng.integers(0, 4 - k))))
        if rng.random() < 0.25:
            kept = ()  # a full reduction
        reduced = _REDUCED[k][int(rng.integers(0, len(_REDUCED[k])))]
        core = kept + reduced
        k = len(reduced)
        running = b.input(core)
    else:
        rank = int(rng.integers(0, 5))
        rest = rng.choice([1, 2, 3, 5], max(rank - 1, 0))
        core = ((n,) + tuple(int(s) for s in rest))[:rank]
        running = b.input(core)
    running = b.chain(running, core, int(rng.integers(1, 5)))
    out_shape = core
    if tail:
        keepdims = bool(rng.random() < 0.3)
        op = str(rng.choice(["sum", "mean"]))
        running = b.emit(op, running, meta=(k, keepdims))
        kept = core[: len(core) - k]
        out_shape = kept + (1,) * k if keepdims else kept
        if rng.random() < 0.4:  # elementwise work on the reduced value
            running = b.chain(running, out_shape, int(rng.integers(1, 3)))
    return b.region(out_shape), b.arrays


def _row_broadcast_regions(dtype):
    """relu(x * row + col) with a ``(1, d)`` row and a ``(d,)`` column against
    an ``(n, d)`` activation, at n = 1 and n = 4."""
    rng = np.random.default_rng(SEED)
    for n in (1, 4):
        b = _Builder(rng, dtype)
        x = b.input((n, 6))
        row = b.input((1, 6))
        col = b.input((6,))
        b.emit("relu", b.emit("add", b.emit("mul", x, row), col))
        yield b.region((n, 6)), b.arrays


def _cases():
    rng = np.random.default_rng(SEED)
    for i in range(CASES):
        dtype = (np.float32, np.float64)[i % 2]
        yield _generate(rng, dtype, ("map", "reduce")[i // 2 % 2])
    for dtype in (np.float32, np.float64):
        yield from _row_broadcast_regions(dtype)


def _bytes(values):
    """``values.tobytes()`` with the sign bit of every NaN cleared."""
    bits = np.array(values).view(f"u{values.dtype.itemsize}")
    bits[np.isnan(values)] &= np.iinfo(bits.dtype).max >> 1
    return bits.tobytes()


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    clear_kernel_memo()
    yield tmp_path
    clear_kernel_memo()


@needs_cc
def test_generated_regions_compile_byte_equal_to_interpret(cache_dir, monkeypatch):
    interpret = RegionIR.interpret

    def no_fallback(self, arrays, out=None):
        raise AssertionError("a compiled kernel fell back to the interpreter")

    cases = list(_cases())
    # Queued together, the plans build in few compiler runs: their sources,
    # pairwise-sum helpers included, concatenate into one translation unit.
    for region, _ in cases:
        jit.resolve(region.lower()[0], wait=False)
    assert wait_for_compiles(120)
    # The poison overflows and divides by zero.
    with np.errstate(all="ignore"), using_codegen(True):
        for region, arrays in cases:
            expect = interpret(region, arrays)
            with monkeypatch.context() as patch:
                patch.setattr(RegionIR, "interpret", no_fallback)
                kernel = compile_region(region)
                assert kernel.is_compiled, region.ops
                got = kernel(arrays)
                out = np.empty(region.out_shape, region.out_dtype)
                assert kernel(arrays, out) is out
            assert got.shape == expect.shape and got.dtype == expect.dtype
            assert _bytes(got) == _bytes(expect), (region.ops, region.slot_shapes)
            assert _bytes(out) == _bytes(expect), (region.ops, region.slot_shapes)
