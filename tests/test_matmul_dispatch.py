"""numpy's ``matmul`` dispatch as data, checked call by call.

A compiled serving session makes each GEMM of its groups from C through
numpy's own BLAS, with the arguments numpy passes
(:func:`repro.codegen.cstage.matmul_call`): ``gemm`` with its transposes,
``gemv`` for a row @ matrix or a matrix @ column, or ``none`` where numpy
runs its own loop or another routine.  Here operands are drawn in C,
Fortran, transposed and sliced layouts, f32 and f64, at batch 1, 3 and 64 —
a linear's ``(n, d) @ (d, k)``, a head's ``(n, d) @ (d, 1)``, a
``Linear(1, k)``'s ``(n, 1) @ (1, k)``, a conv's ``(O, f) @ (f, n)`` (one
output pixel a sample) and ``A @ A.T`` — and each call the function
returns runs alone, from C, against ``np.matmul`` over the same views,
byte for byte.
"""

import numpy as np
import pytest

from repro.codegen import codegen_enabled, have_compiler, jit
from repro.codegen.cstage import blas_piece, matmul_call

compiling = pytest.mark.skipif(not (have_compiler() and codegen_enabled()),
                               reason="no C compiler available, or codegen is off (REPRO_CODEGEN=0)")

LAYOUTS = ("C", "F", "T", "rows", "cols", "strided")


def _view(rng, shape, dtype, layout):
    """A ``shape`` operand of drawn values laid out as ``layout`` says."""
    r, c = shape
    values = rng.standard_normal(shape).astype(dtype)
    if layout == "F":
        return np.asfortranarray(values)
    if layout == "T":  # a transposed view of a C-ordered base
        return np.ascontiguousarray(values.T).T
    if layout == "rows":  # every other row of a base: rows further apart
        base = np.zeros((2 * r, c), dtype)
        base[::2] = values
        return base[::2]
    if layout == "cols":  # a window of a wider base's columns
        base = np.zeros((r, c + 3), dtype)
        base[:, 1:c + 1] = values
        return base[:, 1:c + 1]
    if layout == "strided":  # every other column: no unit stride
        base = np.zeros((r, 2 * c), dtype)
        base[:, ::2] = values
        return base[:, ::2]
    return values


def _spec(array):
    return array.shape, array.strides


def _cases():
    """``(a, b, what)``: drawn operand pairs and the case they stand for."""
    rng = np.random.default_rng(51)
    cases = []
    for dtype in (np.float32, np.float64):
        for batch in (1, 3, 64):
            d, k, o = int(rng.integers(2, 70)), int(rng.integers(2, 40)), int(rng.integers(2, 20))
            for layout_a in LAYOUTS:
                for layout_b in LAYOUTS:
                    shapes = {"linear": ((batch, d), (d, k)), "head": ((batch, d), (d, 1)),
                              "column @ row": ((batch, 1), (1, k)), "conv": ((o, d), (d, batch))}
                    for what, (sa, sb) in shapes.items():
                        cases.append((_view(rng, sa, dtype, layout_a),
                                      _view(rng, sb, dtype, layout_b), what))
            a = _view(rng, (batch + 1, d), dtype, "C")
            cases.append((a, a.T, "A @ A.T"))
    return cases


CASES = _cases()
CALLS = [matmul_call(_spec(a), _spec(b), ((a.shape[0], b.shape[1]), (b.shape[1] * a.itemsize,
                                                                       a.itemsize)),
                     a.itemsize, same=a.ctypes.data == b.ctypes.data) for a, b, _ in CASES]


def test_the_calls_are_the_ones_numpy_makes_for_the_named_shapes():
    kinds = {}
    for (a, b, what), call in zip(CASES, CALLS):
        kinds.setdefault(what, set()).add(call[0])
        if what == "column @ row" or what == "A @ A.T":
            assert call[0] == "none", (what, a.shape, a.strides, b.shape, b.strides)
        if what == "linear" and a.shape[0] == 1 and a.flags.c_contiguous and b.flags.c_contiguous:
            d, k = b.shape  # cblas_?gemv(RowMajor, Trans, d, k, 1, w, k, x, 1, 0, out, 1)
            assert call == ("gemv", "row", True, d, k, "b", k, 1, 1)
        if what == "linear" and a.shape[0] > 1 and a.flags.c_contiguous and b.flags.c_contiguous:
            assert call[:3] == ("gemm", False, False)
    assert kinds["linear"] == kinds["conv"] == {"gemm", "gemv", "none"}
    assert kinds["head"] == {"gemv", "none"}


@compiling
def test_each_call_made_from_c_equals_np_matmul_byte_for_byte():
    made = [(case, call) for case, call in zip(CASES, CALLS) if call[0] != "none"]
    # The rows: the BLAS function, the two operands, the product.
    pieces = tuple(blas_piece(call, a.dtype.name, 0, 1, 2, 3) for (a, _, _), call in made)
    resolved = jit.resolve(("stages", pieces))
    assert not isinstance(resolved, str), resolved
    library = resolved[0]
    for k, ((a, b, what), call) in enumerate(made):
        routine = "gemm" if call[0] == "gemm" else "gemv"
        got = np.full((a.shape[0], b.shape[1]), 7.0, a.dtype)
        want = np.full_like(got, 5.0)
        table = [jit.blas_gemm(a.dtype.name, routine), a.ctypes.data, b.ctypes.data, got]
        assert library.table().call(library.fns[k], 0, table)
        np.matmul(a, b, out=want)
        assert got.tobytes() == want.tobytes(), (what, call, a.strides, b.strides)
