"""The conv blocks' GEMMs, called from C through numpy's own BLAS.

A replayed conv block (:class:`repro.autograd.kernels.Block`) runs each way
as one native call, its GEMMs included: ``gemm`` pieces
(:mod:`repro.codegen.cstage`) that call the function numpy's ``matmul``
calls (:func:`repro.codegen.jit.blas_gemm`) with the arguments it passes.
Here every ``gemm`` piece of generated block geometries — the forward's
``w @ cols``, the weight gradient's ``cols @ g_t.T`` (a transposed view on
the right), the input gradient's ``w.T @ g_t`` (one on the left) — runs on
its own over drawn operands at batch 1 / 3 / 64, f32 / f64, against
``np.matmul`` over the same views, byte for byte.  Where numpy's BLAS
exports no such function, every block stays on its members' steps
(``blas``).  And the running statistics the forward call moves in C, or
leaves to numpy when they are of another dtype, or skips when there are
none, end a run in the explicit parts' bytes.
"""

import hashlib

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor, kernels
from repro.codegen import codegen_enabled, have_compiler, jit, using_codegen, wait_for_compiles
from repro.models import TBNet, make_synthetic_batch
from repro.models.tbnet import train_replay
from repro.nn.optim import Adam

from test_compile_thread import _fallbacks
from test_train_kernels import draw, same

compiling = pytest.mark.skipif(not (have_compiler() and codegen_enabled()),
                               reason="no C compiler available, or codegen is off (REPRO_CODEGEN=0)")

#: TBNet's two blocks (width 16, 16x16 images), then seeded others.
TBNET = [(3, 16, 16, 3, 3, 1, 1, 1, 1, 16, True, True, True),
         (16, 8, 8, 3, 3, 1, 1, 1, 1, 32, True, True, True)]


def _geometries():
    """Block geometries (conv, filter bank, batch-norm affine, a 2x2/s2 pool)
    whose stages build: footprints of 2 elements and up (numpy hands a
    one-element footprint's products to gemv or a loop of its own)."""
    rng = np.random.default_rng(49)
    found = [g + (2, 2, 2, 2, 0, 0) for g in TBNET]
    while len(found) < 10:
        c, h, w = int(rng.integers(1, 9)), int(rng.integers(4, 13)), int(rng.integers(4, 13))
        k, s, p = int(rng.integers(1, 4)), int(rng.integers(1, 3)), int(rng.integers(0, 2))
        o = int(rng.integers(2, 41))
        geometry = (c, h, w, k, k, s, s, p, p, o, bool(rng.integers(2)), True, True,
                    2, 2, 2, 2, 0, 0)
        oh, ow = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
        if c * k * k > 1 and min(oh, ow) >= 2 and not isinstance(
                kernels.Block.stages("float32", *geometry), str):
            found.append(geometry)
    return found


def _pieces(stage):
    """The ``gemm`` pieces in a stage, through ``passes`` and ``when``."""
    if stage[0] == "gemm":
        return [stage]
    if stage[0] in ("passes", "when"):
        return [piece for sub in stage[-1] for piece in _pieces(sub)]
    return []


PIECES = [piece for geometry in _geometries() for dtype in ("float32", "float64")
          for stage in kernels.Block.stages(dtype, *geometry)[3:] for piece in _pieces(stage)]


def _extent(value, n):
    return n * value[1] if isinstance(value, tuple) else value


@compiling
def test_gemm_pieces_equal_np_matmul_byte_for_byte():
    # Each block has three: C-ordered operands, a transposed view on the
    # right, one on the left.
    assert {(piece[3], piece[4]) for piece in PIECES} == {(False, False), (False, True), (True, False)}
    resolved = jit.resolve(("stages", tuple(PIECES)))
    assert not isinstance(resolved, str), resolved
    library = resolved[0]
    rng = np.random.default_rng(7)
    for k, piece in enumerate(PIECES):
        dtype, fn, trans_a, trans_b = np.dtype(piece[1]), piece[2], piece[3], piece[4]
        a_row, b_row, c_row = piece[8], piece[10], piece[12]
        for n in (1, 3, 64):
            m, p, depth = (_extent(v, n) for v in piece[5:8])
            # The operands as numpy's matmul sees them: views over C-ordered bases.
            a = draw(rng, (depth, m) if trans_a else (m, depth), dtype, 0.05)
            b = draw(rng, (p, depth) if trans_b else (depth, p), dtype, 0.05)
            got = np.full((m, p), 7.0, dtype)
            table = [np.empty(1, dtype)] * (max(a_row, b_row, c_row, fn) + 1)
            table[a_row], table[b_row], table[c_row], table[fn] = a, b, got, jit.blas_gemm(dtype.name)
            with np.errstate(all="ignore"):
                want = np.matmul(a.T if trans_a else a, b.T if trans_b else b)
                assert library.table().call(library.fns[k], n, table)
            same(got, want, f"{piece} n={n}")


@pytest.fixture
def no_blas(monkeypatch):
    """numpy's BLAS as if it exported no GEMM, and nothing adopted,
    counted or remembered."""
    monkeypatch.setattr(kernels, "_ARMS", {})
    monkeypatch.setattr(kernels, "_COUNTED", set())
    monkeypatch.setattr(jit, "_GEMMS", {"float32": None, "float64": None})


def _run(steps, counts=None):
    """A TBNet run's losses (and its model); ``counts`` gets the ``blas``
    fallbacks after each step."""
    model = TBNet(width=16, rng=np.random.default_rng(1))
    opt = Adam(model.parameters(), 1e-3)
    rng = np.random.default_rng(2)
    batches = [make_synthetic_batch(4, rng=rng) for _ in range(2)]
    losses = []
    for step in range(steps):
        if step in (2, 5):
            assert wait_for_compiles(300)  # the ops' stages, then what the blocks asked
        losses.append(model.train_step(opt, *batches[step % 2]))
        if counts is not None:
            counts.append(_fallbacks("blas"))
    return model, np.array(losses)


@compiling
def test_without_numpys_gemm_the_blocks_stay_on_their_members(no_blas):
    with using_codegen(False):
        _, want = _run(10)
    counted, counts = _fallbacks("blas"), []
    model, got = _run(10, counts)
    assert got.tobytes() == want.tobytes()
    rows = [(r["arm"], r["reason"]) for r in train_replay(model).explain() if len(r["ops"]) == 4]
    assert rows == [("numpy", "blas")] * 2
    # Once per block geometry, at the capture's first sight, and never again.
    assert [count - counted for count in counts[2:]] == [2] * 8


@compiling
@pytest.mark.parametrize("stats", ["none", "float32 beside float64"])
def test_running_statistics_of_no_or_another_dtype_move_in_numpys_bytes(monkeypatch, stats):
    # None to move (``track_running_stats=False``) skips the forward call's
    # running update; float32 statistics of a float64 block are numpy's
    # ``_bn_running``'s to move.  Either way the block's call runs.
    ran = []
    forward = kernels.Block.forward

    def counting(self, *args):
        result = forward(self, *args)
        ran.append(result is not None)
        return result

    monkeypatch.setattr(kernels.Block, "forward", counting)

    def digest(parts):
        model = TBNet(width=8, rng=np.random.default_rng(1))
        dtype = np.float64 if stats != "none" else np.float32
        for param in model.parameters():
            param.data = param.data.astype(dtype)  # the buffers stay float32
        for module in model.modules():
            if stats == "none" and isinstance(module, nn.BatchNorm2d):
                module.track_running_stats = False
        opt = Adam(model.parameters(), 1e-3)
        rng = np.random.default_rng(2)
        batches = [tuple(Tensor(t.data, dtype=dtype) for t in b[:2]) + b[2:]
                   for b in (make_synthetic_batch(4, rng=rng) for _ in range(2))]
        hashed = hashlib.sha256()
        for step in range(10):
            if step in (2, 5):
                assert wait_for_compiles(300)
            if parts:
                loss = model.loss(*batches[step % 2])
                loss.backward()
                opt.step()
                opt.zero_grad()
                hashed.update(np.float64(loss.item()).tobytes())
            else:
                hashed.update(np.float64(model.train_step(opt, *batches[step % 2])).tobytes())
        for array in model.state_dict().values():
            if array is not None:
                hashed.update(np.ascontiguousarray(array).tobytes())
        return hashed.hexdigest()

    assert digest(False) == digest(True)
    assert ran and all(ran)
