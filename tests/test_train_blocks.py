"""Generated conv blocks through the replayed train step, byte for byte.

A replayed step runs each conv2d → train-mode batch_norm → relu → max_pool2d
chain as one forward and one backward step over its own compiled stages
(:class:`repro.autograd.kernels.Block`) once they are adopted, and its
members' steps before that.  Random stacks of such blocks vary stride,
padding and kernel, the pool (2x2/s2 windows fuse; overlapping or padded
ones stay on their members' steps, ``geometry``), conv bias and batch-norm
affine on or off, f32 / f64, batch 1 / 3 / 64 and special values in the
last step's images (NaN, +-inf, +-0.0, subnormals: the steps before stay
finite, so the comparisons keep their power).  The members run their numpy
bodies here (their own stages have their own suite).  A replayed run's losses,
parameters, running statistics and optimizer moments (which carry the
gradients) must be those of the same run through explicit ``loss()`` /
``backward()`` / ``step()`` calls — before, during and after the blocks'
adoption, with codegen on and off (CI runs the suite under ``REPRO_CODEGEN``
1 and 0 as well) — under the compiled arms' NaN rule
(:func:`test_train_kernels.same`).

The block's three stages are also checked on their own against the
members' numpy bodies, from the conv's GEMM output on, over drawn operands
(:func:`block_stages`): planes that straddle the 8- and 128-element steps
of numpy's pairwise sum, a channel of ``-0.0`` (its sum is ``+0.0`` only in
numpy's order), batch 1 / 3 / 64, f32 / f64, special values in odd
channels, and the max-pool route's NaN round
(``test_train_kernels.test_route_runs_numpys_nan_round_over_every_window_or_none``).
"""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor, functional as F, kernels
from repro.codegen import codegen_enabled, have_compiler, using_codegen, wait_for_compiles
from repro.models import TBNet, tbnet
from repro.nn.optim import SGD, Adam

from test_train_kernels import draw, same

STEPS, ADOPT = 7, 4  # the third step captures; held-back blocks adopt at ADOPT
FUSED = (2, 2, 0)
#: Per case: each block's pool and (conv bias, batch-norm affine), then the
#: special values in the last step's images.
AXES = [
    (((FUSED, (True, True)), (FUSED, (False, True))), (np.nan, -0.0)),
    (((FUSED, (False, False)),), (np.inf, "subnormal")),
    (((FUSED, (True, False)),), (-np.inf, 0.0)),
    ((((3, 2, 0), (False, True)),), (np.nan,)),  # overlapping windows
    ((((2, 2, 1), (True, False)),), ("subnormal", -0.0)),  # padded windows
]


def _cases():
    """Seeded stacks over :data:`AXES`; f32 / f64 and batch 1 / 3 / 64 in
    turn."""
    rng = np.random.default_rng(39)
    cases = []
    while len(cases) < len(AXES):
        i = len(cases)
        blocks, specials = AXES[i]
        case = dict(c=int(rng.integers(1, 4)), size=int(rng.integers(6, 10)), blocks=[], seed=i,
                    dtype=(np.float32, np.float64)[i % 2], batch=(1, 3, 64)[i % 3],
                    specials=specials)
        size, fits = case["size"], True
        for pool, (bias, affine) in blocks:
            k, s, p = int(rng.integers(1, 4)), int(rng.integers(1, 3)), int(rng.integers(0, 2))
            conv = (size + 2 * p - k) // s + 1
            size = (conv + 2 * pool[2] - pool[0]) // pool[1] + 1
            # The kernels fit, and batch-norm sees more than one value a channel.
            fits &= conv >= 1 and conv + 2 * pool[2] >= pool[0] and case["batch"] * conv * conv > 1
            case["blocks"].append(dict(o=int(rng.integers(2, 5)), k=k, s=s, p=p, pool=pool,
                                       bias=bias, affine=affine))
        if fits:
            case["flat"] = case["blocks"][-1]["o"] * size * size
            cases.append(case)
    return cases


CASES = _cases()


def build(case):
    """A TBNet whose spatial branch is the case's stack, its optimizer and
    three batches."""
    dtype, rng = case["dtype"], np.random.default_rng(case["seed"])
    model = TBNet(in_channels=case["c"], context_dim=4, num_classes=3, width=2, rng=rng)
    layers, c = [], case["c"]
    for b in case["blocks"]:
        layers += [nn.Conv2d(c, b["o"], b["k"], b["s"], b["p"], bias=b["bias"], rng=rng),
                   nn.BatchNorm2d(b["o"], affine=b["affine"]), nn.ReLU(), nn.MaxPool2d(*b["pool"])]
        c = b["o"]
    model.spatial = nn.Sequential(*layers, nn.Flatten())
    model.head.layers[0] = nn.Linear(case["flat"] + 4, 8, rng=rng)
    for norm in layers[1::4]:
        if norm.affine:  # not the identity: batch-norm's output and xhat differ in sign
            norm.weight.data[...] = rng.uniform(0.5, 1.5, norm.num_features)
            norm.bias.data[...] = rng.normal(0.0, 0.5, norm.num_features)
    for param in model.parameters():
        param.data = param.data.astype(dtype)
    for module in model.modules():
        for name in ("running_mean", "running_var"):
            buffer = getattr(module, name, None)
            if isinstance(buffer, np.ndarray):
                module.register_buffer(name, buffer.astype(dtype))
    opt = (Adam(model.parameters(), 1e-2) if case["seed"] % 3
           else SGD(model.parameters(), 1e-2, momentum=0.9))
    batches = []
    for k in range(3):  # the third, with the special values, is the last step's
        shape = (case["batch"], case["c"], case["size"], case["size"])
        images = rng.standard_normal(shape).astype(dtype)
        for special in case["specials"] if k == 2 else ():
            value = np.finfo(dtype).smallest_subnormal if special == "subnormal" else special
            images[rng.random(shape) < 0.05] = value
        context = rng.standard_normal((case["batch"], 4)).astype(dtype)
        batches.append((Tensor(images, dtype=dtype), Tensor(context, dtype=dtype),
                        rng.integers(0, 3, case["batch"])))
    return model, opt, batches


def trained(case, parts, hooks={}):
    """The case's run through ``train_step`` (or explicit parts): the
    losses, and the state dict and the optimizer's moments before and after
    the last step; ``hooks[step](model)`` runs after that step."""
    model, opt, batches = build(case)
    losses, arrays = [], []

    def state():
        arrays.extend(np.copy(a) for a in model.state_dict().values())
        for name in opt._state_lists:
            arrays.extend(np.copy(a) for a in getattr(opt, name) if a is not None)

    for step in range(STEPS):
        if step == STEPS - 1:
            state()
        images, context, targets = batches[2 if step == STEPS - 1 else step % 2]
        with np.errstate(all="ignore"):
            if parts:
                loss = model.loss(images, context, targets)
                loss.backward()
                opt.step()
                opt.zero_grad()
                losses.append(loss.item())
            else:
                losses.append(model.train_step(opt, images, context, targets))
        if step in hooks:
            hooks[step](model)
    state()
    return [np.array(losses)] + arrays


def block_rows(model):
    return [(r["arm"], r["reason"]) for r in tbnet.train_replay(model).explain()
            if len(r["ops"]) == 4]


def check(got, want, case):
    assert len(got) == len(want)
    for k, (g, w) in enumerate(zip(got, want)):
        same(g, w, f"{case} array {k}")


def _only_blocks(held):
    """``kernels.arm`` with every op's own stages numpy for good — the
    blocks' are the ones under test, the others have theirs
    (``test_train_kernels``) — and the blocks' held back while ``held.on``:
    asked for, they read as pending (``kernels.PENDING`` to a capture), as
    while the compile thread builds them."""
    real = kernels.arm

    def arm(op, dtype, n, *geometry, ask=True):
        if op is not kernels.BLOCK:
            return None
        if held.on and kernels.Block.stages(dtype.name, *geometry) != "geometry":
            return kernels.PENDING if ask is None else None
        return real(op, dtype, n, *geometry, ask=ask)

    return arm


@pytest.fixture(scope="module")
def built():
    """Every case's block stages asked for and built: one wait for the
    compile thread (the capture sights a block, the first replayed step
    asks)."""
    with pytest.MonkeyPatch.context() as patch:
        for case in CASES:
            patch.setattr(kernels, "arm", _only_blocks(type("Held", (), {"on": False})()))
            model, opt, batches = build(case)
            with np.errstate(all="ignore"):
                for step in range(4):
                    model.train_step(opt, *batches[step % 2])
    assert wait_for_compiles(300)


def _fuses(case):
    return [b["pool"] == FUSED for b in case["blocks"]]


@pytest.mark.skipif(not (have_compiler() and codegen_enabled()),
                    reason="no C compiler available, or codegen is off (REPRO_CODEGEN=0)")
@pytest.mark.parametrize("index", range(len(CASES)))
def test_blocks_replay_the_explicit_parts_before_during_and_after_adoption(
        built, monkeypatch, index):
    case = CASES[index]
    held = type("Held", (), {"on": True})()
    monkeypatch.setattr(kernels, "arm", _only_blocks(held))
    rows = {}

    def adopt(model):
        rows["before"] = block_rows(model)
        held.on = False

    got = trained(case, False, {ADOPT - 1: adopt,
                                STEPS - 1: lambda model: rows.update(after=block_rows(model))})
    check(got, trained(case, True), case)
    fuses = _fuses(case)
    assert rows["before"] == [("numpy", "pending" if f else "geometry") for f in fuses]
    assert rows["after"] == [("compiled", None) if f else ("numpy", "geometry") for f in fuses]


@pytest.mark.parametrize("index", range(len(CASES)))
def test_blocks_without_codegen_replay_the_explicit_parts(index):
    # The override, not only REPRO_CODEGEN=0: stages adopted earlier in the
    # process would still run (the variable is read while asking).
    case = CASES[index]
    rows = []
    with using_codegen(False):
        got = trained(case, False, {STEPS - 1: lambda model: rows.extend(block_rows(model))})
        check(got, trained(case, True), case)
    assert rows == [("numpy", "disabled")] * len(case["blocks"])


# --------------------------------------------------------------------------- #
# A block's three stages against its members' numpy bodies
# --------------------------------------------------------------------------- #
#: Per case: the conv output's channels and plane, the pool (kernel and
#: stride; windows that neither overlap nor pad), conv bias and batch-norm
#: gamma / beta.  The planes straddle the 8- and 128-element steps of
#: numpy's pairwise sum, which the block's per-channel sums follow.
PLANES = [
    (2, (3, 3), (2, 2, 2, 2), (True, True, True)),     # odd: the last row and column in no window
    (3, (2, 4), (2, 2, 2, 2), (False, True, False)),
    (16, (1, 7), (1, 1, 1, 2), (True, False, True)),   # every other column in no window
    (2, (8, 16), (2, 2, 2, 2), (True, True, False)),
    (3, (9, 15), (3, 3, 3, 3), (False, False, True)),
    (16, (16, 16), (2, 2, 2, 2), (True, True, True)),  # TBNet's first block
    (2, (11, 12), (2, 3, 2, 3), (False, True, True)),
    (3, (1, 127), (1, 2, 1, 2), (True, False, False)),
]
STAGE_CASES = [(plane, zero) for plane in PLANES for zero in (False, True)]


def _block_args(dtype, n, plane):
    """What ``kernels.arm`` is asked for a block over a 1x1 conv whose
    output is ``plane``."""
    o, (h, w), window, (bias, gamma, beta) = plane
    return (kernels.BLOCK, np.dtype(dtype), n, 1, h, w, 1, 1, 1, 1, 0, 0, o, bias, gamma, beta,
            *window, 0, 0)


def _stage_dtypes(index):
    # f64 on two planes: the compiler's time is the suite's
    return (np.float32, np.float64) if index % 8 < 2 else (np.float32,)


def built_blocks(cases) -> dict:
    """The adopted block arm of each ``(plane, dtype)`` case, keyed as
    :func:`block_stages` looks it up: asked twice (the second sight asks),
    one wait for the compile thread, then adopted."""
    asked = [_block_args(dtype, 2, plane) for plane, dtype in cases]
    for args in asked * 2:
        kernels.arm(*args)
    assert wait_for_compiles(300)
    return {args[1:2] + args[3:]: kernels.arm(*args) for args in asked}


@pytest.fixture(scope="module")
def stage_blocks():
    return built_blocks([(plane, dtype) for i, (plane, _) in enumerate(STAGE_CASES)
                         for dtype in _stage_dtypes(i)])


def block_stages(arms, plane, n, dtype, poison, zero=False, nan_round=None):
    """One block's three stages over drawn operands, and the same chain
    through its members' numpy bodies from the conv's GEMM output on:
    ``(got, want)`` dicts of every array either writes.

    The special values (share ``poison``) go into odd channels only, which a
    NaN makes NaN throughout: the even ones keep the comparisons' power.
    With ``zero`` channel 0 is all ``-0.0`` (the GEMM output and the conv
    bias), its gamma ``-0.0`` and its output gradient non-negative, so
    batch-norm's mean and its backward's ``dxhat`` sums add ``-0.0`` blocks:
    ``+0.0`` only in numpy's order, which starts every channel at ``+0.0``.
    ``nan_round`` (``False`` / ``True``) instead puts an infinite gradient on
    one window of channel 0, whose winner it makes positive, and, when ``True``, one NaN into channel 1: numpy
    then routes every window a second time."""
    o, (h, w), window, (bias, gamma, beta) = plane
    dtype = np.dtype(dtype)
    arm = arms[(dtype,) + _block_args(dtype, n, plane)[3:]]
    assert arm is not None
    rng = np.random.default_rng([n, o, h, w])
    odd = np.arange(o) % 2 == 1
    gemm = draw(rng, (o, n * h * w), dtype, 0.0)
    gemm[odd] = draw(rng, gemm[odd].shape, dtype, poison)
    terms = [draw(rng, (o,), dtype, 0.0) if on else None for on in (bias, gamma, beta)]
    if gamma:
        terms[1] = np.abs(terms[1]) + 0.5  # not the identity, nor a sign flip
    oh, ow = (h - window[0]) // window[2] + 1, (w - window[1]) // window[3] + 1
    g = draw(rng, (n, o, oh, ow), dtype, 0.0)
    g[:, odd] = draw(rng, g[:, odd].shape, dtype, poison)
    if zero:
        gemm[0] = -0.0
        g[:, 0] = np.abs(g[:, 0])
        for term in terms[:2]:
            if term is not None:
                term[0] = -0.0
    if nan_round is not None:
        gemm[0, 0] = 100.0  # its window's winner: a relu output > 0
        g[0, 0, 0, 0] = np.inf
        if nan_round:
            gemm[1, 0] = np.nan
    db, gamma, beta = terms
    eps, momentum = 1e-5, 0.1

    want = {}
    conv = gemm.reshape(o, n, h, w).transpose(1, 0, 2, 3)  # _conv2d_forward's epilogue
    want["out"] = np.empty((n, o, h, w), dtype)
    if db is None:
        np.copyto(want["out"], conv)
    else:
        np.add(conv, db.reshape(1, -1, 1, 1), out=want["out"])
    stats = np.zeros(o, dtype), np.ones(o, dtype)
    y = Tensor(want["out"], requires_grad=True, dtype=dtype)
    params = [Tensor(t, requires_grad=True, dtype=dtype) if t is not None else None
              for t in (gamma, beta)]
    with using_codegen(False), np.errstate(all="ignore"):
        z = F.batch_norm(y, *params, *stats, training=True, momentum=momentum, eps=eps)
        relu = z.relu()
        pooled = F.max_pool2d(relu, window[:2], window[2:])
        want.update({key: z._node.attrs[key] for key in ("mean", "xhat", "inv_std")},
                    relu=relu.data, pooled=pooled.data)
        pooled.backward(g)
        want["g_t"] = np.ascontiguousarray(y.grad.transpose(1, 0, 2, 3)).reshape(o, -1)
        want["db"] = y.grad.sum(axis=(0, 2, 3)) if db is not None else None  # conv2d_backward's
    want.update(dgamma=None if gamma is None else params[0].grad,
                dbeta=None if beta is None else params[1].grad,
                running_mean=stats[0], running_var=stats[1])

    got, empty = {}, lambda *shape: np.empty(shape, dtype)
    got["out"], mean, var = empty(n, o, h, w), empty(o), empty(o)
    affine = [t for t in (gamma, beta) if t is not None]
    with np.errstate(all="ignore"):
        assert arm.run(0, n, gemm, *[db] * bias, got["out"], mean, var)
        got["mean"], got["inv_std"] = mean, F._bn_inv_std(var, eps)
        got["running_mean"], got["running_var"] = np.zeros(o, dtype), np.ones(o, dtype)
        F._bn_running(got["running_mean"], got["running_var"], mean, var, n * h * w, momentum)
        got["xhat"], got["relu"], got["pooled"] = empty(n, o, h, w), empty(n, o, h, w), empty(n, o, oh, ow)
        assert arm.run(1, n, got["out"], mean, got["inv_std"], *affine, got["xhat"], got["relu"],
                       got["pooled"])
        sums, got["g_t"] = [empty(o) for _ in range(4)], empty(o, n * h * w)
        got["db"] = empty(o) if bias else None
        assert arm.run(2, n, g, got["pooled"], got["relu"], got["xhat"], got["inv_std"],
                       *[gamma] * (gamma is not None), empty(n, o, h, w), *sums, got["g_t"],
                       *[got["db"]] * bias)
    got["dbeta"] = sums[0] if beta is not None else None
    got["dgamma"] = sums[1] if gamma is not None else None
    return got, want


@pytest.mark.skipif(not (have_compiler() and codegen_enabled()),
                    reason="no C compiler available, or codegen is off (REPRO_CODEGEN=0)")
@pytest.mark.parametrize("index", range(len(STAGE_CASES)))
def test_block_stages_equal_the_members_numpy_bodies_byte_for_byte(stage_blocks, index):
    plane, zero = STAGE_CASES[index]
    for dtype in _stage_dtypes(index):
        for n in (1, 3, 64):
            for poison in (0.0, 0.3):
                got, want = block_stages(stage_blocks, plane, n, dtype, poison, zero)
                assert got.keys() == want.keys()
                for key in want:
                    same(got[key], want[key], f"{plane} zero={zero} n={n} {dtype} {poison} {key}")
