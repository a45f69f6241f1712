"""The bytes contract across commits: what TBNet's compiled stages render to,
what its sessions plan, and the numbers a short run produces.

Cross-arm equality (compiled vs numpy, replay vs explicit parts) is tested
elsewhere; this file pins *cross-commit* equality against
``tests/golden.json``, in two tiers:

- **Rendered C, everywhere.**  The stage signatures of TBNet's serving plan,
  of its train arms (width 16; batch 4 and 64; Adam and Nesterov SGD with
  weight decay; its conv blocks' among them) and of a linear + elementwise
  chain's session (the layered benchmark's ``infer_chain_b64`` model) and
  of both models' thread-server worker sessions (no GEMM stages), each
  pinned by its ``kernel_name`` and the sha256 of the C
  :func:`repro.codegen.cstage.render_stages` writes for it.  The signatures
  are read where the code asks for them (the first sight of a train arm, a
  session's request) with the compiler kept out, so this tier needs none.
  With a compiler, the compiled sessions' ``explain()`` rows too.
- **Numbers, per platform.**  Short replayed train digests and the outputs of
  ``compile_serving(1)`` / ``(8)``, keyed by a fingerprint of everything
  that may change a float's bits here: the numpy version, its BLAS, the CPU
  features numpy dispatches on and the C compiler.  A known fingerprint with
  another digest fails; an unknown one skips and prints the entry to add to
  ``golden.json``.

A change that moves any of these on purpose updates ``golden.json`` and
says why.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro import nn
from repro.autograd import kernels
from repro.codegen import have_compiler, jit, using_codegen, wait_for_compiles
from repro.codegen.cstage import render_stages
from repro.models import TBNet, make_synthetic_batch
from repro.nn.optim import SGD, Adam
from repro.serve import compile_inference
from repro.serve.frontend import _ServerPool

GOLDEN = json.loads((Path(__file__).with_name("golden.json")).read_text())

OPTIMIZERS = {
    "adam": lambda params: Adam(params, 1e-3),
    "sgd": lambda params: SGD(params, 0.05, momentum=0.9, nesterov=True, weight_decay=1e-4),
}


def _model():
    return TBNet(width=16, rng=np.random.default_rng(1))


class Chain(nn.Module):
    """3x Linear(128, 128) + relu, 3x relu(h * scale + shift), Linear(128,
    10): a model whose session fuses elementwise regions behind its GEMMs."""

    def __init__(self, rng) -> None:
        super().__init__()
        self.body = nn.Sequential(*[
            layer for _ in range(3) for layer in (nn.Linear(128, 128, rng=rng), nn.ReLU())])
        self.scale = nn.Parameter(rng.standard_normal(128).astype(np.float32))
        self.shift = nn.Parameter(rng.standard_normal(128).astype(np.float32))
        self.out = nn.Linear(128, 10, rng=rng)

    def forward(self, x):
        h = self.body(x)
        for _ in range(3):
            h = (h * self.scale + self.shift).relu()
        return self.out(h)


def _chain_session():
    model = Chain(np.random.default_rng(1))
    model.eval()
    return compile_inference(model, np.random.default_rng(2).standard_normal((64, 128)).astype(np.float32))


def _rendered(signatures) -> dict:
    """``{kernel_name: sha256 of its C}``."""
    out = {}
    for signature in signatures:
        name, source = render_stages(signature)
        out[name] = hashlib.sha256(source.encode()).hexdigest()
    return out


@pytest.fixture
def no_compiles(monkeypatch):
    """Every signature the code asks for, none of them built: a train arm's
    first sight finds nothing on disk, and asking resolves to a failure."""
    asked = []

    def has_disk_candidate(signature):
        asked.append(signature)
        return False

    def resolve(signature, wait=True):
        asked.append(signature)
        return "no_compiler"

    monkeypatch.setattr(kernels, "_ARMS", {})
    monkeypatch.setattr(kernels, "_COUNTED", set())
    monkeypatch.setattr(jit, "_has_disk_candidate", has_disk_candidate)
    monkeypatch.setattr(jit, "resolve", resolve)
    with using_codegen(True):
        yield asked


def test_train_arms_render_the_pinned_c(no_compiles):
    for batch in (4, 64):
        for make in OPTIMIZERS.values():
            model = _model()
            optimizer = make(model.parameters())
            images, context, targets = make_synthetic_batch(batch, rng=np.random.default_rng(2))
            for _ in range(3):  # the third step's capture sights the update
                model.train_step(optimizer, images, context, targets)
    assert _rendered(no_compiles) == GOLDEN["train_stages"]


def test_serving_plan_renders_the_pinned_c(no_compiles):
    session = _model().compile_serving(1)
    assert _rendered(no_compiles) == GOLDEN["serving_stages"]
    assert [g.ops for g in session._plan.groups] == GOLDEN["serving_groups"]


def test_chain_session_plan_renders_the_pinned_c(no_compiles):
    session = _chain_session()
    assert _rendered(no_compiles) == GOLDEN["chain_stages"]
    assert [g.ops for g in session._plan.groups] == GOLDEN["chain_groups"]


def test_thread_worker_plans_render_the_pinned_c(no_compiles):
    # A thread server's worker pools plan without GEMM stages of their own
    # (frontend._ServerPool): TBNet's linear + relu groups and the chain's.
    model = _model().eval()
    _ServerPool(model, (np.zeros((1, 3, 16, 16), np.float32), np.zeros((1, 16), np.float32)),
                buckets=(1,))
    chain = Chain(np.random.default_rng(1)).eval()
    _ServerPool(chain, np.random.default_rng(2).standard_normal((64, 128)).astype(np.float32),
                buckets=(64,))
    assert _rendered(no_compiles) == GOLDEN["server_stages"]


@pytest.mark.skipif(not have_compiler(), reason="no C compiler: nothing is compiled")
def test_compiled_serving_explains_the_pinned_rows():
    with using_codegen(True):
        for batch in (1, 8):
            session = _model().compile_serving(batch)
            assert session.wait_compiled(120), session.explain()
            assert session.explain() == GOLDEN["serving_explain"], batch
        session = _chain_session()
        assert session.wait_compiled(120), session.explain()
        assert session.explain() == GOLDEN["chain_explain"]


# --------------------------------------------------------------------------- #
# Numbers, keyed by the platform
# --------------------------------------------------------------------------- #
def fingerprint() -> dict:
    """What decides the bits of a float result on this machine, read locally."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    features = umath.__cpu_features__
    dispatched = list(umath.__cpu_baseline__) + list(umath.__cpu_dispatch__)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy: no dict mode; no BLAS entry
        blas = "unknown"
    return {
        "numpy": np.__version__,
        "blas": blas,
        "cpu": sorted(f for f in dispatched if features.get(f)),
        "cc": jit._compiler()[1],
    }


def _train_digest(batch: int, rule: str, steps: int) -> str:
    model = _model()
    optimizer = OPTIMIZERS[rule](model.parameters())
    rng = np.random.default_rng(2)
    batches = [make_synthetic_batch(batch, rng=rng) for _ in range(2)]
    digest = hashlib.sha256()
    for step in range(steps):
        if step == 2:
            wait_for_compiles(120)  # the third step captures over what is built
        digest.update(np.float64(model.train_step(optimizer, *batches[step % 2])).tobytes())
    for array in model.state_dict().values():
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()[:16]


def _serving_digest(batch: int) -> str:
    model = _model()
    images, context, _ = make_synthetic_batch(batch, rng=np.random.default_rng(3))
    session = model.compile_serving(batch)
    session.wait_compiled(120)
    return hashlib.sha256(session.run(images, context).tobytes()).hexdigest()[:16]


def test_numbers_match_this_platforms_pinned_digests():
    digests = {
        "train_b4_adam": _train_digest(4, "adam", 6),
        "train_b4_sgd": _train_digest(4, "sgd", 6),
        "train_b64_adam": _train_digest(64, "adam", 4),
        "serve_b1": _serving_digest(1),
        "serve_b8": _serving_digest(8),
    }
    fp = fingerprint()
    key = hashlib.sha256(json.dumps(fp, sort_keys=True).encode()).hexdigest()[:16]
    known = GOLDEN["numbers"].get(key)
    if known is None:
        entry = json.dumps({key: {"fingerprint": fp, "digests": digests}}, indent=2, sort_keys=True)
        print(f"unknown platform; add to tests/golden.json under 'numbers':\n{entry}")
        pytest.skip(f"no digests pinned for platform {key}: {fp}")
    assert digests == known["digests"]
