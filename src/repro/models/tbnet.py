"""TBNet — the paper's two-branch reference network.

The model fuses two input modalities through separate branches whose
embeddings are concatenated before a shared classifier head:

- the **spatial branch** is a small convnet over NCHW images
  (conv → batch-norm → relu → pool, twice, then flatten);
- the **context branch** is an MLP over flat per-sample feature vectors
  (linear → relu → dropout → linear → relu).

Every block is built from :mod:`repro.nn` layers, so the whole model is a
:class:`~repro.nn.module.Module`: ``parameters()``, ``train()``/``eval()``
and ``state_dict()`` checkpointing come for free, and
:meth:`TBNet.train_step` is one fused-kernel forward, one backward and one
optimizer step, replayed from one captured tape while nothing it depends on
changes.

:func:`make_synthetic_batch` produces a deterministic class-conditional batch
(class identity is injected into both modalities) so smoke training has
actual signal to fit, not just labels to memorise.
"""

from __future__ import annotations

import operator
import weakref
from typing import Optional, Tuple

import numpy as np

from repro import nn
from repro.autograd import Tensor, functional as F, ir, is_grad_enabled, no_grad
from repro.backend import default_rng
from repro.codegen.jit import codegen_enabled

__all__ = ["TBNet", "make_synthetic_batch", "train_replay"]


class TBNet(nn.Module):
    """Two-branch network over (image, context) pairs.

    Parameters
    ----------
    in_channels, image_size:
        Spatial-branch input layout ``(N, in_channels, image_size,
        image_size)``; ``image_size`` must be divisible by 4 (two 2×2 pools).
    context_dim:
        Context-branch input layout ``(N, context_dim)``.
    num_classes:
        Output logits ``(N, num_classes)``.
    width:
        Base channel/feature width; branch widths scale with it.
    dropout:
        Drop probability of the two regularising dropouts (0 disables them).
    rng:
        Explicit generator for reproducible weight init and dropout masks.
    """

    def __init__(
        self,
        in_channels: int = 3,
        image_size: int = 16,
        context_dim: int = 16,
        num_classes: int = 10,
        width: int = 16,
        dropout: float = 0.25,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if image_size % 4 != 0:
            raise ValueError(f"image_size must be divisible by 4, got {image_size}")
        self.in_channels = int(in_channels)
        self.image_size = int(image_size)
        self.context_dim = int(context_dim)
        self.num_classes = int(num_classes)
        self.width = int(width)
        self.dropout_rate = float(dropout)

        c1, c2 = width, 2 * width
        spatial_dim = c2 * (image_size // 4) ** 2
        context_width = 2 * width
        head_width = 4 * width

        self.spatial = nn.Sequential(
            nn.Conv2d(in_channels, c1, 3, padding=1, rng=rng),
            nn.BatchNorm2d(c1),
            nn.ReLU(),
            nn.MaxPool2d(2),
            nn.Conv2d(c1, c2, 3, padding=1, rng=rng),
            nn.BatchNorm2d(c2),
            nn.ReLU(),
            nn.MaxPool2d(2),
            nn.Flatten(),
        )
        self.context = nn.Sequential(
            nn.Linear(context_dim, context_width, rng=rng),
            nn.ReLU(),
            nn.Dropout(dropout, rng=rng),
            nn.Linear(context_width, context_width, rng=rng),
            nn.ReLU(),
        )
        self.head = nn.Sequential(
            nn.Linear(spatial_dim + context_width, head_width, rng=rng),
            nn.ReLU(),
            nn.Dropout(dropout, rng=rng),
            nn.Linear(head_width, num_classes, rng=rng),
        )

    def forward(self, images, context) -> Tensor:
        spatial_emb = self.spatial(images)
        context_emb = self.context(context)
        fused = Tensor.concatenate([spatial_emb, context_emb], axis=1)
        return self.head(fused)

    def loss(self, images, context, targets) -> Tensor:
        """Cross-entropy of the fused logits against integer class targets."""
        return F.softmax_cross_entropy(self.forward(images, context), targets)

    def train_step(self, optimizer: nn.optim.Optimizer, images, context, targets) -> float:
        """One full training step: forward, backward, parameter update.

        Returns the scalar loss of the step (before the update).  Gradients
        are cleared after the update, so steps compose without manual
        ``zero_grad()`` calls.

        The second call with an unchanged signature (see
        :class:`_Signature`) captures the step, later ones replay it
        (:mod:`repro.autograd.replay`) — the same bytes without the tape;
        ``repro_train_steps_total{path, reason}`` counts which path ran.
        """
        images, context = Tensor._wrap(images), Tensor._wrap(context)
        state = _STEPS.get(self)
        if state is None:
            state = _STEPS[self] = _TrainState()
        return state.step(self, optimizer, images, context, targets)

    def infer(self, images, context) -> np.ndarray:
        """Eager ``no_grad`` forward returning the plain logits array.

        The eval-mode serving path: call :meth:`~repro.nn.module.Module.eval`
        first so batch-norm uses its running statistics and dropout is a
        tape-free identity — the trace this produces is exactly what
        :meth:`compile_serving` captures and replays.
        """
        with no_grad():
            return self.forward(images, context).data

    def compile_serving(self, batch_size: int):
        """Compile a fixed-batch :class:`repro.serve.InferenceSession`.

        Switches the model to eval mode (serving sessions refuse train-mode
        layers), captures one forward trace over a zero example batch of
        ``batch_size`` samples and returns the compiled session.  Parameters
        stay bound by reference, so later in-place updates are served
        without recompiling; wrap the session with
        :func:`repro.serve.serve_batches` to serve arbitrary request sizes.
        """
        from repro.serve import compile_inference  # deferred: serve sits above models

        self.eval()
        images = Tensor.zeros(batch_size, self.in_channels, self.image_size, self.image_size)
        context = Tensor.zeros(batch_size, self.context_dim)
        return compile_inference(self, (images, context))

    def spawn_factory(self):
        """A picklable zero-arg callable rebuilding this architecture.

        :class:`repro.serve.ProcServer` workers under the ``spawn`` start
        method reconstruct the model from this and take the actual
        weights from the shared-memory arena, so the factory only has to
        get the architecture right.
        """
        import functools

        return functools.partial(
            TBNet,
            in_channels=self.in_channels,
            image_size=self.image_size,
            context_dim=self.context_dim,
            num_classes=self.num_classes,
            width=self.width,
            dropout=self.dropout_rate,
        )

    def serve(
        self,
        buckets=(1, 4, 16, 64),
        *,
        workers: int = 1,
        workers_mode: str = "thread",
        start_method: Optional[str] = None,
        max_batch_size: Optional[int] = None,
        start: bool = True,
        http_port: Optional[int] = None,
        http_host: str = "127.0.0.1",
        **resilience,
    ):
        """Build a dynamic-batching :class:`repro.serve.Server` over this model.

        Switches the model to eval mode, compiles one bucketed
        :class:`repro.serve.SessionPool` replica per worker, and returns the
        request-queue server (already started unless ``start=False``)::

            with model.serve(workers=2, queue_limit=256, overload="reject",
                             default_timeout=0.5) as server:
                logits = server(images, context)        # blocking
                future = server.submit(images, context) # or async

        No request is held to form a batch: an idle worker serves what is
        queued at once, and batches form from requests that queue while
        the workers are busy.

        Extra keyword arguments pass straight through to
        :class:`repro.serve.Server` — the resilience knobs (``queue_limit``,
        ``overload``, ``default_timeout``, ``retry``, ``supervise``,
        ``supervision``, ``latency_window``) and the observability knobs
        (``registry``, ``trace``, ``trace_capacity``) ride along unchanged.

        ``http_port`` (with ``http_host``) additionally starts the
        observability HTTP edge — ``/metrics``, ``/health``, ``/ready``,
        ``/traces.json`` — on the started server (``0`` picks a free port;
        read it back from ``server.serve_http().port``).  Requires
        ``start=True``.

        ``workers_mode="thread"`` (default) shards across worker threads
        with parameters bound by reference, so in-place fine-tuning shows
        up on every worker without recompiling.  ``workers_mode="process"``
        builds a :class:`repro.serve.ProcServer` instead — OS worker
        processes over shared-memory parameter arenas (``start_method``
        picks ``fork``/``spawn``); there, hot weight updates go through
        ``server.publish_weights()``.
        """
        if workers_mode not in ("thread", "process"):
            raise ValueError(
                f"workers_mode must be 'thread' or 'process', got "
                f"{workers_mode!r}"
            )
        if workers_mode == "thread" and start_method is not None:
            raise ValueError("start_method only applies to workers_mode='process'")
        self.eval()
        example = (
            Tensor.zeros(1, self.in_channels, self.image_size, self.image_size),
            Tensor.zeros(1, self.context_dim),
        )
        # Deferred, and only the front end this mode runs: serve sits above
        # models, and a thread server never loads ``multiprocessing``.
        if workers_mode == "process":
            from repro.serve import ProcServer

            server = ProcServer(
                self,
                example,
                buckets,
                workers=workers,
                start_method=start_method,
                model_factory=self.spawn_factory(),
                max_batch_size=max_batch_size,
                **resilience,
            )
        else:
            from repro.serve import Server

            server = Server(
                self,
                example,
                buckets,
                workers=workers,
                max_batch_size=max_batch_size,
                **resilience,
            )
        if not start:
            if http_port is not None:
                raise ValueError("http_port requires start=True")
            return server
        server.start()
        if http_port is not None:
            server.serve_http(host=http_host, port=http_port)
        return server


# --------------------------------------------------------------------------- #
# The replayed train step
# --------------------------------------------------------------------------- #
#: Per model (a weak key: a collected model frees its replay) its train step.
_STEPS: "weakref.WeakKeyDictionary[TBNet, _TrainState]" = weakref.WeakKeyDictionary()

#: The forwards a replay can see through: the built-in layers' (a subclass
#: that keeps its layer's forward is fine).
_BUILT_IN_LAYER_FNS = frozenset(
    cls.forward for cls in (nn.Linear, nn.Conv2d, nn.BatchNorm2d, nn.BatchNorm1d, nn.Dropout,
                            nn.ReLU, nn.MaxPool2d, nn.Flatten, nn.Sequential)
)
_COUNTS: dict = {}


def train_replay(model: TBNet):
    """The :class:`~repro.autograd.replay.TrainReplay` ``model.train_step``
    runs now (``explain()`` says what each captured op runs on), or ``None``."""
    state = _STEPS.get(model)
    return state.replay if state is not None else None


def _count(path: str, reason: str) -> None:
    """One step under ``repro_train_steps_total{path, reason}``."""
    counter = _COUNTS.get((path, reason))
    if counter is None:
        from repro.obs import get_registry

        counter = _COUNTS[path, reason] = get_registry().counter(
            "repro_train_steps_total",
            "TBNet train steps by path (replay / eager) and why eager ran",
            labelnames=("path", "reason"),
        ).labels(path=path, reason=reason)
    counter.inc()


def _replayable(model: TBNet, modules, optimizer) -> bool:
    """Whether every forward the step runs is one the capture can see, and
    the optimizer's update one it can run over flat arrays."""
    cls, update = type(model), type(optimizer)
    if cls.forward is not TBNet.forward or cls.loss is not TBNet.loss:
        return False
    if not any(update.step is rule.step and update.flat_step is rule.flat_step
               for rule in (nn.optim.SGD, nn.optim.Adam)):
        return False
    return all(
        type(m).forward in _BUILT_IN_LAYER_FNS and type(m).__call__ is nn.Module.__call__
        for m in modules
    )


class _Signature:
    """What a captured step depends on, by identity (module attributes —
    ``training`` among them — and buffers, parameter storage, the optimizer
    and its state arrays) and by value (input shapes and
    dtypes, every ``requires_grad``, the codegen state).  ``reason``:
    ``module`` when the step cannot be captured at all."""

    __slots__ = ("modules", "params", "reason", "parts", "objects", "meta")

    def __init__(self, model: TBNet, optimizer, images: Tensor, context: Tensor, targets) -> None:
        self.modules = list(model.modules())[1:]
        self.params = model.parameters()
        self.reason = None if _replayable(model, self.modules, optimizer) else "module"
        # Per module: its attributes, its buffers and the names of its list
        # attributes (Sequential's layers), read item by item.
        self.parts = [
            (m.__dict__, m._buffers, [k for k, v in m.__dict__.items() if v.__class__ is list])
            for m in [model] + self.modules
        ]
        self.objects, self.meta = self._read(optimizer, images, context, targets)

    def _read(self, optimizer, images, context, targets):
        objects = [optimizer]
        extend = objects.extend
        for attributes, buffers, lists in self.parts:
            extend(attributes.values())
            extend(buffers.values())
            for name in lists:
                extend(attributes[name])
        extend(optimizer.params)
        for name in optimizer._state_lists:
            extend(getattr(optimizer, name))
        extend([p.data for p in self.params])
        meta = (
            type(optimizer), codegen_enabled(),
            images.data.shape, images.data.dtype, images.requires_grad,
            context.data.shape, context.data.dtype, context.requires_grad,
            targets.data.shape if isinstance(targets, Tensor) else np.shape(targets),
            tuple([p.requires_grad for p in self.params]),
        )
        return objects, meta

    def holds(self, optimizer, images, context, targets) -> bool:
        objects, meta = self._read(optimizer, images, context, targets)
        return (
            meta == self.meta and len(objects) == len(self.objects)
            and all(map(operator.is_, objects, self.objects))
        )


class _TrainState:
    """One model's train step: the eager step, counted with why it ran
    (``signature`` changed — the replay is dropped and recaptured once it
    holds again — ``module``, ``grad`` present, an active ``capture``,
    ``no_grad``, a kernel ``pending``, or ``capturing``), or the replay."""

    __slots__ = ("signature", "replay")

    def __init__(self) -> None:
        self.signature: Optional[_Signature] = None
        self.replay = None

    def step(self, model, optimizer, images: Tensor, context: Tensor, targets) -> float:
        reason = None
        if not is_grad_enabled():
            reason = "no_grad"
        elif ir.current_capture() is not None:
            reason = "capture"
        else:
            signature = self.signature
            if signature is None or not signature.holds(optimizer, images, context, targets):
                self.replay = None
                self.signature = _Signature(model, optimizer, images, context, targets)
                reason = "signature"
            elif signature.reason is not None:
                reason = signature.reason
            elif any(p.grad is not None for p in signature.params):
                reason = "grad"
            elif self.replay is not None:
                _count("replay", "")
                return self.replay.run(images.data, context.data, targets)
            else:
                return self._capture(model, optimizer, images, context, targets)
        _count("eager", reason)
        loss = model.loss(images, context, targets)
        loss.backward()
        optimizer.step()
        optimizer.zero_grad()
        return loss.item()

    def _capture(self, model, optimizer, images, context, targets) -> float:
        """The eager step, recorded; the replay built from its tape."""
        from repro.autograd import replay  # a process that never captures never loads it

        counters = [m._buffers["num_batches_tracked"] for m in self.signature.modules
                    if "num_batches_tracked" in m._buffers]
        before = [int(counter) for counter in counters]
        with ir.capture() as graph:
            loss = model.loss(images, context, targets)
        deltas = [(c, int(c) - b) for c, b in zip(counters, before) if int(c) != b]
        try:
            self.replay = replay.TrainReplay(
                graph.nodes, (images, context), self.signature.params, optimizer, deltas)
        except ir.Fallback as fallback:
            if fallback.reason == "module":
                self.signature.reason = "module"  # until the signature changes
            _count("eager", fallback.reason)
        else:
            _count("eager", "capturing")
        graph = None
        loss.backward()
        optimizer.step()
        optimizer.zero_grad()
        if self.replay is not None:  # parameters and moments moved into flat arrays
            self.signature = _Signature(model, optimizer, images, context, targets)
        return loss.item()


def make_synthetic_batch(
    batch: int,
    in_channels: int = 3,
    image_size: int = 16,
    context_dim: int = 16,
    num_classes: int = 10,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[Tensor, Tensor, np.ndarray]:
    """Class-conditional synthetic ``(images, context, targets)`` batch.

    Each sample's class shifts the mean of its image channels and of its
    context vector, so both branches carry label signal and a few optimizer
    steps must reduce the loss.  Without an explicit ``rng`` the draw comes
    from the seeded global generator (``repro.nn.init.manual_seed``), like
    every other default draw in the stack.
    """
    rng = rng if rng is not None else default_rng()
    targets = rng.integers(0, num_classes, size=batch)
    class_signal = (targets / max(num_classes - 1, 1)).astype(np.float32) - 0.5

    images = rng.standard_normal((batch, in_channels, image_size, image_size)).astype(np.float32)
    images += class_signal[:, None, None, None]
    context = rng.standard_normal((batch, context_dim)).astype(np.float32)
    context += class_signal[:, None]
    return Tensor(images), Tensor(context), targets
