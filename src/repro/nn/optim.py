"""Optimizers updating :class:`~repro.nn.module.Parameter` storage in place.

Updates mutate ``param.data`` buffers directly with in-place ops, so no
autograd graph is recorded and aliases of the parameter (in closures, in other
modules) see the new values.  State buffers (momentum, Adam moments) are
allocated lazily on the first step that sees a gradient and keyed by position,
so parameters that never receive gradients cost nothing.

The update rules themselves are :func:`sgd_update` / :func:`adam_update`,
applied to every parameter by ``step()``.

:meth:`Optimizer.flatten` moves parameters and their state into one array
each (``.data`` and the state lists become views) and
:meth:`Optimizer.flat_step` applies the rule to the whole arrays at once —
elementwise, so the same bytes — for the replayed train step; ``step()``
keeps working on the views.  Given the compiled ``update`` stage of the
optimizer's :meth:`~Optimizer.flags` (:class:`repro.autograd.kernels.Update`),
``flat_step`` runs the rule as that one C call instead: the same operations
in the same order, its scalars rounded to the dtype as numpy rounds a Python
float operand, so again the same bytes.  The rules here stay the reference,
the ``REPRO_CODEGEN=0`` arm and the fallback; the subnormal sweep stays
numpy either way.
"""

from __future__ import annotations

import warnings
from typing import Iterable, List, Optional

import numpy as np

from repro.autograd.tensor import Tensor
from repro.backend import workspace

__all__ = ["Optimizer", "SGD", "Adam"]

#: Steps between two sweeps of the moment buffers for subnormals.
_FLUSH_EVERY = 64


def _views(flat: np.ndarray, params: List[Tensor]) -> List[np.ndarray]:
    """Views of ``flat`` shaped like each of ``params``, back to back."""
    views, offset = [], 0
    for p in params:
        size = p.data.size
        views.append(flat[offset:offset + size].reshape(p.data.shape))
        offset += size
    return views


def _flush_subnormals(states: List[Optional[np.ndarray]]) -> None:
    """Zero the moment entries below the smallest normal number.

    Under an exactly-zero gradient (a dead relu's weights) a moment decays
    geometrically into the subnormals and *sticks* there — ``0.9 * m`` rounds
    back onto ``m`` — and every later ufunc over such an entry runs
    microcoded: a third of TBNet's first moments after ~900 batch-4 steps,
    an optimizer twice as slow.  No normal-sized parameter can tell (the
    step such an entry contributes is below its last bit).
    Swept every ``_FLUSH_EVERY`` steps, not inside the update rule: three
    passes over every moment on every step cost more than they save on small
    models, and an entry stays subnormal for at most one period.
    """
    for state in states:
        if state is not None:
            np.copyto(state, 0, where=np.abs(state) < np.finfo(state.dtype).tiny)


# Each rule mutates ``p`` and its state (``v``; ``m`` and ``v``) in place,
# never ``g``.  It runs the reference expressions' operations in their order
# (IEEE products and sums commute: ``(1 - beta1) * g`` is ``g * (1 - beta1)``),
# with the temporaries in one or two scratch buffers from ``workspace.empty``:
# a whole-model update (``Optimizer.flat_step``) would otherwise map and fault
# in fresh pages for each of them, every step.
def sgd_update(p, g, v, lr, momentum, weight_decay, nesterov) -> None:
    scratch = workspace.empty(p.shape, p.dtype)
    if weight_decay:
        g = np.add(g, np.multiply(p, weight_decay, out=scratch), out=scratch)
    if momentum:
        v *= momentum
        v += g
        if nesterov:
            g = np.add(g, np.multiply(v, momentum, out=workspace.empty(p.shape, p.dtype)))
        else:
            g = v
    p -= np.multiply(g, np.asarray(lr, dtype=p.dtype), out=scratch)


def adam_update(p, g, m, v, lr, beta1, beta2, eps, bc1, bc2, weight_decay) -> None:
    scratch = workspace.empty(p.shape, p.dtype)
    if weight_decay:
        g = np.add(g, np.multiply(p, weight_decay, out=scratch))
    m *= beta1
    m += np.multiply(g, 1.0 - beta1, out=scratch)
    v *= beta2
    np.square(g, out=scratch)
    scratch *= 1.0 - beta2
    v += scratch
    denom = np.divide(v, bc2, out=scratch)
    np.sqrt(denom, out=denom)
    denom += eps
    step = workspace.empty(p.shape, p.dtype)
    np.multiply(m, np.asarray(lr / bc1, dtype=p.dtype), out=step)
    step /= denom
    p -= step


class Optimizer:
    """Base class: holds the parameter list and the learning rate."""

    def __init__(self, params: Iterable[Tensor], lr: float) -> None:
        seen: set = set()
        self.params: List[Tensor] = []
        for p in params:
            if not isinstance(p, Tensor):
                raise TypeError(f"optimizer got a non-Tensor parameter: {type(p).__name__}")
            if not p.requires_grad:
                continue  # frozen parameter (fine-tuning): nothing to update
            if id(p) not in seen:  # shared parameters must be stepped once
                seen.add(id(p))
                self.params.append(p)
        if not self.params:
            # Fully-frozen models (feature extraction, eval-only fine-tuning
            # pipelines) legitimately build an optimizer over zero trainable
            # parameters; crashing here would break them, so the optimizer
            # degrades to a warned no-op instead.
            warnings.warn(
                "optimizer got no trainable parameters; step() and zero_grad() "
                "will be no-ops",
                UserWarning,
                stacklevel=3,
            )
        self.lr = float(lr)

    #: Names of the per-parameter state lists (``None`` until first used).
    _state_lists: tuple = ()

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        raise NotImplementedError

    def flatten(self, params: List[Tensor]) -> tuple:
        """Move ``params`` (some of :attr:`params`, one dtype) and their state
        into flat arrays: ``(params, grads to fill, states, grad views)``."""
        dtype = params[0].data.dtype
        size = sum(p.data.size for p in params)
        flat = np.empty(size, dtype)
        for p, view in zip(params, _views(flat, params)):
            np.copyto(view, p.data)
            p.data = view
        index = {id(p): i for i, p in enumerate(self.params)}
        states = []
        for name in self._state_lists:
            state, held = np.zeros(size, dtype), getattr(self, name)
            for p, view in zip(params, _views(state, params)):
                i = index[id(p)]
                if held[i] is not None:
                    np.copyto(view, held[i])
                held[i] = view
            states.append(state)
        grads = np.empty(size, dtype)
        return flat, grads, states, _views(grads, params)

    def flat_step(self, flat: np.ndarray, grads: np.ndarray, states: list, arm=None) -> None:
        """One :meth:`step` over arrays made by :meth:`flatten`; ``arm`` (a
        :class:`repro.autograd.kernels.Update` of :meth:`flags`) runs it as
        one compiled stage, else — or when it declines — the numpy rule."""
        raise NotImplementedError

    def flags(self) -> tuple:
        """What the update rule branches on: ``(rule, weight_decay != 0,
        momentum != 0, nesterov)``, literals of its compiled stage."""
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with momentum, weight decay and Nesterov.

    Matches PyTorch's formulation (dampening 0): ``v = momentum * v + g`` and
    the update uses ``v`` (or ``g + momentum * v`` for Nesterov), with weight
    decay folded into ``g`` as L2 regularisation.
    """

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float = 1e-2,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        nesterov: bool = False,
    ) -> None:
        super().__init__(params, lr)
        if momentum < 0.0 or weight_decay < 0.0:
            raise ValueError("momentum and weight_decay must be non-negative")
        if nesterov and momentum == 0.0:
            raise ValueError("nesterov momentum requires momentum > 0")
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.nesterov = bool(nesterov)
        self._velocity: List[Optional[np.ndarray]] = [None] * len(self.params)
        self._step_count = 0
        if self.momentum:
            self._state_lists = ("_velocity",)

    def _advance(self) -> None:
        self._step_count += 1
        if self.momentum and self._step_count % _FLUSH_EVERY == 0:
            _flush_subnormals(self._velocity)

    def flags(self) -> tuple:
        return ("sgd", self.weight_decay != 0.0, self.momentum != 0.0, self.nesterov)

    def flat_step(self, flat, grads, states, arm=None) -> None:
        self._advance()
        values = (self.lr, self.momentum, self.weight_decay)
        if arm is not None and arm.update(self.flags(), values, flat, grads, *states):
            return
        sgd_update(
            flat, grads, states[0] if states else None,
            self.lr, self.momentum, self.weight_decay, self.nesterov,
        )

    def step(self) -> None:
        self._advance()
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            v = None
            if self.momentum:
                v = self._velocity[i]
                if v is None:
                    # Zero-initialised: sgd_update's first momentum update
                    # (v = momentum * 0 + g) then matches torch's v0 = g.
                    v = self._velocity[i] = np.zeros_like(p.data)
            sgd_update(
                p.data, g, v, self.lr, self.momentum, self.weight_decay, self.nesterov
            )


class Adam(Optimizer):
    """Adam with bias-corrected first/second moments (Kingma & Ba)."""

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float = 1e-3,
        betas=(0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        beta1, beta2 = betas
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError(f"betas must lie in [0, 1), got {betas}")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._step_count = 0
        self._m: List[Optional[np.ndarray]] = [None] * len(self.params)
        self._v: List[Optional[np.ndarray]] = [None] * len(self.params)

    _state_lists = ("_m", "_v")

    def _advance(self) -> tuple:
        """Count the step, sweep when due; the bias corrections ``(bc1, bc2)``."""
        self._step_count += 1
        t = self._step_count
        if t % _FLUSH_EVERY == 0:
            # Both moments: under an exactly-zero gradient v (beta2 = 0.999)
            # reaches the subnormals too, ~7e4 steps in.
            _flush_subnormals(self._m + self._v)
        return 1.0 - self.beta1 ** t, 1.0 - self.beta2 ** t

    def flags(self) -> tuple:
        return ("adam", self.weight_decay != 0.0, False, False)

    def flat_step(self, flat, grads, states, arm=None) -> None:
        bc1, bc2 = self._advance()
        b1, b2 = self.beta1, self.beta2
        values = (b1, 1.0 - b1, b2, 1.0 - b2, bc2, self.eps, self.lr / bc1, self.weight_decay)
        if arm is not None and arm.update(self.flags(), values, flat, grads, *states):
            return
        adam_update(
            flat, grads, states[0], states[1], self.lr, self.beta1, self.beta2, self.eps,
            bc1, bc2, self.weight_decay,
        )

    def step(self) -> None:
        bc1, bc2 = self._advance()
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            m, v = self._m[i], self._v[i]
            if m is None:
                m = self._m[i] = np.zeros_like(p.data)
                v = self._v[i] = np.zeros_like(p.data)
            adam_update(
                p.data, g, m, v, self.lr, self.beta1, self.beta2, self.eps,
                bc1, bc2, self.weight_decay,
            )
