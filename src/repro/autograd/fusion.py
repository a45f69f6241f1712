"""Trace-time fusion: region extraction + pattern rewrites over the graph IR.

The pass walks the node graph reachable from a root tensor (in topological
order) and rewrites it at two granularities:

**Elementwise regions** (the general mechanism).  Maximal single-consumer
chains of ``add``/``mul``/``div``/``neg``/``relu`` nodes — any mix, any
length ≥ 2 — are collapsed into one ``region`` node carrying a
:class:`~repro.codegen.region.RegionIR`.  On replay (serving) the region
executes as **one compiled C loop** — a stage of its stage plan — through
the backend's ``compile_region`` fusion point (falling back to the
bit-equal numpy interpreter arm when codegen is off or no compiler
exists); the loop takes the batch at run time, so one kernel serves every
batch size of a structure.  During
training the fused backward runs the exact per-op VJP sequences of the
original thunks in reverse order, passing interior gradients straight
through without the per-link ownership copy the unfused engine pays.

Three extensions widen what a region may contain:

- **Reduction tails** — a no-grad ``sum`` node whose axes form a trailing
  contiguous run joins the region (captured traces only; a training
  ``sum`` keeps its exact eager thunk), so a softmax-CE style epilogue
  compiles into the same kernel pipeline instead of forcing a region
  boundary.  Gated on the backend advertising ``"reduce"`` in its
  ``region_features``.
- **Linear heads** — a no-grad ``linear`` node may be absorbed as the
  *first* member of a region: the GEMM still runs through the host BLAS,
  but its bias add (and any following activation) folds into the region's
  first compiled loop.  Gated on ``"linear"`` in ``region_features``;
  ``linear → relu`` pairs are still claimed by the ``linear_relu``
  composite first.
- **Duplicated producers** — the single-consumer rule is lifted for one
  narrow shape: a lone elementwise node whose inputs are all graph
  leaves and whose output feeds *exactly two* region-eligible consumers
  is recomputed into each consuming region.  The producer node itself
  stays in the graph: the regions' backwards accumulate the two incoming
  gradients into its output tensor (two contributions commute bitwise),
  and its own thunk then runs its VJP — so every leaf gradient stays
  bit-identical while the forward chains fuse through the fan-out.  In a
  captured trace the bypassed producer becomes dead and the serving
  emitter drops it.

**Pattern pairs** (the composite-kernel mechanism).  ``linear → relu`` and
``batch_norm → relu`` fuse into ``linear_relu`` / ``batch_norm_relu`` nodes
dispatching to the backend composites: a GEMM or a training-mode batch norm
cannot join an elementwise region, but masking its activation inside the
composite is a real win.  Every other elementwise chain is a region's
business; a backend without ``compile_region`` leaves it unfused.

A chain is fused only when each interior output is consumed by exactly one
node of the walked graph, so gradient accumulation order — and therefore
every leaf gradient — stays **bit-identical** to the unfused tape: fused
backward thunks run the exact op sequence of the separate thunks, on the
backends the nodes captured at trace time.  The only observable difference
is that fused-away intermediates no longer receive a transient ``.grad``
(they are bypassed entirely, like PyTorch's non-leaf tensors).

Incremental rewrite path
------------------------
Per-step training must not pay the full analysis on every tape: the pass
hashes the tape's *structure* (ops, wiring, dtypes, shapes, backend) into a
plan key and memoizes the resulting fusion plan.  Steady-state steps do one
cheap structural scan, hit the plan cache, and apply the recorded rewrites
directly — no consumer counting, no region discovery, no RegionIR
rebuilding.

When to run
-----------
- **Before ``backward()``** (automatic): with fusion enabled,
  :meth:`Tensor.backward` runs the pass once per freshly recorded graph
  before toposorting it.  Enable with the ``REPRO_FUSION`` environment
  variable (anything but ``0/off/false/no``), programmatically with
  :func:`enable_fusion`, or scoped with :func:`using_fusion`.
- **At trace time** (explicit): call :func:`fuse` on a freshly traced
  output (or on the output of an :func:`repro.autograd.ir.capture` block).
  The serving compiler (:func:`repro.serve.compile_inference`) does exactly
  this, and its executor then runs each region as one preallocated-buffer
  kernel step.

Fused nodes register forward evaluators in the IR registry, so a fused
captured trace replays like any other.
"""

from __future__ import annotations

import contextlib
import os
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.autograd import ir
from repro.autograd.functional import (
    _bn_affine_inputs,
    _bn_replay_stats,
    batch_norm_backward,
    linear_backward,
)
from repro.autograd.tensor import Tensor, _raise_freed_graph, _unbroadcast
from repro.backend import get_backend
from repro.codegen import RegionIR, RegionInput

__all__ = [
    "FUSED_OPS",
    "enable_fusion",
    "fuse",
    "fusion_enabled",
    "using_fusion",
]

#: Ops produced by this pass (also the keys of the fusion-count stats).
FUSED_OPS = ("linear_relu", "batch_norm_relu", "region")

_FALSY = ("", "0", "off", "false", "no")

#: Programmatic override of the REPRO_FUSION environment toggle.
_OVERRIDE: Optional[bool] = None


def fusion_enabled() -> bool:
    """Whether ``backward()`` runs the rewrite pass automatically.

    :func:`enable_fusion` / :func:`using_fusion` take precedence; otherwise
    the ``REPRO_FUSION`` environment variable decides (off by default).
    """
    if _OVERRIDE is not None:
        return _OVERRIDE
    return os.environ.get("REPRO_FUSION", "").strip().lower() not in _FALSY


def enable_fusion(flag: Optional[bool]) -> None:
    """Force fusion on (``True``), off (``False``) or back to the
    ``REPRO_FUSION`` environment default (``None``)."""
    global _OVERRIDE
    _OVERRIDE = flag


@contextlib.contextmanager
def using_fusion(flag: bool):
    """Scoped :func:`enable_fusion`, restoring the previous override."""
    global _OVERRIDE
    previous = _OVERRIDE
    _OVERRIDE = bool(flag)
    try:
        yield
    finally:
        _OVERRIDE = previous


def _node_backend(node: ir.GraphNode):
    """The backend a fused thunk must run on: the node's trace-time backend."""
    return node.be if node.be is not None else get_backend()


#: Composite methods a backend must provide before its nodes may be
#: pattern-fused.  The pre-IR ``ArrayBackend`` surface did not include
#: them, so a third-party backend that predates (or skips) the composites
#: simply gets no fusion instead of an AttributeError mid-backward or
#: mid-replay.
_COMPOSITE_METHODS = ("relu_grad", "linear_relu", "bn_normalize_relu")

def _backend_caps(be) -> tuple:
    """(supports composites, supports regions, region features), memoized
    on the backend.

    The probe result is stored on the instance itself so its lifetime is
    tied to the backend object (an external ``id()``-keyed cache would go
    stale when a test-scoped backend is collected and its id reused).
    Capabilities are treated as static per backend, like everywhere else
    in this module.  ``region features`` is the backend's advertised
    ``region_features`` set (``{"elementwise"}`` when it has
    ``compile_region`` but predates the attribute, empty when it has no
    ``compile_region`` at all) — the gate for absorbing structured nodes.
    """
    caps = getattr(be, "_repro_fusion_caps", None)
    if caps is None or len(caps) != 3:
        has_regions = hasattr(be, "compile_region")
        features = (
            frozenset(getattr(be, "region_features", ("elementwise",)))
            if has_regions
            else frozenset()
        )
        caps = (
            all(hasattr(be, method) for method in _COMPOSITE_METHODS),
            has_regions,
            features,
        )
        try:
            be._repro_fusion_caps = caps
        except (AttributeError, TypeError):
            pass  # slotted/frozen third-party backend: probe every time
    return caps


def _supports_composites(node: ir.GraphNode) -> bool:
    return _backend_caps(_node_backend(node))[0]


def _supports_regions(node: ir.GraphNode) -> bool:
    return _backend_caps(_node_backend(node))[1]


# --------------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------------- #
def fuse(root: Tensor) -> Dict[str, int]:
    """Collapse fusable chains reachable from ``root``; returns counts per op.

    Safe to call on any traced tensor: training graphs (backward thunks are
    fused too) and captured ``no_grad`` traces (forward-only nodes) alike.
    Tensors shared with *other* graphs are never mutated — a fused chain
    bypasses its producer nodes rather than rewriting them, so other
    consumers of an interior output keep working.
    """
    root_node = root._node
    if root_node is None:
        return {}
    # Training graphs are walked the way backward() will walk them (pruning
    # backward-less parents); captured no_grad traces are walked fully.
    nodes = ir.toposort(root_node, backward_only=root_node.backward is not None)
    return _fuse_nodes(nodes, root)[0]


def fuse_for_backward(root: Tensor):
    """The pass as ``backward()`` invokes it: returns a reusable topo list.

    Each rewrite splices the fused node into the region/pattern head's slot
    of the pass's own topological walk (and blanks the bypassed members'
    slots), so the post-rewrite order is returned ready to run —
    ``backward()`` never walks the graph a second time.  ``None`` only when
    there is no graph at all.
    """
    root_node = root._node
    if root_node is None:
        return None
    nodes = ir.toposort(root_node, backward_only=root_node.backward is not None)
    return _fuse_nodes(nodes, root)[1]


# --------------------------------------------------------------------------- #
# The plan cache (incremental rewrite path)
# --------------------------------------------------------------------------- #
#: Structural plan key -> fusion plan.  A training loop records the same
#: tape every step; after the first step the analysis (consumer counting,
#: eligibility, region discovery, RegionIR construction) is skipped and the
#: memoized plan is applied directly.
_PLAN_CACHE: Dict[tuple, list] = {}
_PLAN_CACHE_LIMIT = 64


def _plan_key(nodes) -> Optional[tuple]:
    """Structural identity of a topo list, or ``None`` when uncacheable.

    Captures op names and wiring (producer positions / leaf identity
    classes) — enough to make consumer counts, and therefore every
    *shape*-independent analysis decision, identical between two graphs
    with equal keys.  Everything else a plan depends on (dtypes, backend
    capabilities, relu masks) is re-validated per plan entry by
    :func:`_plan_applies`, whose cost is bounded by the plan size rather
    than the tape size: this function is the per-step hot path, so it
    deliberately reads nothing but ``op`` and the input links.
    """
    # One flat mixed tuple: each node contributes its op string followed by
    # its source codes (ints).  Op strings delimit the int runs, so the
    # encoding stays injective without per-node tuples — one allocation for
    # the whole key instead of two per node.
    key = []
    append = key.append
    node_pos: Dict[int, int] = {}
    leaf_ids: Dict[int, int] = {}
    pos_get = node_pos.get
    leaf_default = leaf_ids.setdefault
    idx = 0
    for node in nodes:
        if node.out is None:
            return None  # partially freed graph: let the full analysis cope
        append(node.op)
        for t in node.inputs:
            p = t._node
            if p is not None:
                pos = pos_get(id(p))
                if pos is not None:
                    append(pos)
                    continue
            append(-1 - leaf_default(id(t), len(leaf_ids)))
        node_pos[id(node)] = idx
        idx += 1
    return tuple(key)


def _fuse_nodes(nodes, root: Tensor):
    """Rewrite a prebuilt topological node list; returns ``(counts, topo)``.

    ``topo`` is the post-rewrite topological order: a fused node takes the
    head's slot (its inputs all precede the earliest member, so the order
    stays valid) and every other member's slot is dropped.
    """
    key = _plan_key(nodes)
    plan = _PLAN_CACHE.get(key) if key is not None else None
    if plan is None or not _plan_applies(plan, nodes):
        plan = _build_plan(nodes, root)
        if key is not None:
            if len(_PLAN_CACHE) >= _PLAN_CACHE_LIMIT:
                _PLAN_CACHE.clear()
            _PLAN_CACHE[key] = plan
    counts = _apply_plan(plan, nodes)
    if counts:
        nodes = [n for n in nodes if n is not None]
    return counts, nodes


def _freeze_plan(entries: list) -> tuple:
    """Pack plan entries with their rewrite counts (counts depend only on
    the plan, so they are computed once here instead of on every apply)."""
    counts: Dict[str, int] = {}
    for entry in entries:
        kind = entry[0]
        counts[kind] = counts.get(kind, 0) + 1
    return entries, counts


#: Expected (producer_op, consumer_op) per pattern kind.  The structural
#: key already guarantees these match; re-checked here as cheap insurance.
_PATTERN_OPS = {
    "linear_relu": ("linear", "relu"),
    "batch_norm_relu": ("batch_norm", "relu"),
}


def _plan_applies(plan, nodes) -> bool:
    """Validate a key-matched plan against this graph instance.

    The structural key guarantees ops and wiring — and wiring fixes the
    consumer counts, so the single-consumer precondition of every fusion
    below holds whenever the key matches.  What the key deliberately
    dropped for speed is re-checked here, bounded by the *plan* size rather
    than the tape size: dtypes (head output + external inputs pin the whole
    region cone by promotion), backend capabilities and identity, and relu
    mask availability.  Shapes need no check — training backward reads live
    data, and captured-region replay respecializes by shape at evaluation
    time.  A miss falls back to full analysis.
    """
    try:
        for entry in plan[0]:
            kind = entry[0]
            if kind == "region":
                _, member_pos, _routes, region, ext_locs, _dup_mask = entry
                head = nodes[member_pos[-1]]
                data = head.out.data
                if not isinstance(data, np.ndarray) or data.dtype != region.out_dtype:
                    return False
                be = _node_backend(head)
                if not _backend_caps(be)[1]:
                    return False
                structured = not region.is_elementwise
                if structured and head.backward is not None:
                    # A structurally identical *training* tape must not
                    # reuse a capture plan containing sum/linear members.
                    return False
                # Ops need no re-check — the structural key pins them; only
                # what the key dropped (backend identity, mask presence,
                # reduction axes) is validated per member.
                for j, pos in enumerate(member_pos):
                    node = nodes[pos]
                    if _node_backend(node) is not be:
                        return False
                    if node.op == "relu" and node.backward is not None:
                        attrs = node.attrs
                        if not attrs or "mask" not in attrs:
                            return False
                    if node.op == "sum":
                        # The structural key ignores attrs: same wiring
                        # with different reduction axes is a plan miss.
                        if _sum_meta(node) != region.ops[j][2]:
                            return False
                for s, (j, i) in enumerate(ext_locs):
                    td = nodes[member_pos[j]].inputs[i].data
                    if (
                        not isinstance(td, np.ndarray)
                        or td.dtype != region.inputs[s].dtype
                    ):
                        return False
            else:
                producer, consumer = nodes[entry[1]], nodes[entry[2]]
                if producer.op != _PATTERN_OPS[kind][0]:
                    return False
                if not (
                    _supports_composites(producer)
                    and _supports_composites(consumer)
                ):
                    return False
    except (AttributeError, IndexError, TypeError):
        # Freed nodes or a structurally stale plan: rebuild from scratch.
        return False
    return True


# --------------------------------------------------------------------------- #
# Analysis: build a fusion plan from one topo walk
# --------------------------------------------------------------------------- #
#: Graph ops an elementwise region may absorb.  Restricted to ops whose C
#: scalar form is bit-equal to the numpy ufunc (see repro.codegen.region);
#: ``sub`` never appears as a node (a - b records add(a, neg(b))).
_REGION_NODE_OPS = frozenset(("add", "mul", "div", "neg", "relu"))

#: Structured graph ops a region may absorb in captured (no-grad) traces,
#: gated per backend through ``region_features``.
_REGION_STRUCTURED_NODE_OPS = frozenset(("sum", "linear"))

_F32 = np.dtype(np.float32)
_F64 = np.dtype(np.float64)

#: Cap on ops per region: bounds generated-C size and compile time; a chain
#: longer than this splits into one region plus eager stragglers.
_MAX_REGION = 32


def _trailing_k(ndim: int, axis) -> Optional[int]:
    """``k`` when ``axis`` names exactly the last ``k`` of ``ndim`` axes,
    else ``None`` (the only reduction layout region kernels render)."""
    if ndim == 0:
        return None
    if axis is None:
        return ndim
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    norm = set()
    for a in axes:
        if not isinstance(a, int) or not -ndim <= a < ndim:
            return None
        norm.add(a + ndim if a < 0 else a)
    k = len(norm)
    if norm == set(range(ndim - k, ndim)):
        return k
    return None


def _sum_meta(node) -> Optional[tuple]:
    """A sum node's region meta ``(k, keepdims)``, or ``None`` when its
    recorded axes are not a trailing run (or it recorded no attrs — the
    training path, which must keep its exact eager reduction thunk)."""
    attrs = node.attrs
    if not attrs or "axis" not in attrs:
        return None
    k = _trailing_k(node.inputs[0].data.ndim, attrs["axis"])
    if k is None:
        return None
    return (k, bool(attrs.get("keepdims", False)))


def _region_eligible(node, cache: dict, structured_ok: bool) -> bool:
    flag = cache.get(id(node))
    if flag is None:
        flag = _compute_region_eligible(node, structured_ok)
        cache[id(node)] = flag
    return flag


def _compute_region_eligible(node, structured_ok: bool) -> bool:
    structured = node.op in _REGION_STRUCTURED_NODE_OPS
    if structured:
        # Structured nodes join regions only in captured traces (their
        # nodes carry no backward): a training sum/linear keeps its exact
        # eager thunk, so gradient op order is never in question.
        if not structured_ok or node.backward is not None:
            return False
    elif node.op not in _REGION_NODE_OPS:
        return False
    if node.out is None:
        return False
    data = node.out.data
    if not isinstance(data, np.ndarray) or data.dtype not in (_F32, _F64):
        return False
    for t in node.inputs:
        td = t.data
        if not isinstance(td, np.ndarray) or td.dtype != data.dtype:
            return False
    if not _supports_regions(node):
        return False
    if structured:
        features = _backend_caps(_node_backend(node))[2]
        if node.op == "sum":
            if "reduce" not in features or _sum_meta(node) is None:
                return False
        else:  # linear
            if "linear" not in features:
                return False
            x, w = node.inputs[0].data, node.inputs[1].data
            if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0]:
                return False
    if node.op == "relu" and node.backward is not None:
        attrs = node.attrs
        if not attrs or "mask" not in attrs:
            return False
    return True


def _build_plan(nodes, root: Tensor) -> list:
    """Full analysis over one topo list: pattern pairs first (a GEMM or a
    batch norm cannot join an elementwise region, and masking the relu
    inside the composite is the bigger win), then maximal regions over the
    remaining eligible nodes."""
    plan: list = []
    node_ids = {id(n) for n in nodes}
    position = {id(n): i for i, n in enumerate(nodes)}
    consumers: Dict[int, int] = {}
    consumer_nodes: Dict[int, list] = {}
    for node in nodes:
        for t in node.inputs:
            consumers[id(t)] = consumers.get(id(t), 0) + 1
            consumer_nodes.setdefault(id(t), []).append(node)

    claimed: set = set()
    # Structured nodes (sum / linear) may join regions only when the whole
    # walked graph is a no-grad capture; a training graph's topo contains
    # only backward-bearing nodes, so the root's thunk decides.
    root_node = root._node
    structured_ok = root_node is not None and root_node.backward is None

    def fusable_producer(tensor: Tensor) -> Optional[ir.GraphNode]:
        node = tensor._node
        if node is None or id(node) not in node_ids or id(node) in claimed:
            return None
        if node.out is None:
            # Freed by another root's backward over a shared subgraph: its
            # inputs/attrs are gone.  Leave it so backward() reaches the
            # freed-graph sentinel instead of the rewrite crashing.
            return None
        if tensor is root:
            return None
        if consumers.get(id(tensor)) != 1:
            return None
        return node

    # ---- pattern pairs (topo order keeps the pass deterministic) -------- #
    for i, node in enumerate(nodes):
        if id(node) in claimed or node.out is None or node.op != "relu":
            continue
        producer = fusable_producer(node.inputs[0])
        if producer is None or producer.op not in ("linear", "batch_norm") or not (
            _supports_composites(node) and _supports_composites(producer)
        ):
            continue
        plan.append((producer.op + "_relu", position[id(producer)], i))
        claimed.add(id(producer))
        claimed.add(id(node))

    # ---- elementwise regions ------------------------------------------- #
    cache: dict = {}
    absorbed: set = set()
    dup: set = set()
    edges: Dict[int, List[ir.GraphNode]] = {}

    def dup_candidate(tensor: Tensor, be) -> Optional[ir.GraphNode]:
        """A producer recomputable into each of its two consuming regions.

        The narrow duplication shape: a lone *elementwise* node whose
        inputs are all graph-external and whose output feeds exactly two
        region-eligible consumers on the same backend.  Exactly two
        because the regions' backwards accumulate their gradients into
        the producer's output tensor in whichever order the regions run
        — two float contributions commute bitwise, three would change
        the ``+=`` grouping against the eager tape.
        """
        if tensor is root or consumers.get(id(tensor)) != 2:
            return None
        p = tensor._node
        if (
            p is None
            or id(p) not in node_ids
            or id(p) in claimed
            or p.out is None
            or p.op not in _REGION_NODE_OPS
            or not _region_eligible(p, cache, structured_ok)
            or _node_backend(p) is not be
        ):
            return None
        for t in p.inputs:
            tn = t._node
            if tn is not None and id(tn) in node_ids:
                return None  # inputs must be graph leaves
        for c in consumer_nodes[id(tensor)]:
            if (
                id(c) in claimed
                or c.op == "linear"
                or not _region_eligible(c, cache, structured_ok)
                or _node_backend(c) is not be
            ):
                return None
        return p

    for node in nodes:
        if id(node) in claimed or not _region_eligible(node, cache, structured_ok):
            continue
        if node.op == "linear":
            # A linear is a head-only member: its operands must stay region
            # inputs (the GEMM runs on the host), so it absorbs nothing.
            continue
        be = _node_backend(node)
        for t in node.inputs:
            producer = fusable_producer(t)
            if (
                producer is not None
                and id(producer) not in claimed
                and _region_eligible(producer, cache, structured_ok)
                and _node_backend(producer) is be
            ):
                absorbed.add(id(producer))
                edges.setdefault(id(node), []).append(producer)
                continue
            producer = dup_candidate(t, be)
            if producer is not None:
                links = edges.setdefault(id(node), [])
                if producer not in links:
                    links.append(producer)
                dup.add(id(producer))

    for node in nodes:
        if (
            id(node) in claimed
            or id(node) in absorbed
            or id(node) in dup
            or not _region_eligible(node, cache, structured_ok)
        ):
            continue
        members = _collect_members(node, edges, position)
        if len(members) < 2:
            continue
        plan.append(_region_recipe(members, position, dup))
    return _freeze_plan(plan)


def _collect_members(head, edges, position) -> list:
    """All nodes absorbed (transitively) into ``head``, in topo order with
    the head last.  Capped at ``_MAX_REGION``; excluded producers simply
    stay eager and feed the region as external inputs.  A duplicated
    producer reachable through both of its consumers joins once."""
    members = [head]
    seen = {id(head)}
    stack = [head]
    while stack and len(members) < _MAX_REGION:
        node = stack.pop()
        for producer in edges.get(id(node), ()):
            if len(members) >= _MAX_REGION:
                break
            if id(producer) in seen:
                continue
            seen.add(id(producer))
            members.append(producer)
            stack.append(producer)
    members.sort(key=lambda n: position[id(n)])
    return members


def _region_recipe(members, position, dup) -> tuple:
    """One plan entry: member positions, per-member grad routes, the
    RegionIR, where each external input tensor lives, and which members
    are duplicated producers.

    A duplicated member is wired into the region *program* like any other
    (the region recomputes it) but its grad route is ``-1``: the backward
    treats the link as external and accumulates into the producer's own
    output tensor, whose node — left alive in the graph — then runs its
    original VJP.
    """
    member_index = {id(m): j for j, m in enumerate(members)}
    member_set = frozenset(member_index)
    dup_mask = tuple(id(m) in dup for m in members)
    routes = []
    ext_slot: Dict[int, int] = {}
    ext_locs: List[Tuple[int, int]] = []
    prog = []
    for j, m in enumerate(members):
        route = []
        srcs = []
        for i, t in enumerate(m.inputs):
            p = t._node
            if p is not None and id(p) in member_set:
                k = member_index[id(p)]
                route.append(-1 if dup_mask[k] else k)
                srcs.append(("m", k))
            else:
                route.append(-1)
                s = ext_slot.get(id(t))
                if s is None:
                    s = len(ext_locs)
                    ext_slot[id(t)] = s
                    ext_locs.append((j, i))
                srcs.append(("e", s))
        routes.append(tuple(route))
        if m.op == "sum":
            prog.append((m.op, tuple(srcs), _sum_meta(m)))
        else:
            prog.append((m.op, tuple(srcs)))

    n_ext = len(ext_locs)
    ops = [
        (entry[0], tuple(n_ext + s if tag == "m" else s for tag, s in entry[1]))
        + entry[2:]
        for entry in prog
    ]
    ext_tensors = [members[j].inputs[i] for j, i in ext_locs]
    out = members[-1].out
    region = RegionIR(
        [RegionInput(t.data.dtype, t.data.shape) for t in ext_tensors],
        ops,
        out.data.shape,
        out.data.dtype,
    )
    return (
        "region",
        tuple(position[id(m)] for m in members),
        tuple(routes),
        region,
        tuple(ext_locs),
        dup_mask,
    )


# --------------------------------------------------------------------------- #
# Application: execute a plan over a (possibly fresh) topo list
# --------------------------------------------------------------------------- #
def _apply_plan(plan, nodes) -> Dict[str, int]:
    for entry in plan[0]:
        kind = entry[0]
        if kind == "region":
            _apply_region(entry, nodes)
        else:
            p_pos, c_pos = entry[1], entry[2]
            producer, consumer = nodes[p_pos], nodes[c_pos]
            if kind == "linear_relu":
                _rewrite_linear_relu(producer, consumer)
            else:
                _rewrite_batch_norm_relu(producer, consumer)
            nodes[c_pos] = consumer.out._node
            nodes[p_pos] = None
    # Copy: callers may keep the counts dict; the original lives in the
    # cached plan and must stay untouched.
    return dict(plan[1])


def _apply_region(entry, nodes) -> None:
    """Splice one fused ``region`` node over its members.

    The fused node takes the head's topo slot; every member (head included)
    is recorded on ``bypassed`` so ``backward()`` frees them with the fused
    node, keeping the freed-graph sentinel semantics of the unfused chain.
    """
    _, member_pos, routes, region, ext_locs, dup_mask = entry
    members = [nodes[p] for p in member_pos]
    head = members[-1]
    out_t = head.out
    ext_tensors = tuple(members[j].inputs[i] for j, i in ext_locs)
    be = _node_backend(head)
    fused = ir.GraphNode(
        "region", ext_tensors, {"region": region, "size": len(members)}, out_t, be=be
    )
    if head.backward is not None:
        fused.backward = _region_backward(members, routes, out_t, be, dup_mask)
    # Duplicated producers stay live: their nodes keep their topo slots and
    # run their own backward (fed by the gradients the regions accumulate
    # into their outputs), so they are neither blanked nor bypassed.
    fused.bypassed = tuple(m for m, d in zip(members, dup_mask) if not d)
    out_t._node = fused
    nodes[member_pos[-1]] = fused
    for pos, d in zip(member_pos[:-1], dup_mask[:-1]):
        if not d:
            nodes[pos] = None


def _region_backward(members, routes, out_t: Tensor, be, dup_mask):
    """The chained-VJP backward for one region.

    Runs the exact per-op gradient sequences of the original thunks, in
    reverse member order.  Interior gradients (single-consumer by
    construction) are passed straight through ``grads`` without the
    ownership copy ``_accumulate`` would have made — the copy is
    value-preserving, so skipping it keeps every leaf gradient
    bit-identical while saving one full-array copy per interior link.
    External tensors go through the original ``_accumulate_*`` calls, which
    copy on first contribution, so shared buffers are never mutated.

    Duplicated members are skipped entirely: their grad routes are ``-1``,
    so the consuming members' external paths have already accumulated the
    incoming gradients into the producer's output tensor, and the
    producer's own (still-live) node runs its VJP afterwards.
    """
    n = len(members)

    def _backward() -> None:
        for m, d in zip(members, dup_mask):
            if m.out is None and not d:
                # A member shared with another graph was freed by that
                # graph's backward: same sentinel the unfused tape hits.
                # (A duplicated member freed by its own earlier backward —
                # impossible in one reverse-topo pass, but cheap to allow —
                # is not this region's concern.)
                _raise_freed_graph()
        # ``own[j]``: grads[j] is a private buffer this thunk allocated and
        # nothing else references — interior links may then compute the
        # next gradient *in place* (same op, same operands, only the
        # destination changes, so every value stays bit-identical) instead
        # of allocating a fresh full-size array per link.  The head slot is
        # the caller's accumulated grad and external contributions are
        # handed to ``_accumulate_*`` (which copy or adopt fresh buffers),
        # so neither is ever mutated here.
        grads: List[Optional[np.ndarray]] = [None] * n
        own = [False] * n
        grads[n - 1] = out_t.grad
        for j in range(n - 1, -1, -1):
            if dup_mask[j]:
                continue  # recomputed producer: its own node runs the VJP
            g = grads[j]
            m = members[j]
            op = m.op
            ins = m.inputs
            route = routes[j]
            writable = own[j] and type(g) is np.ndarray
            if op == "add":
                alias = -1
                for i in (0, 1):
                    t = ins[i]
                    k = route[i]
                    if k >= 0:
                        red = _unbroadcast(g, t.data.shape)
                        grads[k] = red
                        if red is g:
                            if alias < 0:
                                alias = k
                                own[k] = own[j]
                            else:
                                # both sides alias one buffer: neither owns it
                                own[alias] = own[k] = False
                        else:
                            own[k] = True
                    elif t.requires_grad:
                        t._accumulate_bcast(g)
            elif op == "mul":
                a_t, b_t = ins
                ka, kb = route
                # External sides read the original ``g``; they run before
                # any in-place mutation for an interior side.  a-then-b
                # accumulation order is preserved for shared tensors.
                if ka < 0 and a_t.requires_grad:
                    a_t._accumulate_fresh(
                        _unbroadcast(be.multiply(g, b_t.data), a_t.data.shape)
                    )
                if kb < 0 and b_t.requires_grad:
                    b_t._accumulate_fresh(
                        _unbroadcast(be.multiply(g, a_t.data), b_t.data.shape)
                    )
                if ka >= 0 and kb >= 0:
                    # both interior (tree): second side fresh, then first in place
                    grads[kb] = _unbroadcast(be.multiply(g, a_t.data), b_t.data.shape)
                    own[kb] = True
                if ka >= 0:
                    if writable:
                        np.multiply(g, b_t.data, out=g)
                        grads[ka] = _unbroadcast(g, a_t.data.shape)
                    else:
                        grads[ka] = _unbroadcast(
                            be.multiply(g, b_t.data), a_t.data.shape
                        )
                    own[ka] = True
                elif kb >= 0:
                    if writable:
                        np.multiply(g, a_t.data, out=g)
                        grads[kb] = _unbroadcast(g, b_t.data.shape)
                    else:
                        grads[kb] = _unbroadcast(
                            be.multiply(g, a_t.data), b_t.data.shape
                        )
                    own[kb] = True
            elif op == "relu":
                t = ins[0]
                k = route[0]
                mask = m.attrs["mask"]
                if k >= 0:
                    if writable:
                        np.multiply(g, mask, out=g)
                        grads[k] = g
                    else:
                        grads[k] = be.multiply(g, mask)
                    own[k] = True
                elif t.requires_grad:
                    t._accumulate_fresh(be.multiply(g, mask))
            elif op == "neg":
                t = ins[0]
                k = route[0]
                if k >= 0:
                    if writable:
                        np.negative(g, out=g)
                        grads[k] = g
                    else:
                        grads[k] = be.negative(g)
                    own[k] = True
                elif t.requires_grad:
                    t._accumulate_fresh(be.negative(g))
            else:  # div
                a_t, b_t = ins
                ka, kb = route
                gb = None
                if kb >= 0 or b_t.requires_grad:
                    # needs the original ``g``: computed before the a-side
                    # may mutate it, accumulated in the original order below
                    gb = _unbroadcast(
                        be.divide(
                            be.multiply(be.negative(g), a_t.data),
                            be.power(b_t.data, 2.0),
                        ),
                        b_t.data.shape,
                    )
                if ka >= 0:
                    if writable:
                        np.divide(g, b_t.data, out=g)
                        grads[ka] = _unbroadcast(g, a_t.data.shape)
                    else:
                        grads[ka] = _unbroadcast(be.divide(g, b_t.data), a_t.data.shape)
                    own[ka] = True
                elif a_t.requires_grad:
                    a_t._accumulate_fresh(
                        _unbroadcast(be.divide(g, b_t.data), a_t.data.shape)
                    )
                if kb >= 0:
                    grads[kb] = gb
                    own[kb] = True
                elif gb is not None:
                    b_t._accumulate_fresh(gb)
            grads[j] = None

    return _backward


# --------------------------------------------------------------------------- #
# Pattern rewrites
# --------------------------------------------------------------------------- #
def _install(producer: ir.GraphNode, consumer: ir.GraphNode, fused: ir.GraphNode) -> None:
    """Hang ``fused`` on the consumer's output tensor, bypassing both nodes.

    The producer node is left *intact* for now (its output tensor still
    points at it) but recorded on ``fused.bypassed``: when ``backward()``
    frees the fused node it frees the producer with it, so a later backward
    through the bypassed intermediate — or through another graph sharing it
    — hits the freed-graph sentinel exactly as it would have unfused,
    instead of silently re-running a stale thunk.  The consumer node is
    referenced by nothing after the rewrite and dies by refcount.
    """
    fused.bypassed = (producer,)
    consumer.out._node = fused


def _relu_mask(C: ir.GraphNode):
    """The relu mask, if the consumer recorded one (grad-tracking traces
    only; no-grad captures skip the mask and never run a backward)."""
    return C.attrs["mask"] if C.attrs else None


def _rewrite_linear_relu(P: ir.GraphNode, C: ir.GraphNode) -> None:
    """linear → relu  ⇒  linear_relu (one node, three backward GEMM/sum ops)."""
    x_t, w_t = P.inputs[0], P.inputs[1]
    b_t = P.inputs[2] if len(P.inputs) == 3 else None
    out_t = C.out
    mask = _relu_mask(C)
    pbe, cbe = _node_backend(P), _node_backend(C)
    fused = ir.GraphNode("linear_relu", P.inputs, {"mask": mask}, out_t, be=pbe)
    if C.backward is not None:
        def _backward() -> None:
            # Mask the incoming grad (the relu node's exact op), then run
            # the kernel's own backward — shared with functional.linear.
            linear_backward(pbe, cbe.relu_grad(out_t.grad, mask), x_t, w_t, b_t)

        fused.backward = _backward
    _install(P, C, fused)


def _rewrite_batch_norm_relu(P: ir.GraphNode, C: ir.GraphNode) -> None:
    """batch_norm → relu  ⇒  batch_norm_relu (masked grad into the bn adjoint)."""
    out_t = C.out
    mask = _relu_mask(C)
    pa = P.attrs
    x_t = P.inputs[0]
    w_t = P.inputs[1] if pa["has_weight"] else None
    b_t = (P.inputs[2] if pa["has_weight"] else P.inputs[1]) if pa["has_bias"] else None
    xhat, inv_std = pa["xhat"], pa["inv_std"]
    axes, bshape, batch_stats = pa["axes"], pa["bshape"], pa["use_batch_stats"]
    pbe, cbe = _node_backend(P), _node_backend(C)
    attrs = dict(pa)
    attrs["mask"] = mask
    fused = ir.GraphNode("batch_norm_relu", P.inputs, attrs, out_t, be=pbe)
    if C.backward is not None:
        def _backward() -> None:
            # Mask the incoming grad, then run the kernel's own backward —
            # shared with functional.batch_norm.
            batch_norm_backward(
                pbe, cbe.relu_grad(out_t.grad, mask),
                x_t, w_t, b_t, xhat, inv_std, axes, bshape, batch_stats,
            )

        fused.backward = _backward
    _install(P, C, fused)


# --------------------------------------------------------------------------- #
# Forward evaluators for the fused ops (graph replay / serving)
# --------------------------------------------------------------------------- #
def _region_for_arrays(region: RegionIR, inputs):
    """``region``, respecialized if the replay arrays changed shape (a
    captured trace replayed over a different batch size)."""
    dyn = [inp for inp in region.inputs if inp.const is None]
    if all(a.shape == inp.shape for a, inp in zip(inputs, dyn)):
        return region
    return region.respecialize([a.shape for a in inputs])


@ir.register_forward("region")
def _eval_region(be, inputs, attrs):
    # Keyed by the replay shapes, not RegionIR identity: respecialization
    # returns a fresh object whenever the replay batch differs from the
    # trace, so an identity key would re-run respecialize + compile_region
    # on every call of a hot steady-state replay.
    key = tuple(a.shape for a in inputs)
    cached = attrs.get("_kernel")
    if cached is None or cached[0] != key:
        region = _region_for_arrays(attrs["region"], inputs)
        compiler = getattr(be, "compile_region", None)
        kern = region.interpret if compiler is None else compiler(region)
        cached = (key, kern)
        attrs["_kernel"] = cached
    return cached[1](inputs)


@ir.register_forward("linear_relu")
def _eval_linear_relu(be, inputs, attrs):
    return be.linear_relu(inputs[0], inputs[1], inputs[2] if len(inputs) == 3 else None)


@ir.register_forward("batch_norm_relu")
def _eval_batch_norm_relu(be, inputs, attrs):
    xd = inputs[0]
    mean, inv_std = _bn_replay_stats(be, xd, attrs)
    gamma, beta = _bn_affine_inputs(inputs, attrs)
    return be.bn_normalize_relu(xd, mean, inv_std, gamma, beta, attrs["bshape"])[1]
