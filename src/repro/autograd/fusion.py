"""Compile-time fusion: reduction tails over captured traces.

The pass walks the node graph reachable from a root tensor (in topological
order) and collapses the one kind of chain the serving planner
(:class:`repro.serve.stages.SessionPlan`) cannot compose by itself into
``region`` nodes: a chain that ends in — or runs through — a ``sum`` over
a trailing contiguous run of axes, the softmax-CE style tail.  A maximal
single-consumer chain of ``add`` / ``mul`` / ``div`` / ``neg`` / ``relu`` /
``sum`` nodes (any mix, two members or more) that holds such a ``sum``
becomes one node carrying a :class:`~repro.codegen.region.RegionIR`, which
a serving session compiles through :func:`repro.codegen.compile_region`
(falling back to the bit-equal numpy interpreter when codegen is off or no
compiler exists).  Chains without a reduction are left as they are: the
planner composes them from the op table's stage descriptions.

It is meant for captured ``no_grad`` traces —
:func:`repro.serve.compile_inference` runs it on the trace it compiles —
and **a node that carries a backward thunk is never a fusion member**: on
a training graph :func:`fuse` finds nothing to rewrite, and ``backward()``
never calls into this module.

A chain is fused only when each interior output is consumed by exactly one
node of the walked graph, so no other consumer can observe a fused-away
intermediate.  ``region`` is an entry of the op table
(:data:`repro.autograd.ir.OPS`), so a fused captured trace replays like any
other.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.autograd import ir
from repro.autograd.tensor import Tensor
from repro.codegen import RegionIR, RegionInput, compile_region

__all__ = ["fuse"]


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #
def fuse(root: Tensor) -> Dict[str, int]:
    """Collapse fusable chains reachable from ``root``; returns counts per op.

    Nodes that carry a backward thunk are never members, so a training
    graph comes back as it went in and the counts are ``{}``.  Tensors
    shared with *other* graphs are never mutated — a fused node is hung on
    the chain's output tensor and the member nodes are left as they were,
    so other consumers of an interior output keep working.
    """
    root_node = root._node
    if root_node is None:
        return {}
    return _rewrite(ir.toposort(root_node, backward_only=False), root)


# --------------------------------------------------------------------------- #
# Analysis and rewrites over one topo walk
# --------------------------------------------------------------------------- #
#: Graph ops a region may absorb.  Restricted to ops whose C scalar form is
#: bit-equal to the numpy ufunc (see repro.codegen.region), plus the
#: trailing-axes ``sum``; ``sub`` never appears as a node (a - b records
#: add(a, neg(b))).
_REGION_NODE_OPS = frozenset(("add", "mul", "div", "neg", "relu", "sum"))

_F32 = np.dtype(np.float32)
_F64 = np.dtype(np.float64)

#: Cap on ops per region: bounds generated-C size and compile time; a chain
#: longer than this splits into one region plus eager stragglers.
_MAX_REGION = 32


def _is_member(node: ir.GraphNode) -> bool:
    """Whether ``node`` may be rewritten at all: a live node recorded
    without a backward thunk (freed nodes carry the raising sentinel)."""
    return node.backward is None and node.out is not None


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
    recorded axes are not a trailing run (or it recorded no attrs)."""
    attrs = node.attrs
    if not attrs or "axis" not in attrs:
        return None
    k = _trailing_k(node.inputs[0].data.ndim, attrs["axis"])
    if k is None:
        return None
    return (k, bool(attrs.get("keepdims", False)))


def _region_eligible(node, cache: dict) -> bool:
    flag = cache.get(id(node))
    if flag is None:
        flag = _compute_region_eligible(node)
        cache[id(node)] = flag
    return flag


def _compute_region_eligible(node) -> bool:
    if not _is_member(node):
        return False
    if node.op not in _REGION_NODE_OPS:
        return False
    data = node.out.data
    if not isinstance(data, np.ndarray) or data.dtype not in (_F32, _F64):
        return False
    for t in node.inputs:
        td = t.data
        if not isinstance(td, np.ndarray) or td.dtype != data.dtype:
            return False
    if node.op == "sum":
        return _sum_meta(node) is not None
    return True


def _rewrite(nodes, root: Tensor) -> Dict[str, int]:
    """Fuse the maximal chains holding a ``sum`` over one topo list; returns
    counts per fused op.  A rewrite only repoints the head's output tensor,
    so the analysis of the original nodes that follows it is unaffected."""
    counts: Dict[str, int] = {}
    node_ids = {id(n) for n in nodes}
    position = {id(n): i for i, n in enumerate(nodes)}
    consumers: Dict[int, int] = {}
    for node in nodes:
        for t in node.inputs:
            consumers[id(t)] = consumers.get(id(t), 0) + 1

    def fusable_producer(tensor: Tensor) -> Optional[ir.GraphNode]:
        node = tensor._node
        if node is None or id(node) not in node_ids:
            return None
        if not _is_member(node) or tensor is root:
            return None
        if consumers.get(id(tensor)) != 1:
            return None
        return node

    cache: dict = {}
    absorbed: set = set()
    edges: Dict[int, List[ir.GraphNode]] = {}
    for node in nodes:
        if not _region_eligible(node, cache):
            continue
        for t in node.inputs:
            producer = fusable_producer(t)
            if producer is not None and _region_eligible(producer, cache):
                absorbed.add(id(producer))
                edges.setdefault(id(node), []).append(producer)

    for node in nodes:
        if id(node) in absorbed or not _region_eligible(node, cache):
            continue
        members = _collect_members(node, edges, position)
        if len(members) < 2 or all(m.op != "sum" for m in members):
            continue  # the session planner composes a chain with no reduction
        _rewrite_region(members)
        counts["region"] = counts.get("region", 0) + 1
    return counts


def _collect_members(head, edges, position) -> list:
    """All nodes absorbed (transitively) into ``head``, in topo order with
    the head last.  Capped at ``_MAX_REGION``; excluded producers simply
    stay eager and feed the region as external inputs."""
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


def _rewrite_region(members) -> None:
    """Hang one ``region`` node on the head's output tensor.

    External inputs take slots in first-use order.  The members are left as
    they were; nothing the fused node replaces references them any more.
    """
    member_index = {id(m): j for j, m in enumerate(members)}
    ext_slot: Dict[int, int] = {}
    ext_tensors: List[Tensor] = []
    prog = []
    for m in members:
        srcs = []
        for t in m.inputs:
            p = t._node
            if p is not None and id(p) in member_index:
                srcs.append(("m", member_index[id(p)]))
            else:
                s = ext_slot.get(id(t))
                if s is None:
                    s = ext_slot[id(t)] = len(ext_tensors)
                    ext_tensors.append(t)
                srcs.append(("e", s))
        if m.op == "sum":
            prog.append((m.op, tuple(srcs), _sum_meta(m)))
        else:
            prog.append((m.op, tuple(srcs)))

    n_ext = len(ext_tensors)
    ops = [
        (entry[0], tuple(n_ext + s if tag == "m" else s for tag, s in entry[1]))
        + entry[2:]
        for entry in prog
    ]
    head = members[-1]
    out_t = head.out
    region = RegionIR(
        [RegionInput(t.data.dtype, t.data.shape) for t in ext_tensors],
        ops,
        out_t.data.shape,
        out_t.data.dtype,
    )
    out_t._node = ir.GraphNode("region", tuple(ext_tensors), {"region": region}, out_t)


# --------------------------------------------------------------------------- #
# The fused op's table entry: no gradient flows through a region
# --------------------------------------------------------------------------- #
def _region(arm, xs, attrs, ports):
    return compile_region(attrs["region"])(xs), None


def _region_bind(xs, attrs, out):
    """The region's interpreter into the step's buffer; ``step.over(kernel)``
    is the same step over a native kernel of ``step.region``."""
    buf = np.empty(out.shape, out.dtype)

    def over(kernel):
        return lambda *arrays: kernel(arrays, out=buf)

    step = over(attrs["region"].interpret)
    step.out, step.region, step.over = buf, attrs["region"], over
    return step


ir.define_op("region", _region, bind=_region_bind)
