"""Reverse-mode differentiation over float64 numpy arrays.

A :class:`Node` records the value of an intermediate result together with
vector-Jacobian closures back to its parents. Building a graph is explicit:
wrap leaf arrays in ``Node`` and combine them with the ops in this module
(or the layer ops in :mod:`otlab.engine.ops`). :func:`gradients` then walks
the graph once, in reverse topological order, and returns the gradient of a
scalar loss with respect to any requested leaves. It first marks the nodes
from which a requested leaf can be reached and runs only the VJPs into those
(the ``requires_grad`` pruning of reverse-mode systems), so no gradient is
computed for an input image; every requested gradient gets the same
contributions in the same order as an unpruned walk.

The walk consumes the graph. As soon as a node's contributions to its
parents are computed, the node drops its ``parents``: the VJP closures and
everything they saved (a conv's patch matrix, a pool's tiles, a relu's
mask), so a layer's saved state is freed before the layers below it run
their VJPs (reverse-mode checkpoint release, Griewank & Walther,
*Evaluating Derivatives*, 2008). Node values stay, so a caller can still
read the loss and any node it holds. A recorded graph is single-use: a
second walk that reaches a consumed node raises
:class:`~otlab.errors.StateError`; trace the forward pass again instead.
Leaves have no parents and are never consumed. The graph is rebuilt on
every forward pass, so inference code can use the plain array kernels and
skip the tape entirely.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from ..errors import StateError

Vjp = Callable[[np.ndarray], np.ndarray]


class Node:
    """One value in a recorded computation, with links to its parents.

    ``parents`` is None once :func:`gradients` has walked past the node.
    """

    __slots__ = ("value", "parents")

    def __init__(self, value, parents: Sequence[tuple["Node", Vjp]] = ()):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = tuple(parents)

    @property
    def shape(self):
        return self.value.shape

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return subtract(self, other)

    def __mul__(self, other):
        return multiply(self, other)

    def __rmul__(self, other):
        return multiply(other, self)


def as_node(x) -> Node:
    return x if isinstance(x, Node) else Node(x)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def add(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    return Node(
        a.value + b.value,
        [(a, lambda g: _unbroadcast(g, a.value.shape)),
         (b, lambda g: _unbroadcast(g, b.value.shape))],
    )


def subtract(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    return Node(
        a.value - b.value,
        [(a, lambda g: _unbroadcast(g, a.value.shape)),
         (b, lambda g: _unbroadcast(-g, b.value.shape))],
    )


def multiply(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    return Node(
        a.value * b.value,
        [(a, lambda g: _unbroadcast(g * b.value, a.value.shape)),
         (b, lambda g: _unbroadcast(g * a.value, b.value.shape))],
    )


def relu(x) -> Node:
    x = as_node(x)
    mask = x.value > 0
    return Node(np.maximum(x.value, 0.0), [(x, lambda g: g * mask)])


def square(x) -> Node:
    x = as_node(x)
    return Node(x.value * x.value, [(x, lambda g: g * (2.0 * x.value))])


def reshape(x, shape) -> Node:
    x = as_node(x)
    old = x.value.shape
    return Node(x.value.reshape(shape), [(x, lambda g: g.reshape(old))])


def sum_along(x, axis=None) -> Node:
    x = as_node(x)
    shape = x.value.shape

    def vjp(g):
        if axis is None:
            return np.broadcast_to(g, shape).astype(np.float64)
        return np.broadcast_to(np.expand_dims(g, axis), shape).astype(np.float64)

    return Node(x.value.sum(axis=axis), [(x, vjp)])


def mean_along(x, axis=None) -> Node:
    x = as_node(x)
    shape = x.value.shape
    count = x.value.size if axis is None else shape[axis]

    def vjp(g):
        if axis is None:
            return np.broadcast_to(g / count, shape).astype(np.float64)
        return np.broadcast_to(np.expand_dims(g, axis) / count, shape).astype(np.float64)

    return Node(x.value.mean(axis=axis), [(x, vjp)])


def sq_distances(x) -> Node:
    """``D[i, j] = ((x[i] - x[j]) ** 2).sum()``, bit-equal to each pair's own distance."""
    x = as_node(x)
    diff = x.value[:, None, :] - x.value[None, :, :]

    def vjp(g):
        s = g + g.T
        return 2.0 * (s.sum(axis=1)[:, None] * x.value - s @ x.value)

    return Node((diff ** 2).sum(axis=2), [(x, vjp)])


def take_flat(x, indices) -> Node:
    """Gather at 1-D flat indices; gradients of repeated indices add up (bincount)."""
    x = as_node(x)
    idx = np.asarray(indices, dtype=np.intp)

    def vjp(g):
        return np.bincount(idx, weights=g, minlength=x.value.size).reshape(x.value.shape)

    return Node(x.value.ravel()[idx], [(x, vjp)])


def _topo_order(root: Node) -> list[Node]:
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node.parents is None:
            raise StateError("the recorded graph was consumed by an earlier backward walk; "
                             "trace the forward pass again")
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def gradients(loss: Node, leaves: Iterable[Node]) -> list[np.ndarray]:
    """Gradients of a scalar `loss` with respect to `leaves`, consuming the graph.

    Leaves not reachable from the loss (a detached/constant loss) receive
    zero gradients, matching the subgradient convention used throughout.
    A second walk over the consumed graph raises StateError.
    """
    if not isinstance(loss, Node):
        raise StateError("backward requires a recorded forward pass (got a bare value)")
    if loss.value.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.value.shape}")

    leaves = list(leaves)
    order = _topo_order(loss)
    live = {id(leaf) for leaf in leaves}     # nodes a requested leaf can be reached from
    for node in order:                       # parents come before their children
        if any(id(parent) in live for parent, _ in node.parents):
            live.add(id(node))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.value)}
    while order:    # a node leaves ``order`` only once processed, so no id is reused mid-walk
        node = order.pop()
        g = grads.pop(id(node), None)
        if not node.parents:
            if g is not None:
                grads[id(node)] = g  # keep leaf gradients
            continue
        parents, node.parents = node.parents, None
        if g is None:
            continue
        for parent, vjp in parents:
            pid = id(parent)
            if pid not in live:
                continue
            contribution = vjp(g)
            if pid in grads:
                grads[pid] = grads[pid] + contribution
            else:
                grads[pid] = contribution
    return [grads.get(id(leaf), np.zeros_like(leaf.value)) for leaf in leaves]
