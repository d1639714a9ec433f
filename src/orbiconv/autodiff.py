"""Minimal reverse-mode autodiff over numpy arrays.

Each `Var` records its parent variables and a backward closure that pushes
the output gradient onto the parents' gradient buffers. Calling
``backward()`` on a scalar root replays the recorded tape (the topologically
sorted ancestor list) in reverse. Gradients accumulate in ``Var.grad`` with
the same shape and dtype as the value.

``backward()`` releases each interior node (one with parents) once its
closure has run: its gradient, its parents and its closure go, so every
saved array is freed once the last node that reads it has run. Only the
leaves keep their gradients. A second ``backward()`` through a released
node raises RuntimeError, including one from another root that shares a
subgraph with the first.

A leaf requires a gradient unless built with ``requires_grad=False`` or
frozen; a computed `Var` requires one exactly when a parent does, so the
tape and every backward closure skip what no stepped leaf depends on. A
`Var` that needs no gradient keeps no graph: no parents and no backward
closure, so its inputs are freed as soon as nothing else reads them.
`frozen` is the only no-grad switch; a forward under `frozen` over every
leaf keeps no tape at all.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np


class Var:
    __slots__ = ("data", "grad", "parents", "backward_fn", "requires_grad")

    def __init__(
        self,
        data: np.ndarray,
        parents: Sequence["Var"] = (),
        backward_fn: Callable[[np.ndarray], None] | None = None,
        requires_grad: bool = True,
    ):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = (any(p.requires_grad for p in parents)
                              if parents else requires_grad)
        # `tape` descends only into parents that require a gradient, so a
        # Var that needs none never has its closure called
        self.parents = tuple(parents) if self.requires_grad else ()
        self.backward_fn = backward_fn if self.requires_grad else None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # the bytes, dtype and layout of `zeros_like(data) += g` in one
            # pass: +0.0 + -0.0 is +0.0
            self.grad = np.add(self.data.dtype.type(0), g,
                               out=np.empty_like(self.data))
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, seed: np.ndarray | None = None) -> None:
        order = tape(self)
        if seed is None:
            if self.data.size != 1:
                raise ValueError("backward() without a seed needs a scalar root")
            seed = np.ones_like(self.data)
        self.accumulate(seed)
        while order:
            # popped, so that once its children have run a node is held by
            # nothing here and is freed as soon as it has run
            node = order.pop()
            if node.backward_fn is not None and node.grad is not None:
                node.backward_fn(node.grad)
            if node.parents:
                node.grad = None
                node.parents = ()
                node.backward_fn = _released

    def __repr__(self) -> str:
        return f"Var(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _released(g: np.ndarray) -> None:
    raise RuntimeError("backward() already ran through this node")


@contextmanager
def frozen(params: Sequence[Var]) -> Iterator[None]:
    """Clear `requires_grad` on the leaves `params` for the block, so that
    nothing built inside it differentiates them; restored on exit."""
    saved = [p.requires_grad for p in params]
    for p in params:
        p.requires_grad = False
    try:
        yield
    finally:
        for p, flag in zip(params, saved):
            p.requires_grad = flag


def tape(root: Var) -> list[Var]:
    """Topologically ordered ancestors of `root` (parents before children)."""
    order: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def add(a: Var, b: Var) -> Var:
    out_data = a.data + b.data

    def bw(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate(g)
        if b.requires_grad:
            b.accumulate(g)

    return Var(out_data, (a, b), bw)


def scale(a: Var, c: float) -> Var:
    def bw(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate(g * c)

    return Var(a.data * c, (a,), bw)


def mul(a: Var, b: Var) -> Var:
    out_data = a.data * b.data

    def bw(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate(g * b.data)
        if b.requires_grad:
            b.accumulate(g * a.data)

    return Var(out_data, (a, b), bw)


def relu(a: Var) -> Var:
    mask = a.data > 0

    def bw(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate(g * mask)

    return Var(a.data * mask, (a,), bw)


def matmul(a: Var, b: Var) -> Var:
    out_data = a.data @ b.data

    def bw(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate(g @ b.data.T)
        if b.requires_grad:
            b.accumulate(a.data.T @ g)

    return Var(out_data, (a, b), bw)


def reshape(a: Var, shape: tuple[int, ...]) -> Var:
    def bw(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate(g.reshape(a.data.shape))

    return Var(a.data.reshape(shape), (a,), bw)


def concat(vars_: Sequence[Var], axis: int) -> Var:
    out_data = np.concatenate([v.data for v in vars_], axis=axis)
    sizes = [v.data.shape[axis] for v in vars_]
    splits = np.cumsum(sizes)[:-1]

    def bw(g: np.ndarray) -> None:
        pieces = np.split(g, splits, axis=axis)
        for v, piece in zip(vars_, pieces):
            if v.requires_grad:
                v.accumulate(piece)

    return Var(out_data, tuple(vars_), bw)


def mean_all(a: Var) -> Var:
    n = a.data.size

    def bw(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate(np.full_like(a.data, float(g) / n))

    return Var(np.asarray(a.data.mean()), (a,), bw)


def weighted_sum(ys: Sequence[Var], w: Var) -> Var:
    """sum_i w[i] * ys[i] for a 1-D weight vector; gradients flow to both.

    The weights are cast to the operands' dtype, so a float32 mix stays
    float32 for float64 weights. The weight gradient keeps the weights'
    dtype and sums each operand's products in float64."""
    if len(ys) != w.data.shape[0]:
        raise ValueError("weight/operand count mismatch")
    wc = w.data.astype(np.result_type(*(y.data.dtype for y in ys)))
    out_data = sum(wc[i] * ys[i].data for i in range(len(ys)))

    def bw(g: np.ndarray) -> None:
        for i, y in enumerate(ys):
            if y.requires_grad:
                y.accumulate(g * wc[i])
        if w.requires_grad:
            w.accumulate(np.array([np.sum(g * y.data, dtype=np.float64)
                                   for y in ys], dtype=w.data.dtype))

    return Var(out_data, tuple(ys) + (w,), bw)


def softmax_vec(a: Var) -> Var:
    """Softmax of a 1-D vector."""
    z = a.data - a.data.max()
    e = np.exp(z)
    s = e / e.sum()

    def bw(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate(s * (g - float(np.dot(g, s))))

    return Var(s, (a,), bw)
