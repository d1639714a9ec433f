"""Cell-based differentiable architecture search whose operation space
includes circular separable and circular dilated separable convolutions.

Each cell is a DAG: the first two nodes are inputs (outputs of the two
previous cells), every later node sums mixed operations over all incoming
edges, and the cell output concatenates the intermediate nodes. A mixed
operation is the softmax(alpha)-weighted sum of all candidate operations on
that edge. Search alternates one SGD step on the weights (train split) with
one Adam step on the alphas (validation split); discretization keeps, per
node, the two strongest incoming edges and the argmax non-zero operation on
each.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import layers
from .autodiff import Var, add, concat, frozen, relu, softmax_vec, weighted_sum
from .data import MAX_BYTES, Dataset
from .geometry import Mode
from .layers import (
    ChannelAffine,
    Conv2d,
    Linear,
    Module,
    avg_pool2d,
    global_avg_pool,
    max_pool2d,
)
from .rng import stream
from .train import (SGD, TrainConfig, backprop, check_last_step, evaluate,
                    lr_at)

class Identity(Module):
    def __init__(self, stride: int = 1):
        self.stride = stride

    def forward(self, x: Var) -> Var:
        if self.stride == 1:
            return x
        s = self.stride
        data = x.data[:, :, ::s, ::s]

        def bw(g: np.ndarray) -> None:
            if x.requires_grad:
                gx = np.zeros_like(x.data)
                gx[:, :, ::s, ::s] = g
                x.accumulate(gx)

        return Var(data, (x,), bw)


class Zero(Module):
    def __init__(self, stride: int = 1):
        self.stride = stride

    def forward(self, x: Var) -> Var:
        s = self.stride
        return Var(np.zeros_like(x.data[:, :, ::s, ::s]), requires_grad=False)


class SepConv(Module):
    """relu -> depthwise KxK -> pointwise 1x1 -> per-channel affine. The
    relu and the depthwise conv's zero borders of `pad` are a node of
    `_padded_relus`: one relu node per conv, for the order of x's gradient
    sums, which holds the relu's backward closure, not its output."""

    def __init__(self, c: int, k: int, stride: int, *, dilation: int = 1,
                 mode: Mode = Mode.SQUARE, rng=None):
        self.pad = dilation * (k - 1) // 2
        self.depthwise = Conv2d(c, c, k, stride=stride, dilation=dilation,
                                mode=mode, depthwise=True, bias=False,
                                rng=rng)
        if mode is Mode.CIRCULAR:
            # the transform shrinks the effective kernel's variance; rescale
            # the init so both kernel shapes start at the same output scale
            dense = self.depthwise.transform.dense()
            gain = np.sqrt(k * k / np.trace(dense.T @ dense))
            self.depthwise.weights.data *= gain
        self.pointwise = Conv2d(c, c, 1, bias=False, rng=rng)
        self.affine = ChannelAffine(c)

    def forward(self, x: Var) -> Var:
        return self.after_relu(_padded_relus(x, [self.pad])[0])

    def after_relu(self, r: Var) -> Var:
        """The ops after the relu and the depthwise conv's zero borders."""
        return self.affine(self.pointwise(self.depthwise(r)))


def _padded_relus(x: Var, pads: list[int]) -> list[Var]:
    """relu(x) with zero borders of each p in `pads`: one relu, copied once
    into a buffer with borders of max(pads), and per p a node with parent x
    whose value is the buffer's view with borders p and whose backward drops
    them and runs the relu's. A node per conv, as a relu per conv, keeps the
    order of x's gradient sums, so no byte moves; a node holds the relu's
    backward closure, not the relu node, whose output would stay alive."""
    r = relu(x)
    relu_bw = r.backward_fn
    border = max(pads)
    buf = layers._pad(r.data, border)
    h, w = x.data.shape[2:]

    def node(p: int) -> Var:
        def bw(g: np.ndarray) -> None:
            relu_bw(g[:, :, p:p + h, p:p + w])

        b = border - p
        return Var(buf[:, :, b:b + h + 2 * p, b:b + w + 2 * p], (x,), bw)

    return [node(p) for p in pads]


# name -> (K, dilation, kernel shape) of each separable conv op
SEP_CONVS = {
    "sep_conv_3x3": (3, 1, Mode.SQUARE),
    "sep_conv_5x5": (5, 1, Mode.SQUARE),
    "dil_conv_3x3": (3, 2, Mode.SQUARE),
    "dil_conv_5x5": (5, 2, Mode.SQUARE),
    "circ_sep_conv_5x5": (5, 1, Mode.CIRCULAR),
    "circ_dil_conv_5x5": (5, 2, Mode.CIRCULAR),
}
# name -> constructor from the stride, for the ops without weights
PLAIN_OPS = {
    "max_pool_3x3": lambda stride: lambda x: max_pool2d(x, 3, stride, 1),
    "avg_pool_3x3": lambda stride: lambda x: avg_pool2d(x, 3, stride, 1),
    "identity": Identity,
    "zero": Zero,
}
# alpha columns and stored genotypes index this order
PRIMITIVES = [*SEP_CONVS, *PLAIN_OPS]
CIRCULAR_OPS = {name for name, (_, _, mode) in SEP_CONVS.items()
                if mode is Mode.CIRCULAR}


def make_op(name: str, c: int, stride: int, rng) -> Callable[[Var], Var]:
    if name in SEP_CONVS:
        k, dilation, mode = SEP_CONVS[name]
        return SepConv(c, k, stride, dilation=dilation, mode=mode, rng=rng)
    if name in PLAIN_OPS:
        return PLAIN_OPS[name](stride)
    raise ValueError(f"unknown operation {name!r}")


def mixed_op_forward(x: Var, alpha: Var,
                     ops: list[Callable[[Var], Var]]) -> Var:
    """Softmax(alpha)-weighted sum of the candidate operations. The
    separable convs share one `_padded_relus` buffer, with borders of their
    largest padding, through a relu node each, for the order of x's
    gradient sums; a node holds the relu's backward closure, not its
    output, which the graph then does not keep."""
    if len(ops) == 0:
        raise ValueError("empty operation list")
    if alpha.data.shape != (len(ops),):
        raise ValueError("alpha length must match the operation count")
    w = softmax_vec(alpha)
    seps = [op for op in ops if isinstance(op, SepConv)]
    relus = iter(_padded_relus(x, [op.pad for op in seps]) if seps else ())
    return weighted_sum([op.after_relu(next(relus))
                         if isinstance(op, SepConv) else op(x)
                         for op in ops], w)


def cell_edges(num_nodes: int) -> list[tuple[int, int]]:
    """All DAG edges (i, j) feeding intermediate nodes, ordered by (j, i)."""
    return [(i, j) for j in range(2, num_nodes) for i in range(j)]


class SearchCell(Module):
    def __init__(self, num_nodes: int, c: int, reduction: bool,
                 op_names: list[str], cell_id: int, seed: int):
        self.reduction = reduction
        self.edges = cell_edges(num_nodes)
        self.edge_ops: list[list[Callable[[Var], Var]]] = []
        for i, j in self.edges:
            stride = 2 if (reduction and i < 2) else 1
            ops = [
                make_op(name, c, stride,
                        stream(seed, f"w/cell{cell_id}/e{i}-{j}/{name}"))
                for name in op_names
            ]
            self.edge_ops.append(ops)
        n_inter = num_nodes - 2
        self.combine = Conv2d(n_inter * c, c, 1, bias=False,
                              rng=stream(seed, f"w/cell{cell_id}/combine"))
        self.combine_affine = ChannelAffine(c)

    def forward_cell(self, s0: Var, s1: Var, alphas: list[Var]) -> Var:
        # edges come in (j, i) order, so each state an edge reads is complete;
        # the first edge into node j starts its sum, later ones add onto it
        states = [s0, s1]
        for (i, j), alpha, ops in zip(self.edges, alphas, self.edge_ops):
            y = mixed_op_forward(states[i], alpha, ops)
            if j == len(states):
                states.append(y)
            else:
                states[j] = add(states[j], y)
        out = concat(states[2:], axis=1)
        return self.combine_affine(self.combine(out))


# The most nodes of a cell (DARTS has 6); its edges grow as their square.
MAX_NODES = 64


@dataclass
class SearchConfig(TrainConfig):
    """The weight phase's TrainConfig plus the supernet and alpha settings."""
    epochs: int = 20
    weight_decay: float = 3e-4
    num_nodes: int = 5
    num_cells: int = 4          # last one is the reduction cell
    channels: int = 8
    alpha_lr: float = 3e-3
    alpha_weight_decay: float = 1e-3
    op_names: list[str] = field(default_factory=lambda: list(PRIMITIVES))

    def __post_init__(self) -> None:
        super().__post_init__()
        for name, least in (("num_nodes", 3), ("num_cells", 1),
                            ("channels", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}")
        if self.num_nodes > MAX_NODES:
            raise ValueError(f"num_nodes must be at most {MAX_NODES}, got "
                             f"{self.num_nodes}")
        # written so that a NaN fails each comparison
        if not 0 < self.alpha_lr < math.inf:
            raise ValueError("alpha_lr must be positive and finite")
        if not 0 <= self.alpha_weight_decay < math.inf:
            raise ValueError("alpha_weight_decay must be finite and at least 0")
        # each name is one alpha column, and discretize keeps an op but zero
        unknown = [n for n in self.op_names if n not in PRIMITIVES]
        if unknown:
            raise ValueError(f"op_names has unknown ops {unknown}, expected "
                             f"some of {PRIMITIVES}")
        if len(set(self.op_names)) < len(self.op_names):
            raise ValueError(f"op_names repeats an op: {self.op_names}")
        if not set(self.op_names) - {"zero"}:
            raise ValueError("op_names needs an op other than zero")
        # the C x C weights alone, each sep conv's pointwise conv on each of
        # a cell's edges and its combine conv, are a lower bound of the
        # supernet's weights
        squares = self.num_cells * (
            len(cell_edges(self.num_nodes))
            * sum(name in SEP_CONVS for name in self.op_names)
            + self.num_nodes - 2)
        most = math.isqrt(MAX_BYTES // (4 * squares))
        if self.channels > most:
            raise ValueError(
                f"channels must be at most {most} with {self.num_cells} "
                f"cells of {self.num_nodes} nodes ({MAX_BYTES >> 20}"
                f" MB of float32 weights), got {self.channels}")


class SearchNetwork(Module):
    """Toy supernet: stem conv, a stack of cells with one reduction cell,
    global average pooling and a linear classifier. Normal cells share one
    alpha table; the reduction cells share another."""

    def __init__(self, cfg: SearchConfig, in_channels: int, num_classes: int):
        c = cfg.channels
        seed = cfg.seed
        self.stem = Conv2d(in_channels, c, 3, padding=1, bias=False,
                           rng=stream(seed, "w/stem"))
        self.stem_affine = ChannelAffine(c)
        self.cells: list[SearchCell] = []
        for idx in range(cfg.num_cells):
            reduction = idx == cfg.num_cells - 1 and cfg.num_cells > 1
            self.cells.append(SearchCell(cfg.num_nodes, c, reduction,
                                         cfg.op_names, idx, seed))
        self.classifier = Linear(c, num_classes,
                                 rng=stream(seed, "w/classifier"))
        n_edges = len(cell_edges(cfg.num_nodes))
        n_ops = len(cfg.op_names)
        arng = stream(seed, "alpha")  # draws the normal table first
        self.alphas_normal, self.alphas_reduce = (
            [Var(1e-3 * arng.standard_normal(n_ops).astype(np.float64))
             for _ in range(n_edges)] for _ in range(2))

    def arch_params(self) -> list[Var]:
        return list(self.alphas_normal) + list(self.alphas_reduce)

    def params(self) -> list[Var]:
        arch = {id(a) for a in self.arch_params()}
        return [p for p in super().params() if id(p) not in arch]

    def forward(self, x: Var) -> Var:
        s = self.stem_affine(self.stem(x))
        s0 = s1 = s
        for cell in self.cells:
            alphas = self.alphas_reduce if cell.reduction else self.alphas_normal
            out = cell.forward_cell(s0, s1, alphas)
            s0, s1 = s1, out
        return self.classifier(global_avg_pool(s1))

    def alpha_matrix(self, cell_type: str) -> np.ndarray:
        rows = self.alphas_normal if cell_type == "normal" else self.alphas_reduce
        return np.stack([a.data for a in rows])


@dataclass
class CellGenotype:
    cell_type: str  # "normal" | "reduction"
    nodes: list[list[tuple[int, str]]]  # per intermediate node: [(from, op), (from, op)]

    def to_json(self) -> str:
        return json.dumps({
            "cell_type": self.cell_type,
            "nodes": [{"inputs": [{"from": i, "op": op} for i, op in node]}
                      for node in self.nodes],
        }, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CellGenotype":
        obj = json.loads(text)
        nodes = [[(inp["from"], inp["op"]) for inp in node["inputs"]]
                 for node in obj["nodes"]]
        return cls(obj["cell_type"], nodes)


def discretize(alphas: np.ndarray, op_names: list[str], num_nodes: int,
               cell_type: str) -> CellGenotype:
    """Keep, per intermediate node, the 2 incoming edges with the highest
    max non-zero softmax weight, and the argmax non-zero op on each. Ties
    break toward the lowest op index, then the lowest source node index."""
    edges = cell_edges(num_nodes)
    if alphas.shape != (len(edges), len(op_names)):
        raise ValueError("alpha table shape mismatch")
    z = alphas - alphas.max(axis=1, keepdims=True)
    e = np.exp(z)
    soft = e / e.sum(axis=1, keepdims=True)
    nonzero = [k for k, name in enumerate(op_names) if name != "zero"]
    cands: dict[int, list[tuple[float, int, str]]] = {}
    for (i, j), weights in zip(edges, soft[:, nonzero]):
        best = int(np.argmax(weights))  # argmax returns the lowest index on ties
        cands.setdefault(j, []).append(
            (float(weights[best]), i, op_names[nonzero[best]]))
    nodes = [[(i, op) for _, i, op in sorted(c, key=lambda t: (-t[0], t[1]))[:2]]
             for c in cands.values()]
    return CellGenotype(cell_type, nodes)


def genotype_to_dot(g: CellGenotype) -> str:
    """Deterministic DOT rendering; circular ops drawn in red."""
    lines = [f'digraph cell_{g.cell_type} {{', '  rankdir=LR;',
             '  "c_{k-2}" [shape=box];', '  "c_{k-1}" [shape=box];']
    for n in range(len(g.nodes)):
        lines.append(f'  "n{n}" [shape=ellipse];')
    if g.nodes:
        lines.append('  "out" [shape=box];')
    for n, node in enumerate(g.nodes):
        for i, op in node:
            src = '"c_{k-2}"' if i == 0 else '"c_{k-1}"' if i == 1 else f'"n{i - 2}"'
            attrs = f'label="{op}"'
            if op in CIRCULAR_OPS:
                attrs += ', color=red, fontcolor=red'
            lines.append(f'  {src} -> "n{n}" [{attrs}];')
    for n in range(len(g.nodes)):
        lines.append(f'  "n{n}" -> "out";')
    lines.append('}')
    return "\n".join(lines) + "\n"


class Adam:
    b1, b2 = 0.5, 0.999  # the betas DARTS steps its alphas with

    def __init__(self, params: list[Var], lr: float, weight_decay: float):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.t = 0

    def step(self) -> None:
        self.t += 1
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            g = p.grad + self.weight_decay * p.data
            m *= self.b1
            m += (1 - self.b1) * g
            v *= self.b2
            v += (1 - self.b2) * g * g
            mhat = m / (1 - self.b1**self.t)
            vhat = v / (1 - self.b2**self.t)
            p.data = p.data - self.lr * mhat / (np.sqrt(vhat) + 1e-8)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


@dataclass
class SearchReport:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_err: list[float] = field(default_factory=list)
    alpha_normal_trace: list[np.ndarray] = field(default_factory=list)
    alpha_reduce_trace: list[np.ndarray] = field(default_factory=list)


def search(train_split: Dataset, val_split: Dataset,
           cfg: SearchConfig) -> tuple[dict[str, CellGenotype], SearchReport,
                                       SearchNetwork]:
    """First-order alternating bilevel search.

    Per iteration: one SGD step of the weights on a train batch, then one
    Adam step of the alphas on a validation batch. Each phase differentiates
    only the group it steps: the weight phase runs with the alphas frozen
    and the alpha phase with the weights frozen. Deterministic per seed.
    """
    # the alpha phase's loss reads the val labels: count both splits' classes
    net = SearchNetwork(cfg, train_split.images.shape[1],
                        max(train_split.num_classes, val_split.num_classes))
    weights, arch = net.params(), net.arch_params()
    w_opt = SGD(weights, cfg.momentum, cfg.weight_decay)
    a_opt = Adam(arch, cfg.alpha_lr, cfg.alpha_weight_decay)
    opts = (w_opt, a_opt)
    report = SearchReport()
    n_train, n_val = len(train_split), len(val_split)
    for epoch in range(cfg.epochs):
        lr = lr_at(cfg, epoch)
        t_order = stream(cfg.seed, "search/train-order", epoch).permutation(n_train)
        v_order = stream(cfg.seed, "search/val-order", epoch).permutation(n_val)
        t_losses, v_losses = [], []
        n_batches = (n_train + cfg.batch_size - 1) // cfg.batch_size
        for b in range(n_batches):
            t_idx = t_order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
            with frozen(arch):
                t_losses.append(backprop(
                    net, train_split, t_idx, opts,
                    f"epoch {epoch}, batch {b}, weight phase"))
            w_opt.step(lr)

            v_start = (b * cfg.batch_size) % max(1, n_val)
            v_idx = v_order[v_start:v_start + cfg.batch_size]
            with frozen(weights):
                v_losses.append(backprop(
                    net, val_split, v_idx, opts,
                    f"epoch {epoch}, batch {b}, alpha phase"))
            a_opt.step()
        report.train_loss.append(float(np.mean(t_losses)))
        report.val_loss.append(float(np.mean(v_losses)))
        report.val_err.append(evaluate(net, val_split))
        report.alpha_normal_trace.append(net.alpha_matrix("normal"))
        report.alpha_reduce_trace.append(net.alpha_matrix("reduction"))
    check_last_step(weights + arch)
    genotypes = {t: discretize(net.alpha_matrix(t), cfg.op_names,
                               cfg.num_nodes, t)
                 for t in ("normal", "reduction")}
    return genotypes, report, net
