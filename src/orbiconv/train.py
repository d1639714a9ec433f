"""SGD training loop with momentum and a warm-up/cosine learning-rate
schedule, deterministic for a fixed seed."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Var, frozen
from .data import Dataset
from .layers import Module, softmax_cross_entropy, walk
from .rng import stream

EVAL_BATCH = 64  # samples per forward in `evaluate`


class NumericalError(RuntimeError):
    """Raised when the loss leaves the representable range."""


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 16
    lr_init: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 5e-4
    warmup_epochs: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        # written so that a NaN fails each comparison
        if not 0 < self.lr_init < math.inf:
            raise ValueError("lr_init must be positive and finite")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError("weight_decay must be finite and at least 0")
        if self.warmup_epochs < 0:
            raise ValueError("warmup_epochs must be at least 0")


@dataclass
class TrainReport:
    train_loss: list[float] = field(default_factory=list)
    test_err: list[float] = field(default_factory=list)
    lr: list[float] = field(default_factory=list)

    def to_csv(self) -> str:
        lines = ["epoch,train_loss,test_err,lr"]
        for e, (tl, te, lr) in enumerate(zip(self.train_loss, self.test_err, self.lr)):
            lines.append(f"{e},{tl!r},{te!r},{lr!r}")
        return "\n".join(lines) + "\n"


def lr_at(cfg: TrainConfig, epoch: int) -> float:
    """Learning rate for a 0-based epoch index: linear warm-up, then a
    half-cosine decay toward zero."""
    if epoch < cfg.warmup_epochs:
        return cfg.lr_init * (epoch + 1) / cfg.warmup_epochs
    span = max(1, cfg.epochs - cfg.warmup_epochs)
    progress = (epoch - cfg.warmup_epochs) / span
    return cfg.lr_init * 0.5 * (1.0 + math.cos(math.pi * progress))


class SGD:
    def __init__(self, params: list[Var], momentum: float, weight_decay: float):
        self.params = params
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = [np.zeros_like(p.data) for p in params]

    def step(self, lr: float) -> None:
        for p, v in zip(self.params, self.velocity):
            if p.grad is None:
                continue
            g = p.grad + self.weight_decay * p.data
            v *= self.momentum
            v += g
            p.data = p.data - (lr * v).astype(p.data.dtype)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


def evaluate(model: Module, ds: Dataset) -> float:
    """Classification error rate on a dataset, with every integrated layer
    on its eval branch and every leaf frozen, so the forward keeps no graph."""
    items = list(walk(model))
    for item in items:
        if hasattr(item, "enter_eval"):
            item.enter_eval()
    wrong = 0
    with frozen([v for v in items if isinstance(v, Var)]):
        for start in range(0, len(ds), EVAL_BATCH):
            x = Var(ds.images[start:start + EVAL_BATCH], requires_grad=False)
            pred = model(x).data.argmax(axis=1)
            wrong += int((pred != ds.labels[start:start + EVAL_BATCH]).sum())
    return wrong / max(1, len(ds))


def backprop(model: Module, ds: Dataset, idx: np.ndarray, opts,
             where: str) -> float:
    """One forward and backward pass on the samples `idx` of `ds`.

    Computes the cross-entropy loss, raises NumericalError naming `where`
    if it is not finite, zeroes the gradients of every optimizer in `opts`
    and backpropagates. Returns the loss; stepping is left to the caller.
    """
    x = Var(ds.images[idx], requires_grad=False)
    loss = softmax_cross_entropy(model(x), ds.labels[idx])
    if not np.isfinite(loss.data):
        raise NumericalError(f"non-finite loss at {where}")
    for opt in opts:
        opt.zero_grad()
    loss.backward()
    return float(loss.data)


def check_last_step(params: list[Var]) -> None:
    """Raises NumericalError if a parameter is not finite after a run's last
    step: the loss check of `backprop` comes before each step, so it cannot
    see an overflow of the last one."""
    if not all(np.isfinite(p.data).all() for p in params):
        raise NumericalError("non-finite parameters after the last step")


def train(model: Module, train_ds: Dataset, test_ds: Dataset,
          cfg: TrainConfig) -> TrainReport:
    """Train `model` in place; returns the per-epoch report.

    Integrated-kernel layers (anything exposing draw_for_iteration) get their
    branch re-drawn once per iteration before the forward pass.
    """
    report = TrainReport()
    params = model.params()
    opt = SGD(params, cfg.momentum, cfg.weight_decay)
    integrated = [m for m in walk(model) if hasattr(m, "draw_for_iteration")]
    iteration = 0
    n = len(train_ds)
    for epoch in range(cfg.epochs):
        lr = lr_at(cfg, epoch)
        order = stream(cfg.seed, "data-order", epoch).permutation(n)
        losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            for layer in integrated:
                layer.draw_for_iteration(iteration)
            losses.append(backprop(
                model, train_ds, idx, (opt,),
                f"epoch {epoch}, batch {start // cfg.batch_size}"))
            opt.step(lr)
            iteration += 1
        report.train_loss.append(float(np.mean(losses)))
        report.test_err.append(evaluate(model, test_ds))
        report.lr.append(lr)
    check_last_step(params)
    return report
