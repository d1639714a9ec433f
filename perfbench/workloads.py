"""The four benchmark workloads.

Each workload is a closed loop with one client: one process runs one batch
job after another. ``setup(case)`` builds the inputs and the model from the
case number; ``episode(state)`` runs one unit of timed work and returns the
outputs that are compared with ``reference.json``. Episodes of one case are
identical, so a run repeats them until its time is used up.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable

# Inputs are drawn from case = seed % CASES, so that every seed has stored
# reference outputs. Seed 0 is the development seed; seed 1 is held back for
# confirming a claimed gain.
CASES = 16

PLANTED_OPS = ["sep_conv_5x5", "circ_sep_conv_5x5", "zero"]


@dataclass
class Workload:
    name: str
    why: str
    setup: Callable
    episode: Callable
    # (owner, attribute) pairs whose return ends a step, and those whose
    # return extends the last step (the epoch-end evaluation)
    step_hooks: Callable
    images: Callable          # state -> images processed per episode


@dataclass
class SearchState:
    train: object
    val: object
    cfg: object


@dataclass
class TrainState:
    train: object
    test: object
    model: object
    cfg: object


@dataclass
class SweepState:
    test: object
    model: object
    sweep: object
    train_report: object


def _search_outputs(genotypes, report) -> dict:
    return {
        "genotype": {kind: [[[i, op] for i, op in node] for node in g.nodes]
                     for kind, g in sorted(genotypes.items())},
        "val_err": list(report.val_err),
        "train_loss": list(report.train_loss),
        "val_loss": list(report.val_loss),
    }


def _search_images(state) -> int:
    # one weight phase on a train batch and one alpha phase on a val batch
    # per step; both splits are whole multiples of the batch
    cfg = state.cfg
    return cfg.epochs * 2 * len(state.train)


def _search_hooks(pkg):
    nas = pkg["nas"]
    return [(nas.Adam, "step")], [(nas, "evaluate")]


def _search_episode(pkg, state) -> dict:
    genotypes, report, _ = pkg["nas"].search(state.train, state.val, state.cfg)
    return _search_outputs(genotypes, report)


def _planted_setup(pkg, case: int) -> SearchState:
    data, nas = pkg["data"], pkg["nas"]
    kind = data.SynthKind.PLANTED_CIRCULAR
    train = data.gen_synthetic(kind, 40, 12, case)
    val = data.gen_synthetic(kind, 40, 12, case + 10_000, data.Split.VAL)
    cfg = nas.SearchConfig(num_nodes=3, num_cells=1, channels=16, epochs=2,
                           batch_size=8, lr_init=0.12, weight_decay=0.0,
                           alpha_lr=0.02, alpha_weight_decay=0.0, seed=case,
                           op_names=list(PLANTED_OPS))
    return SearchState(train, val, cfg)


def _darts_setup(pkg, case: int) -> SearchState:
    data, nas = pkg["data"], pkg["nas"]
    kind = data.SynthKind.PLANTED_CIRCULAR
    train = data.gen_synthetic(kind, 24, 16, case)
    val = data.gen_synthetic(kind, 24, 16, case + 10_000, data.Split.VAL)
    cfg = nas.SearchConfig(num_nodes=4, num_cells=2, channels=8, epochs=1,
                           batch_size=16, seed=case,
                           op_names=list(nas.PRIMITIVES))
    return SearchState(train, val, cfg)


def _ring_data(pkg, case: int):
    data = pkg["data"]
    kind = data.SynthKind.RING_VS_CROSS
    return (data.gen_synthetic(kind, 40, 16, case),
            data.gen_synthetic(kind, 40, 16, case + 10_000))


def _integrated_setup(pkg, case: int) -> TrainState:
    train, test = _ring_data(pkg, case)
    model = pkg["experiments"].SmallCNN(kernel_size=5, shape="integrated",
                                        seed=case, p_circular=0.5)
    cfg = pkg["train"].TrainConfig(epochs=12, batch_size=16, lr_init=0.055,
                                   seed=case)
    return TrainState(train, test, model, cfg)


def _integrated_episode(pkg, state) -> dict:
    # a fresh copy of the untrained model, so every episode is the same run
    model = copy.deepcopy(state.model)
    report = pkg["train"].train(model, state.train, state.test, state.cfg)
    return {"test_err": list(report.test_err),
            "train_loss": list(report.train_loss)}


def _integrated_hooks(pkg):
    train = pkg["train"]
    return [(train.SGD, "step")], [(train, "evaluate")]


def _rotate_setup(pkg, case: int) -> SweepState:
    train_ds, test = _ring_data(pkg, case)
    experiments, train = pkg["experiments"], pkg["train"]
    model = experiments.SmallCNN(kernel_size=5, shape="circle", seed=case)
    report = train.train(model, train_ds, test, train.TrainConfig(
        epochs=12, batch_size=16, lr_init=0.055, seed=case))
    sweep = experiments.RobustnessSweep(seed=case)
    return SweepState(test, model, sweep, report)


def _rotate_episode(pkg, state) -> dict:
    rows = pkg["experiments"].robustness_eval(state.model, state.test,
                                              state.sweep)
    return {"err": [r["err"] for r in rows if isinstance(r["trial"], int)],
            "setup_test_err": list(state.train_report.test_err),
            "setup_train_loss": list(state.train_report.train_loss)}


def _rotate_hooks(pkg):
    return [(pkg["experiments"], "evaluate")], []


def _rotate_images(state) -> int:
    return len(state.sweep.angle_ranges) * state.sweep.trials * len(state.test)


WORKLOADS = {w.name: w for w in [
    Workload(
        "search_planted",
        "planted-circular DARTS search of the acceptance test (2 epochs); "
        "the depthwise 5x5 backward and col2im dominate",
        _planted_setup, _search_episode, _search_hooks, _search_images),
    Workload(
        "search_darts",
        "full 10-op search space with a reduction cell (1 epoch); pools, "
        "dilation, stride 2, the largest tape and memory",
        _darts_setup, _search_episode, _search_hooks, _search_images),
    Workload(
        "train_integrated",
        "SmallCNN with K=5 integrated kernels trained 12 epochs; dense im2col "
        "convs, branch draws and reparameterization",
        _integrated_setup, _integrated_episode, _integrated_hooks,
        lambda s: s.cfg.epochs * len(s.train)),
    Workload(
        "robust_rotate",
        "rotation sweep over a trained K=5 circle SmallCNN; forward only, no "
        "backward and no col2im",
        _rotate_setup, _rotate_episode, _rotate_hooks, _rotate_images),
]}
