"""Guard for the package names that the benchmark under perfbench/ hooks.

perfbench/instrument.py and perfbench/workloads.py wrap package functions,
methods and module bindings by name from outside the package. Installing and
removing every hook here makes a rename or move fail in the test suite
instead of in a benchmark run. The perfbench files are only imported.
"""

import hashlib
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from orbiconv.autodiff import Var
from orbiconv.integrated import IntegratedConv
from orbiconv.layers import softmax_cross_entropy
from orbiconv.nas import PRIMITIVES, SearchConfig, SearchNetwork

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("layers", "transform", "autodiff", "nas", "train", "integrated",
           "experiments", "data", "rng")


def _load(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_install_and_uninstall(monkeypatch):
    instrument = _load("instrument", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    pkg = {m: importlib.import_module(f"orbiconv.{m}") for m in MODULES}
    before = {m: dict(vars(mod)) for m, mod in pkg.items()}

    tracer = instrument.Tracer()
    tracer.install(pkg)
    try:
        layer = IntegratedConv(1, 1, 3, p_circular=0.5)
        drawn = [layer.draw_for_iteration(i).value for i in range(8)]
    finally:
        tracer.uninstall()
    assert set(drawn) <= {"square", "circular"}
    assert tracer.counts["draw.calls"] == 8
    assert tracer.counts["draw.circular"] == drawn.count("circular")

    for workload in workloads.WORKLOADS.values():
        step_clock = instrument.StepClock(*workload.step_hooks(pkg))
        step_clock.install()
        step_clock.uninstall()
    assert {m: dict(vars(mod)) for m, mod in pkg.items()} == before


def test_every_workload_sets_up(monkeypatch):
    """Each workload's set-up builds its data, config and model through
    package keywords (SmallCNN, TrainConfig, SearchConfig), so a keyword
    change that breaks perfbench/workloads.py fails here."""
    workloads = _load("workloads", monkeypatch)
    pkg = {m: importlib.import_module(f"orbiconv.{m}") for m in MODULES}
    for workload in workloads.WORKLOADS.values():
        assert workload.images(workload.setup(pkg, 0)) > 0


# The first 16 hex digits of the sha256 of each workload's episode outputs
# (`json.dumps(outputs, sort_keys=True)`) for cases 0 and 1. A change that
# moves numerics updates this table as an argued change.
OUTPUT_HASHES = {
    "search_planted": ("a17235d7dce5301e", "70a4db379a564e4c"),
    "search_darts": ("5552f03382c2095e", "e62f5b339d3318de"),
    "train_integrated": ("e472e93ca35c20e8", "a022b7c656c5508c"),
    "robust_rotate": ("42c9e234ef467fc6", "671aeea141f401c3"),
}


def test_workload_outputs_keep_their_bytes(monkeypatch):
    """One episode of cases 0 and 1 of every workload hashes as recorded:
    a change to the package that moves a byte of any output fails here."""
    workloads = _load("workloads", monkeypatch)
    pkg = {m: importlib.import_module(f"orbiconv.{m}") for m in MODULES}
    hashes = {}
    for name, workload in workloads.WORKLOADS.items():
        hashes[name] = tuple(
            hashlib.sha256(json.dumps(
                workload.episode(pkg, workload.setup(pkg, case)),
                sort_keys=True).encode()).hexdigest()[:16]
            for case in (0, 1))
    assert hashes == OUTPUT_HASHES


def test_tracer_sees_every_search_op(monkeypatch):
    """One forward and backward of a supernet over every primitive records
    a span for each kind of op it runs: the hooks reach the ops through the
    bindings they are called by."""
    instrument = _load("instrument", monkeypatch)
    pkg = {m: importlib.import_module(f"orbiconv.{m}") for m in MODULES}
    net = SearchNetwork(SearchConfig(num_nodes=3, num_cells=2, channels=2,
                                     op_names=list(PRIMITIVES)), 1, 2)
    x = np.random.default_rng(0).random((2, 1, 8, 8), dtype=np.float32)
    tracer = instrument.Tracer()
    tracer.install(pkg)
    try:
        loss = softmax_cross_entropy(net(Var(x, requires_grad=False)),
                                     np.array([0, 1]))
        loss.backward()
    finally:
        tracer.uninstall()
    spans = {name for name, *_ in tracer.spans}
    assert {"layers.conv2d.dw", "layers.conv2d.dense", "layers.max_pool2d",
            "layers.avg_pool2d", "autodiff.weighted_sum",
            "transform.reparameterize",
            "transform.transform_gradient_pushforward"} <= spans
    # B's adjoint is one object under two names, so the tracer's span for
    # the pushforward name covers every binding of it
    transform = pkg["transform"]
    assert transform.transform_gradient_pushforward is transform.resample_patch
