import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import orbiconv
from orbiconv import layers
from orbiconv.autodiff import Var
from orbiconv.data import Dataset, Split, SynthKind, gen_synthetic
from orbiconv.experiments import SmallCNN
from orbiconv.nas import SearchConfig
from orbiconv.train import (
    NumericalError,
    TrainConfig,
    TrainReport,
    evaluate,
    lr_at,
    train,
)
from orbiconv.transform import reparameterize, transform_gradient_pushforward


def _bars(n, seed, split=Split.TRAIN):
    return gen_synthetic(SynthKind.ORIENTED_BARS, n, 12, seed, split)


def test_lr_schedule_endpoints_and_midpoint():
    cfg = TrainConfig(epochs=10, lr_init=0.1)
    assert lr_at(cfg, 0) == pytest.approx(0.1)
    assert lr_at(cfg, 5) == pytest.approx(0.05)
    assert lr_at(cfg, 9) == pytest.approx(0.1 * 0.5 * (1 + math.cos(math.pi * 0.9)))


def test_lr_schedule_warmup():
    cfg = TrainConfig(epochs=10, lr_init=0.1, warmup_epochs=4)
    assert lr_at(cfg, 0) == pytest.approx(0.025)
    assert lr_at(cfg, 3) == pytest.approx(0.1)
    assert lr_at(cfg, 4) == pytest.approx(0.1)  # cosine at progress 0


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr_init=0.0)
    with pytest.raises(ValueError):
        TrainConfig(momentum=1.0)


@pytest.mark.parametrize("config", [TrainConfig, SearchConfig],
                         ids=lambda c: c.__name__)
def test_zero_epochs_is_rejected(config):
    """`epochs >= 1` is the configs' own rule, so no run starts without a
    step."""
    with pytest.raises(ValueError, match="^epochs must be at least 1$"):
        config(epochs=0)


def test_training_is_bit_deterministic():
    cfg = TrainConfig(epochs=2, batch_size=8, seed=3)
    csvs = []
    for _ in range(2):
        model = SmallCNN(channels=(4, 4), seed=7)
        report = train(model, _bars(8, 0), _bars(4, 1, Split.TEST), cfg)
        csvs.append(report.to_csv())
    assert csvs[0] == csvs[1]


def test_different_seed_changes_data_order():
    losses = []
    for seed in (0, 1):
        model = SmallCNN(channels=(4,), seed=7)
        cfg = TrainConfig(epochs=1, batch_size=4, seed=seed)
        report = train(model, _bars(8, 0), _bars(4, 1, Split.TEST), cfg)
        losses.append(report.train_loss[0])
    assert losses[0] != losses[1]


def test_fits_linearly_separable_data():
    train_ds = _bars(16, 0)
    cfg = TrainConfig(epochs=20, batch_size=8, lr_init=0.1, seed=0)
    model = SmallCNN(channels=(8, 8), seed=0)
    train(model, train_ds, train_ds, cfg)
    assert evaluate(model, train_ds) == 0.0


def test_nan_loss_raises_numerical_error():
    model = SmallCNN(channels=(4,), seed=0)
    model.head.weights.data[:] = np.nan
    with pytest.raises(NumericalError, match="epoch 0"):
        train(model, _bars(4, 0), _bars(4, 1, Split.TEST),
              TrainConfig(epochs=1, batch_size=4))


def test_overflowing_last_step_raises_numerical_error():
    """A 1-batch, 1-epoch run whose only step overflows the weights fails:
    the loss check comes before each step, so it never sees the last one."""
    train_ds = _bars(4, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="after the last step"):
            train(SmallCNN(channels=(4,), seed=0), train_ds,
                  _bars(4, 1, Split.TEST),
                  TrainConfig(epochs=1, batch_size=len(train_ds),
                              lr_init=1e300))


def test_evaluate_reparameterizes_each_circular_layer_once(monkeypatch):
    """Two evaluations of a circle SmallCNN compute B^T w once per circular
    layer in all: a frozen model keeps its effective kernels."""
    calls = []

    def counted(w, b):
        calls.append(b)
        return reparameterize(w, b)

    monkeypatch.setattr(layers, "reparameterize", counted)
    model = SmallCNN(kernel_size=5, shape="circle", seed=0)
    ds = _bars(80, 4, Split.TEST)
    assert evaluate(model, ds) == evaluate(model, ds)
    assert len(calls) == 3


def test_one_backward_applies_b_adjoint_once_per_circular_layer(monkeypatch):
    """B's adjoint has one caller, the circular kernel op: one backward of
    a circle SmallCNN applies it once per conv layer, and every parameter
    gets a gradient."""
    calls = []

    def counted(g, b):
        calls.append(b)
        return transform_gradient_pushforward(g, b)

    monkeypatch.setattr(layers, "transform_gradient_pushforward", counted)
    model = SmallCNN(kernel_size=5, shape="circle", seed=0)
    ds = _bars(8, 0)
    layers.softmax_cross_entropy(model(Var(ds.images, requires_grad=False)),
                                 ds.labels).backward()
    assert len(calls) == 3
    assert all(p.grad is not None for p in model.params())


def test_report_csv_round_trips_floats():
    r = TrainReport([0.1 + 0.2], [1 / 3], [0.05])
    line = r.to_csv().splitlines()[1].split(",")
    assert float(line[1]) == 0.1 + 0.2
    assert float(line[2]) == 1 / 3


def test_evaluate_counts_errors():
    images = np.zeros((4, 1, 8, 8), dtype=np.float32)
    labels = np.array([0, 1, 0, 1], dtype=np.int64)
    ds = Dataset(images, labels)

    class Fixed:
        def __call__(self, x):
            from orbiconv.autodiff import Var
            logits = np.tile([1.0, 0.0], (x.data.shape[0], 1))
            return Var(logits, requires_grad=False)

    assert evaluate(Fixed(), ds) == 0.5


_TRAIN_AND_HASH = """
import hashlib
from orbiconv.data import SynthKind, gen_synthetic
from orbiconv.experiments import SmallCNN
from orbiconv.train import TrainConfig, train

ds = gen_synthetic(SynthKind.RING_VS_CROSS, 32, 16, 0)
model = SmallCNN(kernel_size=5, shape="integrated", channels=(32, 64), seed=0)
train(model, ds, ds, TrainConfig(epochs=2, batch_size=64))
params = b"".join(p.data.tobytes() for p in model.params())
print(hashlib.sha256(params).hexdigest())
"""


def test_training_bytes_do_not_depend_on_blas_threads():
    """A dense-conv training gives the same final weights with one and two
    BLAS threads. Its second block's gemms (64 x 800 by 800 x 64 per image)
    are large enough for OpenBLAS to split them across threads."""
    src = str(Path(orbiconv.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path,
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        run = subprocess.run([sys.executable, "-c", _TRAIN_AND_HASH], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=300)
        digests.append(run.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


_EVALUATE_SUPERNET_IN_1GB = """
import resource
resource.setrlimit(resource.RLIMIT_AS,
                   (1024 << 20, resource.getrlimit(resource.RLIMIT_AS)[1]))
from orbiconv.data import SynthKind, gen_synthetic
from orbiconv.nas import SearchConfig, SearchNetwork
from orbiconv.train import evaluate

ds = gen_synthetic(SynthKind.PLANTED_CIRCULAR, 32, 16, 0)
print(evaluate(SearchNetwork(SearchConfig(), 1, 2), ds))
"""


def test_evaluate_keeps_no_graph_in_1gb():
    """The default supernet's batch-64 evaluation fits in a 1 GB address
    space: the forward keeps no parents and no backward closures, so each
    layer's patches are freed once the next layer has read them."""
    src = str(Path(orbiconv.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1"}
    run = subprocess.run([sys.executable, "-c", _EVALUATE_SUPERNET_IN_1GB],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    assert 0.0 <= float(run.stdout) <= 1.0
