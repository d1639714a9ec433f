import numpy as np
import pytest

from conftest import circular_kernel
from orbiconv.autodiff import Var, add, scale
from orbiconv.data import Split, SynthKind, gen_synthetic
from orbiconv.experiments import SmallCNN
from orbiconv.geometry import Mode
from orbiconv.integrated import EvalBranch, IntegratedConv
from orbiconv.layers import Conv2d, conv2d
from orbiconv.train import TrainConfig, evaluate, train


def test_branches_share_one_weight_tensor():
    layer = IntegratedConv(1, 2, 3, seed=0, dtype=np.float64)
    x = Var(np.random.default_rng(0).standard_normal((1, 1, 5, 5)),
            requires_grad=False)
    layer.current_choice = Mode.SQUARE
    sq = layer(x)
    layer.current_choice = Mode.CIRCULAR
    ci = layer(x)
    assert not np.array_equal(sq.data, ci.data)
    assert len(layer.params()) == 2  # one kernel tensor plus one bias


def test_square_branch_matches_plain_square_conv():
    rng = np.random.default_rng(1)
    layer = IntegratedConv(1, 1, 3, p_circular=0.0, dtype=np.float64)
    plain = Conv2d(1, 1, 3, mode=Mode.SQUARE, dtype=np.float64)
    plain.weights.data = layer.weights.data.copy()
    plain.bias.data = layer.bias.data.copy()
    layer.draw_for_iteration(0)
    x = Var(rng.standard_normal((1, 1, 6, 6)), requires_grad=False)
    assert np.array_equal(layer(x).data, plain(x).data)


@pytest.mark.parametrize("branch", list(EvalBranch))
def test_eval_branches_keep_bytes_with_a_reused_kernel(branch):
    """Each eval branch gives the bytes of a kernel op on B^T w computed
    afresh, when the layer reuses its effective kernel and after an
    in-place write to the weights."""
    layer = IntegratedConv(2, 3, 5, padding=2, eval_branch=branch,
                           rng=np.random.default_rng(4))
    x = Var(np.random.default_rng(5).standard_normal((2, 2, 6, 6)).astype(
        np.float32), requires_grad=False)

    def direct() -> bytes:
        square, circular = (conv2d(x, circular_kernel(layer.weights, t),
                                   layer.bias, padding=2)
                            for t in (None, layer.transform))
        return {EvalBranch.SQUARE: square, EvalBranch.CIRCULAR: circular,
                EvalBranch.AVERAGE: scale(add(square, circular), 0.5)
                }[branch].data.tobytes()

    for _ in range(2):
        assert layer(x).data.tobytes() == direct()
    layer.weights.data[1, 0, 0, 3] = 2.0
    assert layer(x).data.tobytes() == direct()


def test_degenerate_probabilities_short_circuit():
    layer = IntegratedConv(1, 1, 3, p_circular=1.0)
    assert all(layer.draw_for_iteration(i) is Mode.CIRCULAR for i in range(20))
    layer = IntegratedConv(1, 1, 3, p_circular=0.0)
    assert all(layer.draw_for_iteration(i) is Mode.SQUARE for i in range(20))


def test_invalid_probability_rejected():
    with pytest.raises(ValueError):
        IntegratedConv(1, 1, 3, p_circular=1.5)


def test_draws_are_deterministic_per_iteration():
    a = IntegratedConv(1, 1, 3, p_circular=0.5, seed=5, stream_id="x")
    b = IntegratedConv(1, 1, 3, p_circular=0.5, seed=5, stream_id="x")
    for i in range(50):
        assert a.draw_for_iteration(i) is b.draw_for_iteration(i)


def test_draw_frequency_within_four_sigma():
    layer = IntegratedConv(1, 1, 3, p_circular=0.5, seed=0)
    n = 10_000
    hits = sum(layer.draw_for_iteration(i) is Mode.CIRCULAR
               for i in range(n))
    sigma = np.sqrt(n * 0.25)
    assert abs(hits - n * 0.5) <= 4 * sigma


def test_layers_draw_independently():
    # chi-square independence test on the 2x2 contingency table, alpha 0.01
    a = IntegratedConv(1, 1, 3, p_circular=0.5, seed=0, stream_id="a")
    b = IntegratedConv(1, 1, 3, p_circular=0.5, seed=0, stream_id="b")
    n = 4000
    table = np.zeros((2, 2))
    for i in range(n):
        ra = int(a.draw_for_iteration(i) is Mode.CIRCULAR)
        rb = int(b.draw_for_iteration(i) is Mode.CIRCULAR)
        table[ra, rb] += 1
    row = table.sum(axis=1, keepdims=True)
    col = table.sum(axis=0, keepdims=True)
    expected = row * col / n
    chi2 = float(((table - expected) ** 2 / expected).sum())
    assert chi2 < 6.635  # chi-square(1) critical value at 0.01


def test_eval_branch_pinning():
    layer = IntegratedConv(1, 1, 3, p_circular=0.5,
                           eval_branch=EvalBranch.SQUARE)
    layer.current_choice = Mode.CIRCULAR
    layer.enter_eval()
    assert layer.current_choice is Mode.SQUARE


@pytest.mark.parametrize("branch, shape", [(EvalBranch.SQUARE, "square"),
                                           (EvalBranch.CIRCULAR, "circle")])
def test_untrained_layer_evaluates_its_eval_branch(branch, shape):
    """Before any training, an integrated SmallCNN already evaluates the
    branch its `eval_branch` names: byte for byte the plain model of that
    kernel shape and seed."""
    ds = gen_synthetic(SynthKind.ORIENTED_BARS, 4, 12, 3)
    x = Var(ds.images, requires_grad=False)
    integrated = SmallCNN(shape="integrated", eval_branch=branch, seed=5)
    plain = SmallCNN(shape=shape, seed=5)
    assert integrated(x).data.tobytes() == plain(x).data.tobytes()
    assert evaluate(integrated, ds) == evaluate(plain, ds)


@pytest.mark.parametrize("branch", list(EvalBranch))
def test_evaluate_runs_the_eval_branch(branch):
    """`evaluate` runs each integrated layer's eval branch, whatever branch
    was drawn last: the logits it sees are those of a fresh model."""
    ds = gen_synthetic(SynthKind.ORIENTED_BARS, 4, 12, 3)
    x = Var(ds.images, requires_grad=False)
    model = SmallCNN(shape="integrated", eval_branch=branch, seed=5)
    want = model(x).data.tobytes()
    drawn = Mode.SQUARE if branch is EvalBranch.CIRCULAR else Mode.CIRCULAR
    for layer in model.blocks:
        layer.current_choice = drawn
    logits = []
    head = model.head.forward

    def recording_head(h):
        logits.append(head(h))
        return logits[-1]

    model.head.forward = recording_head
    evaluate(model, ds)  # one batch
    assert logits[0].data.tobytes() == want


def test_eval_average_is_mean_of_branches():
    rng = np.random.default_rng(2)
    layer = IntegratedConv(1, 1, 3, eval_branch=EvalBranch.AVERAGE,
                           dtype=np.float64)
    x = Var(rng.standard_normal((1, 1, 5, 5)), requires_grad=False)
    layer.current_choice = Mode.SQUARE
    sq = layer(x).data
    layer.current_choice = Mode.CIRCULAR
    ci = layer(x).data
    layer.enter_eval()
    assert np.allclose(layer(x).data, 0.5 * (sq + ci), atol=1e-12)


def _run(shape, p, eval_branch):
    train_ds = gen_synthetic(SynthKind.ORIENTED_BARS, 8, 12, 0)
    test_ds = gen_synthetic(SynthKind.ORIENTED_BARS, 4, 12, 1, Split.TEST)
    model = SmallCNN(channels=(4, 4), seed=9, shape=shape, p_circular=p,
                     eval_branch=eval_branch)
    report = train(model, train_ds, test_ds,
                   TrainConfig(epochs=2, batch_size=8, seed=2))
    return report.to_csv()


def test_p_zero_matches_pure_square_bitwise():
    assert _run("square", 0.0, EvalBranch.SQUARE) == \
        _run("integrated", 0.0, EvalBranch.SQUARE)


def test_p_one_matches_pure_circular_bitwise():
    assert _run("circular", 1.0, EvalBranch.CIRCULAR) == \
        _run("integrated", 1.0, EvalBranch.CIRCULAR)
