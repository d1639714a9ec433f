import tracemalloc

import numpy as np
import pytest

from conftest import reference_backward
from orbiconv.autodiff import (
    Var,
    add,
    concat,
    frozen,
    matmul,
    mean_all,
    mul,
    relu,
    reshape,
    scale,
    softmax_vec,
    tape,
    weighted_sum,
)
from orbiconv.data import Split, SynthKind, gen_synthetic
from orbiconv.experiments import SmallCNN
from orbiconv.layers import softmax_cross_entropy, walk
from orbiconv.nas import SearchConfig, SearchNetwork
from orbiconv.train import SGD, backprop


def test_add_mul_backward():
    a = Var(np.array([1.0, 2.0]))
    b = Var(np.array([3.0, 4.0]))
    out = mean_all(mul(add(a, b), b))
    out.backward()
    # d/da mean((a+b)*b) = b/2 ; d/db = (a+2b)/2
    assert np.allclose(a.grad, [1.5, 2.0])
    assert np.allclose(b.grad, [3.5, 5.0])


@pytest.mark.parametrize("op", [add, mul])
def test_add_mul_backward_rejects_a_broadcast_operand(op):
    """`add` and `mul` do not reduce a broadcast gradient back to its
    operand: the forward broadcasts, the backward fails on the shapes."""
    out = op(Var(np.ones((2, 3))), Var(np.ones(3)))
    with pytest.raises(ValueError):
        out.backward(np.ones((2, 3)))


def test_matmul_backward():
    rng = np.random.default_rng(0)
    a = Var(rng.standard_normal((3, 4)))
    b = Var(rng.standard_normal((4, 2)))
    out = mean_all(matmul(a, b))
    out.backward()
    eps = 1e-6
    i, j = 1, 2
    orig = a.data[i, j]
    a.data[i, j] = orig + eps
    fp = float((a.data @ b.data).mean())
    a.data[i, j] = orig - eps
    fm = float((a.data @ b.data).mean())
    a.data[i, j] = orig
    assert a.grad[i, j] == pytest.approx((fp - fm) / (2 * eps), rel=1e-6)


def test_tape_topological_order():
    a = Var(np.array(1.0))
    b = add(a, a)
    c = mul(b, a)
    order = tape(c)
    pos = {id(v): i for i, v in enumerate(order)}
    assert pos[id(a)] < pos[id(b)] < pos[id(c)]


def test_relu_and_scale():
    x = Var(np.array([-1.0, 2.0]))
    out = mean_all(scale(relu(x), 3.0))
    out.backward()
    assert np.allclose(x.grad, [0.0, 1.5])


def test_reshape_concat():
    a = Var(np.ones((2, 2)))
    b = Var(np.ones((2, 2)))
    out = mean_all(reshape(concat([a, b], axis=1), (8,)))
    out.backward()
    assert np.allclose(a.grad, 0.125)
    assert np.allclose(b.grad, 0.125)


def test_softmax_vec_gradient():
    rng = np.random.default_rng(1)
    a = Var(rng.standard_normal(5))
    proj = rng.standard_normal(5)

    def f():
        return float(softmax_vec(a).data @ proj)

    out = softmax_vec(a)
    loss = Var(np.asarray(f()), (out,),
               lambda g: out.accumulate(float(g) * proj))
    loss.backward()
    eps = 1e-6
    for i in range(5):
        orig = a.data[i]
        a.data[i] = orig + eps
        fp = f()
        a.data[i] = orig - eps
        fm = f()
        a.data[i] = orig
        assert a.grad[i] == pytest.approx((fp - fm) / (2 * eps), abs=1e-8)


def test_weighted_sum_values_and_grads():
    ys = [Var(np.array([1.0, 0.0])), Var(np.array([0.0, 2.0]))]
    w = Var(np.array([0.25, 0.75]))
    out = mean_all(weighted_sum(ys, w))
    assert np.allclose(out.data, 0.5 * (0.25 * 1.0 + 0.75 * 2.0))
    out.backward()
    assert np.allclose(w.grad, [0.5, 1.0])
    assert np.allclose(ys[0].grad, [0.125, 0.125])

    # float32 operands on float64 weights: the mix and the operand gradients
    # stay float32, and the weight gradient is float64, summed in float64
    rng = np.random.default_rng(0)
    ys = [Var(rng.standard_normal((4, 3, 5, 5)).astype(np.float32))
          for _ in range(3)]
    w = Var(rng.random(3))
    out = weighted_sum(ys, w)
    w32 = w.data.astype(np.float32)
    assert out.data.dtype == np.float32
    assert out.data.tobytes() == sum(w32[i] * y.data
                                     for i, y in enumerate(ys)).tobytes()
    g = rng.standard_normal(out.data.shape).astype(np.float32)
    out.backward(g)
    for i, y in enumerate(ys):
        assert y.grad.dtype == np.float32
        assert y.grad.tobytes() == (g * w32[i]).tobytes()
    assert w.grad.dtype == np.float64
    ref = [np.sum(g.astype(np.float64) * y.data) for y in ys]
    assert np.allclose(w.grad, ref, rtol=1e-5, atol=0)


def test_weighted_sum_count_mismatch():
    with pytest.raises(ValueError):
        weighted_sum([Var(np.ones(2))], Var(np.ones(2)))


def test_no_grad_leaves_skipped():
    a = Var(np.ones(3), requires_grad=False)
    b = Var(np.ones(3))
    out = mean_all(mul(a, b))
    out.backward()
    assert a.grad is None
    assert b.grad is not None


def test_computed_var_requires_grad_exactly_when_a_parent_does():
    a, b = Var(np.ones(3)), Var(np.ones(3))
    with frozen([a]):
        assert not a.requires_grad and not relu(a).requires_grad
        out = mean_all(mul(relu(a), b))
        assert out.requires_grad
    assert a.requires_grad
    out.backward()
    assert a.grad is None and b.grad is not None
    c = Var(np.ones(3), requires_grad=False)
    with pytest.raises(KeyError):
        with frozen([b, c]):
            raise KeyError("body")
    assert b.requires_grad and not c.requires_grad


def test_var_that_needs_no_gradient_keeps_no_graph():
    a, b = Var(np.ones(3), requires_grad=False), Var(np.ones(3))
    out = relu(mul(a, a))
    assert out.parents == () and out.backward_fn is None
    with frozen([b]):
        out = mean_all(add(a, b))
    assert out.parents == () and out.backward_fn is None
    out = add(a, b)
    assert out.parents == (a, b) and out.backward_fn is not None


def test_backward_needs_scalar():
    a = Var(np.ones(3))
    with pytest.raises(ValueError):
        add(a, a).backward()


def test_second_backward_through_a_released_graph_raises():
    a = Var(np.array([1.0, -2.0]))
    h = relu(scale(a, 2.0))
    first, second = mean_all(h), mean_all(scale(h, 3.0))
    first.backward()
    assert np.array_equal(a.grad, [1.0, 0.0])
    with pytest.raises(RuntimeError, match="already ran"):
        first.backward()
    # `second` shares `h`, which the first backward released
    with pytest.raises(RuntimeError, match="already ran"):
        second.backward()
    assert np.array_equal(a.grad, [1.0, 0.0])


# perfbench's search_darts supernet and data, and its train_integrated model
_DARTS = SearchConfig(num_nodes=4, num_cells=2, channels=8, batch_size=16,
                      seed=0)


def _search_step(phase: str):
    train = gen_synthetic(SynthKind.PLANTED_CIRCULAR, 24, 16, 0)
    val = gen_synthetic(SynthKind.PLANTED_CIRCULAR, 24, 16, 10_000, Split.VAL)
    net = SearchNetwork(_DARTS, 1, 2)
    if phase == "weight":
        return net, train, net.params(), net.arch_params()
    return net, val, net.arch_params(), net.params()


def _integrated_step():
    model = SmallCNN(kernel_size=5, shape="integrated", seed=0, p_circular=0.5)
    for layer in walk(model):
        if hasattr(layer, "draw_for_iteration"):
            layer.draw_for_iteration(0)
    ds = gen_synthetic(SynthKind.RING_VS_CROSS, 40, 16, 0)
    return model, ds, model.params(), []


@pytest.mark.parametrize("step", ["weight", "alpha", "integrated"])
def test_backward_releases_interior_nodes_and_keeps_leaf_gradients(step):
    """Each leaf gradient is the bytes of the loop that released nothing;
    afterwards every interior node of the tape has no gradient and no
    parents, every leaf keeps its gradient, and a second backward raises."""
    model, ds, stepped, fixed = (_integrated_step() if step == "integrated"
                                 else _search_step(step))
    x = Var(ds.images[:16], requires_grad=False)
    grads = []
    for backward in (reference_backward, Var.backward):
        for v in stepped:
            v.zero_grad()
        with frozen(fixed):
            loss = softmax_cross_entropy(model(x), ds.labels[:16])
            nodes = tape(loss)
            interior = [v for v in nodes if v.parents]
            leaves = [v for v in nodes if not v.parents]
            backward(loss)
        grads.append([v.grad.tobytes() for v in stepped])
    assert grads[0] == grads[1]
    for v in interior:
        assert v.grad is None and v.parents == ()
    assert interior and leaves
    assert all(v.grad is not None for v in leaves)
    with pytest.raises(RuntimeError, match="already ran"):
        loss.backward()


def test_weight_phase_peak_memory_is_bounded():
    """One search_darts weight phase peaks at 74.3 MB under tracemalloc
    when backward() keeps the whole graph to its end, 47.2 MB when it
    releases each node once it has run, 28.6 MB when also an edge's
    separable convs share one relu value and one padded copy of it, and
    29.0 MB when the depthwise weight gradient is one product per channel
    against a copy of all K kernel rows' input rows."""
    ds = gen_synthetic(SynthKind.PLANTED_CIRCULAR, 24, 16, 0)
    net = SearchNetwork(_DARTS, 1, 2)
    opt = SGD(net.params(), 0.9, 0.0)
    tracemalloc.start()
    try:
        with frozen(net.arch_params()):
            backprop(net, ds, np.arange(16), (opt,), "weight phase")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 34e6
