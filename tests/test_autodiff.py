import numpy as np
import pytest

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


def test_add_mul_backward():
    a = Var(np.array([1.0, 2.0]))
    b = Var(np.array([3.0, 4.0]))
    out = mean_all(mul(add(a, b), b))
    out.backward()
    # d/da mean((a+b)*b) = b/2 ; d/db = (a+2b)/2
    assert np.allclose(a.grad, [1.5, 2.0])
    assert np.allclose(b.grad, [3.5, 5.0])


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
