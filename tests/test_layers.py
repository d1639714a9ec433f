import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    direct_circular_conv,
    direct_square_conv,
    reference_extract_patches,
    reference_scatter_patches,
)
from orbiconv.autodiff import Var
from orbiconv.gradcheck import run_all_layer_checks
from orbiconv.geometry import Mode, circular_points
from orbiconv.layers import (
    Conv2d,
    avg_pool2d,
    conv2d,
    extract_patches,
    max_pool2d,
    scatter_patches,
    softmax_cross_entropy,
)
from orbiconv.transform import build_transform


def _const_var(arr):
    return Var(np.asarray(arr, dtype=np.float64), requires_grad=False)


def test_all_ones_square_conv():
    x = _const_var(np.ones((1, 1, 3, 3)))
    w = _const_var(np.ones((1, 1, 3, 3)))
    out = conv2d(x, w, None)
    assert out.data.shape == (1, 1, 1, 1)
    assert out.data[0, 0, 0, 0] == pytest.approx(9.0)


def test_all_ones_circular_conv_row_stochastic():
    b = build_transform(circular_points(3))
    x = _const_var(np.ones((1, 1, 3, 3)))
    w = _const_var(np.ones((1, 1, 3, 3)))
    out = conv2d(x, w, None, transform=b)
    assert out.data[0, 0, 0, 0] == pytest.approx(9.0, abs=1e-12)


@pytest.mark.parametrize("k,d", [(1, 1), (3, 1), (5, 1), (7, 1), (3, 2)])
def test_circular_conv_matches_direct_sampling_oracle(k, d):
    rng = np.random.default_rng(k * 10 + d)
    b = build_transform(circular_points(k, d))
    size = d * (k - 1) + 4
    img = rng.standard_normal((size, size))
    w = rng.standard_normal((k, k))
    out = conv2d(_const_var(img[None, None]), _const_var(w[None, None]), None,
                 transform=b, dilation=d).data[0, 0]
    oracle = direct_circular_conv(img, w, k, d)
    assert np.abs(out - oracle).max() < 1e-10


def test_square_conv_matches_naive_oracle():
    rng = np.random.default_rng(7)
    img = rng.standard_normal((9, 9))
    w = rng.standard_normal((3, 3))
    out = conv2d(_const_var(img[None, None]), _const_var(w[None, None]),
                 None).data[0, 0]
    assert np.abs(out - direct_square_conv(img, w, 3)).max() < 1e-12


def test_output_dims_and_stride():
    x = _const_var(np.zeros((2, 3, 8, 8)))
    w = _const_var(np.zeros((4, 3, 3, 3)))
    out = conv2d(x, w, None, stride=2, padding=1)
    assert out.data.shape == (2, 4, 4, 4)


def test_channel_mismatch_raises():
    x = _const_var(np.zeros((1, 2, 4, 4)))
    w = _const_var(np.zeros((1, 3, 3, 3)))
    with pytest.raises(ValueError):
        conv2d(x, w, None)


def test_zero_sized_output_raises():
    x = _const_var(np.zeros((1, 1, 2, 2)))
    w = _const_var(np.zeros((1, 1, 3, 3)))
    with pytest.raises(ValueError):
        conv2d(x, w, None)


def test_even_kernel_rejected():
    with pytest.raises(ValueError):
        Conv2d(1, 1, 4)


def test_square_mode_identity_transform_is_plain_conv():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((1, 2, 6, 6))
    layer = Conv2d(2, 3, 3, padding=1, mode=Mode.SQUARE,
                   rng=rng, dtype=np.float64)
    out1 = layer(Var(x, requires_grad=False)).data
    out2 = conv2d(Var(x, requires_grad=False), layer.weights, layer.bias,
                  padding=1, transform=None).data
    assert np.array_equal(out1, out2)


def test_separable_equals_explicit_composition():
    rng = np.random.default_rng(12)
    dw = Conv2d(2, 2, 3, padding=1, depthwise=True, bias=False,
                mode=Mode.CIRCULAR, rng=rng, dtype=np.float64)
    pw = Conv2d(2, 3, 1, bias=False, rng=rng, dtype=np.float64)
    x = Var(rng.standard_normal((1, 2, 5, 5)), requires_grad=False)
    composed = pw(dw(x)).data
    mid = dw(x)
    explicit = pw(Var(mid.data, requires_grad=False)).data
    assert np.array_equal(composed, explicit)


def test_separable_k1_identity_mixing():
    x = Var(np.random.default_rng(13).standard_normal((1, 2, 4, 4)),
            requires_grad=False)
    dw = Conv2d(2, 2, 1, depthwise=True, bias=False, dtype=np.float64)
    dw.weights.data = np.ones((2, 1, 1, 1))
    pw = Conv2d(2, 2, 1, bias=False, dtype=np.float64)
    pw.weights.data = np.eye(2).reshape(2, 2, 1, 1)
    assert np.allclose(pw(dw(x)).data, x.data)


def test_depthwise_constant_input_circular():
    b = build_transform(circular_points(3))
    x = _const_var(np.full((1, 2, 5, 5), 2.0))
    w = np.random.default_rng(14).standard_normal((2, 1, 3, 3))
    out = conv2d(x, _const_var(w), None, padding=0, transform=b,
                 depthwise=True).data
    for c in range(2):
        assert np.allclose(out[0, c], 2.0 * w[c].sum(), atol=1e-12)


def test_max_pool_values():
    x = _const_var(np.arange(16.0).reshape(1, 1, 4, 4))
    out = max_pool2d(x, 3, 1, 1)
    assert out.data[0, 0, 0, 0] == 5.0
    assert out.data[0, 0, 3, 3] == 15.0


def test_avg_pool_constant():
    x = _const_var(np.full((1, 1, 4, 4), 3.0))
    out = avg_pool2d(x, 3, 1, 0)
    assert np.allclose(out.data, 3.0)


def test_softmax_cross_entropy_uniform():
    logits = Var(np.zeros((4, 3)))
    loss = softmax_cross_entropy(logits, np.array([0, 1, 2, 0]))
    assert float(loss.data) == pytest.approx(np.log(3.0))


def test_all_layer_gradient_checks():
    assert run_all_layer_checks(seed=0) == []


def test_zero_grad_out_gives_zero_grads():
    rng = np.random.default_rng(15)
    layer = Conv2d(1, 1, 3, padding=1, rng=rng, dtype=np.float64)
    x = Var(rng.standard_normal((1, 1, 4, 4)))
    out = layer(x)
    out.backward(np.zeros_like(out.data))
    assert np.allclose(layer.weights.grad, 0.0)
    assert np.allclose(x.grad, 0.0)


def test_k1_identity_kernel_passes_grad_through():
    x = Var(np.random.default_rng(16).standard_normal((1, 1, 4, 4)))
    w = Var(np.ones((1, 1, 1, 1)), requires_grad=False)
    out = conv2d(x, w, None)
    g = np.random.default_rng(17).standard_normal(out.data.shape)
    out.backward(g)
    assert np.array_equal(x.grad, g)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 3), c=st.integers(1, 3), h=st.integers(1, 12),
       w=st.integers(1, 12), k=st.sampled_from([1, 3, 5, 7]),
       stride=st.integers(1, 3), dil=st.integers(1, 3), pad=st.integers(0, 4),
       dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2**32 - 1))
@example(n=1, c=1, h=5, w=5, k=5, stride=1, dil=1, pad=0,
         dtype=np.float32, seed=0)  # a single output pixel
@example(n=2, c=3, h=12, w=11, k=3, stride=2, dil=3, pad=4,
         dtype=np.float32, seed=1)  # stride and dilation both above 1
@example(n=1, c=2, h=2, w=9, k=3, stride=1, dil=1, pad=0,
         dtype=np.float64, seed=2)  # zero output rows
def test_patch_engine_matches_reference_bytes(n, c, h, w, k, stride, dil, pad,
                                              dtype, seed):
    """im2col and col2im give the reference's bytes, raise where it raises,
    and are adjoint: <extract(x), g> = <x, scatter(g)>."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, c, h, w)).astype(dtype)
    args = (k, stride, pad, dil)
    try:
        ref = reference_extract_patches(x, *args)
    except ValueError:
        with pytest.raises(ValueError, match="zero-sized output"):
            extract_patches(x, *args)
        g = np.zeros((n, c, k * k, 0), dtype=dtype)
        for scatter in (reference_scatter_patches, scatter_patches):
            with pytest.raises(ValueError, match="zero-sized output"):
                scatter(g, x.shape, *args)
        return
    for pad_value in (0.0, -np.inf):
        got = extract_patches(x, *args, pad_value)
        assert got.shape == ref.shape
        assert got.tobytes() == reference_extract_patches(
            x, *args, pad_value).tobytes()
    g = rng.standard_normal(ref.shape).astype(dtype)
    gx = scatter_patches(g, x.shape, *args)
    assert gx.shape == x.shape and gx.dtype == dtype
    assert gx.tobytes() == reference_scatter_patches(g, x.shape, *args).tobytes()
    if dtype is np.float64:
        lhs, rhs = np.sum(ref * g), np.sum(x * gx)
        assert abs(lhs - rhs) <= 1e-12 * max(np.sum(np.abs(ref * g)), 1e-300)
