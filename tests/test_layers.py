import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    circular_kernel,
    direct_circular_conv,
    direct_square_conv,
    nan_as_one,
    reference_conv2d,
    reference_dense_conv2d,
    reference_extract_patches,
    reference_scatter_patches,
)
from orbiconv import layers
from orbiconv.autodiff import Var, frozen
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
from orbiconv.nas import make_op
from orbiconv.transform import (
    build_transform,
    circular_transform,
    reparameterize,
)


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
    out = conv2d(x, circular_kernel(w, b), None)
    assert out.data[0, 0, 0, 0] == pytest.approx(9.0, abs=1e-12)


@pytest.mark.parametrize("k,d", [(1, 1), (3, 1), (5, 1), (7, 1), (3, 2)])
def test_circular_conv_matches_direct_sampling_oracle(k, d):
    rng = np.random.default_rng(k * 10 + d)
    b = build_transform(circular_points(k, d))
    size = d * (k - 1) + 4
    img = rng.standard_normal((size, size))
    w = rng.standard_normal((k, k))
    out = conv2d(_const_var(img[None, None]),
                 circular_kernel(_const_var(w[None, None]), b), None,
                 dilation=d).data[0, 0]
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
                  padding=1).data
    assert np.array_equal(out1, out2)


@pytest.mark.parametrize("depthwise", [False, True])
def test_circular_conv_reparameterizes_once_per_weight_version(monkeypatch,
                                                               depthwise):
    """A circular Conv2d reuses B^T w while its weights hold the same
    bytes, and computes it again after an in-place write or on a new weights
    array, in a deep copy too; every output and weight gradient has the
    bytes of the kernel op on B^T w computed afresh."""
    calls = []

    def counted(w, b):
        calls.append(b)
        return reparameterize(w, b)

    monkeypatch.setattr(layers, "reparameterize", counted)
    rng = np.random.default_rng(3)
    x = Var(rng.standard_normal((2, 3, 7, 7)).astype(np.float32),
            requires_grad=False)
    g = rng.standard_normal((2, 3, 7, 7)).astype(np.float32)

    def check(layer, new_versions):
        before = len(calls)
        out = layer(x)
        assert len(calls) - before == new_versions
        layer.weights.zero_grad()
        out.backward(g)
        got = out.data.tobytes(), layer.weights.grad.tobytes()
        layer.weights.zero_grad()
        out = conv2d(x, circular_kernel(layer.weights, layer.transform),
                     layer.bias, padding=2, depthwise=depthwise)
        out.backward(g)
        assert got == (out.data.tobytes(), layer.weights.grad.tobytes())

    layer = Conv2d(3, 3, 5, padding=2, mode=Mode.CIRCULAR,
                   depthwise=depthwise, rng=rng)
    check(layer, 1)
    check(layer, 0)
    layer.weights.data[0, 0, 1, 2] += 1.0
    check(layer, 1)
    layer.weights.data = layer.weights.data * np.float32(0.5)
    check(layer, 1)
    layer.weights.data = layer.weights.data.copy()  # the same bytes
    check(layer, 0)
    clone = copy.deepcopy(layer)
    check(clone, 0)
    clone.weights.data[-1, 0, 4, 4] -= 1.0
    check(clone, 1)
    check(layer, 0)


def test_square_kernel_is_the_weights():
    layer = Conv2d(2, 3, 3, mode=Mode.SQUARE)
    assert layer.kernel() is layer.weights


def test_circular_kernel_keeps_no_graph_when_frozen():
    """Under `frozen` the kernel op is a constant: no parents, no backward;
    outside it, its one parent is the weights."""
    layer = Conv2d(2, 3, 5, mode=Mode.CIRCULAR)
    with frozen(layer.params()):
        kernel = layer.kernel()
    assert kernel.parents == () and kernel.backward_fn is None
    assert not kernel.requires_grad
    live = layer.kernel()
    assert live.parents == (layer.weights,) and live.backward_fn is not None
    assert live.data.shape == layer.weights.data.shape


def test_circular_layers_share_one_transform_per_extent():
    """Circular layers of one (K, dilation) share one read-only transform,
    its product plans included; another dilation gets its own."""
    a = Conv2d(2, 3, 5, mode=Mode.CIRCULAR)
    b = Conv2d(4, 4, 5, padding=2, mode=Mode.CIRCULAR, depthwise=True)
    d2 = Conv2d(2, 3, 5, dilation=2, mode=Mode.CIRCULAR)
    assert a.transform is b.transform
    assert a.transform == build_transform(circular_points(5))
    assert d2.transform is not a.transform
    assert d2.transform == build_transform(circular_points(5, 2))
    plans = [arr for plan in a.transform.plans
             for arr in (plan.source, plan.coeff, plan.order)]
    assert not any(arr.flags.writeable
                   for arr in (*a.transform.nonzeros, *plans))
    for arr in (a.transform.nonzeros[2], a.transform.plans[1].coeff):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


@pytest.mark.parametrize("name, d", [("circ_sep_conv_5x5", 1),
                                     ("circ_dil_conv_5x5", 2)])
def test_circular_ops_hold_the_shared_transform(name, d):
    """A circular search op's depthwise layer holds `circular_transform`'s
    own object for its (K, dilation)."""
    op = make_op(name, 2, 1, np.random.default_rng(0))
    assert op.depthwise.transform is circular_transform(5, d)


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
    out = conv2d(x, circular_kernel(_const_var(w), b), None, padding=0,
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


# memory orders of an (N, C, H, W) input, outer axis first
_LAYOUTS = {"nchw": (0, 1, 2, 3), "hwnc": (2, 3, 0, 1), "chwn": (1, 2, 3, 0)}


def _laid_out(x, layout):
    order = _LAYOUTS[layout]
    return np.ascontiguousarray(x.transpose(order)).transpose(np.argsort(order))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 3), c=st.integers(1, 3), h=st.integers(1, 12),
       w=st.integers(1, 12), k=st.sampled_from([1, 3, 5, 7]),
       stride=st.integers(1, 3), dil=st.integers(1, 3), pad=st.integers(0, 4),
       dtype=st.sampled_from([np.float32, np.float64]),
       layout=st.sampled_from(list(_LAYOUTS)), seed=st.integers(0, 2**32 - 1))
@example(n=1, c=1, h=5, w=5, k=5, stride=1, dil=1, pad=0,
         dtype=np.float32, layout="nchw", seed=0)  # a single output pixel
@example(n=2, c=3, h=12, w=11, k=3, stride=2, dil=3, pad=4,
         dtype=np.float32, layout="nchw",
         seed=1)  # stride and dilation both above 1
@example(n=1, c=2, h=2, w=9, k=3, stride=1, dil=1, pad=0,
         dtype=np.float64, layout="nchw", seed=2)  # zero output rows
@example(n=3, c=2, h=6, w=6, k=1, stride=1, dil=1, pad=0,
         dtype=np.float64, layout="chwn", seed=3)  # batch innermost
@example(n=2, c=2, h=9, w=10, k=3, stride=2, dil=2, pad=1,
         dtype=np.float32, layout="hwnc", seed=4)  # padded, stride 2
@example(n=1, c=3, h=11, w=8, k=5, stride=3, dil=2, pad=3,
         dtype=np.float64, layout="nchw", seed=5)  # padded, stride 3
@example(n=2, c=1, h=5, w=4, k=7, stride=1, dil=2, pad=6,
         dtype=np.float32, layout="chwn", seed=6)  # slots of only padding
def test_patch_engine_matches_reference_bytes(n, c, h, w, k, stride, dil, pad,
                                              dtype, layout, seed):
    """im2col and col2im give the reference's bytes, raise where it raises,
    and are adjoint: <extract(x), g> = <x, scatter(g)>. im2col returns C-order
    patches, whatever the input's memory layout, also where a kernel column
    reads only padding (K=7, dilation 2, pad 6 on W=4)."""
    rng = np.random.default_rng(seed)
    x = _laid_out(rng.standard_normal((n, c, h, w)).astype(dtype), layout)
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
    got = extract_patches(x, *args)
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()
    assert got.flags.c_contiguous
    g = rng.standard_normal(ref.shape).astype(dtype)
    gx = scatter_patches(g, x.shape, *args)
    assert gx.shape == x.shape and gx.dtype == dtype
    assert gx.tobytes() == reference_scatter_patches(g, x.shape, *args).tobytes()
    if dtype is np.float64:
        lhs, rhs = np.sum(ref * g), np.sum(x * gx)
        assert abs(lhs - rhs) <= 1e-12 * max(np.sum(np.abs(ref * g)), 1e-300)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("values", ["nan", "inf", "all"])
@pytest.mark.parametrize("k, stride, dil, pad", [
    (1, 1, 1, 0), (3, 1, 1, 0), (3, 1, 1, 1), (5, 1, 1, 2), (3, 2, 2, 3),
    (5, 3, 2, 2), (7, 1, 2, 6)])
def test_patch_engine_keeps_special_value_bytes(k, stride, dil, pad, values,
                                                dtype):
    """NaN, +-inf and -0.0 in the input and in the patch gradients come
    through im2col and col2im with the reference's bytes: the copies move
    them as they are, and col2im adds each pixel's slots in the reference's
    order from a zero start (inf + -inf gives the same NaN, -0.0 alone
    becomes +0.0). Which NaN a sum of two NaNs of opposite sign returns is
    not fixed (numpy's add loops differ; np.add.at and a strided add
    disagree), so with both NaN and -inf among the gradients col2im is
    held to the reference's bytes with every NaN read as one."""
    rng = np.random.default_rng(k + 10 * stride + 100 * pad)
    pool = {"nan": [np.nan, np.inf], "inf": [np.inf, -np.inf],
            "all": [np.nan, np.inf, -np.inf]}[values]
    pool = np.array(pool + [-0.0, 0.0, 1.5], dtype)
    x = rng.choice(pool, (2, 3, 7, 6))
    args = (k, stride, pad, dil)
    ref = reference_extract_patches(x, *args)
    assert extract_patches(x, *args).tobytes() == ref.tobytes()
    g = rng.choice(pool, ref.shape)
    with np.errstate(invalid="ignore"):  # inf + -inf
        got = scatter_patches(g, x.shape, *args)
        want = reference_scatter_patches(g, x.shape, *args)
    if values == "all":
        got, want = nan_as_one(got), nan_as_one(want)
    assert got.tobytes() == want.tobytes()


def test_pointwise_dense_conv_skips_col2im(monkeypatch):
    """A 1x1, stride-1, unpadded dense conv runs neither im2col nor col2im
    in either pass: it hands its input gradient to `accumulate`, and x.grad
    keeps the bytes of the col2im path, also when added onto a gradient x
    already holds. The output gradient's -0.0 entries give -0.0 input
    gradients (the weights are positive), which col2im's zero start turned
    into +0.0."""
    def must_not_run(*args, **kwargs):
        raise AssertionError("a 1x1 conv used the patch engine")

    for name in ("extract_patches", "scatter_patches"):
        monkeypatch.setattr(layers, name, must_not_run)
    rng = np.random.default_rng(1)
    n, c, cout, h, w = 2, 4, 3, 5, 6
    x_data = rng.standard_normal((n, c, h, w)).astype(np.float32)
    wt = Var(rng.uniform(0.5, 1.5, (cout, c, 1, 1)).astype(np.float32))
    g = rng.standard_normal((n, cout, h, w)).astype(np.float32)
    g[:, :, 0] = -0.0
    g[0, 0, 1, :3] = [np.nan, np.inf, -np.inf]
    prior = rng.choice(np.array([-0.0, 0.0, 2.0, np.inf], np.float32),
                       x_data.shape)
    col = reference_scatter_patches(wt.data.reshape(cout, c).T
                                    @ g.reshape(n, cout, -1),
                                    x_data.shape, 1, 1, 0, 1)
    zero = np.float32(0)
    with np.errstate(invalid="ignore"):  # inf + -inf
        for start, expected in ((None, zero + col),
                                (prior, (zero + prior) + col)):
            x = Var(x_data.copy())
            if start is not None:
                x.accumulate(start)
            conv2d(x, wt, None).backward(g)
            assert x.grad.tobytes() == expected.tobytes()
    assert np.signbit(x.grad[:, :, 0]).sum() == 0


def _reference_pool(kind, x, g, k, stride, pad):
    """(output, input gradient) of a max or avg pool over the fancy-index
    im2col and scatter-add col2im references, for the output gradient g."""
    n, c = x.shape[:2]
    if kind == "max":
        p = reference_extract_patches(x, k, stride, pad, 1, -np.inf)
        arg = p.argmax(axis=2)[:, :, None, :]
        out = np.take_along_axis(p, arg, axis=2)[:, :, 0, :]
        gp = np.zeros_like(p)
        np.put_along_axis(gp, arg, g.reshape(n, c, 1, -1), axis=2)
    else:
        p = reference_extract_patches(x, k, stride, pad, 1)
        # the slots summed in order from a zero start, over K*K: numpy's
        # `p.mean(axis=2)` sums pairwise when N*C*OH*OW is 1
        out = np.zeros_like(p[:, :, 0])
        for slot in range(k * k):
            out += p[:, :, slot]
        out /= k * k
        gp = np.broadcast_to(g.reshape(n, c, 1, -1) / (k * k), p.shape)
    return (out.reshape(g.shape),
            reference_scatter_patches(gp, x.shape, k, stride, pad, 1))


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["max", "avg"]), n=st.integers(1, 3),
       c=st.integers(1, 3), h=st.integers(1, 12), w=st.integers(1, 12),
       k=st.sampled_from([1, 3, 5]), stride=st.integers(1, 3),
       pad=st.integers(0, 3), dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2**32 - 1),
       fill=st.sampled_from(["normal", "signed_zeros", "nan"]))
@example(kind="avg", n=2, c=3, h=3, w=3, k=3, stride=1, pad=0,
         dtype=np.float32, seed=0,
         fill="normal")  # one output pixel per channel
@example(kind="avg", n=1, c=1, h=5, w=5, k=5, stride=1, pad=0,
         dtype=np.float32, seed=0, fill="normal")  # one output pixel in all
@example(kind="max", n=1, c=2, h=4, w=4, k=3, stride=1, pad=1,
         dtype=np.float64, seed=1, fill="normal")  # ties, and -inf borders
# windows of -0.0 and +0.0 in both orders: the max pool keeps, and routes
# the gradient to, the first slot of a tie
@example(kind="max", n=2, c=2, h=6, w=6, k=3, stride=1, pad=1,
         dtype=np.float32, seed=2, fill="signed_zeros")
@example(kind="max", n=2, c=2, h=7, w=7, k=3, stride=2, pad=1,
         dtype=np.float64, seed=3, fill="signed_zeros")
@example(kind="max", n=2, c=2, h=7, w=7, k=3, stride=2, pad=0,
         dtype=np.float32, seed=4, fill="signed_zeros")
@example(kind="max", n=2, c=2, h=6, w=6, k=3, stride=1, pad=0,
         dtype=np.float64, seed=5, fill="signed_zeros")
# a NaN in a window gives NaN out, and its first NaN takes the gradient
@example(kind="max", n=1, c=2, h=5, w=5, k=3, stride=1, pad=1,
         dtype=np.float32, seed=6, fill="nan")
@example(kind="max", n=1, c=2, h=5, w=5, k=3, stride=2, pad=1,
         dtype=np.float64, seed=7, fill="nan")
# channels-last window rows of one element (N*C = 1), and odd extents at
# stride 2
@example(kind="max", n=1, c=1, h=6, w=7, k=3, stride=2, pad=1,
         dtype=np.float32, seed=8, fill="normal")
@example(kind="avg", n=2, c=3, h=9, w=7, k=3, stride=2, pad=1,
         dtype=np.float64, seed=9, fill="normal")
def test_pools_match_reference_bytes(kind, n, c, h, w, k, stride, pad, dtype,
                                     seed, fill):
    """max_pool2d and avg_pool2d give, forward and backward, the bytes of the
    same ops over the fancy-index im2col and scatter-add col2im references,
    whatever the input's memory layout."""
    rng = np.random.default_rng(seed)
    x_data = rng.standard_normal((n, c, h, w)).astype(dtype)
    if seed % 2:
        x_data = np.round(x_data)  # ties: max pool picks the first slot
    if fill == "signed_zeros":
        x_data = np.copysign(0, x_data)  # every window a tie of +-0.0
    elif fill == "nan":
        x_data.flat[rng.integers(x_data.size)] = np.nan
    pool = max_pool2d if kind == "max" else avg_pool2d
    try:
        out_shape = pool(Var(x_data), k, stride, pad).data.shape
    except ValueError as err:
        assert "zero-sized output" in str(err)
        with pytest.raises(ValueError, match="zero-sized output"):
            _reference_pool(kind, x_data, np.zeros((n, c, 1, 1), dtype), k,
                            stride, pad)
        return
    g = rng.standard_normal(out_shape).astype(dtype)
    runs = []
    for layout in _LAYOUTS:
        xl = _laid_out(x_data, layout)
        x = Var(xl.copy(order="K"))
        out = pool(x, k, stride, pad)
        out.backward(g)
        runs.append([out.data.tobytes(), x.grad.tobytes()])
        ref = _reference_pool(kind, xl, g, k, stride, pad)
        for a, b in zip(ref, (out.data, x.grad)):
            assert a.dtype == b.dtype and a.shape == b.shape
        assert ref[1].tobytes() == x.grad.tobytes()
        assert ref[0].tobytes() == out.data.tobytes()
    assert runs[1:] == runs[:1] * 2


@pytest.mark.parametrize("pool", [max_pool2d, avg_pool2d])
def test_pools_copy_no_patches(monkeypatch, pool):
    """Both pools run forward and backward on tap windows alone: no im2col
    patch copy and no col2im scatter."""
    def must_not_run(*args, **kwargs):
        raise AssertionError("a pool used the im2col engine")

    for name in ("extract_patches", "scatter_patches"):
        monkeypatch.setattr(layers, name, must_not_run)
    x = Var(np.random.default_rng(0).standard_normal((2, 3, 7, 7)))
    out = pool(x, 3, 2, 1)
    out.backward(np.ones_like(out.data))
    assert x.grad.shape == x.data.shape and np.all(np.isfinite(x.grad))


def _conv3x3(depthwise):
    def run(x, **kwargs):
        c = x.data.shape[1]
        wt = Var(np.ones((c, 1 if depthwise else c, 3, 3)))
        return conv2d(x, wt, None, depthwise=depthwise, **kwargs)
    return run


_SHAPE_OPS = {"dense": _conv3x3(False), "depthwise": _conv3x3(True),
              "max_pool2d": max_pool2d, "avg_pool2d": avg_pool2d}
_BAD_ARGS = [("stride", 0), ("stride", -1), ("padding", -1), ("dilation", 0),
             ("dilation", -2)]


@pytest.mark.parametrize("op, name, value", [
    (op, name, value) for op in _SHAPE_OPS for name, value in _BAD_ARGS
    if name != "dilation" or op in ("dense", "depthwise")])
def test_bad_stride_padding_or_dilation_raises_naming_it(op, name, value):
    """A stride or dilation below 1 or a negative padding is rejected by
    name, where it used to divide by zero, fail to broadcast or (dilation 0)
    read one pixel for every tap."""
    x = Var(np.ones((1, 2, 8, 8)))
    with pytest.raises(ValueError, match=f"^{name} must be at least"):
        _SHAPE_OPS[op](x, **{name: value})


def _conv_and_grads(conv, x_data, w_data, seed, absolute=False, **kwargs):
    """(output, weight gradient, input gradient) of one conv call, backward
    seeded with a fixed random gradient; the error message if it raises.
    With `absolute`, the input, the weights and that gradient are |.|."""
    f = np.abs if absolute else np.asarray
    x, wt = Var(f(x_data).copy(order="K")), Var(f(w_data).copy())
    try:
        out = conv(x, wt, **kwargs)
    except ValueError as err:
        return str(err)
    g = np.random.default_rng(seed).standard_normal(out.data.shape)
    out.backward(f(g).astype(out.data.dtype))
    return out.data, wt.grad, x.grad


def _check_conv(n, cin, cout, h, w, k, stride, dil, pad, dtypes, circular,
                depthwise, seed):
    """`conv2d` agrees with its einsum reference on the output, the weight
    gradient and the input gradient, to a rounding error bounded by the same
    sums over absolute values, and its bytes do not depend on the input's
    memory layout."""
    rng = np.random.default_rng(seed)
    x_dtype, w_dtype = dtypes
    x_data = rng.standard_normal((n, cin, h, w)).astype(x_dtype)
    w_data = rng.standard_normal(
        (cout, 1 if depthwise else cin, k, k)).astype(w_dtype)
    transform = (build_transform(circular_points(k, dil))
                 if circular and k > 1 else None)
    kwargs = dict(stride=stride, padding=pad, dilation=dil, transform=transform)
    reference = reference_conv2d if depthwise else reference_dense_conv2d

    def conv(x, wt, transform, **kw):
        return conv2d(x, circular_kernel(wt, transform), None,
                      depthwise=depthwise, **kw)

    ref = _conv_and_grads(reference, x_data, w_data, seed + 1, **kwargs)
    got = _conv_and_grads(conv, x_data, w_data, seed + 1, **kwargs)
    if isinstance(ref, str):
        assert got == ref and "zero-sized output" in ref
        return None, None
    # each value's rounding error is within a few ulps of the sum of the
    # absolute values of its terms, which the reference gives on |x|, |w|
    # and |g| (B has nonnegative entries, so |B^T w| <= B^T |w|)
    bound = _conv_and_grads(reference, x_data, w_data, seed + 1,
                            absolute=True, **kwargs)
    for a, b, c in zip(ref, got, bound):
        assert a.dtype == b.dtype and a.shape == b.shape
        rtol = 1e-5 if b.dtype == np.float32 else 1e-12
        assert np.all(np.abs(b - a) <= rtol * np.abs(c))
    for layout in ("hwnc", "chwn"):
        other = _conv_and_grads(conv, _laid_out(x_data, layout), w_data,
                                seed + 1, **kwargs)
        assert [a.tobytes() for a in other] == [b.tobytes() for b in got]
    return ref, got


@pytest.mark.parametrize("dtypes", [(np.float32, np.float32),
                                    (np.float64, np.float64),
                                    (np.float32, np.float64)],
                         ids=["f32", "f64", "f32-f64"])
@pytest.mark.parametrize("stride, pad, dil", [(1, 1, 1), (2, 1, 1),
                                              (1, 4, 2), (2, 2, 2)])
def test_unpadded_depthwise_conv_of_a_padded_input_is_the_padded_conv(
        dtypes, stride, pad, dil):
    """An unpadded depthwise conv of a zero-padded input, as a separable
    conv runs on its `_padded_relus` node, gives the bytes of the conv that
    pads itself: the output, the weight gradient and, on the interior, the
    input gradient, also when a float32 input meets float64 weights."""
    rng = np.random.default_rng(stride + pad)
    x_data = rng.standard_normal((2, 3, 6, 5)).astype(dtypes[0])
    x_data.flat[[1, 7, 20]] = [-0.0, np.inf, -np.inf]
    w_data = rng.standard_normal((3, 1, 3, 3)).astype(dtypes[1])

    def run(x_in, padding):
        x, wt = Var(x_in.copy()), Var(w_data.copy())
        with np.errstate(invalid="ignore"):  # 0 * inf
            out = conv2d(x, wt, None, stride=stride, padding=padding,
                         dilation=dil, depthwise=True)
            out.backward(np.random.default_rng(0).standard_normal(
                out.data.shape).astype(out.data.dtype))
        return out.data, wt.grad, x.grad

    out, g_w, g_x = run(x_data, pad)
    out_p, g_w_p, g_xp = run(layers._pad(x_data, pad), 0)
    assert out_p.tobytes() == out.tobytes()
    assert g_w_p.tobytes() == g_w.tobytes()
    assert np.ascontiguousarray(
        g_xp[:, :, pad:-pad, pad:-pad]).tobytes() == g_x.tobytes()


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 3), cin=st.integers(1, 3), cout=st.integers(1, 4),
       h=st.integers(1, 12), w=st.integers(1, 12),
       k=st.sampled_from([1, 3, 5, 7]), stride=st.integers(1, 3),
       dil=st.integers(1, 3), pad=st.integers(0, 4),
       dtypes=st.sampled_from([(np.float32, np.float32),
                               (np.float64, np.float64),
                               (np.float64, np.float32)]),
       circular=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(n=2, cin=3, cout=2, h=4, w=5, k=1, stride=1, dil=1, pad=2,
         dtypes=(np.float32, np.float32), circular=False,
         seed=3)  # K = 1 with padding
@example(n=1, cin=1, cout=1, h=5, w=5, k=5, stride=1, dil=1, pad=0,
         dtypes=(np.float64, np.float32), circular=True,
         seed=4)  # one output element, float64 input on float32 weights
@example(n=2, cin=3, cout=4, h=12, w=11, k=3, stride=2, dil=3, pad=4,
         dtypes=(np.float32, np.float32), circular=True,
         seed=5)  # stride and dilation both above 1
@example(n=1, cin=2, cout=2, h=2, w=9, k=3, stride=1, dil=1, pad=0,
         dtypes=(np.float64, np.float64), circular=False,
         seed=6)  # zero output rows
def test_dense_conv_matches_einsum_reference(n, cin, cout, h, w, k, stride,
                                             dil, pad, dtypes, circular, seed):
    """Dense convs agree with the einsum reference to a rounding bound, on
    the output and both gradients, whatever the input's memory layout."""
    _check_conv(n, cin, cout, h, w, k, stride, dil, pad, dtypes, circular,
                False, seed)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 3), c=st.integers(1, 3), h=st.integers(1, 12),
       w=st.integers(1, 12), k=st.sampled_from([1, 3, 5, 7]),
       stride=st.integers(1, 3), dil=st.integers(1, 3), pad=st.integers(0, 4),
       dtypes=st.sampled_from([(np.float32, np.float32),
                               (np.float64, np.float64),
                               (np.float64, np.float32)]),
       circular=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(n=2, c=3, h=4, w=5, k=1, stride=1, dil=1, pad=2,
         dtypes=(np.float32, np.float32), circular=False,
         seed=3)  # K = 1 with padding
@example(n=3, c=2, h=5, w=4, k=1, stride=2, dil=1, pad=1,
         dtypes=(np.float64, np.float64), circular=False,
         seed=7)  # K = 1 at stride 2: a band of one diagonal
@example(n=1, c=1, h=5, w=5, k=5, stride=1, dil=1, pad=0,
         dtypes=(np.float64, np.float32), circular=True,
         seed=4)  # one output element, float64 input on float32 weights
@example(n=2, c=3, h=9, w=8, k=5, stride=1, dil=1, pad=2,
         dtypes=(np.float64, np.float32), circular=True,
         seed=8)  # float64 input on float32 weights, many outputs
@example(n=2, c=3, h=12, w=11, k=3, stride=2, dil=3, pad=4,
         dtypes=(np.float32, np.float32), circular=True,
         seed=5)  # stride and dilation both above 1
@example(n=2, c=3, h=12, w=12, k=5, stride=2, dil=2, pad=4,
         dtypes=(np.float32, np.float32), circular=True,
         seed=9)  # the reduction cell's dil_conv_5x5
@example(n=2, c=2, h=5, w=6, k=3, stride=1, dil=2, pad=6,
         dtypes=(np.float32, np.float32), circular=False,
         seed=10)  # pad > d*(K-1): outer outputs read only zero borders
@example(n=3, c=2, h=7, w=6, k=3, stride=1, dil=1, pad=0,
         dtypes=(np.float32, np.float32), circular=False,
         seed=6)  # unpadded input, checked with the batch innermost too
def test_depthwise_conv_matches_reference_bytes(n, c, h, w, k, stride, dil,
                                                pad, dtypes, circular, seed):
    """The depthwise conv agrees with the im2col reference to a rounding
    bound, on the output and both gradients, and its bytes do not depend on
    the input's memory layout. Each value comes from BLAS products with the
    band and the row adjoint, which add the K*K taps (and exact zeros) in
    another order than the reference, so no value is held to its bytes."""
    _check_conv(n, c, c, h, w, k, stride, dil, pad, dtypes, circular, True,
                seed)


@pytest.mark.parametrize("stride", [1, 2])
def test_depthwise_conv_builds_no_patches(monkeypatch, stride):
    """A depthwise conv runs forward and backward on band products alone:
    no K*K patch copy, no im2col and no tap-window adds."""
    def must_not_run(*args, **kwargs):
        raise AssertionError("a depthwise conv used the patch engine")

    for name in ("extract_patches", "scatter_patches"):
        monkeypatch.setattr(layers, name, must_not_run)
    rng = np.random.default_rng(stride)
    x = Var(rng.standard_normal((2, 3, 9, 9)).astype(np.float32))
    wt = Var(rng.standard_normal((3, 1, 5, 5)).astype(np.float32))
    out = conv2d(x, circular_kernel(wt, circular_transform(5, 2)), None,
                 stride=stride, padding=4, dilation=2, depthwise=True)
    out.backward(np.ones_like(out.data))
    assert x.grad.shape == x.data.shape and np.all(np.isfinite(x.grad))
    assert wt.grad.shape == wt.data.shape and np.all(np.isfinite(wt.grad))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [3, 5])
def test_depthwise_conv_is_batch_invariant(k, dtype):
    """A dilated depthwise conv on a search-sized batch gives, for the output
    and the input gradient, the bytes of its samples run one at a time: no
    BLAS product spans two samples. (OpenBLAS rounds a float64 row
    differently with the number of rows in the product.)"""
    n, c, h, dil = 64, 16, 12, 2
    rng = np.random.default_rng(k)
    x = rng.standard_normal((n, c, h, h)).astype(dtype)
    g = rng.standard_normal((n, c, h, h)).astype(dtype)
    wt = Var(rng.standard_normal((c, 1, k, k)).astype(dtype),
             requires_grad=False)

    def run(i):
        xs = Var(x[i])
        out = conv2d(xs, wt, None, padding=dil * (k - 1) // 2, dilation=dil,
                     depthwise=True)
        out.backward(g[i])
        return out.data, xs.grad

    batch = run(slice(None))
    one_by_one = [run(slice(i, i + 1)) for i in range(n)]
    for got, parts in zip(batch, zip(*one_by_one)):
        assert got.tobytes() == np.concatenate(parts).tobytes()
