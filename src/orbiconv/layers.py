"""Convolution, pooling and dense layers over the autodiff engine.

Convolution is implemented with im2col patch extraction. This is the single
site where the y-up sampling geometry maps onto image indexing: kernel slot
(kr, kc) reads the pixel displaced by (row, col) = (d*(kr-m), d*(kc-m)),
which is exactly the row-major flattening used by the geometry and transform
modules. col2im, the adjoint, adds the patch gradients back slot by slot,
in slot order, onto the strided window each slot read; that summation order
keeps every gradient byte-identical to the fancy-index scatter-add
reference kept in `tests/conftest.py`.

Circular layers hold a TransformMatrix and re-parameterize their weights
once per forward pass (effective kernel = B^T @ w); the backward pass maps
the effective-kernel gradient back through the adjoint (B @ g). Square
layers hold no transform and skip the product entirely, so a square layer
and a circular layer differ only in the fixed matrix.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Var
from .geometry import Mode, circular_points
from .transform import (
    TransformMatrix,
    build_transform,
    reparameterize,
    transform_gradient_pushforward,
)


def _out_size(n: int, k: int, stride: int, pad: int, dil: int) -> int:
    return (n + 2 * pad - dil * (k - 1) - 1) // stride + 1


def _tap_indices(h: int, w: int, k: int, stride: int, pad: int, dil: int):
    """Padded-input rows (K, OH) and cols (K, OW) read by each kernel tap."""
    oh = _out_size(h, k, stride, pad, dil)
    ow = _out_size(w, k, stride, pad, dil)
    if oh < 1 or ow < 1:
        raise ValueError(f"zero-sized output for input {h}x{w}, K={k}, "
                         f"stride={stride}, pad={pad}, dilation={dil}")
    taps = np.arange(k)[:, None] * dil
    return taps + np.arange(oh) * stride, taps + np.arange(ow) * stride


def extract_patches(x: np.ndarray, k: int, stride: int, pad: int, dil: int,
                    pad_value: float = 0.0) -> np.ndarray:
    """(N, C, H, W) -> (N, C, K*K, OH*OW) row-major kernel patches."""
    n, c, h, w = x.shape
    if pad > 0:
        xp = np.full((n, c, h + 2 * pad, w + 2 * pad), pad_value, dtype=x.dtype)
        xp[:, :, pad:pad + h, pad:pad + w] = x
    else:
        xp = x
    rows, cols = _tap_indices(h, w, k, stride, pad, dil)
    patches = xp[:, :, rows[:, None, :, None], cols[None, :, None, :]]
    return patches.reshape(n, c, k * k, -1)


def scatter_patches(g: np.ndarray, in_shape: tuple[int, int, int, int],
                    k: int, stride: int, pad: int, dil: int) -> np.ndarray:
    """Adjoint of extract_patches: add each kernel slot's patch gradients
    onto the strided window that slot read, slots in order 0..K*K-1."""
    n, c, h, w = in_shape
    rows, cols = _tap_indices(h, w, k, stride, pad, dil)
    g = g.reshape(n, c, k * k, rows.shape[1], cols.shape[1])
    gxp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=g.dtype)
    for slot in range(k * k):
        r, q = rows[slot // k], cols[slot % k]
        gxp[:, :, r[0]:r[-1] + 1:stride, q[0]:q[-1] + 1:stride] += g[:, :, slot]
    return gxp[:, :, pad:pad + h, pad:pad + w]


def conv2d(x: Var, weights: Var, bias: Var | None, *, stride: int = 1,
           padding: int = 0, dilation: int = 1,
           transform: TransformMatrix | None = None,
           depthwise: bool = False) -> Var:
    """2D convolution (cross-correlation) with optional weight
    re-parameterization through a TransformMatrix.

    weights: (Cout, Cin, K, K), or (C, 1, K, K) when depthwise.
    """
    n, c, h, w = x.data.shape
    cout, cin, k, k2 = weights.data.shape
    if k != k2:
        raise ValueError("only square kernel extents are supported")
    if depthwise:
        if cout != c or cin != 1:
            raise ValueError(f"depthwise conv needs weights ({c},1,K,K), got "
                             f"{weights.data.shape}")
    elif cin != c:
        raise ValueError(f"input has {c} channels but weights expect {cin}")

    kk = k * k
    w_flat = weights.data.reshape(cout, cin, kk)
    if transform is not None:
        if transform.kernel_size != k or transform.dilation != dilation:
            raise ValueError("transform does not match kernel size/dilation")
        w_eff = reparameterize(w_flat, transform)
    else:
        w_eff = w_flat

    oh = _out_size(h, k, stride, padding, dilation)
    ow = _out_size(w, k, stride, padding, dilation)
    patches = extract_patches(x.data, k, stride, padding, dilation)

    if depthwise:
        out = np.einsum("ck,nckl->ncl", w_eff.reshape(c, kk), patches)
    else:
        out = np.einsum("of,nfl->nol", w_eff.reshape(cout, cin * kk),
                        patches.reshape(n, cin * kk, -1))
    out = out.reshape(n, cout, oh, ow)
    if bias is not None:
        out = out + bias.data.reshape(1, cout, 1, 1)

    parents = (x, weights) if bias is None else (x, weights, bias)

    def bw(g: np.ndarray) -> None:
        gl = g.reshape(n, cout, -1)
        if bias is not None and bias.requires_grad:
            bias.accumulate(gl.sum(axis=(0, 2)))
        if depthwise:
            if weights.requires_grad:
                g_eff = np.einsum("ncl,nckl->ck", gl, patches).reshape(c, 1, kk)
                if transform is not None:
                    g_eff = transform_gradient_pushforward(g_eff, transform)
                weights.accumulate(g_eff.reshape(weights.data.shape))
            if x.requires_grad:
                gp = np.einsum("ck,ncl->nckl", w_eff.reshape(c, kk), gl)
                x.accumulate(scatter_patches(gp, x.data.shape, k, stride,
                                             padding, dilation))
        else:
            pf = patches.reshape(n, cin * kk, -1)
            if weights.requires_grad:
                g_eff = np.einsum("nol,nfl->of", gl, pf).reshape(cout, cin, kk)
                if transform is not None:
                    g_eff = transform_gradient_pushforward(g_eff, transform)
                weights.accumulate(g_eff.reshape(weights.data.shape))
            if x.requires_grad:
                gp = np.einsum("of,nol->nfl", w_eff.reshape(cout, cin * kk), gl)
                x.accumulate(scatter_patches(gp.reshape(n, cin, kk, -1),
                                             x.data.shape, k, stride, padding,
                                             dilation))

    return Var(out, parents, bw)


def max_pool2d(x: Var, k: int = 3, stride: int = 1, padding: int = 1) -> Var:
    n, c, h, w = x.data.shape
    oh = _out_size(h, k, stride, padding, 1)
    ow = _out_size(w, k, stride, padding, 1)
    patches = extract_patches(x.data, k, stride, padding, 1, pad_value=-np.inf)
    arg = patches.argmax(axis=2)
    out = np.take_along_axis(patches, arg[:, :, None, :], axis=2)[:, :, 0, :]

    def bw(g: np.ndarray) -> None:
        if not x.requires_grad:
            return
        gp = np.zeros_like(patches)
        np.put_along_axis(gp, arg[:, :, None, :], g.reshape(n, c, 1, -1), axis=2)
        x.accumulate(scatter_patches(gp, x.data.shape, k, stride, padding, 1))

    return Var(out.reshape(n, c, oh, ow), (x,), bw)


def avg_pool2d(x: Var, k: int = 3, stride: int = 1, padding: int = 1) -> Var:
    n, c, h, w = x.data.shape
    oh = _out_size(h, k, stride, padding, 1)
    ow = _out_size(w, k, stride, padding, 1)
    patches = extract_patches(x.data, k, stride, padding, 1)
    out = patches.mean(axis=2)

    def bw(g: np.ndarray) -> None:
        if not x.requires_grad:
            return
        gp = np.broadcast_to(g.reshape(n, c, 1, -1) / (k * k), patches.shape)
        x.accumulate(scatter_patches(gp, x.data.shape, k, stride, padding, 1))

    return Var(out.reshape(n, c, oh, ow), (x,), bw)


def global_avg_pool(x: Var) -> Var:
    n, c, h, w = x.data.shape

    def bw(g: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate(np.broadcast_to(g[:, :, None, None] / (h * w),
                                         x.data.shape).copy())

    return Var(x.data.mean(axis=(2, 3)), (x,), bw)


def linear(x: Var, weights: Var, bias: Var | None) -> Var:
    out = x.data @ weights.data.T
    if bias is not None:
        out = out + bias.data

    parents = (x, weights) if bias is None else (x, weights, bias)

    def bw(g: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate(g @ weights.data)
        if weights.requires_grad:
            weights.accumulate(g.T @ x.data)
        if bias is not None and bias.requires_grad:
            bias.accumulate(g.sum(axis=0))

    return Var(out, parents, bw)


def channel_affine(x: Var, scale: Var, shift: Var) -> Var:
    """Per-channel scale and shift; the batch-norm stand-in for this engine."""
    c = x.data.shape[1]
    s = scale.data.reshape(1, c, 1, 1)
    out = x.data * s + shift.data.reshape(1, c, 1, 1)

    def bw(g: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate(g * s)
        if scale.requires_grad:
            scale.accumulate((g * x.data).sum(axis=(0, 2, 3)))
        if shift.requires_grad:
            shift.accumulate(g.sum(axis=(0, 2, 3)))

    return Var(out, (x, scale, shift), bw)


def softmax_cross_entropy(logits: Var, labels: np.ndarray) -> Var:
    """Mean cross-entropy of (N, num_classes) logits against integer labels."""
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    n = logits.data.shape[0]
    loss = -np.log(p[np.arange(n), labels] + 1e-300).mean()

    def bw(g: np.ndarray) -> None:
        if logits.requires_grad:
            gi = p.copy()
            gi[np.arange(n), labels] -= 1.0
            logits.accumulate(gi * (float(g) / n))

    return Var(np.asarray(loss), (logits,), bw)


# ---------------------------------------------------------------------------
# Parameterized modules


def kaiming_uniform(shape: tuple[int, ...], fan_in: int, rng,
                    dtype=np.float32) -> np.ndarray:
    bound = float(np.sqrt(6.0 / fan_in))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def _collect_params(value, out: list[Var]) -> None:
    if isinstance(value, Var):
        if value.requires_grad:
            out.append(value)
    elif isinstance(value, Module):
        out.extend(value.params())
    elif isinstance(value, (list, tuple)):
        for item in value:
            _collect_params(item, out)


class Module:
    def params(self) -> list[Var]:
        out: list[Var] = []
        for v in vars(self).values():
            _collect_params(v, out)
        return out

    def __call__(self, x: Var) -> Var:
        return self.forward(x)

    def forward(self, x: Var) -> Var:  # pragma: no cover - abstract
        raise NotImplementedError


class Conv2d(Module):
    """A convolution layer with a kernel shape.

    A SQUARE layer convolves its weights as they are; a CIRCULAR layer
    re-parameterizes them through the fixed bilinear matrix B.
    """

    def __init__(self, cin: int, cout: int, k: int, *, stride: int = 1,
                 padding: int = 0, dilation: int = 1, mode: Mode = Mode.SQUARE,
                 depthwise: bool = False, bias: bool = True,
                 rng=None, dtype=np.float32):
        if k % 2 == 0 or k < 1:
            raise ValueError(f"kernel size must be odd, got {k}")
        self.transform: TransformMatrix | None = (
            build_transform(circular_points(k, dilation))
            if mode is Mode.CIRCULAR else None)
        self.stride = stride
        self.padding = padding
        self.dilation = dilation
        self.depthwise = depthwise
        wc = (cout, 1, k, k) if depthwise else (cout, cin, k, k)
        fan_in = k * k if depthwise else cin * k * k
        if rng is None:
            rng = np.random.default_rng(0)
        self.weights = Var(kaiming_uniform(wc, fan_in, rng, dtype))
        self.bias = Var(np.zeros(cout, dtype=dtype)) if bias else None

    def _conv(self, x: Var, transform: TransformMatrix | None) -> Var:
        return conv2d(x, self.weights, self.bias, stride=self.stride,
                      padding=self.padding, dilation=self.dilation,
                      transform=transform, depthwise=self.depthwise)

    def forward(self, x: Var) -> Var:
        return self._conv(x, self.transform)


class Linear(Module):
    def __init__(self, cin: int, cout: int, rng=None, dtype=np.float32):
        if rng is None:
            rng = np.random.default_rng(0)
        self.weights = Var(kaiming_uniform((cout, cin), cin, rng, dtype))
        self.bias = Var(np.zeros(cout, dtype=dtype))

    def forward(self, x: Var) -> Var:
        return linear(x, self.weights, self.bias)


class ChannelAffine(Module):
    def __init__(self, c: int, dtype=np.float32):
        self.scale = Var(np.ones(c, dtype=dtype))
        self.shift = Var(np.zeros(c, dtype=dtype))

    def forward(self, x: Var) -> Var:
        return channel_affine(x, self.scale, self.shift)


class Sequential(Module):
    def __init__(self, *modules: Module):
        self.modules = list(modules)

    def forward(self, x: Var) -> Var:
        for m in self.modules:
            x = m(x)
        return x
