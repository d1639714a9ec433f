"""Convolution, pooling and dense layers over the autodiff engine.

Every conv and pool reads the padded input through one strided view,
`_tap_windows`: kernel slot (kr, kc) reads the pixel displaced by
(row, col) = (d*(kr-m), d*(kc-m)), which is exactly the row-major
flattening used by the geometry and transform modules. Patches have one
memory layout, a C-order (N, C, K*K, OH*OW) copy of that view
(`_patch_matrix`). Max pools and dense convs read them through
`extract_patches`; dense convs run as BLAS matmuls on them. Depthwise convs
run as one BLAS product per sample and channel on them, for the output and
the weight gradient; the forward copies the patches a few samples at a time
(`_DW_SLICE_BYTES`), which moves no bit, since each product is its own BLAS
call. Col2im adds a patch gradient slot by slot, in slot order, onto the
window each slot read; the depthwise input gradient does the same on the
windows, and the avg pool forward adds the windows themselves, slots in
order from a zero start.

Against the fancy-index, scatter-add and einsum references in
`tests/conftest.py`: pools keep every byte; the depthwise input gradient
keeps the bytes, except on a one-element output; dense and depthwise
outputs and weight gradients match to rounding. No bit depends on the
input's memory layout, nor on the BLAS thread count.

Circular layers hold a TransformMatrix and re-parameterize their weights
once per forward pass (effective kernel = B^T @ w); the backward pass maps
the effective-kernel gradient back through the adjoint (B @ g). Square
layers hold no transform and skip the product entirely, so a square layer
and a circular layer differ only in the fixed matrix.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .autodiff import Var
from .geometry import Mode, circular_points
from .transform import (
    TransformMatrix,
    build_transform,
    reparameterize,
    transform_gradient_pushforward,
)


# bytes of the patch copy one slice of a depthwise forward may build
_DW_SLICE_BYTES = 1 << 22


def _out_shape(h: int, w: int, k: int, stride: int, pad: int,
               dil: int) -> tuple[int, int]:
    oh, ow = ((n + 2 * pad - dil * (k - 1) - 1) // stride + 1 for n in (h, w))
    if oh < 1 or ow < 1:
        raise ValueError(f"zero-sized output for input {h}x{w}, K={k}, "
                         f"stride={stride}, pad={pad}, dilation={dil}")
    return oh, ow


def _pad(x: np.ndarray, pad: int, value: float = 0.0) -> np.ndarray:
    """(N, C, H, W) -> (N, C, H + 2*pad, W + 2*pad) with `value` borders."""
    if pad == 0:
        return x
    n, c, h, w = x.shape
    xp = np.full((n, c, h + 2 * pad, w + 2 * pad), value, dtype=x.dtype)
    xp[:, :, pad:pad + h, pad:pad + w] = x
    return xp


def _tap_windows(xp: np.ndarray, k: int, oh: int, ow: int, stride: int,
                 dil: int, writeable: bool = False) -> np.ndarray:
    """(N, C, K, K, OH, OW) view of a padded input: [:, :, kr, kc] is the
    strided window kernel slot (kr, kc) reads. No two elements of one
    slot's window share memory, so a slot's window may be added onto."""
    sn, sc, sh, sw = xp.strides
    return as_strided(xp, xp.shape[:2] + (k, k, oh, ow),
                      (sn, sc, dil * sh, dil * sw, stride * sh, stride * sw),
                      writeable=writeable)


def _patch_matrix(xp: np.ndarray, k: int, oh: int, ow: int, stride: int,
                  dil: int) -> np.ndarray:
    """C-order (N, C, K*K, OH*OW) copy of a padded input's tap windows: the
    one memory layout every conv and pool reads its patches in."""
    n, c = xp.shape[:2]
    return np.ascontiguousarray(_tap_windows(xp, k, oh, ow, stride, dil)
                                ).reshape(n, c, k * k, oh * ow)


def extract_patches(x: np.ndarray, k: int, stride: int, pad: int, dil: int,
                    pad_value: float = 0.0) -> np.ndarray:
    """(N, C, H, W) -> C-order (N, C, K*K, OH*OW) row-major kernel patches."""
    oh, ow = _out_shape(*x.shape[2:], k, stride, pad, dil)
    return _patch_matrix(_pad(x, pad, pad_value), k, oh, ow, stride, dil)


def scatter_patches(g: np.ndarray, in_shape: tuple[int, int, int, int],
                    k: int, stride: int, pad: int, dil: int) -> np.ndarray:
    """Adjoint of extract_patches: add each kernel slot's patch gradients
    onto the strided window that slot read, slots in order 0..K*K-1."""
    n, c, h, w = in_shape
    oh, ow = _out_shape(h, w, k, stride, pad, dil)
    g = g.reshape(n, c, k * k, oh, ow)
    gxp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=g.dtype)
    win = _tap_windows(gxp, k, oh, ow, stride, dil, writeable=True)
    for slot in range(k * k):
        win[:, :, slot // k, slot % k] += g[:, :, slot]
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

    oh, ow = _out_shape(h, w, k, stride, padding, dilation)
    if depthwise:
        # one BLAS product per (sample, channel) over its C-order patch
        # matrix, built a few samples at a time so that no patch copy
        # outgrows _DW_SLICE_BYTES; the slicing moves no bit
        xp = _pad(x.data, padding)
        w_row = w_eff.reshape(1, c, 1, kk)
        out = np.empty((n, c, 1, oh * ow), np.result_type(w_row, xp))
        step = max(1, _DW_SLICE_BYTES // (c * kk * oh * ow * xp.itemsize))
        for s in range(0, n, step):
            np.matmul(w_row, _patch_matrix(xp[s:s + step], k, oh, ow, stride,
                                           dilation), out=out[s:s + step])
        out = out.reshape(n, c, oh, ow)
    else:
        # the C-order patch matrix reshapes to (N, C*K*K, OH*OW) as a view,
        # so every gemm operand is C-contiguous; the backward reuses it
        w_mat = w_eff.reshape(cout, cin * kk)
        patches = extract_patches(x.data, k, stride, padding,
                                  dilation).reshape(n, cin * kk, -1)
        out = (w_mat @ patches).reshape(n, cout, oh, ow)
    if bias is not None:
        out = out + bias.data.reshape(1, cout, 1, 1)

    parents = (x, weights) if bias is None else (x, weights, bias)

    def bw(g: np.ndarray) -> None:
        gl = g.reshape(n, cout, -1)
        if bias is not None and bias.requires_grad:
            bias.accumulate(gl.sum(axis=(0, 2)))
        if depthwise:
            if weights.requires_grad:
                cols = _patch_matrix(xp, k, oh, ow, stride, dilation)
                g_eff = (gl[:, :, None] @ cols.transpose(0, 1, 3, 2)).sum(0)
                if transform is not None:
                    g_eff = transform_gradient_pushforward(g_eff, transform)
                weights.accumulate(g_eff.reshape(weights.data.shape))
            if x.requires_grad:
                # tap loop over strided windows, slots in order from a zero
                # start: the slot-order add of scatter_patches
                w_dw = w_eff.reshape(c, kk, 1, 1)
                gxp = np.zeros(xp.shape, dtype=np.result_type(w_dw, g))
                gwin = _tap_windows(gxp, k, oh, ow, stride, dilation,
                                    writeable=True)
                for slot in range(kk):
                    gwin[:, :, slot // k, slot % k] += w_dw[:, slot] * g
                x.accumulate(gxp[:, :, padding:padding + h,
                                 padding:padding + w])
        else:
            if weights.requires_grad:
                g_eff = (gl @ patches.transpose(0, 2, 1)).sum(axis=0)
                g_eff = g_eff.reshape(cout, cin, kk)
                if transform is not None:
                    g_eff = transform_gradient_pushforward(g_eff, transform)
                weights.accumulate(g_eff.reshape(weights.data.shape))
            if x.requires_grad:
                x.accumulate(scatter_patches(w_mat.T @ gl, x.data.shape, k,
                                             stride, padding, dilation))

    return Var(out, parents, bw)


def max_pool2d(x: Var, k: int = 3, stride: int = 1, padding: int = 1) -> Var:
    n, c, h, w = x.data.shape
    oh, ow = _out_shape(h, w, k, stride, padding, 1)
    patches = extract_patches(x.data, k, stride, padding, 1, pad_value=-np.inf)
    arg = patches.argmax(axis=2)
    out = np.take_along_axis(patches, arg[:, :, None, :], axis=2)[:, :, 0, :]

    def bw(g: np.ndarray) -> None:
        if not x.requires_grad:
            return
        gp = np.zeros((n, c, k * k, oh * ow), x.data.dtype)
        np.put_along_axis(gp, arg[:, :, None, :], g.reshape(n, c, 1, -1), axis=2)
        x.accumulate(scatter_patches(gp, x.data.shape, k, stride, padding, 1))

    return Var(out.reshape(n, c, oh, ow), (x,), bw)


def avg_pool2d(x: Var, k: int = 3, stride: int = 1, padding: int = 1) -> Var:
    n, c, h, w = x.data.shape
    oh, ow = _out_shape(h, w, k, stride, padding, 1)
    # the tap windows added in slot order from a zero start, as the
    # reference sums a patch's slots; no patch copy
    win = _tap_windows(_pad(x.data, padding), k, oh, ow, stride, 1)
    out = np.zeros((n, c, oh, ow), x.data.dtype)
    for slot in range(k * k):
        out += win[:, :, slot // k, slot % k]
    out /= k * k

    def bw(g: np.ndarray) -> None:
        if not x.requires_grad:
            return
        gp = np.broadcast_to(g.reshape(n, c, 1, -1) / (k * k),
                             (n, c, k * k, oh * ow))
        x.accumulate(scatter_patches(gp, x.data.shape, k, stride, padding, 1))

    return Var(out, (x,), bw)


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


def walk(value):
    """Depth-first, `value` first: every attribute of a Module and every
    item of a list or tuple, descending into those two kinds only."""
    yield value
    items = (vars(value).values() if isinstance(value, Module)
             else value if isinstance(value, (list, tuple)) else ())
    for item in items:
        yield from walk(item)


class Module:
    def params(self) -> list[Var]:
        return [v for v in walk(self) if isinstance(v, Var) and v.requires_grad]

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
