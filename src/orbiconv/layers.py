"""Convolution, pooling and dense layers over the autodiff engine.

Kernel slot (kr, kc) reads the pixel displaced by (row, col) =
(d*(kr-m), d*(kc-m)), which is exactly the row-major flattening used by
the geometry and transform modules. Dense convs run as BLAS matmuls on one
C-order (N, C, K*K, OH*OW) patch matrix (`extract_patches`), built by two
copies in long runs: K column-shifted copies (K, N, C, Hp, OW) of the
padded input, then the patches from their rows, so at stride 1 each
(n, c, slot) window is one contiguous run of OH*OW elements. The padded
input is never built: the shifted copies start as zeros, and each kernel
column copies onto them only the interior rows and the output columns
that read pixels, straight from the input; a column that reads only
padding copies nothing. col2im (`scatter_patches`) transposes the gemm's
patch gradients slot-major once, (K*K, OH, OW, N, C), and adds each slot's
gradients onto the window that slot read in a channels-last (Hp, Wp, N, C)
buffer, slots in order from a zero start (`_window_adjoint`). One flag in
`conv2d` makes a 1x1, stride-1, unpadded conv skip both: its patches are
the input in C order, and its input gradient goes to `accumulate`, whose
first pass is col2im's +0.0 + g.
Pools copy no patches: they read the same channels-last windows
(`_windows_last`) of a padded copy of the input, so each slot's pass runs
over rows of N*C elements (OW*N*C at stride 1), not over one output row.
They fold the windows in slot order, a sum from a zero start or a running
`np.maximum`; their input gradients add one term per slot onto a
channels-last buffer as col2im does: the avg pool the output gradient over
K*K, the max pool the output gradient on the first slot that holds the
maximum and +0.0 on the others.

Depthwise convs copy no patches. Each output row reads K padded input
rows, one per kernel row (`_row_windows`); laid end to end, they times a
banded (K*Wp, OW) matrix of the channel's kernel (`_band`) give the row.
So the forward is a K-row copy of the input and one BLAS product per
sample and channel; the input gradient is the output gradient times the
transposed band, then a shared 0/1 matrix product that adds each row's
gradient onto the padded row it came from (`_row_adjoint`); the weight
gradient is one BLAS product per channel of the output gradient against a
channel-major copy of the K rows each output row read, summed along each
band diagonal (`_band_taps`). The largest temporary is K times the padded
input. Since no product spans two samples, no bit depends on the batch.
The band's and the adjoint's zeros take part in the sums, so a non-finite
input value reaches every output of its rows (0 * inf is NaN), and a
non-finite output gradient every input gradient of its sample and channel;
the loss check of a training step stops such a step first.

Against the fancy-index, scatter-add and einsum references in
`tests/conftest.py`: im2col, col2im and the pools keep every byte; dense
and depthwise outputs and both gradients match to rounding. No bit depends
on the input's memory layout, nor on the BLAS thread count.

A convolution knows no transform: `conv2d` convolves the kernel it is
given. A circular layer's kernel is one autodiff op, `reparameterized`: its
value is B^T w (the effective kernel of the equivalent standard
convolution), which a `Conv2d` keeps while its weights hold the same bytes,
and its backward maps the kernel gradient back through B's adjoint (B @ g),
the one place the layers apply it. A square layer's kernel is its weights,
so a square layer and a circular layer differ only in the fixed matrix.
"""

from __future__ import annotations

from functools import cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .autodiff import Var
from .geometry import Mode, check_kernel_size
from .transform import (
    TransformMatrix,
    circular_transform,
    reparameterize,
    transform_gradient_pushforward,
)


def _out_shape(h: int, w: int, k: int, stride: int, pad: int,
               dil: int) -> tuple[int, int]:
    for name, value, low in (("stride", stride, 1), ("padding", pad, 0),
                             ("dilation", dil, 1)):
        if value < low:
            raise ValueError(f"{name} must be at least {low}, got {value}")
    oh, ow = ((n + 2 * pad - dil * (k - 1) - 1) // stride + 1 for n in (h, w))
    if oh < 1 or ow < 1:
        raise ValueError(f"zero-sized output for input {h}x{w}, K={k}, "
                         f"stride={stride}, pad={pad}, dilation={dil}")
    return oh, ow


def _pad(x: np.ndarray, pad: int) -> np.ndarray:
    """(N, C, H, W) -> (N, C, H + 2*pad, W + 2*pad) with zero borders."""
    if pad == 0:
        return x
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    xp[:, :, pad:pad + h, pad:pad + w] = x
    return xp


def _row_windows(xp: np.ndarray, k: int, oh: int, stride: int,
                 dil: int) -> np.ndarray:
    """(N, C, OH, K, Wp) view of a padded input: [:, :, i, kr] is the
    padded row dil*kr + stride*i, which kernel row kr reads for output
    row i."""
    sn, sc, sh, sw = xp.strides
    return as_strided(xp, xp.shape[:2] + (oh, k, xp.shape[3]),
                      (sn, sc, stride * sh, dil * sh, sw))


def _band_taps(m: np.ndarray, k: int, stride: int, dil: int,
               writeable: bool = False) -> np.ndarray:
    """(C, K, K, OW) view of a (C, K, Wp, OW) stack of band matrices, at any
    strides: [c, kr, kc, j] is m[c, kr, stride*j + dil*kc, j], the entry
    that pairs padded column stride*j + dil*kc with output column j."""
    sc, sr, sp, sj = m.strides
    return as_strided(m, (m.shape[0], k, k, m.shape[3]),
                      (sc, sr, dil * sp, stride * sp + sj), writeable=writeable)


def _band(w: np.ndarray, wp: int, ow: int, stride: int,
          dil: int) -> np.ndarray:
    """(C, K*Wp, OW) banded matrices of a (C, K, K) depthwise kernel: the
    K padded rows an output row reads, laid end to end, times [c] give
    that output row, so [c, kr*Wp + stride*j + dil*kc, j] = w[c, kr, kc]
    and every other entry is zero."""
    c, k = w.shape[:2]
    band = np.zeros((c, k, wp, ow), w.dtype)
    _band_taps(band, k, stride, dil, writeable=True)[...] = w[..., None]
    return band.reshape(c, k * wp, ow)


@cache
def _row_adjoint(k: int, oh: int, hp: int, stride: int, dil: int,
                 dtype) -> np.ndarray:
    """(Hp, OH*K) 0/1 matrix that adds each (output row i, kernel row kr)
    gradient row onto the padded row dil*kr + stride*i it came from: the
    adjoint of `_row_windows` as one matrix product. Built once per
    arguments and read-only, since every caller with them shares it."""
    adj = np.zeros((hp, oh, k), dtype)
    i, kr = np.ogrid[:oh, :k]
    adj[dil * kr + stride * i, i, kr] = 1
    adj = adj.reshape(hp, oh * k)
    adj.flags.writeable = False
    return adj


def _pad_last(x: np.ndarray, pad: int, value: float) -> np.ndarray:
    """(N, C, H, W) -> channels-last (H + 2*pad, W + 2*pad, N, C) copy with
    `value` borders."""
    n, c, h, w = x.shape
    xp = np.full((h + 2 * pad, w + 2 * pad, n, c), value, x.dtype)
    xp[pad:pad + h, pad:pad + w] = x.transpose(2, 3, 0, 1)
    return xp


def _windows_last(xp: np.ndarray, k: int, oh: int, ow: int, stride: int,
                  dil: int, writeable: bool = False) -> np.ndarray:
    """(K, K, OH, OW, N, C) view of a channels-last (Hp, Wp, N, C) buffer:
    [kr, kc] is the window kernel slot (kr, kc) reads. A window row is N*C
    contiguous elements (OW*N*C at stride 1). No two elements of one
    slot's window share memory, so a slot's window may be added onto."""
    sh, sw = xp.strides[:2]
    return as_strided(xp, (k, k, oh, ow) + xp.shape[2:],
                      (dil * sh, dil * sw, stride * sh, stride * sw)
                      + xp.strides[2:], writeable=writeable)


def _window_adjoint(term, in_shape: tuple[int, int, int, int], k: int,
                    stride: int, pad: int, dil: int, dtype) -> np.ndarray:
    """Adjoint of window reads (col2im and both pools' input gradients):
    each kernel slot's (OH, OW, N, C) `term(slot)` added onto the
    channels-last window that slot read, slots in order 0..K*K-1 from a
    zero start; an (N, C, H, W) view."""
    n, c, h, w = in_shape
    oh, ow = _out_shape(h, w, k, stride, pad, dil)
    gxp = np.zeros((h + 2 * pad, w + 2 * pad, n, c), dtype)
    win = _windows_last(gxp, k, oh, ow, stride, dil, writeable=True)
    for slot in range(k * k):
        win[slot // k, slot % k] += term(slot)
    return gxp[pad:pad + h, pad:pad + w].transpose(2, 3, 0, 1)


def extract_patches(x: np.ndarray, k: int, stride: int, pad: int,
                    dil: int) -> np.ndarray:
    """(N, C, H, W) -> C-order (N, C, K*K, OH*OW) patches of the padded
    input: [n, c, kr*K + kc, i*OW + j] is the pixel (d*kr + s*i,
    d*kc + s*j)."""
    n, c, h, w = x.shape
    oh, ow = _out_shape(h, w, k, stride, pad, dil)
    # cols[kc, n, c, r, j] = xp[n, c, r, d*kc + s*j] of the padded input xp:
    # zeros but for the interior rows of each slot's valid columns, where
    # output column j reads input column d*kc + s*j - pad
    cols = np.zeros((k, n, c, h + 2 * pad, ow), x.dtype)
    for kc in range(k):
        shift = dil * kc - pad
        j0 = max(0, -(shift // stride))
        j1 = min(ow, (w - 1 - shift) // stride + 1)
        if j0 < j1:
            cols[kc, :, :, pad:pad + h, j0:j1] = x[
                ..., shift + stride * j0:shift + stride * (j1 - 1) + 1:stride]
    tk, tn, tc, th, tw = cols.strides
    return np.ascontiguousarray(as_strided(
        cols, (n, c, k, k, oh, ow), (tn, tc, dil * th, tk, stride * th, tw),
        writeable=False)).reshape(n, c, k * k, oh * ow)


def scatter_patches(g: np.ndarray, in_shape: tuple[int, int, int, int],
                    k: int, stride: int, pad: int, dil: int) -> np.ndarray:
    """Adjoint of extract_patches: add each kernel slot's patch gradients
    onto the window that slot read, slots in order 0..K*K-1 from a zero
    start. One 2-D transpose makes the (N, C, K*K, OH*OW) gradients
    slot-major (K*K, OH, OW, N, C), so each slot adds channels-last rows
    of OW*N*C elements at stride 1; an (N, C, H, W) view."""
    n, c, h, w = in_shape
    oh, ow = _out_shape(h, w, k, stride, pad, dil)
    g_last = np.ascontiguousarray(g.reshape(n * c, -1).T).reshape(
        k * k, oh, ow, n, c)
    return _window_adjoint(lambda slot: g_last[slot], in_shape, k, stride,
                           pad, dil, g.dtype)


def conv2d(x: Var, weights: Var, bias: Var | None, *, stride: int = 1,
           padding: int = 0, dilation: int = 1, depthwise: bool = False) -> Var:
    """2D convolution (cross-correlation) of `x` with the kernel `weights`:
    (Cout, Cin, K, K), or (C, 1, K, K) when depthwise. A circular kernel
    comes in as `reparameterized` weights, so the conv never sees B."""
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

    oh, ow = _out_shape(h, w, k, stride, padding, dilation)
    pointwise = not depthwise and k == 1 and stride == 1 and padding == 0
    if depthwise:
        # the K padded rows each output row reads, copied end to end, times
        # the channel's band: one BLAS product per sample and channel, so
        # no bit depends on the batch
        dtype = np.result_type(x.data, weights.data)
        xp = _pad(x.data.astype(dtype, copy=False), padding)
        hp, wp = xp.shape[2:]
        band = _band(weights.data.reshape(c, k, k).astype(dtype, copy=False),
                     wp, ow, stride, dilation)
        rows = np.ascontiguousarray(_row_windows(xp, k, oh, stride, dilation))
        out = rows.reshape(n, c, oh, k * wp) @ band
    else:
        # the C-order patch matrix reshapes to (N, C*K*K, OH*OW) as a view,
        # so every gemm operand is C-contiguous; the backward reuses it. A
        # pointwise conv's is its input in C order (a bare reshape may be a
        # strided view, on which BLAS gives other bytes)
        w_mat = weights.data.reshape(cout, cin * k * k)
        patches = (np.ascontiguousarray(x.data) if pointwise
                   else extract_patches(x.data, k, stride, padding, dilation)
                   ).reshape(n, cin * k * k, oh * ow)
        out = (w_mat @ patches).reshape(n, cout, oh, ow)
    if bias is not None:
        out = out + bias.data.reshape(1, cout, 1, 1)

    parents = (x, weights) if bias is None else (x, weights, bias)

    def bw(g: np.ndarray) -> None:
        gl = g.reshape(n, cout, -1)
        if bias is not None and bias.requires_grad:
            bias.accumulate(gl.sum(axis=(0, 2)))
        if weights.requires_grad:
            if depthwise:
                # prod[c, j, kr, p] sums g[n, c, i, j] * xp[n, c, d*kr + s*i, p]
                # over the batch and the output rows: one BLAS product per
                # channel against a channel-major copy of the K rows each
                # output row read; slot (kr, kc) sums its band diagonal
                # p = s*j + d*kc over j
                g_cn = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).reshape(
                    c, n * oh, ow)
                rows_cn = np.ascontiguousarray(_row_windows(
                    xp, k, oh, stride, dilation).transpose(1, 0, 2, 3, 4))
                prod = g_cn.transpose(0, 2, 1) @ rows_cn.reshape(
                    c, n * oh, k * wp)
                g_w = _band_taps(prod.reshape(c, ow, k, wp).transpose(
                    0, 2, 3, 1), k, stride, dilation).sum(axis=3)
            else:
                g_w = (gl @ patches.transpose(0, 2, 1)).sum(axis=0)
            weights.accumulate(g_w.reshape(weights.data.shape))
        if x.requires_grad:
            if depthwise:
                # the forward's adjoint, one BLAS product per sample and
                # channel for each factor: the output gradient times the
                # transposed band gives each copied row's gradient, and the
                # 0/1 row adjoint adds those onto the padded rows they read
                band_t = np.ascontiguousarray(band.transpose(0, 2, 1))
                g_rows = (g @ band_t).reshape(n, c, oh * k, wp)
                gxp = _row_adjoint(k, oh, hp, stride, dilation,
                                   g_rows.dtype) @ g_rows
                x.accumulate(gxp[:, :, padding:padding + h,
                                 padding:padding + w])
            elif pointwise:
                # col2im would be +0.0 + g: accumulate's first pass does
                # that, and a later += adds onto a gradient that is never
                # -0.0, so no byte changes
                x.accumulate((w_mat.T @ gl).reshape(x.data.shape))
            else:
                x.accumulate(scatter_patches(w_mat.T @ gl, x.data.shape, k,
                                             stride, padding, dilation))

    return Var(out, parents, bw)


def reparameterized(weights: Var, b: TransformMatrix,
                    w_eff: np.ndarray) -> Var:
    """The circular kernel of `weights` as one autodiff op. Its value is
    `w_eff`, their B^T w over the K*K taps (which the caller may keep), in
    the weights' shape; its backward maps the kernel gradient back through
    B's adjoint, B @ g."""
    shape = weights.data.shape

    def bw(g: np.ndarray) -> None:
        weights.accumulate(transform_gradient_pushforward(
            g.reshape(*shape[:2], -1), b).reshape(shape))

    return Var(w_eff.reshape(shape), (weights,), bw)


def max_pool2d(x: Var, k: int = 3, stride: int = 1, padding: int = 1) -> Var:
    oh, ow = _out_shape(*x.data.shape[2:], k, stride, padding, 1)
    # the tap windows folded in slot order, the new tap first: on a tie
    # np.maximum returns its second operand, the earlier slot, as argmax
    # keeps the first maximum (which tells -0.0 from +0.0); a NaN propagates
    xp = _pad_last(x.data, padding, -np.inf)
    taps = _windows_last(xp, k, oh, ow, stride, 1)
    top = taps[0, 0].copy()
    for slot in range(1, k * k):
        np.maximum(taps[slot // k, slot % k], top, out=top)
    out = np.ascontiguousarray(top.transpose(2, 3, 0, 1))

    def bw(g: np.ndarray) -> None:
        if not x.requires_grad:
            return
        # each output's gradient goes to the first slot whose tap has the
        # output's bits (in a NaN window its first NaN), where argmax sends
        # it; the other slots add +0.0. `left` holds the bits of the
        # gradients not routed yet. Selecting on the bits keeps inf and NaN
        # gradients exact, where g * hit would give inf * 0 = NaN.
        bits = np.dtype(f"u{xp.itemsize}")
        win = _windows_last(xp, k, oh, ow, stride, 1).view(bits)
        target = top.view(bits)
        left = g.transpose(2, 3, 0, 1).astype(xp.dtype, order="C").view(bits)
        hit, m = np.empty(top.shape, bool), np.empty(top.shape, bits)

        def route(slot: int) -> np.ndarray:
            np.equal(win[slot // k, slot % k], target, out=hit)
            np.multiply(left, hit, out=m)
            np.bitwise_xor(left, m, out=left)
            return m.view(xp.dtype)

        x.accumulate(_window_adjoint(route, x.data.shape, k, stride,
                                     padding, 1, xp.dtype))

    return Var(out, (x,), bw)


def avg_pool2d(x: Var, k: int = 3, stride: int = 1, padding: int = 1) -> Var:
    n, c, h, w = x.data.shape
    oh, ow = _out_shape(h, w, k, stride, padding, 1)
    # the tap windows added in slot order from a zero start, as the
    # reference sums a patch's slots; no patch copy
    win = _windows_last(_pad_last(x.data, padding, 0.0), k, oh, ow,
                        stride, 1)
    total = np.zeros((oh, ow, n, c), x.data.dtype)
    for slot in range(k * k):
        total += win[slot // k, slot % k]
    out = np.divide(total.transpose(2, 3, 0, 1), k * k,
                    out=np.empty((n, c, oh, ow), total.dtype))

    def bw(g: np.ndarray) -> None:
        if not x.requires_grad:
            return
        g_slot = np.divide(g.transpose(2, 3, 0, 1), k * k,
                           out=np.empty((oh, ow, n, c), g.dtype))
        x.accumulate(_window_adjoint(lambda slot: g_slot, x.data.shape, k,
                                     stride, padding, 1, g_slot.dtype))

    return Var(out, (x,), bw)


def global_avg_pool(x: Var) -> Var:
    n, c, h, w = x.data.shape

    def bw(g: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate(np.broadcast_to(g[:, :, None, None] / (h * w),
                                         x.data.shape))

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
    """Uniform in +-sqrt(6 / fan_in), from `rng`, else default_rng(0)."""
    if rng is None:
        rng = np.random.default_rng(0)
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
    convolves them re-parameterized through the fixed bilinear matrix B.
    """

    def __init__(self, cin: int, cout: int, k: int, *, stride: int = 1,
                 padding: int = 0, dilation: int = 1, mode: Mode = Mode.SQUARE,
                 depthwise: bool = False, bias: bool = True,
                 rng=None, dtype=np.float32):
        check_kernel_size(k)
        self.transform: TransformMatrix | None = (
            circular_transform(k, dilation) if mode is Mode.CIRCULAR
            else None)
        self.stride = stride
        self.padding = padding
        self.dilation = dilation
        self.depthwise = depthwise
        wc = (cout, 1, k, k) if depthwise else (cout, cin, k, k)
        fan_in = k * k if depthwise else cin * k * k
        self.weights = Var(kaiming_uniform(wc, fan_in, rng, dtype))
        self.bias = Var(np.zeros(cout, dtype=dtype)) if bias else None
        # (weight version, B^T w): see `kernel`
        self._reparam: tuple | None = None

    def kernel(self) -> Var:
        """The kernel this layer convolves: its weights when SQUARE, their
        `reparameterized` op when CIRCULAR, with B^T w computed once per
        weight version. The version is the weights' dtype, shape and bytes,
        so an optimizer step, a new array and an in-place write each make a
        new one, and a frozen model re-parameterizes once."""
        if self.transform is None:
            return self.weights
        w = self.weights.data
        version = (w.dtype, w.shape, w.tobytes())
        if self._reparam is None or self._reparam[0] != version:
            w_eff = reparameterize(w.reshape(*w.shape[:2], -1),
                                   self.transform)
            w_eff.flags.writeable = False
            self._reparam = (version, w_eff)
        return reparameterized(self.weights, self.transform,
                               self._reparam[1])

    def _conv(self, x: Var, kernel: Var) -> Var:
        return conv2d(x, kernel, self.bias, stride=self.stride,
                      padding=self.padding, dilation=self.dilation,
                      depthwise=self.depthwise)

    def forward(self, x: Var) -> Var:
        return self._conv(x, self.kernel())


class Linear(Module):
    def __init__(self, cin: int, cout: int, rng=None, dtype=np.float32):
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
