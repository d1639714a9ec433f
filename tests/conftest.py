"""Shared independent oracles for the test suite.

These deliberately avoid the library's production code paths: interpolation
is done point by point on the image lattice, and matrix products use dense
numpy arrays.
"""

from __future__ import annotations

import math

import numpy as np

from orbiconv.autodiff import Var, tape
from orbiconv.data import Dataset, _circular_footprint
from orbiconv.experiments import WarpMode
from orbiconv.geometry import (SamplePoint, SamplePointSet, circular_points,
                               square_points)
from orbiconv.layers import reparameterized
from orbiconv.transform import (TransformBuildError, TransformMatrix,
                                bilinear_weight, reparameterize,
                                transform_gradient_pushforward)


def bilin_sample_dilated(img: np.ndarray, row: float, col: float,
                         center_r: int, center_c: int, d: int) -> float:
    """Bilinear interpolation of `img` at (row, col) using the four nearest
    points of the dilation-d lattice anchored at (center_r, center_c).
    Out-of-image lattice points read as zero."""
    tr = (row - center_r) / d
    tc = (col - center_c) / d
    r0, c0 = math.floor(tr), math.floor(tc)
    fr, fc = tr - r0, tc - c0
    total = 0.0
    for dr, wr in ((0, 1.0 - fr), (1, fr)):
        for dc, wc in ((0, 1.0 - fc), (1, fc)):
            if wr == 0.0 or wc == 0.0:
                continue
            rr = center_r + (r0 + dr) * d
            cc = center_c + (c0 + dc) * d
            if 0 <= rr < img.shape[0] and 0 <= cc < img.shape[1]:
                total += wr * wc * img[rr, cc]
    return total


def direct_circular_conv(img: np.ndarray, w: np.ndarray, k: int,
                         d: int = 1) -> np.ndarray:
    """Circular convolution by direct fractional sampling: for every output
    pixel, sample the image at each circular point with bilinear
    interpolation and weight by the paired kernel slot."""
    pts = circular_points(k, d).points
    wf = np.asarray(w, dtype=np.float64).reshape(-1)
    m = (k - 1) // 2
    h, width = img.shape
    oh = h - d * (k - 1)
    ow = width - d * (k - 1)
    out = np.zeros((oh, ow))
    for r in range(oh):
        for c in range(ow):
            cr, cc = r + d * m, c + d * m
            acc = 0.0
            for i, p in enumerate(pts):
                acc += wf[i] * bilin_sample_dilated(
                    img, cr - p.y, cc + p.x, cr, cc, d)
            out[r, c] = acc
    return out


def direct_square_conv(img: np.ndarray, w: np.ndarray, k: int,
                       d: int = 1) -> np.ndarray:
    """Plain valid cross-correlation, written naively."""
    wk = np.asarray(w, dtype=np.float64).reshape(k, k)
    m = (k - 1) // 2
    h, width = img.shape
    oh = h - d * (k - 1)
    ow = width - d * (k - 1)
    out = np.zeros((oh, ow))
    for r in range(oh):
        for c in range(ow):
            acc = 0.0
            for kr in range(k):
                for kc in range(k):
                    acc += wk[kr, kc] * img[r + d * kr, c + d * kc]
            out[r, c] = acc
    return out


def direct_bilinear_at(patch: np.ndarray, x: float, y: float) -> float:
    """Bilinear interpolation of a row-major K x K patch at geometry offset
    (x, y) with y up, unit spacing."""
    k = patch.shape[0]
    m = (k - 1) // 2
    col = x + m
    row = m - y
    r0, c0 = math.floor(row), math.floor(col)
    fr, fc = row - r0, col - c0
    total = 0.0
    for dr, wr in ((0, 1.0 - fr), (1, fr)):
        for dc, wc in ((0, 1.0 - fc), (1, fc)):
            rr, cc = r0 + dr, c0 + dc
            if wr and wc and 0 <= rr < k and 0 <= cc < k:
                total += wr * wc * patch[rr, cc]
    return total


def reference_backward(root: Var) -> None:
    """`Var.backward` of a scalar root as it ran before it released each
    node: the same closures in the same order, with every node keeping its
    gradient, parents and closure."""
    order = tape(root)
    root.accumulate(np.ones_like(root.data))
    for node in reversed(order):
        if node.backward_fn is not None and node.grad is not None:
            node.backward_fn(node.grad)


def nan_as_one(a):
    """`a` with every NaN the same +NaN."""
    return np.where(np.isnan(a), np.array(np.nan, a.dtype), a)


def reference_build_transform(geometry: SamplePointSet) -> TransformMatrix:
    """`build_transform` as it ran before it visited only each point's four
    grid neighbours: every point against all K^2 grid points, row-major."""
    k, d = geometry.kernel_size, geometry.dilation
    m = (k - 1) // 2
    grid = [(col - m, m - row) for row in range(k) for col in range(k)]
    rows = []
    for i, p in enumerate(geometry.points):
        rx, ry = p.x / d, p.y / d
        entries = []
        for col, (gx, gy) in enumerate(grid):
            w = bilinear_weight(SamplePoint(float(gx), float(gy)),
                                SamplePoint(rx, ry))
            if w > 0.0:
                entries.append((col, w))
        if abs(sum(v for _, v in entries) - 1.0) > 1e-9:
            raise TransformBuildError(f"point {i} escapes the patch")
        rows.append(tuple(entries))
    return TransformMatrix(k, d, tuple(rows))


# The loops over B's nonzeros that `orbiconv.transform` ran before its one
# product over all of them, kept as the slow reference.


def reference_reparameterize(weights: np.ndarray, b) -> np.ndarray:
    """B^T @ w, one nonzero of B at a time in row-major order."""
    w = np.asarray(weights)
    if w.shape[-1] != b.n:
        raise ValueError(f"expected trailing dim {b.n}, got {w.shape}")
    if b.is_identity():
        return weights
    out = np.zeros_like(w)
    for i, row in enumerate(b.rows):
        for col, val in row:
            out[..., col] += val * w[..., i]
    return out


def reference_resample_patch(patch: np.ndarray, b) -> np.ndarray:
    """B @ patch, one nonzero of B at a time in row-major order."""
    p = np.asarray(patch)
    if p.shape[-1] != b.n:
        raise ValueError(f"expected trailing dim {b.n}, got {p.shape}")
    if b.is_identity():
        return patch
    out = np.zeros_like(p)
    for i, row in enumerate(b.rows):
        for col, val in row:
            out[..., i] += val * p[..., col]
    return out


# The fancy-index im2col and `np.add.at` col2im that `orbiconv.layers` used
# before its strided-window engine, kept as the slow reference (less the
# index cache, which never changed a value).


def _out_size(n: int, k: int, stride: int, pad: int, dil: int) -> int:
    return (n + 2 * pad - dil * (k - 1) - 1) // stride + 1


def _patch_indices(h: int, w: int, k: int, stride: int, pad: int, dil: int):
    oh = _out_size(h, k, stride, pad, dil)
    ow = _out_size(w, k, stride, pad, dil)
    if oh < 1 or ow < 1:
        raise ValueError(f"zero-sized output for input {h}x{w}, K={k}, "
                         f"stride={stride}, pad={pad}, dilation={dil}")
    kr, kc = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    orow, ocol = np.meshgrid(np.arange(oh), np.arange(ow), indexing="ij")
    r_idx = (kr.reshape(-1, 1) * dil + orow.reshape(1, -1) * stride)
    c_idx = (kc.reshape(-1, 1) * dil + ocol.reshape(1, -1) * stride)
    return r_idx, c_idx


def reference_extract_patches(x: np.ndarray, k: int, stride: int, pad: int,
                              dil: int, pad_value: float = 0.0) -> np.ndarray:
    """(N, C, H, W) -> (N, C, K*K, OH*OW) row-major kernel patches."""
    n, c, h, w = x.shape
    if pad > 0:
        xp = np.full((n, c, h + 2 * pad, w + 2 * pad), pad_value, dtype=x.dtype)
        xp[:, :, pad:pad + h, pad:pad + w] = x
    else:
        xp = x
    r_idx, c_idx = _patch_indices(h, w, k, stride, pad, dil)
    return xp[:, :, r_idx, c_idx]


def reference_scatter_patches(g: np.ndarray, in_shape: tuple[int, int, int, int],
                              k: int, stride: int, pad: int,
                              dil: int) -> np.ndarray:
    """Adjoint of extract_patches: scatter-add patch gradients back."""
    n, c, h, w = in_shape
    hp, wp = h + 2 * pad, w + 2 * pad
    r_idx, c_idx = _patch_indices(h, w, k, stride, pad, dil)
    flat = (r_idx * wp + c_idx).ravel()
    gxp = np.zeros((n, c, hp * wp), dtype=g.dtype)
    np.add.at(gxp, (np.arange(n)[:, None, None], np.arange(c)[None, :, None],
                    flat[None, None, :]), g.reshape(n, c, -1))
    gxp = gxp.reshape(n, c, hp, wp)
    if pad > 0:
        gxp = gxp[:, :, pad:pad + h, pad:pad + w]
    return gxp


def circular_kernel(weights: Var, b) -> Var:
    """The kernel Var a conv of `weights` under the transform `b` convolves:
    `weights` itself when `b` is None, else the layers' `reparameterized` op
    on B^T w computed afresh."""
    if b is None:
        return weights
    w = weights.data
    return reparameterized(weights, b,
                           reparameterize(w.reshape(*w.shape[:2], -1), b))


# The einsum/im2col depthwise convolution that `orbiconv.layers.conv2d` ran
# before its tap loop over strided windows, kept as the slow reference. The
# weight transform (B^T w and its adjoint) is the library's own, which the
# transform tests check against dense matrices.


def reference_conv2d(x, weights, *, stride: int = 1, padding: int = 0,
                     dilation: int = 1, transform=None):
    """Depthwise conv of Var `x` (N, C, H, W) with Var `weights`
    (C, 1, K, K) through im2col patches; returns a Var."""
    n, c, h, w = x.data.shape
    k = weights.data.shape[-1]
    kk = k * k
    w_flat = weights.data.reshape(c, 1, kk)
    w_eff = (w_flat if transform is None
             else reparameterize(w_flat, transform)).reshape(c, kk)
    oh = _out_size(h, k, stride, padding, dilation)
    ow = _out_size(w, k, stride, padding, dilation)
    patches = reference_extract_patches(x.data, k, stride, padding, dilation)
    patches = patches.reshape(n, c, kk, -1)
    out = np.einsum("ck,nckl->ncl", w_eff, patches).reshape(n, c, oh, ow)

    def bw(g):
        gl = g.reshape(n, c, -1)
        if weights.requires_grad:
            g_eff = np.einsum("ncl,nckl->ck", gl, patches).reshape(c, 1, kk)
            if transform is not None:
                g_eff = transform_gradient_pushforward(g_eff, transform)
            weights.accumulate(g_eff.reshape(weights.data.shape))
        if x.requires_grad:
            gp = np.einsum("ck,ncl->nckl", w_eff, gl)
            x.accumulate(reference_scatter_patches(gp, x.data.shape, k, stride,
                                                   padding, dilation))

    return Var(out, (x, weights), bw)


# The einsum dense convolution that `orbiconv.layers.conv2d` ran before its
# matmul over a C-order patch matrix, kept as the slow reference.


def reference_dense_conv2d(x, weights, *, stride: int = 1, padding: int = 0,
                           dilation: int = 1, transform=None):
    """Dense conv of Var `x` (N, C, H, W) with Var `weights`
    (Cout, C, K, K) through einsums over im2col patches; returns a Var."""
    n, c, h, w = x.data.shape
    cout, _, k, _ = weights.data.shape
    kk = k * k
    w_flat = weights.data.reshape(cout, c, kk)
    w_eff = (w_flat if transform is None
             else reparameterize(w_flat, transform)).reshape(cout, c * kk)
    oh = _out_size(h, k, stride, padding, dilation)
    ow = _out_size(w, k, stride, padding, dilation)
    patches = reference_extract_patches(x.data, k, stride, padding, dilation)
    patches = patches.reshape(n, c * kk, -1)
    out = np.einsum("of,nfl->nol", w_eff, patches).reshape(n, cout, oh, ow)

    def bw(g):
        gl = g.reshape(n, cout, -1)
        if weights.requires_grad:
            g_eff = np.einsum("nol,nfl->of", gl, patches).reshape(cout, c, kk)
            if transform is not None:
                g_eff = transform_gradient_pushforward(g_eff, transform)
            weights.accumulate(g_eff.reshape(weights.data.shape))
        if x.requires_grad:
            gp = np.einsum("of,nol->nfl", w_eff, gl).reshape(n, c, kk, -1)
            x.accumulate(reference_scatter_patches(gp, x.data.shape, k, stride,
                                                   padding, dilation))

    return Var(out, (x, weights), bw)


# The per-image, per-channel warp that `orbiconv.experiments` ran before its
# batched `warp_images`, kept as the slow reference.


def reference_warp_image(img: np.ndarray, angle: float,
                         mode: WarpMode) -> np.ndarray:
    """Rotate or shear one H x W image about its center: inverse-map
    bilinear resampling with zero fill, y up."""
    h, w = img.shape
    if mode is WarpMode.SHEAR and not abs(angle) < 90:
        raise ValueError("shear angle must satisfy |angle| < 90")
    if angle == 0.0:
        return img.copy()
    cr, cc = (h - 1) / 2.0, (w - 1) / 2.0
    rows, cols = np.mgrid[0:h, 0:w].astype(np.float64)
    x = cols - cc
    y = cr - rows
    rad = math.radians(angle)
    if mode is WarpMode.ROTATE:
        ct, st = math.cos(rad), math.sin(rad)
        xs = ct * x + st * y
        ys = -st * x + ct * y
    else:
        xs = x - math.tan(rad) * y
        ys = y
    src_r = cr - ys
    src_c = xs + cc
    r0 = np.floor(src_r).astype(np.int64)
    c0 = np.floor(src_c).astype(np.int64)
    fr = src_r - r0
    fc = src_c - c0
    out = np.zeros_like(img, dtype=np.float64)
    for dr, dc, wgt in ((0, 0, (1 - fr) * (1 - fc)), (0, 1, (1 - fr) * fc),
                        (1, 0, fr * (1 - fc)), (1, 1, fr * fc)):
        rr = r0 + dr
        cc2 = c0 + dc
        valid = (rr >= 0) & (rr < h) & (cc2 >= 0) & (cc2 < w)
        vals = np.where(valid, img[np.clip(rr, 0, h - 1),
                                   np.clip(cc2, 0, w - 1)], 0.0)
        out += wgt * vals
    return out.astype(img.dtype)


def reference_warp_dataset(ds: Dataset, angle_range: float, mode: WarpMode,
                           rng) -> Dataset:
    """Each image warped by its own `rng.uniform(-a, a)`, drawn one image at
    a time; its channels share the angle."""
    images = np.empty_like(ds.images)
    for i in range(len(ds)):
        angle = rng.uniform(-angle_range, angle_range)
        for c in range(ds.images.shape[1]):
            images[i, c] = reference_warp_image(ds.images[i, c], angle, mode)
    return Dataset(images, ds.labels.copy(), ds.split_tag)


def ring_template(kernel_size: int = 5) -> np.ndarray:
    """Footprint of a uniform outer-ring circular kernel."""
    return _circular_footprint(kernel_size, outer_ring=True)


def square_ring_template(kernel_size: int = 5) -> np.ndarray:
    """Indicator of the outermost Chebyshev shell of the square grid."""
    geo = square_points(kernel_size)
    m = (kernel_size - 1) // 2
    w = np.array([1.0 if r == m else 0.0 for r in geo.rings])
    w = w.reshape(kernel_size, kernel_size)
    return w / w.sum()
