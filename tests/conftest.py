"""Shared independent oracles for the test suite.

These deliberately avoid the library's production code paths: interpolation
is done point by point on the image lattice, and matrix products use dense
numpy arrays.
"""

from __future__ import annotations

import math

import numpy as np

from orbiconv.geometry import circular_points


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
