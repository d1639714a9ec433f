"""The fixed sparse transformation matrix mapping square-grid samples to
circular samples.

For a circular sample r and a grid sample s, the coupling coefficient is the
separable bilinear hat product g(s_x, r_x) * g(s_y, r_y) with
g(a, b) = max(0, 1 - |a - b|). Arranging these per-point weights row by row
over the whole receptive field yields a K^2 x K^2 matrix B: row i holds the
interpolation weights of circular point i against all K^2 grid points.

B is row-stochastic with at most 4 nonzeros per row, and rows whose circular
point falls exactly on a grid point are standard-basis rows. For dilation d
the hat functions act on coordinates divided by d (interpolation between the
d-spaced grid samples), which makes B independent of the dilation.

Resampling a patch (B @ patch) and re-parameterizing weights (B^T @ w, the
effective kernel of an equivalent standard convolution) are one product:
each output slot (target) sums its terms from +0.0 in B's row-major nonzero
order, which fixes its bytes but for one case: where NaNs of both signs
meet in one target's sum (+NaN with inf - inf, say), which NaN comes out
is not fixed, because numpy's add loops differ. The product runs rank-major
(`TransformMatrix.plans`): with the targets sorted by term count, most
first, the r-th terms of all targets that have one are one slice add onto
the first targets, one contiguous run with the leading axes innermost. So
each target still adds its own terms one by one in that order, and no
padding term exists that could make a 0 * inf.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .geometry import Mode, SamplePoint, SamplePointSet, circular_points


class TransformBuildError(ValueError):
    """Raised when a sample point's bilinear support escapes the K x K patch."""


class ProductPlan(NamedTuple):
    """B's terms for one direction of `_b_product`, rank-major: term t is
    coeff[t] * x[source[t]]; for each rank's (offset, m) in `spans`, terms
    offset..offset+m-1 add onto the first m sorted targets; target j is
    sorted slot order[j]."""
    source: np.ndarray
    coeff: np.ndarray
    spans: tuple[tuple[int, int], ...]
    order: np.ndarray


def _rank_major(target: np.ndarray, source: np.ndarray, coeff: np.ndarray,
                n: int) -> ProductPlan:
    """The plan of the terms coeff[t] * x[source[t]] onto `target[t]`,
    given in the order each target adds them."""
    terms = [[] for _ in range(n)]
    for t, j in enumerate(target):
        terms[j].append(t)
    by_count = sorted(range(n), key=lambda j: -len(terms[j]))  # stable
    picks, spans = [], []
    for r in range(len(terms[by_count[0]])):
        rank = [terms[j][r] for j in by_count if len(terms[j]) > r]
        spans.append((len(picks), len(rank)))
        picks += rank
    arrays = source[picks], coeff[picks], np.argsort(by_count)
    for a in arrays:
        a.flags.writeable = False
    return ProductPlan(arrays[0], arrays[1], tuple(spans), arrays[2])


@dataclass(frozen=True)
class TransformMatrix:
    kernel_size: int
    dilation: int
    # rows[i] is a tuple of (column, coefficient) pairs, at most 4 per row
    rows: tuple[tuple[tuple[int, float], ...], ...]

    @property
    def n(self) -> int:
        return self.kernel_size**2

    @cached_property
    def nonzeros(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """B's nonzeros as row-major (row, col, coeff) arrays, read-only,
        since one TransformMatrix may serve many layers."""
        arrays = tuple(np.array(a) for a in zip(
            *((i, c, v) for i, row in enumerate(self.rows) for c, v in row)))
        for a in arrays:
            a.flags.writeable = False
        return arrays

    @cached_property
    def plans(self) -> tuple[ProductPlan, ProductPlan]:
        """The rank-major plans of B @ x and of B^T @ x, in that order, with
        read-only arrays like `nonzeros`."""
        row, col, coeff = self.nonzeros
        return (_rank_major(row, col, coeff, self.n),
                _rank_major(col, row, coeff, self.n))

    def dense(self, dtype=np.float64) -> np.ndarray:
        out = np.zeros((self.n, self.n), dtype=dtype)
        out[self.nonzeros[:2]] = self.nonzeros[2]
        return out

    def is_identity(self) -> bool:
        return all(row == ((i, 1.0),) for i, row in enumerate(self.rows))


def bilinear_weight(s: SamplePoint, r: SamplePoint) -> float:
    """Separable bilinear interpolation weight of grid point s for sample r."""
    gx = max(0.0, 1.0 - abs(s.x - r.x))
    gy = max(0.0, 1.0 - abs(s.y - r.y))
    return gx * gy


def identity_transform(kernel_size: int, dilation: int = 1) -> TransformMatrix:
    """The identity matrix, the transform a square kernel would have."""
    rows = tuple(((i, 1.0),) for i in range(kernel_size**2))
    return TransformMatrix(kernel_size, dilation, rows)


def build_transform(geometry: SamplePointSet) -> TransformMatrix:
    """Assemble B from a circular sample point set.

    Raises TransformBuildError if any point's 4-neighbor support is not
    contained in the K x K patch.
    """
    if geometry.mode is not Mode.CIRCULAR:
        raise ValueError("build_transform expects a circular SamplePointSet")
    k = geometry.kernel_size
    d = geometry.dilation
    m = (k - 1) // 2
    # grid coordinates normalized by the dilation, so spacing is 1
    grid = [(col - m, m - row) for row in range(k) for col in range(k)]
    rows = []
    for i, p in enumerate(geometry.points):
        rx, ry = p.x / d, p.y / d
        entries = []
        for col, (gx, gy) in enumerate(grid):
            w = bilinear_weight(SamplePoint(float(gx), float(gy)), SamplePoint(rx, ry))
            if w > 0.0:
                entries.append((col, w))
        total = sum(v for _, v in entries)
        if abs(total - 1.0) > 1e-9:
            raise TransformBuildError(
                f"bilinear support of point {i} ({p.x:.6f},{p.y:.6f}) escapes "
                f"the {k}x{k} patch (weights sum to {total:.6f})"
            )
        rows.append(tuple(entries))
    return TransformMatrix(k, d, tuple(rows))


@cache
def circular_transform(k: int, d: int = 1) -> TransformMatrix:
    """B of a circular KxK kernel at dilation d, built once and shared by
    every user of that extent, since a TransformMatrix is immutable."""
    return build_transform(circular_points(k, d))


def _b_product(x: np.ndarray, b: TransformMatrix, adjoint: bool) -> np.ndarray:
    """B @ x, or B^T @ x if `adjoint`, over the trailing axis of `x`: the
    terms in one gather and one product, each rank's terms in one slice add
    onto a zero start, and one gather back to the natural target order,
    on (term, lead) arrays, so each rank's add is one contiguous run."""
    a = np.asarray(x)
    if a.shape[-1] != b.n:
        raise ValueError(f"expected trailing dim {b.n}, got {a.shape}")
    if b.is_identity():
        return x
    plan = b.plans[adjoint]
    columns = a.reshape(-1, b.n).T
    terms = np.multiply(plan.coeff[:, None],
                        columns.take(plan.source, axis=0), dtype=a.dtype)
    out = np.zeros(columns.shape, a.dtype)
    for offset, m in plan.spans:
        out[:m] += terms[offset:offset + m]
    return out.T.take(plan.order, axis=-1).reshape(a.shape)


def reparameterize(weights: np.ndarray, b: TransformMatrix) -> np.ndarray:
    """Effective kernel B^T @ w over a trailing K^2 axis; in a standard
    convolution it reproduces the circular convolution exactly. Identity
    transforms return `weights` itself."""
    return _b_product(weights, b, adjoint=True)


def resample_patch(patch: np.ndarray, b: TransformMatrix) -> np.ndarray:
    """B @ patch: bilinear resampling of a row-major K x K patch at the
    circular sample points."""
    return _b_product(patch, b, adjoint=False)


# adjoint of reparameterize: B @ grad maps effective to raw-weight gradients
transform_gradient_pushforward = resample_patch
