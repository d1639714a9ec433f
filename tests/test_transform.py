import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    circular_kernel,
    direct_bilinear_at,
    nan_as_one,
    reference_build_transform,
    reference_reparameterize,
    reference_resample_patch,
)
from orbiconv.geometry import (Mode, SamplePoint, SamplePointSet,
                               circular_points, square_points)
from orbiconv.layers import conv2d, extract_patches
from orbiconv.autodiff import Var
from orbiconv.transform import (
    TransformBuildError,
    bilinear_weight,
    build_transform,
    identity_transform,
    reparameterize,
    resample_patch,
    transform_gradient_pushforward,
)

S2 = math.sqrt(2) / 2


def test_bilinear_weight_fractional_corner():
    w = bilinear_weight(SamplePoint(1, 1), SamplePoint(S2, S2))
    assert w == pytest.approx(S2 * S2, abs=1e-12)
    assert w == pytest.approx(0.5, abs=1e-5)


def test_bilinear_weight_grid_coincidence():
    assert bilinear_weight(SamplePoint(0, 1), SamplePoint(0, 1)) == 1.0


def test_bilinear_weight_outside_support():
    assert bilinear_weight(SamplePoint(-1, -1), SamplePoint(0.5, 0.5)) == 0.0


def test_build_transform_k3_corner_row():
    geo = circular_points(3)
    b = build_transform(geo)
    # circular point (sqrt2/2, sqrt2/2) sits at the slot of grid point (1, 1)
    slot = [i for i, p in enumerate(geo.points)
            if abs(p.x - S2) < 1e-9 and abs(p.y - S2) < 1e-9][0]
    grid = {(p.x, p.y): i for i, p in enumerate(square_points(3).points)}
    row = dict(b.rows[slot])
    assert row[grid[(0.0, 0.0)]] == pytest.approx(0.08579, abs=1e-5)
    assert row[grid[(1.0, 0.0)]] == pytest.approx(0.20711, abs=1e-5)
    assert row[grid[(0.0, 1.0)]] == pytest.approx(0.20711, abs=1e-5)
    assert row[grid[(1.0, 1.0)]] == pytest.approx(0.5, abs=1e-5)
    assert sum(row.values()) == pytest.approx(1.0, abs=1e-12)


def test_build_transform_k3_axis_row_is_basis():
    geo = circular_points(3)
    b = build_transform(geo)
    grid = {(p.x, p.y): i for i, p in enumerate(square_points(3).points)}
    slot = grid[(0.0, 1.0)]
    assert b.rows[slot] == ((slot, 1.0),)


def test_build_transform_k1():
    b = build_transform(circular_points(1))
    assert b.dense().tolist() == [[1.0]]


def test_build_transform_rejects_square_geometry():
    with pytest.raises(ValueError):
        build_transform(square_points(3))


@pytest.mark.parametrize("k, d", [(k, d) for k in range(1, 16, 2)
                                  for d in (1, 2, 3, 4)] + [(31, 1), (31, 2)])
def test_build_transform_matches_the_full_grid_scan(k, d):
    """Each row from a point's four grid neighbours equals the row from
    all K^2 grid points: same columns, same order, same coefficient bits."""
    geo = circular_points(k, d)
    assert build_transform(geo).rows == reference_build_transform(geo).rows


def test_build_transform_rejects_an_escaping_support():
    """A point whose neighbours leave the patch loses their weight, so its
    row sums short of 1: both builds reject it."""
    points = list(circular_points(3).points)
    points[5] = SamplePoint(1.5, 0.0)
    geo = SamplePointSet(3, Mode.CIRCULAR, tuple(points))
    for build in (build_transform, reference_build_transform):
        with pytest.raises(TransformBuildError):
            build(geo)


@pytest.mark.parametrize("k", [1, 3, 5, 7])
@pytest.mark.parametrize("d", [1, 2])
def test_row_stochastic_invariants(k, d):
    b = build_transform(circular_points(k, d))
    dense = b.dense()
    assert np.all(dense >= 0.0) and np.all(dense <= 1.0)
    assert np.allclose(dense.sum(axis=1), 1.0, atol=1e-12)
    assert max(len(r) for r in b.rows) <= 4


@pytest.mark.parametrize("k", [3, 5, 7, 9])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_dilation_moves_b_by_rounding_only(k, d):
    """B at dilation d has the nonzeros of B at dilation 1, with the same
    bytes at d = 2 for K <= 5 and within 1e-15 otherwise: a point is
    computed at scale d before the division by d."""
    one, dilated = (build_transform(circular_points(k, e)).dense()
                    for e in (1, d))
    assert np.array_equal(one != 0, dilated != 0)
    assert np.max(np.abs(one - dilated)) <= 1e-15
    if d == 2 and k <= 5:
        assert one.tobytes() == dilated.tobytes()


def test_k3_exactly_five_basis_rows():
    b = build_transform(circular_points(3))
    basis = sum(1 for r in b.rows if len(r) == 1 and r[0][1] == 1.0)
    assert basis == 5


def test_identity_transform():
    b = identity_transform(3)
    assert b.is_identity()
    assert np.array_equal(b.dense(), np.eye(9))


def test_reparameterize_matches_dense_oracle():
    rng = np.random.default_rng(0)
    for k in (3, 5, 7):
        b = build_transform(circular_points(k))
        dense = b.dense()
        w = rng.standard_normal(k * k)
        assert np.allclose(reparameterize(w, b), dense.T @ w, atol=1e-14)


def test_reparameterize_center_basis_unchanged():
    b = build_transform(circular_points(3))
    w = np.zeros(9)
    w[4] = 1.0
    assert np.allclose(reparameterize(w, b), w)


def test_reparameterize_identity_bitwise():
    b = identity_transform(5)
    w = np.random.default_rng(1).standard_normal(25)
    assert reparameterize(w, b) is w


def test_reparameterize_column_sum_identity():
    b = build_transform(circular_points(3))
    dense = b.dense()
    w = np.ones(9)
    out = reparameterize(w, b)
    assert out.sum() == pytest.approx(float(w @ dense.sum(axis=0)), abs=1e-12)


def test_reparameterize_shape_mismatch():
    b = build_transform(circular_points(3))
    with pytest.raises(ValueError):
        reparameterize(np.ones(4), b)


def test_resample_patch_constant_and_impulse():
    b = build_transform(circular_points(3))
    assert np.allclose(resample_patch(np.full(9, 3.25), b), 3.25, atol=1e-12)
    impulse = np.zeros(9)
    impulse[4] = 1.0
    out = resample_patch(impulse, b)
    assert out[4] == 1.0


def test_resample_patch_matches_direct_interpolation():
    rng = np.random.default_rng(2)
    for k in (3, 5):
        geo = circular_points(k)
        b = build_transform(geo)
        patch = rng.standard_normal((k, k))
        out = resample_patch(patch.reshape(-1), b)
        for i, p in enumerate(geo.points):
            assert out[i] == pytest.approx(direct_bilinear_at(patch, p.x, p.y),
                                           abs=1e-12)


def test_resample_linearity():
    rng = np.random.default_rng(3)
    b = build_transform(circular_points(5))
    p, q = rng.standard_normal(25), rng.standard_normal(25)
    lhs = resample_patch(2.5 * p - 1.25 * q, b)
    rhs = 2.5 * resample_patch(p, b) - 1.25 * resample_patch(q, b)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_adjoint_consistency():
    rng = np.random.default_rng(4)
    for k in (3, 5, 7):
        b = build_transform(circular_points(k))
        w = rng.standard_normal(k * k)
        g = rng.standard_normal(k * k)
        lhs = float(reparameterize(w, b) @ g)
        rhs = float(w @ transform_gradient_pushforward(g, b))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_pushforward_identity_and_zero():
    b = identity_transform(3)
    g = np.arange(9.0)
    assert transform_gradient_pushforward(g, b) is g
    bc = build_transform(circular_points(3))
    assert np.allclose(transform_gradient_pushforward(np.zeros(9), bc), 0.0)


def test_pushforward_matches_finite_differences():
    rng = np.random.default_rng(5)
    b = build_transform(circular_points(3))
    w = rng.standard_normal(9)
    target = rng.standard_normal(9)

    def loss(wv):
        return 0.5 * float(np.sum((reparameterize(wv, b) - target) ** 2))

    analytic = transform_gradient_pushforward(reparameterize(w, b) - target, b)
    eps = 1e-6
    for i in range(9):
        wp, wm = w.copy(), w.copy()
        wp[i] += eps
        wm[i] -= eps
        fd = (loss(wp) - loss(wm)) / (2 * eps)
        assert analytic[i] == pytest.approx(fd, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("k", [1, 3, 5, 7])
def test_equivalence_identity_conv(k):
    """Reparameterized conv equals standard conv over B-resampled patches."""
    rng = np.random.default_rng(k)
    b = build_transform(circular_points(k))
    for _ in range(20):
        img = rng.standard_normal((1, 1, 16, 16))
        w = rng.standard_normal((1, 1, k, k))
        out1 = conv2d(Var(img, requires_grad=False),
                      circular_kernel(Var(w, requires_grad=False), b),
                      None).data
        patches = extract_patches(img, k, 1, 0, 1)[0, 0]
        out2 = (w.reshape(-1) @ resample_patch(patches.T, b).T).reshape(out1.shape)
        assert np.abs(out1 - out2).max() < 1e-12


@settings(max_examples=300, deadline=None)
@given(k=st.sampled_from([1, 3, 5, 7, 9]), d=st.integers(1, 3),
       lead=st.sampled_from([(), (3, 1), (4, 2)]),
       dtype=st.sampled_from([np.float32, np.float64]),
       values=st.sampled_from(["finite", "nan", "inf", "all"]),
       seed=st.integers(0, 2**32 - 1))
def test_b_product_matches_reference_bytes(k, d, lead, dtype, values, seed):
    """B^T w and B p give the per-nonzero loops' bytes, over shapes (),
    (C, 1) and (Cout, Cin), with negative values and -0.0 in the input and,
    by `values`, NaN and +inf or +inf and -inf among them: each target adds
    its terms in the loops' order from a +0.0 start. Which NaN a sum of two
    NaNs of opposite sign gives is not fixed (inf + -inf makes a negative
    one; numpy's add loops differ), so with NaN, +inf and -inf all in the
    input every NaN is read as one. Identity transforms return the input
    itself, and integer input raises a ufunc casting error as the loops
    do."""
    b = build_transform(circular_points(k, d))
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal(lead + (k * k,))
         * 10.0 ** rng.integers(-3, 4)).astype(dtype)
    x[..., rng.integers(k * k)] = -0.0
    pool = {"finite": [], "nan": [np.nan, np.inf], "inf": [np.inf, -np.inf],
            "all": [np.nan, np.inf, -np.inf]}[values]
    if pool:
        hit = rng.random(x.shape) < 0.2
        x[hit] = rng.choice(np.array(pool + [-0.0], dtype), hit.sum())
    pairs = ((reparameterize, reference_reparameterize),
             (resample_patch, reference_resample_patch))
    for product, reference in pairs:
        with np.errstate(invalid="ignore"):  # inf + -inf
            got, ref = product(x, b), reference(x, b)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        if values == "all":
            assert nan_as_one(got).tobytes() == nan_as_one(ref).tobytes()
        else:
            assert got.tobytes() == ref.tobytes()
        assert (got is x) == (ref is x) == b.is_identity()
        ints = np.arange(k * k)
        if b.is_identity():
            assert product(ints, b) is ints
            continue
        for fn in (product, reference):
            with pytest.raises(TypeError, match="Cannot cast ufunc"):
                fn(ints, b)
