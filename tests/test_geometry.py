import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from orbiconv.geometry import (
    MAX_KERNEL_SIZE,
    Mode,
    SamplePoint,
    check_kernel_size,
    circular_points,
    offsets,
    square_points,
)

S2 = math.sqrt(2) / 2


def test_square_3x3_matches_canonical_grid():
    pts = square_points(3, 1).points
    expected = [(-1, 1), (0, 1), (1, 1), (-1, 0), (0, 0), (1, 0),
                (-1, -1), (0, -1), (1, -1)]
    assert [(p.x, p.y) for p in pts] == [(float(a), float(b)) for a, b in expected]


def test_square_1x1():
    assert square_points(1).points == (SamplePoint(0.0, 0.0),)


def test_square_dilation_scales_offsets():
    base = square_points(3, 1).points
    dil = square_points(3, 2).points
    for p, q in zip(base, dil):
        assert q.x == 2 * p.x and q.y == 2 * p.y


def test_circular_3x3_matches_canonical_set():
    pts = circular_points(3, 1).points
    expected = [(-S2, S2), (0, 1), (S2, S2), (-1, 0), (0, 0), (1, 0),
                (-S2, -S2), (0, -1), (S2, -S2)]
    for p, (x, y) in zip(pts, expected):
        assert p.x == pytest.approx(x, abs=1e-12)
        assert p.y == pytest.approx(y, abs=1e-12)


def test_circular_1x1():
    assert circular_points(1).points == (SamplePoint(0.0, 0.0),)


def test_circular_5x5_ring_structure():
    geo = circular_points(5, 1)
    counts = {k: sum(1 for r in geo.rings if r == k) for k in (0, 1, 2)}
    assert counts == {0: 1, 1: 8, 2: 16}
    assert 1 + 8 + 16 == 25
    for p, ring in zip(geo.points, geo.rings):
        if ring == 2:
            assert math.hypot(p.x, p.y) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("bad", [0, 2, 4, -3])
def test_invalid_kernel_size_rejected(bad):
    with pytest.raises(ValueError):
        square_points(bad)
    with pytest.raises(ValueError):
        circular_points(bad)


def test_kernel_size_bound_is_inclusive():
    check_kernel_size(MAX_KERNEL_SIZE)
    assert len(circular_points(MAX_KERNEL_SIZE).points) == MAX_KERNEL_SIZE**2
    with pytest.raises(ValueError, match=f"kernel_size must be at most "
                                         f"{MAX_KERNEL_SIZE}, got "
                                         f"{MAX_KERNEL_SIZE + 2}"):
        check_kernel_size(MAX_KERNEL_SIZE + 2)


def test_invalid_dilation_rejected():
    with pytest.raises(ValueError):
        square_points(3, 0)


@given(st.integers(min_value=0, max_value=4), st.integers(min_value=1, max_value=3))
def test_point_count_is_k_squared(m, d):
    k = 2 * m + 1
    geo = circular_points(k, d)
    assert len(geo.points) == k * k


@pytest.mark.parametrize("k,d", [(3, 1), (5, 1), (7, 1), (5, 2)])
def test_ring_rotation_symmetry(k, d):
    geo = circular_points(k, d)
    for ring in range(1, (k - 1) // 2 + 1):
        pts = [(p.x, p.y) for p, r in zip(geo.points, geo.rings) if r == ring]
        theta = 2 * math.pi / (8 * ring)
        ct, st_ = math.cos(theta), math.sin(theta)
        rotated = [(ct * x - st_ * y, st_ * x + ct * y) for x, y in pts]
        for rx, ry in rotated:
            assert any(abs(rx - x) < 1e-12 and abs(ry - y) < 1e-12
                       for x, y in pts)


def test_k3_non_center_invariant_under_quarter_pi():
    pts = [(p.x, p.y) for p in circular_points(3).points if (p.x, p.y) != (0, 0)]
    ct, st_ = math.cos(math.pi / 4), math.sin(math.pi / 4)
    for x, y in pts:
        rx, ry = ct * x - st_ * y, st_ * x + ct * y
        assert any(abs(rx - a) < 1e-12 and abs(ry - b) < 1e-12 for a, b in pts)


@pytest.mark.parametrize("k", [3, 5, 7])
def test_ring_centroids_at_origin(k):
    geo = circular_points(k)
    for ring in range(1, (k - 1) // 2 + 1):
        pts = [(p.x, p.y) for p, r in zip(geo.points, geo.rings) if r == ring]
        assert abs(sum(x for x, _ in pts)) < 1e-12
        assert abs(sum(y for _, y in pts)) < 1e-12


@pytest.mark.parametrize("k", [5, 7])
def test_nesting(k):
    inner = {(round(p.x, 12), round(p.y, 12)) for p in circular_points(k - 2).points}
    outer = {(round(p.x, 12), round(p.y, 12))
             for p, r in zip(circular_points(k).points, circular_points(k).rings)
             if r <= (k - 3) // 2}
    assert inner == outer


@pytest.mark.parametrize("k,d", [(3, 1), (5, 1), (7, 1), (7, 2)])
def test_radius_bound(k, d):
    geo = circular_points(k, d)
    max_norm = max(math.hypot(p.x, p.y) for p in geo.points)
    assert max_norm == pytest.approx(d * (k - 1) / 2, abs=1e-12)
    # strictly inside the square's corner radius
    assert max_norm < d * (k - 1) / 2 * math.sqrt(2) or k == 1


def test_offsets_k3_values():
    sq = square_points(3)
    ci = circular_points(3)
    deltas = offsets(sq, ci)
    by_square = {(p.x, p.y): dv for p, dv in zip(sq.points, deltas)}
    # fractional corners move inward
    dx, dy = by_square[(1.0, -1.0)]
    assert dx == pytest.approx(-1 + S2, abs=1e-12)
    assert dy == pytest.approx(1 - S2, abs=1e-12)
    # axis points and center are shared
    for key in [(0.0, 1.0), (0.0, -1.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 0.0)]:
        assert by_square[key] == (0.0, 0.0)


def test_offsets_k1():
    assert offsets(square_points(1), circular_points(1)) == [(0.0, 0.0)]


def test_offsets_size_mismatch():
    with pytest.raises(ValueError):
        offsets(square_points(3), circular_points(5))
    with pytest.raises(ValueError):
        offsets(square_points(3, 1), circular_points(3, 2))


def test_point_bounds_invariant():
    for k in (1, 3, 5, 7):
        geo = circular_points(k)
        lim = (k - 1) / 2 + 1e-12
        for p in geo.points:
            assert abs(p.x) <= lim and abs(p.y) <= lim


def test_modes_tagged():
    assert square_points(3).mode is Mode.SQUARE
    assert circular_points(3).mode is Mode.CIRCULAR
